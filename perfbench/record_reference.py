"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every member of the regularity-2d and cli-2d input families once and
writes perfbench/reference.json.  The file pins the outputs of the commit
that recorded it: regularity values must match bit for bit, CLI norm
values within worker.REL_TOL relative.
"""

from __future__ import annotations

import json
import shutil
import sys

import worker


def main() -> int:
    vexint = worker._import_vexint()
    scratch = worker.ROOT / ".perfbench_tmp" / "record"
    ref: dict = {"regularity-2d": {}, "cli-2d": {}}
    try:
        for name, cls in (("regularity-2d", worker.Regularity2D), ("cli-2d", worker.Cli2D)):
            for variant in range(worker.VARIANTS):
                workdir = scratch / f"{name}-{variant}"
                workdir.mkdir(parents=True, exist_ok=True)
                w = cls(vexint, variant, workdir)
                outcome = w.run()
                if name == "cli-2d" and any(code != 0 for code in outcome.values()):
                    raise SystemExit(f"{name} variant {variant}: {outcome}")
                ref[name][str(variant)] = w.values(outcome)
                print(name, variant, "recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (worker.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
