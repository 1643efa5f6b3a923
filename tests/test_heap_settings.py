"""The CLI's glibc heap settings: set by `cli.main`, never by an import.

A churn loop of `np.fft.ifft2` on a 256x256 complex array frees and
reallocates 1 MB arrays; with glibc's defaults each call faults its pages
in again (about 480 minor faults a call).  Each measurement runs in a
fresh interpreter, because this test process has called `cli.main`
already.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from vexint import cli

SRC = Path(__file__).resolve().parents[1] / "src"
CALLS = 100

_PRELUDE = f"""
import ctypes, json, resource, threading
import numpy as np
x = np.random.default_rng(0).standard_normal((256, 256)) + 0j

def churn():
    for _ in range(5):
        np.fft.ifft2(x)
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range({CALLS}):
        np.fft.ifft2(x)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start

def live_16_mb():
    for _ in range(3):
        arrays = [np.ones(1 << 17) for _ in range(16)]
        del arrays

def resident_mb():
    # current, not peak: ru_maxrss keeps the peak of the process that forked the child
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2 ** 20

def thread_growth_mb():
    # resident memory a finished thread leaves after the main thread freed 16 MB
    live_16_mb()
    start = resident_mb()
    worker = threading.Thread(target=live_16_mb)
    worker.start()
    worker.join()
    return resident_mb() - start
"""

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the heap settings are glibc mallopt calls")


def _child(body: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the child starts from glibc's defaults
    env = {k: v for k, v in env.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    out = subprocess.run([sys.executable, "-c", _PRELUDE + body], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@glibc_only
def test_import_leaves_the_allocator_alone_and_main_keeps_the_heap():
    [bare] = _child("print(json.dumps([churn()]))")
    imported, kept = _child("import contextlib, io, vexint, vexint.cli\n"
                            "before = churn()\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            "    vexint.cli.main(['describe-schema'])\n"
                            "print(json.dumps([before, churn()]))")
    # glibc's default rate, with and without the import
    assert bare >= 100 * CALLS
    assert imported >= bare // 2
    assert kept < imported // 100


@glibc_only
def test_a_new_thread_reuses_the_memory_the_main_thread_freed():
    # with the two thresholds alone a new thread gets an arena of its own,
    # which keeps its 16 MB resident beside the main arena's
    [own_arena] = _child("libc = ctypes.CDLL(None)\n"
                         "libc.mallopt(-3, 32 << 20)\n"
                         "libc.mallopt(-1, 64 << 20)\n"
                         "print(json.dumps([thread_growth_mb()]))")
    [one_arena] = _child("import vexint.cli\n"
                         "vexint.cli._keep_heap_resident()\n"
                         "print(json.dumps([thread_growth_mb()]))")
    assert own_arena >= 12.0
    assert one_arena < 4.0


def test_main_without_glibc_sets_nothing(monkeypatch, capsys):
    def no_libc(*args, **kwargs):
        raise AssertionError("mallopt reached without glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("", ""))
    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert cli.main(["describe-schema"]) == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out) == cli.CONFIG_SCHEMA
