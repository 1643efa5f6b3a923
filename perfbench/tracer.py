"""Out-of-library tracing for the vexint benchmark.

The tracer wraps public functions of the `vexint` modules from outside:
every module attribute that is the target function object is replaced, so
names imported with `from .x import f` are covered as well.  Each wrapper
records a span on a per-thread stack; a span's self time is its duration
minus the time of the spans it directly caused in the same thread.

Spans of "dispatch" functions (thread pools) also collect the busy time of
the work they hand out: the thread CPU time of any span that starts at the
root of another thread while a dispatch is active, or directly under the
dispatch frame in the calling thread, is credited to it.  CPU time, not
wall time, so that threads waiting for the GIL do not count as busy.

A memory tracer wraps only the MEMORY_LAYERS and takes tracemalloc peaks
at the outermost span of each layer in a thread; the peak of a layer is
the largest rise of traced memory above the value at span entry.
tracemalloc slows allocation-heavy code several times over, so memory is
measured in a repetition of its own and the timing spans run without it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import tracemalloc
from time import perf_counter, thread_time

import numpy

MEMORY_LAYERS = ("seqspaces", "calderon", "lebesgue", "exponents", "lpf")
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                 "rfft", "irfft", "rfftn", "irfftn")


class _ThreadState:
    __slots__ = ("stack", "stats", "counters", "open_layers")

    def __init__(self):
        self.stack = []        # frames: [child_seconds, dispatch_record | None]
        self.stats = {}        # span name -> [calls, self_s, total_s]
        self.counters = {}     # counter name -> number
        self.open_layers = {}  # layer -> depth of open spans in this thread


class _Dispatch:
    __slots__ = ("name", "thread")

    def __init__(self, name, thread):
        self.name = name
        self.thread = thread


class _MemFrame:
    __slots__ = ("base", "high")

    def __init__(self, base):
        self.base = base
        self.high = base


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._dispatches = []
        self._mem_open = []
        self.mem_peak = {}
        self.missing = set()
        self.installed = set()

    # -- state -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def count(self, name: str, amount) -> None:
        c = self._state().counters
        c[name] = c.get(name, 0) + amount

    # -- memory ----------------------------------------------------------

    def _fold_peak(self) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        for f in self._mem_open:
            if peak > f.high:
                f.high = peak
        tracemalloc.reset_peak()
        return cur

    def _mem_enter(self) -> _MemFrame:
        with self._lock:
            rec = _MemFrame(self._fold_peak())
            self._mem_open.append(rec)
        return rec

    def _mem_exit(self, rec: _MemFrame, layer: str) -> None:
        with self._lock:
            self._fold_peak()
            self._mem_open.remove(rec)
            rise = rec.high - rec.base
            if rise > self.mem_peak.get(layer, 0):
                self.mem_peak[layer] = rise

    # -- spans -----------------------------------------------------------

    def _credit_target(self, parent):
        """The dispatch a span starting under `parent` works for, if any."""
        if parent is not None:
            return parent[1]
        if not self._dispatches:
            return None
        me = threading.get_ident()
        with self._lock:
            return next((d for d in reversed(self._dispatches) if d.thread != me), None)

    def span(self, name: str, fn, *, after=None, before=None, name_of=None,
             dispatch: bool = False):
        """Wrap `fn` in a span.

        before(args, kwargs) -> token; after(tracer, args, kwargs, result,
        token) records counters; name_of(result) -> span name picks the
        stat bucket from the result.
        """
        tracer = self
        layer = name.split(".", 1)[0]
        track_memory = self.memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0.0, None]
            credit = tracer._credit_target(parent)
            cpu0 = thread_time() if credit is not None else 0.0
            if dispatch:
                frame[1] = _Dispatch(name, threading.get_ident())
                with tracer._lock:
                    tracer._dispatches.append(frame[1])
            stack.append(frame)
            mem = None
            if track_memory:
                depth = st.open_layers.get(layer, 0)
                st.open_layers[layer] = depth + 1
                if depth == 0:
                    mem = tracer._mem_enter()
            token = before(args, kwargs) if before is not None else None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                bucket = name if name_of is None or result is None else name_of(result)
                rec = st.stats.get(bucket)
                if rec is None:
                    rec = st.stats[bucket] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[0]
                rec[2] += dt
                if track_memory:
                    st.open_layers[layer] -= 1
                    if mem is not None:
                        tracer._mem_exit(mem, layer)
                if dispatch:
                    with tracer._lock:
                        tracer._dispatches.remove(frame[1])
                if credit is not None:
                    tracer.count(credit.name + ".busy", thread_time() - cpu0)
                if after is not None and result is not None:
                    after(tracer, args, kwargs, result, token)

        return wrapper

    # -- installation ----------------------------------------------------

    def _skip(self, name: str) -> bool:
        return self.memory and name.split(".", 1)[0] not in MEMORY_LAYERS

    def _module(self, module_name: str, name: str):
        try:
            return importlib.import_module(f"vexint.{module_name}")
        except ImportError:
            self.missing.add(name)
            return None

    def install(self, module_name: str, attr: str, name: str, prepare=None,
                **opts) -> None:
        """Wrap vexint.<module_name>.<attr> everywhere it is bound.

        `prepare(target)` may substitute the callable that the span wraps.
        A module or attribute that does not exist marks the span missing;
        metrics derived only from missing spans are reported as absent.
        """
        if self._skip(name):
            return
        target = getattr(self._module(module_name, name), attr, None)
        if target is None:
            self.missing.add(name)
            return
        wrapped = self.span(name, target if prepare is None else prepare(target), **opts)
        for mod in [m for key, m in list(sys.modules.items())
                    if m is not None and (key == "vexint" or key.startswith("vexint."))]:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapped)
        self.installed.add(name)

    def install_method(self, module_name: str, cls_name: str, attr: str,
                       name: str, **opts) -> None:
        if self._skip(name):
            return
        cls = getattr(self._module(module_name, name), cls_name, None)
        target = None if cls is None else cls.__dict__.get(attr)
        if target is None:
            self.missing.add(name)
            return
        setattr(cls, attr, self.span(name, target, **opts))
        self.installed.add(name)

    def install_fft_counter(self, module_name: str, name: str) -> None:
        """Count FFT calls and transformed points made by one module's `np`."""
        if self._skip(name):
            return
        module = self._module(module_name, name)
        if getattr(module, "np", None) is not numpy:
            self.missing.add(name)
            return
        module.np = _NumpyProxy(numpy, _CountingFFT(numpy.fft, self, name))
        self.installed.add(name)

    # -- results ---------------------------------------------------------

    def merged(self) -> tuple[dict, dict]:
        stats: dict = {}
        counters: dict = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (calls, self_s, total_s) in st.stats.items():
                rec = stats.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += self_s
                rec[2] += total_s
            for key, value in st.counters.items():
                counters[key] = counters.get(key, 0) + value
        return stats, counters


class _CountingFFT:
    def __init__(self, fft_module, tracer: Tracer, name: str):
        self._fft = fft_module
        self._cache = {}
        for fname in FFT_FUNCTIONS:
            fn = getattr(fft_module, fname, None)
            if fn is not None:
                self._cache[fname] = self._counted(fn, tracer, name)

    @staticmethod
    def _counted(fn, tracer, name):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            tracer.count(name, 1)
            tracer.count(name + "_points", getattr(a, "size", 1))
            return fn(a, *args, **kwargs)
        return wrapper

    def __getattr__(self, attr):
        fn = self._cache.get(attr)
        return fn if fn is not None else getattr(self._fft, attr)


class _NumpyProxy:
    def __init__(self, numpy_module, fft):
        self._np = numpy_module
        self.fft = fft

    def __getattr__(self, attr):
        return getattr(self._np, attr)
