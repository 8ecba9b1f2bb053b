"""Tracing the benchmark owns: spans around calls into public
functions, an interval-timer sampler that charges host time to the
layer of the innermost ``src/repro`` frame, and exact per-layer call
counts from a separate ``cProfile`` pass.

Everything here observes the program from outside; nothing under
``src/`` is edited or monkey-patched.  cProfile is used for *counts*
only: on ``par_mem_chip1024`` it inflates ``sim.tcu``'s share of host
time from 32 % to 55 %, so time comes from the sampler.
"""

from __future__ import annotations

import cProfile
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

from spec import SRC_DIR

_PKG_DIR = os.path.join(SRC_DIR, "repro") + os.sep

#: module path under ``src/repro`` (no ``.py``), or package path with a
#: trailing slash, -> layer.  A module's own entry wins over its
#: package's; anything else in ``repro``, and every sample outside it
#: (stdlib, GC, the benchmark's own loop), is ``sim.other``.
_LAYER_OF = {
    "sim/engine": "sim.engine",
    "sim/tcu": "sim.tcu",
    "sim/mtcu": "sim.mtcu",
    "sim/cluster": "sim.cluster",
    "sim/icn": "sim.icn",
    "sim/cache": "sim.cache",
    "sim/dram": "sim.dram",
    "sim/machine": "sim.machine",
    "sim/fabric/": "sim.fabric",
    "sim/functional": "sim.functional",
    "sim/observability/": "sim.observability",
    "isa/semantics": "isa.semantics",
    "isa/decode": "isa.decode",
    "isa/assembler": "isa.assembler",
    "xmtc/lexer": "xmtc.parser",
    "xmtc/parser": "xmtc.parser",
    "xmtc/outline": "xmtc.outline",
    "xmtc/semantic": "xmtc.semantic",
    "xmtc/lowering": "xmtc.lowering",
    "xmtc/optimizer/": "xmtc.optimizer",
    "xmtc/regalloc": "xmtc.codegen",
    "xmtc/codegen": "xmtc.codegen",
    "xmtc/postpass": "xmtc.postpass",
}
OTHER = "sim.other"


def layer_of(filename: str):
    """Layer of a source file, or ``None`` outside ``src/repro``."""
    if not filename.startswith(_PKG_DIR):
        return None
    module = filename[len(_PKG_DIR):-3].replace(os.sep, "/")
    package = module.rsplit("/", 1)[0] + "/"
    return _LAYER_OF.get(module) or _LAYER_OF.get(package) or OTHER


class Tracer:
    """Spans held in memory: ``(name, start, end, parent index)``.

    A disabled tracer hands out no-op contexts, so the untraced run
    executes no span code beyond one attribute test per site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_seconds(self, since: int = 0):
        """name -> total self time over the spans recorded from index
        ``since`` on: each span's duration minus the part its child
        spans cover."""
        child = Counter()
        for _, start, end, parent in self.spans[since:]:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()
        for index, (name, start, end, _) in enumerate(self.spans[since:],
                                                      since):
            total[name] += (end - start) - child[index]
        return dict(total)


class Sampler:
    """``setitimer`` statistical profiler.

    Each tick charges the time since the previous tick to the layer of
    the innermost frame under ``src/repro`` (so a ``dict`` lookup made
    by ``sim/tcu.py`` counts for ``sim.tcu``), or to ``sim.other`` when
    the stack has no such frame.  Charging elapsed time rather than
    counting ticks keeps the total honest when ticks coalesce: Python
    runs the handler between bytecodes, so a cyclic-GC pass over a
    1024-TCU machine swallows a dozen ticks and delivers one.

    The timer is ``ITIMER_REAL``/``SIGALRM``, not ``ITIMER_PROF``: the
    profiling timer only fires on scheduler ticks (every 4 ms on the
    sandbox kernel, whatever interval is asked for), the real-time one
    is exact, and this closed loop has one thread that never sleeps, so
    wall and CPU time coincide.
    """

    def __init__(self, interval_s: float = 0.002):
        self.interval_s = interval_s
        self.seconds = Counter()
        self._layer_cache = {}
        self._last = 0.0

    def _on_tick(self, signum, frame) -> None:
        now = time.perf_counter()
        elapsed, self._last = now - self._last, now
        cache = self._layer_cache
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = cache.get(filename, 0)
            if layer == 0:
                layer = cache[filename] = layer_of(filename)
            if layer is not None:
                self.seconds[layer] += elapsed
                return
            frame = frame.f_back
        self.seconds[OTHER] += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def count_calls(fn):
    """Run ``fn()`` under cProfile; return (result, layer -> number of
    calls of Python functions defined in that layer).  Exact, so it
    must repeat from round to round."""
    profile = cProfile.Profile()
    result = profile.runcall(fn)
    calls = Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):       # a builtin: belongs to no layer
            continue
        layer = layer_of(code.co_filename)
        if layer is not None:
            calls[layer] += entry.callcount
    return result, dict(calls)
