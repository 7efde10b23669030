"""In-memory span recorder that times calls into gpdiag's layers from outside.

The program is not edited: `Recorder.installed` rebinds every module-level name
under which a listed function is reachable in the loaded `gpdiag` modules
(modules that `from x import f` hold their own binding of `f`) to a wrapper
that opens a span around the call.  Spans stay in memory as
[name, parent index, request id, start ns, end ns] until the caller writes
them out.  A layer's self time is its span duration minus the time covered by
its child spans; calls are single-threaded, so children never overlap.

`numpy.linalg.svd`, `numpy.linalg.eigh` and `numpy.linalg.eigvalsh` (the
steady-state positivity check) get counting wrappers (calls and
matrices, a stacked (..., M, N) input counting prod(...) matrices) so that a
batched kernel shows as fewer calls over the same matrices.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import sys
import time
from collections import Counter

import numpy as np

LAPACK = ("svd", "eigh", "eigvalsh")


class Recorder:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.request = 0
        self.lapack = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, on_return=None):
        """Timing wrapper around `fn`; `on_return(args, result)` runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], self.request, clock(), 0]
            # append before push: a signal handler that opens a span in between
            # must not take this span's index
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _count(self, kind, fn):
        lapack = self.lapack

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            lapack[f"{kind}_calls"] += 1
            lapack[f"{kind}_matrices"] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, targets, count_lapack=True):
        """Rebind each "module.function" in `targets` (a dict name -> on_return hook or None).

        Every binding in every loaded gpdiag module that is the original
        function object is replaced; all of them are restored on exit.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gpdiag" or name.startswith("gpdiag."))]
        undo = []
        try:
            for qualname, hook in targets.items():
                module_name, fn_name = qualname.split(".")
                original = getattr(sys.modules[f"gpdiag.{module_name}"], fn_name)
                wrapper = self.wrap(qualname, original, hook)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
            if count_lapack:
                for kind in LAPACK:
                    original = getattr(np.linalg, kind)
                    setattr(np.linalg, kind, self._count(kind, original))
                    undo.append((np.linalg, kind, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def write(self, path):
        """Write the spans as CSV: index, parent, request, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(["index", "parent", "request", "name", "start_ns", "end_ns"])
            for index, (name, parent, request, start, end) in enumerate(self.spans):
                out.writerow([index, parent, request, name, start, end])


def self_times(spans):
    """Per span name: (calls, self time in ns), self = duration minus direct children's durations."""
    covered = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, own = Counter(), Counter()
    for index, (name, _, _, start, end) in enumerate(spans):
        calls[name] += 1
        own[name] += end - start - covered[index]
    return {name: (calls[name], own[name]) for name in calls}
