"""In-memory span tracer that times library calls from outside the library.

Spans are timed in CPU seconds of the process, like the end-to-end metrics.

A wrapper is installed by attribute name: the original function object is
looked up in its defining module, and every module of the package that
binds that same object (``from .solver import fit`` copies the binding) gets
the wrapper in its place.  Functions imported at call time (``fit`` imports
``select_rank`` and ``prox_step`` inside its body) pick the wrapper up from
the defining module.  A name that no longer exists is recorded as absent
instead of failing, so the untraced benchmark keeps working after a
refactor removes it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from collections import Counter, defaultdict

# span record layout: [name, start, end, parent index or -1]
NAME, START, END, PARENT = range(4)


def covered_time(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [rec[END] - rec[START]
            - covered_time(children.get(i, ()), rec[START], rec[END])
            for i, rec in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive time and self time."""
    out: dict[str, dict[str, float]] = {}
    for rec, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += rec[END] - rec[START]
        row["self_s"] += self_s
    return out


class Tracer:
    """Records one span per wrapped call, plus counters and warnings."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.warning_counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._warn_ctx = None
        self._warn_log = None

    def _wrap(self, fn, name, on_result):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result
        return wrapper

    def install(self, module: str, attr: str, name, on_result=None) -> None:
        """Wrap ``<package>.<module>.<attr>`` wherever the package binds it.

        ``name`` is the span name, or a callable (args, kwargs) -> name.
        ``on_result(counts, args, kwargs, result)`` may add counters.
        """
        qualified = f"{self.package}.{module}"
        try:
            home = importlib.import_module(qualified)
        except ImportError:
            self.absent.append(f"{module}.{attr}")
            return
        original = getattr(home, attr, None)
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = self._wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def __enter__(self):
        self._warn_ctx = warnings.catch_warnings(record=True)
        self._warn_log = self._warn_ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()
        for item in self._warn_log:
            self.warning_counts[item.category.__name__] += 1
        self._warn_ctx.__exit__(*exc)
        return False
