"""Span tracing around the public functions of the dereverb modules.

The tracer wraps each public function of the traced modules and puts the
wrapper into every ``dereverb`` module namespace that binds the original
(``cli`` imports ``analyze`` by name, ``convpred.fcp`` reaches
``solve_wls`` through its module globals, the package re-exports both).
Spans nest: a span's self time is its duration minus its children's.
Spans are recorded for the thread that entered the tracer only, so a
neighbour thread that never calls the program cannot break the nesting.
"""

import functools
import inspect
import sys
import threading
import time


class Span:
    """One call of a traced function; ``parent`` is the enclosing span."""

    __slots__ = ("name", "parent", "start", "end", "thread_cpu", "proc_cpu",
                 "counters")

    def __init__(self, name, parent, counters):
        self.name = name
        self.parent = parent
        self.counters = counters

    @property
    def duration(self):
        return self.end - self.start


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Context manager that records spans while it is entered.

    Args:
        modules: modules whose public functions get a span each; the span
            name is '<module short name>.<function>'.
        counters: span name -> callable(*args, **kwargs) returning a dict of
            numbers to add up per span name (e.g. operation counts computed
            from argument shapes).
        foreign_cpu: callable returning CPU seconds spent by threads that
            are not the program's (a neighbour), subtracted from process
            CPU time.

    The tracer may be entered several times; ``wall_s`` adds up the time
    spent inside it and ``spans`` keeps every span in call order.
    """

    def __init__(self, modules, counters=None, foreign_cpu=None):
        self.modules = list(modules)
        self.counters = counters or {}
        self.foreign_cpu = foreign_cpu or (lambda: 0.0)
        self.spans = []
        self.wall_s = 0.0
        self._stack = []
        self._patched = []
        self._entered = None
        self._owner = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = self.counters.get(name)
        foreign = self.foreign_cpu
        owner = self._owner

        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None,
                        counter(*args, **kwargs) if counter else None)
            spans.append(span)
            stack.append(span)
            span.thread_cpu = time.thread_time()
            span.proc_cpu = time.process_time() - foreign()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.proc_cpu = time.process_time() - foreign() - span.proc_cpu
                span.thread_cpu = time.thread_time() - span.thread_cpu
                stack.pop()

        return functools.wraps(fn)(traced)

    def __enter__(self):
        self._owner = threading.get_ident()
        wrappers = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        root = self.modules[0].__name__.split(".")[0]
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == root or n.startswith(root + ".")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))
        self._entered = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s += time.perf_counter() - self._entered
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        return False

    def self_times(self):
        """Self time of each span, in the order of ``spans``."""
        child = {id(s): 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.duration
        return [s.duration - child[id(s)] for s in self.spans]

    def summary(self):
        """Per span name: calls, self_s, cpu_s, wait_s and the summed
        counters; plus the traced wall time that no root span covers.

        cpu_s is process CPU time (less the foreign threads') over the whole
        span; wait_s is the span's duration less its thread's CPU time."""
        out = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                          "cpu_s": 0.0, "wait_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["cpu_s"] += s.proc_cpu
            row["wait_s"] += s.duration - s.thread_cpu
            for key, value in (s.counters or {}).items():
                row[key] = row.get(key, 0) + value
        roots = sum(s.duration for s in self.spans if s.parent is None)
        return out, self.wall_s - roots
