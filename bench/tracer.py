"""Per-layer spans recorded from outside the package.

A :class:`Tracer` replaces module attributes of ``slpsim`` with timing
wrappers and restores them on exit. Each wrapper opens a span for one layer;
a layer's self time is its spans' duration minus the time of the spans they
contain. Spans are aggregated in memory as they close, so nothing is written
while a traced run is being timed.

An optional ``check`` hook runs after a span has closed, with the call's
arguments and result. Its time is charged to no layer and is reported as
``excluded_s``, so verification done there stays out of the timings.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)   # layer -> self time
        self.calls = Counter()             # layer -> wrapped calls
        self.fn_calls = Counter()          # function name -> wrapped calls
        self.durations = defaultdict(list)  # function name -> span durations (s)
        self.excluded_s = 0.0
        self._child = []                   # open spans' accumulated child time
        self._patches = []

    def call(self, layer, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        return self._wrap(layer, fn)(*args, **kwargs)

    def patch(self, module, name, layer, check=None):
        """Replace ``module.name`` by a span of ``layer`` around the original."""
        original = getattr(module, name)
        self._patches.append((module, name, original))
        setattr(module, name, self._wrap(layer, original, check))

    def count_pools(self, module):
        """Count the process pools ``module`` starts and the wall time they are open."""
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.fn_calls["pool"] += 1
                self._opened = time.perf_counter()
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer.durations["pool"].append(time.perf_counter() - self._opened)

        self._patches.append((module, "ProcessPoolExecutor", module.ProcessPoolExecutor))
        module.ProcessPoolExecutor = CountingPool

    def restore(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, layer, fn, check=None):
        name = fn.__name__
        child = self._child

        def span(*args, **kwargs):
            child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - child.pop()
                self.calls[layer] += 1
                self.fn_calls[name] += 1
                self.durations[name].append(elapsed)
            if check is not None:
                start = time.perf_counter()
                check(args, kwargs, result)
                checked = time.perf_counter() - start
                elapsed += checked
                self.excluded_s += checked
            if child:
                child[-1] += elapsed
            return result

        return span
