"""In-memory span tracing installed from outside the package.

Wrappers replace attributes at the names where callers resolve them (a
module global imported by name, a class attribute, a module object a
caller reaches through) and are removed again afterwards, so an untraced
run executes the package exactly as shipped.
"""

from __future__ import annotations

import csv
import functools
import time


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class ModuleView:
    """A module seen through a few replaced attributes.

    Lets one caller's reference to a shared module (``spla`` in the flow
    module) be traced without touching the module for everyone else.
    """

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans [name, parent, start, end] and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def write_csv(self, path) -> None:
        """Spans as rows (index, name, parent, start_s, end_s), times relative
        to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["index", "name", "parent", "start_s", "end_s"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                out.writerow([i, name, parent, f"{start - t0:.9f}", f"{end - t0:.9f}"])
