"""Span tracing of the leo package, applied from outside it.

A ``Tracer`` replaces every public function of the leo modules, in every leo
module namespace that binds it, by a wrapper that records one span per call:
``[name, start, end, parent, trial]``. ``leo.learning.place_observer_poles``
and ``leo.experiments.place_observer_poles`` are separate bindings of one
function, and a module's calls to its own functions resolve through its
globals, so patching each binding catches both the cross-module calls and
the in-module ones (``train`` -> ``adam_step``). Private helpers such as
``learning._loss_and_gradient`` stay unwrapped: their time is their caller's
self time.

Spans stay in memory until the run ends. The original bindings come back
when the ``with`` block exits, so untraced calls in the same process pay
nothing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LEO_MODULES = ("lti_core", "observer", "local_lti", "learning", "experiments", "cli")

# A span of one of these functions is one benchmark operation: it opens a new
# trial id, which every span beneath it inherits.
OP_SPANS = ("experiments.run_trial", "cli.main")


class Tracer:
    """Context manager that records spans for every public leo function."""

    def __init__(self, on_return=None):
        # on_return maps a span name to f(args, kwargs, result), called after
        # the wrapped function returns.
        self.on_return = dict(on_return or {})
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_trial = 0

    def __enter__(self):
        wrappers: dict[int, object] = {}
        for short in LEO_MODULES:
            module = importlib.import_module(f"leo.{short}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("leo."):
                    continue
                if id(fn) not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        opens_trial = name in OP_SPANS
        hook = self.on_return.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_trial:
                trial = self._next_trial
                self._next_trial += 1
            else:
                trial = spans[parent][4] if parent >= 0 else -1
            record = [name, clock(), 0.0, parent, trial]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def by_name(self) -> dict[str, dict]:
        """calls, inclusive seconds and self seconds, per span name."""
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            entry = stats[span[0]]
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += self_s
        return dict(stats)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, trial."""
        keys = ("name", "start", "end", "parent", "trial")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
