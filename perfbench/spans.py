"""Span recorder for the traced benchmark run.

Every public function of the package's layer modules is replaced, in its
defining module and in every package module that imported it, by a
wrapper that records a span: name, start, end and the span that was open
when it was called.  Callers look those names up when they call, so the
wrapper sees every call that crosses a module boundary (for example
``variational.minimize`` as called by ``experiment_regularity``, or
``check_hypothesis`` as called by the ``verify`` subcommand).  Private
helpers stay inside the span of the public function that called them.

Spans stay in memory; ``dump`` writes them out once the run has ended.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional

#: The package modules whose public functions are traced, one layer each.
LAYERS = ("variational", "marcinkiewicz", "lemma", "counterexamples", "cli", "exponents")

#: A callback (args, kwargs, result) -> dict of small attributes kept on a span.
Annotator = Callable[[tuple, dict, object], dict]


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed", "attrs")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self, annotators: Optional[Dict[str, Annotator]] = None):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._annotators = annotators or {}
        self._patches: list = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        annotate = self._annotators.get(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), open_spans[-1] if open_spans else None)
            spans.append(span)
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                open_spans.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, package: str) -> None:
        """Replace each public layer function wherever the package holds it."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            public = [
                (attr, obj)
                for attr, obj in vars(module).items()
                if not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ]
            for attr, original in public:
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for holder in modules:
                    for held_name, held in list(vars(holder).items()):
                        if held is original:
                            self._patches.append((holder, held_name, original))
                            setattr(holder, held_name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def self_seconds(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def dump(self, path: str, record: dict) -> None:
        own = self.self_seconds()
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "name": span.name,
                "start_s": span.start - origin,
                "end_s": span.end - origin,
                "self_s": own[i],
                "parent": span.parent,
                "failed": span.failed,
                **({"attrs": span.attrs} if span.attrs else {}),
            }
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"record": record, "spans": rows}, handle, indent=1)
