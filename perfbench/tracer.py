"""Spans around the program's layers, recorded from the benchmark's side.

The program is not edited: `Tracer.install` replaces a module attribute
with a timing wrapper under the name the caller looks it up by (for
example `funsel.search.blind_sample`, the name `make_evaluator` calls),
and `Tracer.remove` puts every original back. Spans stay in memory; a
span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the
root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    peaks: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _installed: list = field(default_factory=list)

    # ------------------------------------------------------------ recording

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of `layer`, nested under the open span."""
        parent = self._stack[-1] if self._stack else None
        record = Span(layer, time.perf_counter(), parent=parent)
        self._stack.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += record.duration
            self.spans.append(record)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def wrap(self, layer: str, fn, on_call=None):
        """A stand-in for fn that records a span and calls on_call(args)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            return self.span(layer, fn, *args, **kwargs)

        return traced

    def install(self, owner, attr: str, layer: str, on_call=None, wrapper=None):
        """Replace owner.attr with a traced stand-in until `remove`.

        A name the program no longer has is skipped and listed in `missing`,
        so that the lost layer is reported rather than read as 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            name = f"{owner.__name__}.{attr}"
            if name not in self.missing:
                self.missing.append(name)
            return
        if wrapper is None:
            wrapper = self.wrap(layer, original, on_call)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer)

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
