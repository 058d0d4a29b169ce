"""Spans around the solver's public functions, recorded from outside the package.

A Tracer replaces a function or method on its owning module or class with a
wrapper that records one span (name, start, end, parent) per call, plus the
work counts that a per-target function reads off the call.  A call into a
layer that is already the innermost open span (config.build_initial_data
inside config.build_profile, say) is folded into that span, so every span is
one crossing of a layer boundary.  `close()` puts the originals back; an
untraced run installs nothing.
"""

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []           # indices of the spans currently open
        self._originals = []      # (owner, attribute, raw attribute) to restore

    def _enter(self, name):
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, owner, attribute, name, counts=None):
        """Trace calls of owner.attribute; counts(args, kwargs, result) -> dict."""
        raw = vars(owner)[attribute]
        target = getattr(owner, attribute)

        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]].name == name:
                return target(*args, **kwargs)
            span = self._enter(name)
            try:
                result = target(*args, **kwargs)
            finally:
                self._exit(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        self._originals.append((owner, attribute, raw))
        setattr(owner, attribute, traced)

    def close(self):
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    def self_times(self):
        """Per span, its duration minus the durations of its direct children."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own
