"""Structured spans: nested, timestamped traces of index operations.

A :class:`Tracer` produces a tree of :class:`Span` objects per top-level
operation (``insert``, ``range_query``, ``checkpoint``, ...), each
carrying free-form attributes (node ids, depths, MDS digests, pages
touched, cache outcomes).  Spans are purely observational: they read the
clock and the attributes handed to them, never the
:class:`~repro.storage.tracker.StorageTracker`, so enabling tracing
cannot perturb the simulated cost model — the deterministic counters
stay bit-identical with tracing on or off (enforced by the observability
invariance tests and the ``--emit-metrics`` bench gate).

Finished root spans are retained in a bounded ring (``max_roots``,
drop-oldest) so long workloads cannot grow memory without bound; every
span start/finish is still counted (``span_counts``) and reported to the
``on_finish`` hook, which :class:`~repro.obs.Observability` uses to feed
the metrics registry (span totals and duration histograms).

Instrumented operations attach spans with the :func:`traced` decorator,
the package's one telemetry fork: the method body is written once and
the decorator decides per call whether a span wraps it.

Two export forms:

* :meth:`Tracer.export_jsonl` — one JSON object per span (flat, with
  ``id``/``parent`` references), machine-friendly;
* :meth:`Tracer.render` — an indented flame-style text tree with
  durations and attributes, human-friendly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import deque
from contextlib import contextmanager


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "attributes", "children")

    def __init__(self, name, span_id, parent_id, start, attributes):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = None
        self.attributes = attributes
        self.children = []

    def set(self, **attributes):
        """Attach/overwrite attributes on the live span."""
        self.attributes.update(attributes)

    @property
    def duration(self):
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self, depth=0):
        """Yield ``(span, depth)`` over this subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self):
        """The span as one JSON-ready dict (children by reference)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self):
        return "Span(%r, %.6fs, %d children)" % (
            self.name, self.duration, len(self.children)
        )


class Tracer:
    """Produces nested spans; retains a bounded window of root traces.

    Parameters
    ----------
    max_roots:
        How many finished top-level span trees to retain (drop-oldest).
        Child spans live inside their root and are not counted here.
    on_finish:
        Optional callable invoked with every finished span (roots and
        children alike) — the metrics bridge.
    clock:
        The timestamp source (``time.perf_counter`` by default; tests
        inject a fake for deterministic durations).
    """

    def __init__(self, max_roots=256, on_finish=None, clock=None):
        self.max_roots = max_roots
        self.on_finish = on_finish
        self._clock = clock if clock is not None else time.perf_counter
        self._stack = []
        self.roots = deque(maxlen=max_roots)
        self.dropped_roots = 0
        self.span_counts = {}
        self._next_id = 1

    @property
    def current(self):
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name, **attributes):
        """Open a span for the body; yields the live :class:`Span`."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            self._next_id,
            parent.span_id if parent is not None else None,
            self._clock(),
            attributes,
        )
        self._next_id += 1
        if parent is not None:
            parent.children.append(span)
        else:
            if len(self.roots) == self.roots.maxlen:
                self.dropped_roots += 1
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()
            self.span_counts[name] = self.span_counts.get(name, 0) + 1
            if self.on_finish is not None:
                self.on_finish(span)

    def clear(self):
        """Drop retained traces and counts (open spans are unaffected)."""
        self.roots.clear()
        self.dropped_roots = 0
        self.span_counts = {}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def export_jsonl(self, stream=None):
        """Every retained span as JSON lines; returns the string."""
        lines = []
        for root in self.roots:
            for span, _depth in root.walk():
                lines.append(json.dumps(span.to_dict(), sort_keys=True,
                                        default=str))
        text = "\n".join(lines)
        if stream is not None and text:
            stream.write(text + "\n")
        return text

    def render(self, max_roots=None, stream=None):
        """Flame-style indented text tree of the retained traces."""
        roots = list(self.roots)
        if max_roots is not None:
            roots = roots[-max_roots:]
        lines = []
        if self.dropped_roots:
            lines.append("... %d earlier trace(s) dropped" %
                         self.dropped_roots)
        for root in roots:
            for span, depth in root.walk():
                attrs = ""
                if span.attributes:
                    attrs = " {%s}" % ", ".join(
                        "%s=%s" % (key, span.attributes[key])
                        for key in sorted(span.attributes)
                    )
                lines.append(
                    "%s%s %.3fms%s"
                    % ("  " * depth, span.name, span.duration * 1e3, attrs)
                )
        text = "\n".join(lines)
        if stream is not None and text:
            stream.write(text + "\n")
        return text

    def __repr__(self):
        return "Tracer(roots=%d, dropped=%d, spans=%d)" % (
            len(self.roots), self.dropped_roots,
            sum(self.span_counts.values()),
        )


# ``inspect.CO_VARARGS | inspect.CO_VARKEYWORDS``, spelled out so that
# importing the package does not load ``inspect`` and its dependencies.
_PACKED_PARAMETERS = 0x04 | 0x08

# The wrapper is generated with the operation's own parameter list, so the
# off path is a plain call.  A generic ``(*args, **kwargs)`` wrapper costs
# about five times as much per call (argument packing plus an unspecialized
# call); with ``choose_subtree`` running once per tree level, that made the
# median perfbench ``ingest`` insert ~3 % slower on a 2-vCPU Xeon VM.
_WRAPPER = """\
def wrapper({params}):
    _obs = {first}.{owner}
    if _obs is None:
        return _operation({params})
    with _obs.span(_name, **_start({params})) as _span:
        _result = _operation({params})
        _finish(_obs, _span, _result, {params})
    return _result
"""


def traced(name, start=None, finish=None, owner="_obs"):
    """Decorate an operation so it runs inside span ``name`` when traced.

    ``owner`` is the attribute (a dotted path is allowed) of the
    operation's first argument holding the
    :class:`~repro.obs.Observability` bundle, or None when telemetry is
    off.  Off, the wrapper reads that attribute, tests it against None
    and calls the operation directly: no span object, no context
    manager, no hook.  On, ``start(*args)`` — the operation's arguments,
    positionally, defaults filled in — returns the opening span
    attributes, and after a successful call ``finish(obs, span, result,
    *args)`` runs inside the span to set the outcome attributes and bump
    counters.  A call that raises closes its span with the opening
    attributes only.  The operation takes plain positional-or-keyword
    parameters (no ``*args``, ``**kwargs`` or keyword-only ones).
    """
    if not all(part.isidentifier() for part in owner.split(".")):
        raise ValueError("owner must be an attribute path, got %r" % owner)

    def decorate(operation):
        code = operation.__code__
        params = code.co_varnames[:code.co_argcount]
        if (code.co_flags & _PACKED_PARAMETERS or code.co_kwonlyargcount
                or any(param.startswith("_") for param in params)):
            raise TypeError(
                "traced operation %s must take plain, public parameters"
                % operation.__qualname__
            )
        namespace = {
            "_operation": operation,
            "_name": name,
            "_start": start if start is not None else lambda *_args: {},
            "_finish": finish if finish is not None else lambda *_args: None,
        }
        exec(_WRAPPER.format(params=", ".join(params), first=params[0],
                             owner=owner), namespace)
        wrapper = namespace["wrapper"]
        wrapper.__defaults__ = operation.__defaults__
        return functools.update_wrapper(wrapper, operation)

    return decorate
