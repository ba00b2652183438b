"""Unified telemetry for the DC-tree reproduction.

Three coordinated pieces, all zero-dependency and off by default:

* :mod:`repro.obs.trace` — structured spans: nested, timestamped trace
  trees of index operations (``insert``, ``choose_subtree``,
  ``hierarchy_split``, ``range_query``, ``wal.append``, ``checkpoint``,
  ``recovery.replay``, ...) with attributes, exportable as JSON lines or
  a flame-style text tree.
* :mod:`repro.obs.metrics` — a metrics registry of named
  counters/gauges/histograms unifying the package's scattered stats
  surfaces, snapshotable as JSON and Prometheus text exposition.
* :mod:`repro.obs.explain` — per-query EXPLAIN profiles attributing
  page/CPU cost, entry classifications and aggregate pruning to each
  tree level, reconciling exactly with the ``StorageTracker`` delta.

Enable with ``DCTreeConfig(observability=True)`` (or the
``REPRO_OBSERVABILITY=1`` environment variable, which CI uses to force
the whole suite through the instrumented paths).  The contract
throughout: telemetry *observes* the simulated cost model and never
feeds it — deterministic counters, query answers and ``tree_version``
are bit-identical with observability on or off.
"""

from __future__ import annotations

from .explain import ExplainResult, LevelProfile, ProfileSession, QueryProfile
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    describe_result_cache,
    observe_dctree,
    observe_result_cache,
    observe_tracker,
    observe_tree_structure,
    warehouse_registry,
)
from .trace import Span, Tracer, traced

__all__ = [
    "Observability",
    "Span",
    "Tracer",
    "traced",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "ExplainResult",
    "LevelProfile",
    "ProfileSession",
    "QueryProfile",
    "describe_result_cache",
    "observe_dctree",
    "observe_result_cache",
    "observe_tracker",
    "observe_tree_structure",
    "warehouse_registry",
]


class Observability:
    """One tree's telemetry bundle: a tracer wired into a registry.

    Every finished span increments ``repro_spans_total{name=...}`` and
    feeds ``repro_span_seconds{name=...}``, so the registry snapshot
    carries span counts and duration quantiles without a separate
    aggregation pass.  Created by :class:`~repro.core.tree.DCTree` when
    ``DCTreeConfig.observability`` is on; shared with the WAL and the
    durable session so persistence spans land in the same trace trees.
    """

    __slots__ = ("registry", "tracer")

    def __init__(self, max_roots=256, clock=None):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            max_roots=max_roots, on_finish=self._span_finished, clock=clock
        )

    def _span_finished(self, span):
        self.registry.counter(
            "repro_spans_total", "Finished spans by name.", name=span.name
        ).inc()
        self.registry.histogram(
            "repro_span_seconds", "Span wall durations by name.",
            name=span.name,
        ).observe(span.duration)

    def span(self, name, **attributes):
        """Open a span (context manager); shorthand for ``tracer.span``."""
        return self.tracer.span(name, **attributes)

    def counter(self, name, help_text="", /, **labels):
        return self.registry.counter(name, help_text, **labels)

    def clear(self):
        """Drop retained traces and metrics (for test isolation)."""
        self.tracer.clear()
        self.registry.clear()

    def __repr__(self):
        return "Observability(%r, %r)" % (self.tracer, self.registry)
