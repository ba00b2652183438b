"""Aggregate vectors materialized in DC-tree directory entries.

The paper materializes "the values of the measure attributes" per MDS and
notes that the range-query algorithm uses SUM but "any other aggregation,
e.g. AVERAGE, would have to be treated accordingly".  We materialize a small
*vector* of algebraic summaries per measure — (sum, count, min, max) — from
which SUM, COUNT, AVG, MIN and MAX range queries can all be answered.

SUM and COUNT are fully invertible, so deletions subtract in O(1).  MIN and
MAX are only *semi*-invertible: removing the current extremum invalidates
the summary, which the tree repairs by recomputing the affected path from
its children (see ``DCTree.delete``).  :meth:`MeasureSummary.subtract_value`
reports whether such a repair is needed.
"""

from __future__ import annotations

import math

from ..errors import QueryError

#: Aggregation operators supported by range queries.
SUPPORTED_AGGREGATES = ("sum", "count", "avg", "min", "max")


def check_aggregate(op):
    """Raise :class:`QueryError` unless ``op`` is a supported aggregate."""
    if op not in SUPPORTED_AGGREGATES:
        raise QueryError(
            "unsupported aggregate %r (supported: %s)"
            % (op, ", ".join(SUPPORTED_AGGREGATES))
        )


class MeasureSummary:
    """Algebraic summary of one measure over a set of records."""

    __slots__ = ("sum", "count", "min", "max")

    def __init__(self, sum_=0.0, count=0, min_=math.inf, max_=-math.inf):
        self.sum = sum_
        self.count = count
        self.min = min_
        self.max = max_

    def copy(self):
        return MeasureSummary(self.sum, self.count, self.min, self.max)

    def is_empty(self):
        return self.count == 0

    def add_value(self, value):
        """Fold one measure value into the summary."""
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_summary(self, other):
        """Fold another summary into this one."""
        self.sum += other.sum
        self.count += other.count
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def subtract_value(self, value):
        """Remove one value; return True if min/max need recomputation."""
        self.sum -= value
        self.count -= 1
        if self.count == 0:
            self.min = math.inf
            self.max = -math.inf
            return False
        return value <= self.min or value >= self.max

    def aggregate(self, op):
        """Evaluate ``op`` over this summary.

        Empty summaries yield the operator's neutral result: 0 for SUM and
        COUNT, ``None`` for AVG, MIN and MAX.
        """
        check_aggregate(op)
        if op == "sum":
            return self.sum
        if op == "count":
            return self.count
        if self.count == 0:
            return None
        if op == "avg":
            return self.sum / self.count
        if op == "min":
            return self.min
        return self.max

    def __eq__(self, other):
        if not isinstance(other, MeasureSummary):
            return NotImplemented
        return (
            math.isclose(self.sum, other.sum, abs_tol=1e-9)
            and self.count == other.count
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self):
        return "MeasureSummary(sum=%g, count=%d, min=%g, max=%g)" % (
            self.sum,
            self.count,
            self.min,
            self.max,
        )


class AggregateVector:
    """One :class:`MeasureSummary` per measure of the cube."""

    __slots__ = ("summaries",)

    def __init__(self, n_measures):
        self.summaries = tuple(MeasureSummary() for _ in range(n_measures))

    @property
    def count(self):
        """Number of records folded in (identical across measures)."""
        return self.summaries[0].count if self.summaries else 0

    def copy(self):
        clone = AggregateVector(0)
        clone.summaries = tuple(s.copy() for s in self.summaries)
        return clone

    def clear(self):
        for summary in self.summaries:
            summary.sum = 0.0
            summary.count = 0
            summary.min = math.inf
            summary.max = -math.inf

    def add_record(self, record):
        for summary, value in zip(self.summaries, record.measures):
            summary.add_value(value)

    def add_vector(self, other):
        for mine, theirs in zip(self.summaries, other.summaries):
            mine.add_summary(theirs)

    def subtract_record(self, record):
        """Remove one record; return True if any min/max went stale."""
        stale = False
        for summary, value in zip(self.summaries, record.measures):
            if summary.subtract_value(value):
                stale = True
        return stale

    def aggregate(self, op, measure_index=0):
        """Evaluate ``op`` for the measure at ``measure_index``."""
        return self.summaries[measure_index].aggregate(op)

    def __eq__(self, other):
        if not isinstance(other, AggregateVector):
            return NotImplemented
        return self.summaries == other.summaries

    def __repr__(self):
        return "AggregateVector(%r)" % (list(self.summaries),)


class StreamingAggregator:
    """Accumulates query results record-by-record (scan & leaf paths).

    Both baselines and the DC-tree's partial-overlap leaf path fold
    individual records; the DC-tree's containment path folds whole
    :class:`AggregateVector` instances.  This helper hides the difference
    and finally evaluates the requested operator.
    """

    __slots__ = ("_summary", "_op", "_measure_index")

    def __init__(self, op, measure_index=0):
        check_aggregate(op)
        self._summary = MeasureSummary()
        self._op = op
        self._measure_index = measure_index

    def copy(self):
        """Independent clone (exact — summaries copy field by field).

        The result cache hands out aggregator copies so callers can keep
        merging groups without poisoning the memoized originals.
        """
        clone = StreamingAggregator(self._op, self._measure_index)
        clone._summary = self._summary.copy()
        return clone

    def add_record(self, record):
        self._summary.add_value(record.measures[self._measure_index])

    def add_vector(self, vector):
        self._summary.add_summary(vector.summaries[self._measure_index])

    def add_summary(self, summary):
        self._summary.add_summary(summary)

    @property
    def count(self):
        return self._summary.count

    @property
    def summary(self):
        """The underlying :class:`MeasureSummary` (for merging groups)."""
        return self._summary

    @property
    def op(self):
        return self._op

    def result(self):
        """Final value of the aggregation."""
        return self._summary.aggregate(self._op)
