"""View selection: which subcube(s) to materialize for a workload.

Reference [7] of the paper (Harinarayan, Rajaraman, Ullman:
*Implementing Data Cubes Efficiently*) selects a near-optimal subset of
the cube lattice to materialize under a space budget.  This module
implements that idea for the level-combination lattice used by
:class:`~repro.aggview.view.MaterializedAggregateView`:

* a view candidate is one relevant level per dimension;
* it *covers* a query phrased at (or above) its levels in every
  dimension;
* its cost is its (estimated) cell count.

:func:`recommend_views` scores every candidate against a workload
sample and runs the classic greedy set-cover loop for ``k`` views under
the budget (its first pick is the best single view).
"""

from __future__ import annotations

import itertools

from ..errors import QueryError


class ViewRecommendation:
    """One selected view candidate with its scores."""

    __slots__ = ("levels", "coverage", "estimated_cells", "benefit")

    def __init__(self, levels, coverage, estimated_cells, benefit):
        self.levels = tuple(levels)
        self.coverage = coverage
        self.estimated_cells = estimated_cells
        self.benefit = benefit

    def __repr__(self):
        return (
            "ViewRecommendation(levels=%r, coverage=%.0f%%, cells~%d, "
            "benefit=%g)"
            % (list(self.levels), self.coverage * 100,
               self.estimated_cells, self.benefit)
        )


def candidate_levels(schema):
    """All level combinations of the lattice (one level per dimension).

    Levels run from each dimension's finest functional attribute up to
    (and including) ALL — rolling a dimension up entirely is a valid
    materialization choice.
    """
    per_dimension = [
        range(dim.hierarchy.top_level + 1) for dim in schema.dimensions
    ]
    return itertools.product(*per_dimension)


def covers(levels, query_mds):
    """Does a view at ``levels`` answer ``query_mds``?"""
    return all(
        query_mds.level(dim) >= level for dim, level in enumerate(levels)
    )


def estimate_cells(schema, levels, n_records=None, records=None):
    """Cell count of a view at ``levels``.

    With ``records`` given, the *exact* number of distinct cell keys is
    counted (one pass).  Otherwise the product of the per-level value
    counts known to the hierarchies, capped by ``n_records`` (a view can
    never have more cells than source records).
    """
    if records is not None:
        keys = set()
        for record in records:
            keys.add(
                tuple(
                    record.value_at_level(dim, level)
                    if level < schema.dimensions[dim].hierarchy.top_level
                    else -1
                    for dim, level in enumerate(levels)
                )
            )
        return len(keys)
    product = 1
    for dim, level in enumerate(levels):
        hierarchy = schema.dimensions[dim].hierarchy
        if level >= hierarchy.top_level:
            continue
        product *= max(1, hierarchy.n_values_at_level(level))
    if n_records is not None:
        product = min(product, n_records)
    return product


def _base_cost(schema, n_records, records=None):
    """Per-query cost of answering from the raw cube (cells scanned)."""
    if records is not None:
        return len(records)
    finest = tuple(0 for _ in schema.dimensions)
    return estimate_cells(schema, finest, n_records)


def _benefit(covered, cells, base_cost):
    """HRU-style benefit: per covered query, the saving over the base.

    A view as large as the base cube (e.g. the leaf-level view, which is
    just a copy of the data) saves nothing — that is what stops the
    advisor from "recommending" the raw table whenever it fits the
    budget.
    """
    return covered * max(0, base_cost - cells)


def recommend_views(schema, workload, cell_budget, k, n_records=None,
                    records=None):
    """Greedy selection of up to ``k`` views ([7]'s greedy, simplified).

    Each round picks the candidate with the largest *marginal* benefit
    over the not-yet-covered queries; stops early when no candidate
    still helps.  The budget applies per view (the per-view footprint
    bound).  Pass ``records`` for exact cell counts.
    """
    queries = [getattr(q, "mds", q) for q in workload]
    if not queries:
        raise QueryError("cannot recommend views for an empty workload")
    if records is not None:
        records = list(records)
        cell_cache = {}

        def cells_of(levels):
            if levels not in cell_cache:
                cell_cache[levels] = estimate_cells(
                    schema, levels, n_records, records
                )
            return cell_cache[levels]
    else:
        def cells_of(levels):
            return estimate_cells(schema, levels, n_records)
    base_cost = _base_cost(schema, n_records, records)
    uncovered = list(range(len(queries)))
    chosen = []
    for _round in range(k):
        if not uncovered:
            break
        best = None
        for levels in candidate_levels(schema):
            cells = cells_of(levels)
            if cells > cell_budget:
                continue
            gained = sum(
                1 for i in uncovered if covers(levels, queries[i])
            )
            benefit = _benefit(gained, cells, base_cost)
            key = (benefit, gained, -cells, sum(levels))
            if best is None or key > best[0]:
                best = (key, levels, cells, gained, benefit)
        if best is None or best[4] <= 0:
            break
        _key, levels, cells, gained, benefit = best
        chosen.append(
            ViewRecommendation(
                levels, gained / len(queries), cells, benefit
            )
        )
        uncovered = [
            i for i in uncovered if not covers(levels, queries[i])
        ]
    return chosen
