"""Tests for view selection and the hybrid router."""

import math

import pytest

from repro import TPCDGenerator, Warehouse, make_tpcd_schema
from repro.aggview.advisor import (
    ViewRecommendation,
    candidate_levels,
    covers,
    estimate_cells,
    recommend_views,
)
from repro.aggview.hybrid import HybridWarehouse
from repro.errors import QueryError, SchemaError
from repro.workload.queries import QueryGenerator
from repro.workload.queries import query_from_labels
from tests.conftest import build_toy_schema


def _all_query(schema):
    return query_from_labels(schema, {})


@pytest.fixture(scope="module")
def tpcd_setup():
    schema = make_tpcd_schema()
    warehouse = Warehouse(schema, "dc-tree")
    generator = TPCDGenerator(schema, seed=31, scale_records=800)
    for record in generator.records(800):
        warehouse.insert_record(record)
    workload = list(QueryGenerator(schema, 0.2, seed=5).queries(60))
    records = list(warehouse.index.records())
    return schema, warehouse, workload, records


class TestCandidates:
    def test_lattice_size(self):
        schema = build_toy_schema()  # levels 0..2 x 0..1
        assert len(list(candidate_levels(schema))) == 3 * 2

    def test_covers(self, tpcd_setup):
        schema, _warehouse, workload, records = tpcd_setup
        query = workload[0]
        assert covers(tuple(query.mds.levels), query.mds)
        finer = tuple(max(0, lvl - 1) for lvl in query.mds.levels)
        if finer != tuple(query.mds.levels):
            assert covers(finer, query.mds)

    def test_estimate_cells_caps_at_records(self, tpcd_setup):
        schema, _warehouse, _workload, records = tpcd_setup
        leafiest = (0, 0, 0, 0)
        assert estimate_cells(schema, leafiest, n_records=800) == 800
        assert estimate_cells(schema, leafiest) > 800
        exact = estimate_cells(schema, leafiest, records=records)
        assert 0 < exact <= 800

    def test_all_levels_view_has_one_cell(self, tpcd_setup):
        schema, _warehouse, _workload, _records = tpcd_setup
        tops = tuple(d.hierarchy.top_level for d in schema.dimensions)
        assert estimate_cells(schema, tops) == 1


class TestRecommendViews:
    def test_greedy_extends_coverage(self, tpcd_setup):
        schema, _warehouse, workload, records = tpcd_setup
        picks = recommend_views(schema, workload, cell_budget=2000, k=3,
                                records=records)
        assert 1 <= len(picks) <= 3
        # The first pick is the best single view under the budget: the
        # largest covered-queries x (base cost - cells) over the lattice.
        best = 0
        for levels in candidate_levels(schema):
            cells = estimate_cells(schema, levels, records=records)
            if cells <= 2000:
                covered = sum(1 for q in workload if covers(levels, q.mds))
                best = max(best, covered * max(0, len(records) - cells))
        assert picks[0].benefit == best
        # Marginal benefits are non-increasing (greedy property).
        benefits = [p.benefit for p in picks]
        assert benefits == sorted(benefits, reverse=True)

    def test_stops_when_nothing_left(self, tpcd_setup):
        schema, _warehouse, workload, records = tpcd_setup
        picks = recommend_views(schema, workload, cell_budget=10**9, k=50,
                                records=records)
        # The all-ALL..finest lattice covers everything answerable; greedy
        # must stop well before 50 views.
        assert len(picks) < 50

    def test_respects_budget(self, tpcd_setup):
        schema, _warehouse, workload, records = tpcd_setup
        picks = recommend_views(schema, workload, cell_budget=2000, k=3,
                                records=records)
        assert picks
        for pick in picks:
            assert isinstance(pick, ViewRecommendation)
            assert pick.estimated_cells <= 2000

    def test_bigger_budget_never_hurts_benefit(self, tpcd_setup):
        schema, _warehouse, workload, records = tpcd_setup

        def first_benefit(budget):
            picks = recommend_views(schema, workload, cell_budget=budget,
                                    k=1, records=records)
            return picks[0].benefit if picks else 0

        assert first_benefit(100000) >= first_benefit(100)

    def test_never_recommends_the_raw_cube(self, tpcd_setup):
        """The leaf-level view is just a table copy; benefit scoring must
        refuse it even when it fits the budget."""
        schema, _warehouse, workload, records = tpcd_setup
        picks = recommend_views(schema, workload, cell_budget=10**9, k=50,
                                records=records)
        assert picks
        for pick in picks:
            assert pick.levels != (0, 0, 0, 0)
            assert pick.benefit > 0

    def test_coverage_is_real(self, tpcd_setup):
        schema, _warehouse, workload, records = tpcd_setup
        pick = recommend_views(schema, workload, cell_budget=10000, k=1,
                               records=records)[0]
        covered = sum(
            1 for q in workload if covers(pick.levels, q.mds)
        )
        assert math.isclose(pick.coverage, covered / len(workload))

    def test_empty_workload_rejected(self, tpcd_setup):
        schema, _warehouse, _workload, _records = tpcd_setup
        with pytest.raises(QueryError):
            recommend_views(schema, [], cell_budget=100, k=1)

    def test_impossible_budget_picks_nothing(self, tpcd_setup):
        schema, _warehouse, workload, _records = tpcd_setup
        assert recommend_views(schema, workload, cell_budget=0, k=1) == []


class TestHybridWarehouse:
    def test_requires_dc_tree_base(self):
        warehouse = Warehouse(build_toy_schema(), "scan")
        with pytest.raises(SchemaError):
            HybridWarehouse(warehouse)

    def test_routes_and_agrees(self, tpcd_setup):
        schema, warehouse, workload, records = tpcd_setup
        picks = recommend_views(schema, workload, cell_budget=5000, k=2,
                                records=records)
        hybrid = HybridWarehouse(
            warehouse, [p.levels for p in picks]
        )
        for query in workload:
            assert math.isclose(
                hybrid.execute(query),
                warehouse.execute(query),
                abs_tol=1e-6,
            )
        uncoverable = sum(
            1 for q in workload
            if not any(covers(p.levels, q.mds) for p in picks)
        )
        assert hybrid.stats.via_view == len(workload) - uncoverable
        assert hybrid.stats.via_tree == uncoverable
        assert hybrid.stats.via_view > 0

    def test_incremental_insert_keeps_views_fresh(self, tpcd_setup):
        schema, warehouse, workload, records = tpcd_setup
        covered = [
            q for q in workload
            if covers((3, 2, 2, 2), q.mds)
        ]
        if not covered:
            pytest.skip("workload sample has no coarse query")
        hybrid = HybridWarehouse(warehouse, [(3, 2, 2, 2)])
        generator = TPCDGenerator(schema, seed=77, scale_records=100)
        record = generator.record()
        hybrid.insert_record(record)
        # Incremental maintenance (default): the view absorbed the delta.
        assert not hybrid.views[0].is_stale
        before = hybrid.stats.refreshes
        result = hybrid.execute(covered[0])
        assert hybrid.stats.refreshes == before  # no rebuild needed
        assert math.isclose(
            result, warehouse.execute(covered[0]), abs_tol=1e-6
        )
        hybrid.delete(record)

    def test_static_mode_invalidates_then_lazy_refresh(self, tpcd_setup):
        schema, warehouse, workload, records = tpcd_setup
        covered = [q for q in workload if covers((3, 2, 2, 2), q.mds)]
        if not covered:
            pytest.skip("workload sample has no coarse query")
        hybrid = HybridWarehouse(
            warehouse, [(3, 2, 2, 2)], incremental=False
        )
        generator = TPCDGenerator(schema, seed=79, scale_records=100)
        record = generator.record()
        hybrid.insert_record(record)
        assert hybrid.views[0].is_stale
        before = hybrid.stats.refreshes
        result = hybrid.execute(covered[0])
        assert hybrid.stats.refreshes == before + 1
        assert not hybrid.views[0].is_stale
        assert math.isclose(
            result, warehouse.execute(covered[0]), abs_tol=1e-6
        )
        hybrid.delete(record)

    def test_eager_refresh_mode(self, tpcd_setup):
        schema, warehouse, workload, records = tpcd_setup
        hybrid = HybridWarehouse(
            warehouse, [(3, 2, 2, 2)], lazy_refresh=False,
            incremental=False,
        )
        generator = TPCDGenerator(schema, seed=78, scale_records=100)
        record = generator.record()
        hybrid.insert_record(record)
        covered = [q for q in workload if covers((3, 2, 2, 2), q.mds)]
        if covered:
            before_tree = hybrid.stats.via_tree
            hybrid.execute(covered[0])  # stale view bypassed
            assert hybrid.stats.via_tree == before_tree + 1
        assert hybrid.refresh() == 1
        assert not hybrid.views[0].is_stale
        hybrid.delete(record)

    def test_delete_of_cell_extremum_marks_stale(self, tpcd_setup):
        schema, warehouse, _workload, _records = tpcd_setup
        hybrid = HybridWarehouse(warehouse, [(3, 2, 2, 2)])
        generator = TPCDGenerator(schema, seed=80, scale_records=100)
        record = generator.record()
        hybrid.insert_record(record)
        assert not hybrid.views[0].is_stale
        # Deleting the record removes a cell extremum (it was the newest
        # member of its cell, possibly its min AND max) - the view either
        # stays exact or flags itself stale; never silently wrong.
        hybrid.delete(record)
        if not hybrid.views[0].is_stale:
            total = hybrid.views[0].range_query(
                _all_query(schema).mds, op="count"
            )
            assert total == len(warehouse)

    def test_label_query_interface(self, tpcd_setup):
        schema, warehouse, _workload, _records = tpcd_setup
        hybrid = HybridWarehouse(warehouse, [(3, 2, 2, 2)])
        hybrid.refresh()
        where = {"Customer": ("Region", ["EUROPE"])}
        assert math.isclose(
            hybrid.query("sum", where=where),
            warehouse.query("sum", where=where),
            abs_tol=1e-6,
        )
