"""Tests for range summaries and directory-based cardinality estimation."""


import pytest

from repro import DCTree, TPCDGenerator, make_tpcd_schema
from repro.errors import QueryError
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


def build_toy_tree():
    schema = build_toy_schema()
    tree = DCTree(schema)
    for row in TOY_ROWS:
        tree.insert(toy_record(schema, *row))
    return schema, tree


@pytest.fixture(scope="module")
def tpcd_tree():
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=12, scale_records=2000)
    tree = DCTree(schema)
    for record in generator.records(2000):
        tree.insert(record)
    return schema, tree


class TestRangeSummary:
    def test_matches_individual_aggregates(self):
        schema, tree = build_toy_tree()
        query = query_from_labels(schema, {"Geo": ("Country", ["DE"])})
        summary = tree.range_summary(query.mds)
        assert summary.aggregate("sum") == tree.range_query(query.mds)
        assert summary.aggregate("count") == tree.range_query(query.mds, op="count")
        assert summary.aggregate("min") == tree.range_query(
            query.mds, op="min"
        )
        assert summary.aggregate("max") == tree.range_query(
            query.mds, op="max"
        )

    def test_empty_range(self):
        schema, tree = build_toy_tree()
        query = query_from_labels(
            schema,
            {"Geo": ("City", ["Lyon"]), "Color": ("Color", ["red"])},
        )
        summary = tree.range_summary(query.mds)
        assert summary.is_empty()

    def test_copy_is_detached(self):
        schema, tree = build_toy_tree()
        query = query_from_labels(schema, {})
        summary = tree.range_summary(query.mds)
        summary.add_value(1e9)
        assert tree.range_query(query.mds) == 96.0

    def test_validates_query(self):
        _schema, tree = build_toy_tree()
        from repro.core.mds import MDS

        with pytest.raises(QueryError):
            tree.range_summary(MDS([{1}], [0]))


class TestEstimateCount:
    def test_exact_on_contained_subtrees(self, tpcd_tree):
        schema, tree = tpcd_tree
        query = query_from_labels(schema, {})  # ALL: everything contained
        assert tree.estimate_count(query.mds) == len(tree)

    def test_reasonable_accuracy_at_depth_one(self, tpcd_tree):
        """The estimate correlates with the truth across random queries."""
        schema, tree = tpcd_tree
        ratios = []
        for query in QueryGenerator(schema, 0.25, seed=3).queries(30):
            exact = tree.range_query(query.mds, op="count")
            estimate = tree.estimate_count(query.mds, max_depth=1)
            if exact >= 3:
                ratios.append(estimate / exact)
        assert ratios, "no query matched enough records"
        mean_ratio = sum(ratios) / len(ratios)
        assert 0.2 < mean_ratio < 5.0

    def test_deeper_budget_is_more_accurate(self, tpcd_tree):
        schema, tree = tpcd_tree
        queries = [
            q for q in QueryGenerator(schema, 0.25, seed=5).queries(20)
            if tree.range_query(q.mds, op="count") >= 3
        ]
        assert queries

        def total_error(depth):
            error = 0.0
            for query in queries:
                exact = tree.range_query(query.mds, op="count")
                estimate = tree.estimate_count(query.mds, max_depth=depth)
                error += abs(estimate - exact) / exact
            return error

        assert total_error(3) <= total_error(0) + 1e-9

    def test_estimate_cheaper_than_exact(self, tpcd_tree):
        schema, tree = tpcd_tree
        query = QueryGenerator(schema, 0.25, seed=9).query()
        tree.tracker.reset(clear_buffer=True)
        tree.estimate_count(query.mds, max_depth=0)
        estimate_cost = tree.tracker.snapshot().node_accesses
        tree.tracker.reset(clear_buffer=True)
        tree.range_query(query.mds, op="count")
        exact_cost = tree.tracker.snapshot().node_accesses
        assert estimate_cost <= exact_cost

    def test_zero_for_disjoint_range(self):
        schema, tree = build_toy_tree()
        toy_record(schema, "JP", "Tokyo", "red", 0.0)  # label only
        query = query_from_labels(schema, {"Geo": ("Country", ["JP"])})
        assert tree.estimate_count(query.mds) == 0.0

    def test_validates_query(self, tpcd_tree):
        _schema, tree = tpcd_tree
        from repro.core.mds import MDS

        with pytest.raises(QueryError):
            tree.estimate_count(MDS([{1}], [0]))
