"""Cross-backend equivalence under a matrix of configurations.

The invariant "all backends return identical answers" must hold for any
capacities, split algorithm, and aggregate setting — not just the
defaults the other suites use.
"""

import math
from collections import Counter

import pytest

from repro import (
    DCTree,
    DCTreeConfig,
    FlatTable,
    TPCDGenerator,
    XTree,
    XTreeConfig,
    make_tpcd_schema,
)
from repro.bench.harness import execute_query
from repro.cube.aggregation import MeasureSummary
from repro.workload.queries import QueryGenerator

DC_CONFIGS = [
    pytest.param(DCTreeConfig(), id="dc-defaults"),
    pytest.param(
        DCTreeConfig(dir_capacity=4, leaf_capacity=4), id="dc-tiny-nodes"
    ),
    pytest.param(
        DCTreeConfig(dir_capacity=64, leaf_capacity=256), id="dc-fat-nodes"
    ),
    pytest.param(
        DCTreeConfig(split_algorithm="linear"), id="dc-linear-split"
    ),
    pytest.param(
        DCTreeConfig(use_materialized_aggregates=False),
        id="dc-no-aggregates",
    ),
    pytest.param(
        DCTreeConfig(max_overlap_fraction=0.0), id="dc-zero-overlap"
    ),
    pytest.param(
        DCTreeConfig(max_overlap_fraction=1.0, min_fanout_fraction=0.1),
        id="dc-loose-splits",
    ),
    pytest.param(
        DCTreeConfig(capacity_mode="bytes"), id="dc-byte-capacity"
    ),
]


@pytest.fixture(scope="module")
def dataset():
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=55, scale_records=700)
    records = generator.generate(700)
    oracle = FlatTable(schema)
    for record in records:
        oracle.insert(record)
    queries = list(QueryGenerator(schema, 0.2, seed=6).queries(12))
    return schema, records, oracle, queries


@pytest.mark.parametrize("config", DC_CONFIGS)
def test_dc_tree_correct_under_config(dataset, config):
    schema, records, oracle, queries = dataset
    tree = DCTree(schema, config=config)
    for record in records:
        tree.insert(record)
    tree.check_invariants()
    for query in queries:
        assert math.isclose(
            tree.range_query(query.mds),
            oracle.range_query(query.mds),
            abs_tol=1e-4,
        )
        assert tree.range_query(query.mds, op="max") == oracle.range_query(
            query.mds, op="max"
        )
        assert Counter(map(id, tree.range_records(query.mds))) == Counter(
            map(id, oracle.range_records(query.mds))
        )
        summary = tree.range_summary(query.mds)
        for op in ("sum", "count", "min", "max"):
            expected = oracle.range_query(query.mds, op=op)
            got = summary.aggregate(op)
            assert got == expected or math.isclose(got, expected,
                                                   abs_tol=1e-4), op
    # Customer by nation, over the whole cube and inside each query.
    for range_mds in [None] + [query.mds for query in queries]:
        expected = _oracle_groups(oracle, range_mds, 0, 2)
        sums = tree.group_by(0, 2, op="sum", range_mds=range_mds)
        assert sums.keys() == expected.keys()
        for value, summary in expected.items():
            assert math.isclose(sums[value], summary.aggregate("sum"),
                                abs_tol=1e-4)
        assert tree.group_by(0, 2, op="count", range_mds=range_mds) == {
            value: summary.count for value, summary in expected.items()
        }


def _oracle_groups(oracle, range_mds, dim_index, level):
    """{value: MeasureSummary} folded from the FlatTable oracle."""
    records = (oracle.records() if range_mds is None
               else oracle.range_records(range_mds))
    groups = {}
    for record in records:
        value = record.value_at_level(dim_index, level)
        groups.setdefault(value, MeasureSummary()).add_value(
            record.measures[0]
        )
    return groups


@pytest.mark.parametrize("config", DC_CONFIGS[:3])
def test_dc_tree_delete_mix_under_config(dataset, config):
    schema, records, _oracle, queries = dataset
    tree = DCTree(schema, config=config)
    live = []
    for i, record in enumerate(records[:300]):
        tree.insert(record)
        live.append(record)
        if i % 5 == 4:
            tree.delete(live.pop(0))
    tree.check_invariants()
    for query in queries[:5]:
        expected = sum(r.measures[0] for r in live if query.matches(r))
        assert math.isclose(tree.range_query(query.mds), expected,
                            abs_tol=1e-6)


X_CONFIGS = [
    pytest.param(XTreeConfig(), id="x-defaults"),
    pytest.param(
        XTreeConfig(dir_capacity=4, leaf_capacity=4), id="x-tiny-nodes"
    ),
    pytest.param(
        XTreeConfig(max_overlap_fraction=0.0), id="x-always-minimal-split"
    ),
    pytest.param(
        XTreeConfig(max_overlap_fraction=10.0), id="x-never-minimal-split"
    ),
]


@pytest.mark.parametrize("config", X_CONFIGS)
def test_x_tree_correct_under_config(dataset, config):
    schema, records, oracle, queries = dataset
    tree = XTree(schema, config=config)
    for record in records:
        tree.insert(record)
    tree.check_invariants()
    for query in queries:
        assert math.isclose(
            execute_query("x-tree", tree, query),
            oracle.range_query(query.mds),
            abs_tol=1e-4,
        )
