"""Oracle suite for the hot-path caches.

The flattened ancestor tables, the versioned MDS adaptation memo and the
fused classify() test must be semantically invisible.  Each is checked
against a reference computed inside the test: a ``hierarchy.parent``
walk for ``ancestor``, a set comprehension over ``ancestor`` for
``adapted_set``, the Definition 4 ``overlaps`` + ``contains`` pair for
``classify``, and an unindexed :class:`~repro.scan.table.FlatTable` over
the same records for whole trees.  Property tests drive random
hierarchies, MDS pairs and whole trees through them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.bench import regression
from repro.config import DCTreeConfig
from repro.core import mds as mds_mod
from repro.core.mds import MDS
from repro.core.tree import DCTree
from repro.cube.aggregation import StreamingAggregator
from repro.cube.schema import CubeSchema, Dimension, Measure
from repro.scan.table import FlatTable
from repro.workload.queries import QueryGenerator

REGIONS = ("EU", "NA", "ASIA")
NATIONS = ("DE", "FR", "US", "CA", "JP")
COLORS = ("red", "green", "blue", "black")


def build_schema():
    return CubeSchema(
        dimensions=[
            Dimension("Geo", ("City", "Nation", "Region")),
            Dimension("Color", ("Color",)),
        ],
        measures=[Measure("Sales")],
    )


def make_records(schema, n, seed, city_pool=40):
    rng = random.Random(seed)
    records = []
    for index in range(n):
        region = rng.choice(REGIONS)
        nation = rng.choice(NATIONS)
        city = "city%d" % rng.randrange(city_pool)
        color = rng.choice(COLORS)
        records.append(
            schema.record(
                ((region, nation, city), (color,)),
                (float(rng.randrange(1, 1000)),),
            )
        )
        del index
    return records


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(REGIONS),
        st.sampled_from(NATIONS),
        st.integers(min_value=0, max_value=9),
        st.sampled_from(COLORS),
    ),
    min_size=1,
    max_size=25,
)


def populate(rows):
    """Build the schema and insert each row's path into the hierarchies."""
    schema = build_schema()
    records = [
        schema.record(
            ((region, nation, "city%d" % city), (color,)), (1.0,)
        )
        for region, nation, city, color in rows
    ]
    return schema, records


def draw_mds(draw, schema):
    """One random MDS over the populated hierarchies."""
    sets = []
    levels = []
    for dimension in schema.dimensions:
        hierarchy = dimension.hierarchy
        level = draw(st.integers(min_value=0, max_value=hierarchy.top_level))
        if level >= hierarchy.top_level:
            values = {hierarchy.all_id}
        else:
            candidates = sorted(hierarchy.values_at_level(level))
            values = draw(
                st.sets(st.sampled_from(candidates), min_size=1)
            )
        levels.append(level)
        sets.append(values)
    return MDS(sets, levels)


@st.composite
def mds_pairs(draw):
    rows = draw(rows_strategy)
    schema, _ = populate(rows)
    return schema, draw_mds(draw, schema), draw_mds(draw, schema)


class TestAncestorTables:
    @given(rows=rows_strategy)
    def test_ancestor_matches_parent_walk(self, rows):
        schema, _ = populate(rows)
        for dimension in schema.dimensions:
            hierarchy = dimension.hierarchy
            for level in range(hierarchy.top_level + 1):
                for value in hierarchy.values_at_level(level):
                    walked = value
                    for target in range(level, hierarchy.top_level + 1):
                        assert hierarchy.ancestor(value, target) == walked
                        walked = hierarchy.parent(walked)

    def test_ancestors_of_spans_to_all(self):
        schema, records = populate([("EU", "DE", 1, "red")])
        hierarchy = schema.dimensions[0].hierarchy
        leaf = records[0].paths[0][-1]
        ancestors = hierarchy.ancestors_of(leaf)
        assert ancestors[0] == leaf
        assert ancestors[-1] == hierarchy.all_id
        assert len(ancestors) == hierarchy.top_level + 1

    def test_table_grows_with_dynamic_insertion(self):
        schema, _ = populate([("EU", "DE", 1, "red")])
        hierarchy = schema.dimensions[0].hierarchy
        path = hierarchy.insert_path(("NA", "CA", "city99"))
        assert hierarchy.ancestor(path[-1], hierarchy.top_level) \
            == hierarchy.all_id
        assert hierarchy.ancestor(path[-1], 2) == path[0]

    def test_restore_rebuilds_tables(self):
        schema, _ = populate(
            [("EU", "DE", 1, "red"), ("NA", "US", 2, "blue")]
        )
        source = schema.dimensions[0].hierarchy
        from repro.cube.hierarchy import ConceptHierarchy

        clone = ConceptHierarchy(source.name, source.level_names)
        clone.restore_nodes(source.dump_nodes())
        for level in range(source.top_level + 1):
            for value in source.values_at_level(level):
                for target in range(level, source.top_level + 1):
                    assert clone.ancestor(value, target) \
                        == source.ancestor(value, target)


class TestAdaptationMemo:
    @given(pair=mds_pairs())
    def test_cached_equals_uncached(self, pair):
        schema, mds, _ = pair
        for dim, dimension in enumerate(schema.dimensions):
            hierarchy = dimension.hierarchy
            for target in range(mds.level(dim), hierarchy.top_level + 1):
                cached = mds.adapted_set(dim, target, hierarchy)
                uncached = {
                    hierarchy.ancestor(value, target)
                    for value in mds.value_set(dim)
                }
                assert set(cached) == uncached

    def test_memo_hit_returns_same_object(self):
        schema, records = populate([("EU", "DE", 1, "red")])
        hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        hierarchy = hierarchies[0]
        mds = MDS.for_record(records[0], (0, 0), hierarchies)
        first = mds.adapted_set(0, 2, hierarchy)
        second = mds.adapted_set(0, 2, hierarchy)
        assert first is second

    def test_mutators_bump_version_and_invalidate(self):
        schema, records = populate(
            [("EU", "DE", 1, "red"), ("NA", "US", 2, "blue")]
        )
        hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        hierarchy = hierarchies[0]
        mds = MDS.for_record(records[0], (0, 0), hierarchies)
        before = mds.adapted_set(0, 2, hierarchy)
        version = mds.version
        mds.add_record(records[1], hierarchies)
        assert mds.version > version
        after = mds.adapted_set(0, 2, hierarchy)
        assert after != before
        assert records[1].value_at_level(0, 2) in after

        version = mds.version
        other = MDS.for_record(records[0], (0, 0), hierarchies)
        mds.add_mds(other, hierarchies)
        assert mds.version > version

        version = mds.version
        mds.update_values(1, {records[1].paths[1][-1]})
        assert mds.version > version
        assert records[1].paths[1][-1] in mds.value_set(1)

        version = mds.version
        mds.refine_dimension(0, {records[0].paths[0][-1]}, 0)
        assert mds.version > version

        version = mds.version
        mds.clear_dimension(0)
        assert mds.version > version
        assert mds.cardinality(0) == 0


class TestFusedClassifier:
    @given(pair=mds_pairs())
    def test_classify_matches_overlaps_plus_contains(self, pair):
        schema, range_mds, entry_mds = pair
        hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        if not mds_mod.overlaps(range_mds, entry_mds, hierarchies):
            expected = mds_mod.DISJOINT
        elif mds_mod.contains(range_mds, entry_mds, hierarchies):
            expected = mds_mod.CONTAINED
        else:
            expected = mds_mod.PARTIAL
        assert mds_mod.classify(range_mds, entry_mds, hierarchies) \
            == expected

    @given(pair=mds_pairs())
    def test_classify_without_containment(self, pair):
        schema, range_mds, entry_mds = pair
        hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        outcome = mds_mod.classify(
            range_mds, entry_mds, hierarchies, check_containment=False
        )
        assert outcome in (mds_mod.DISJOINT, mds_mod.PARTIAL)
        assert (outcome != mds_mod.DISJOINT) \
            == mds_mod.overlaps(range_mds, entry_mds, hierarchies)


def _build_tree_and_table(n_records, seed, capacity=8, **config):
    """A small-capacity tree and a scan table over the same records."""
    schema = build_schema()
    records = make_records(schema, n_records, seed)
    tree = DCTree(
        schema,
        config=DCTreeConfig(dir_capacity=4, leaf_capacity=capacity, **config),
    )
    table = FlatTable(schema)
    for record in records:
        tree.insert(record)
        table.insert(record)
    return tree, table, records


def _scan_group_by(table, dim, level, range_mds):
    """Reference roll-up: group the scanned records by their ancestor."""
    if range_mds is None:
        range_mds = MDS.all_mds(table.hierarchies)
    groups = {}
    for record in table.range_records(range_mds):
        key = record.value_at_level(dim, level)
        if key not in groups:
            groups[key] = StreamingAggregator("sum", 0)
        groups[key].add_record(record)
    return {key: aggregator.result() for key, aggregator in groups.items()}


def _assert_query_matches_scan(tree, table, range_mds):
    for op in ("sum", "count", "min", "max"):
        assert tree.range_query(range_mds, op=op) \
            == table.range_query(range_mds, op=op), op
    got_records = sorted(repr(r) for r in tree.range_records(range_mds))
    want_records = sorted(repr(r) for r in table.range_records(range_mds))
    assert got_records == want_records
    # With a depth budget past the leaves the estimate is exact.
    assert tree.estimate_count(range_mds, max_depth=tree.height()) \
        == pytest.approx(len(want_records))


class TestTreeEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_queries_identical_cached_vs_uncached(self, seed):
        """The tree answers like an uncached full scan."""
        tree, table, _ = _build_tree_and_table(250, seed)
        for query in QueryGenerator(
            tree.schema, 0.3, seed=seed + 10
        ).queries(15):
            _assert_query_matches_scan(tree, table, query.mds)

    def test_group_by_identical_cached_vs_uncached(self):
        tree, table, _ = _build_tree_and_table(250, seed=5)
        restriction = QueryGenerator(tree.schema, 0.4, seed=3).query()
        for dim in range(tree.schema.n_dimensions):
            top = tree.hierarchies[dim].top_level
            for level in range(top):
                for range_mds in (None, restriction.mds):
                    got = tree.group_by(dim, level, range_mds=range_mds)
                    assert got == _scan_group_by(table, dim, level, range_mds)

    def test_deterministic_counters_identical(self):
        """I/O and CPU charges depend neither on warm memos nor on the
        result cache: a repeated query charges what the first one did."""
        charges = []
        for use_result_cache in (False, True):
            tree, _, _ = _build_tree_and_table(
                200, seed=9, use_result_cache=use_result_cache
            )
            query = QueryGenerator(tree.schema, 0.25, seed=4).query()
            for _ in range(2):
                tree.tracker.reset(clear_buffer=True)
                tree.range_query(query.mds)
                stats = tree.tracker.snapshot()
                charges.append(
                    (stats.node_accesses, stats.cpu_units, stats.page_ios)
                )
        assert len(set(charges)) == 1


class TestDynamicInvalidation:
    def test_invariants_after_interleaved_insert_delete(self):
        """Acceptance: invalidation correctness under hierarchy growth."""
        tree, table, records = _build_tree_and_table(220, seed=11)
        # Delete every third record, then insert fresh records that force
        # brand-new hierarchy nodes (dynamic growth after deletions).
        for record in records[::3]:
            tree.delete(record)
            table.delete(record)
        for record in make_records(tree.schema, 60, seed=77, city_pool=500):
            tree.insert(record)
            table.insert(record)
        assert tree.check_invariants() == len(tree) == len(table)
        for query in QueryGenerator(tree.schema, 0.5, seed=8).queries(5):
            _assert_query_matches_scan(tree, table, query.mds)
        for dim in range(tree.schema.n_dimensions):
            assert tree.group_by(dim, 0) == _scan_group_by(table, dim, 0, None)


class TestRegressionHarness:
    def test_both_modes_produce_identical_digests(self):
        cached, digest_cached, _ = regression.run_workload(
            True, n_records=150, n_queries=6, n_repeats=12, seed=3
        )
        uncached, digest_uncached, _ = regression.run_workload(
            False, n_records=150, n_queries=6, n_repeats=12, seed=3
        )
        assert digest_cached == digest_uncached
        for phase in ("insert", "query", "groupby", "repeat"):
            assert cached[phase]["cpu_units"] == uncached[phase]["cpu_units"]
            assert cached[phase]["page_ios"] == uncached[phase]["page_ios"]

    def test_observability_pass_is_invariant(self, monkeypatch):
        monkeypatch.setitem(
            regression.PROFILES, "tiny",
            {"records": 200, "queries": 5, "repeats": 10},
        )
        entry = regression.run_benchmark(profile="tiny", seed=1,
                                         emit_metrics=True)
        observability = entry["observability"]
        assert observability["digest_identical"] is True
        assert observability["counters_identical"] is True
        metrics = observability["metrics"]
        assert "repro_spans_total" in metrics
        assert "dctree_records" in metrics
        spans = sum(
            sample["value"]
            for sample in metrics["repro_spans_total"]["samples"]
        )
        assert spans > 200  # at least one span per insert

    def test_run_workload_observability_snapshot(self):
        report, digest, metrics = regression.run_workload(
            True, n_records=120, n_queries=4, seed=2, observability=True
        )
        plain_report, plain_digest, plain_metrics = regression.run_workload(
            True, n_records=120, n_queries=4, seed=2
        )
        assert plain_metrics is None
        assert digest == plain_digest
        for phase in ("insert", "query", "groupby", "repeat"):
            for counter in ("node_accesses", "page_ios", "cpu_units"):
                assert report[phase][counter] == plain_report[phase][counter]
        assert metrics["dctree_records"]["samples"][0]["value"] == 120

    def test_compare_to_baseline_flags_regressions(self):
        entry = {
            "records": 100, "queries": 5, "seed": 0, "digest": "abc",
            "modes": {"cached": {
                "insert": _fake_phase(100), "query": _fake_phase(50),
                "groupby": _fake_phase(20),
            }},
        }
        same = compare = regression.compare_to_baseline(
            entry, entry, tolerance=0.2
        )
        assert same == []
        worse = {
            "records": 100, "queries": 5, "seed": 0, "digest": "abc",
            "modes": {"cached": {
                "insert": _fake_phase(100), "query": _fake_phase(80),
                "groupby": _fake_phase(20),
            }},
        }
        compare = regression.compare_to_baseline(worse, entry, tolerance=0.2)
        assert any("query" in problem for problem in compare)
        mismatched = dict(entry, records=999)
        compare = regression.compare_to_baseline(
            mismatched, entry, tolerance=0.2
        )
        assert any("workload mismatch" in problem for problem in compare)

    def test_strict_wall_checks_ops_per_second(self):
        baseline = {
            "records": 1, "queries": 1, "seed": 0, "digest": "d",
            "modes": {"cached": {
                "insert": _fake_phase(10, ops_per_second=1000.0),
                "query": _fake_phase(10, ops_per_second=1000.0),
                "groupby": _fake_phase(10, ops_per_second=1000.0),
            }},
        }
        slow_run = {
            "records": 1, "queries": 1, "seed": 0, "digest": "d",
            "modes": {"cached": {
                "insert": _fake_phase(10, ops_per_second=1000.0),
                "query": _fake_phase(10, ops_per_second=100.0),
                "groupby": _fake_phase(10, ops_per_second=1000.0),
            }},
        }
        assert regression.compare_to_baseline(
            slow_run, baseline, tolerance=0.2
        ) == []
        problems = regression.compare_to_baseline(
            slow_run, baseline, tolerance=0.2, strict_wall=True
        )
        assert any("ops/sec" in problem for problem in problems)


def _fake_phase(units, ops_per_second=100.0):
    return {
        "node_accesses": units,
        "page_ios": units,
        "cpu_units": units,
        "ops_per_second": ops_per_second,
        "wall_seconds": 1.0,
        "ops": 1,
    }
