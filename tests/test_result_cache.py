"""Tests for the versioned query-result cache (``core/result_cache.py``).

The cache must be *fully* invisible except for wall-clock time: answers,
tracker counters and buffer-pool evolution are bit-identical with the
cache on or off, and no mutation path may ever leave a stale answer
servable.  These tests drive both properties, plus the LRU bound, the
counter bookkeeping, and the canonical-digest guarantees the cache key
relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import DCTreeConfig
from repro.core.bulkload import bulk_load
from repro.core.mds import MDS
from repro.core.result_cache import ResultCache
from repro.core.tree import DCTree
from repro.errors import SchemaError
from repro.maintenance.batch import BatchWarehouse
from repro.workload.queries import query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record

COUNTRIES = ("DE", "FR", "US")
COLORS = ("red", "blue", "green")

EXTRA_ROWS = (
    ("DE", "Hamburg", "blue", 13.0),
    ("FR", "Nice", "red", 9.0),
    ("US", "Austin", "blue", 21.0),
    ("DE", "Munich", "green", 2.0),
)


def build_tree(use_cache, capacity=128):
    """Toy tree with the result cache on or off (hot-path caches fixed on)."""
    schema = build_toy_schema()
    config = DCTreeConfig(
        use_result_cache=use_cache, result_cache_capacity=capacity
    )
    tree = DCTree(schema, config=config)
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    for record in records:
        tree.insert(record)
    return schema, tree, records


def counter_tuple(tree):
    snap = tree.tracker.snapshot()
    return (
        snap.node_accesses,
        snap.buffer_hits,
        snap.buffer_misses,
        snap.page_writes,
        snap.cpu_units,
    )


def country_mds(schema, countries):
    query = query_from_labels(schema, {"Geo": ("Country", list(countries))})
    return query.mds


class TestResultCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SchemaError):
            ResultCache(capacity=0)

    def test_config_validates_capacity(self):
        with pytest.raises(SchemaError):
            DCTreeConfig(result_cache_capacity=0)

    def test_config_gate_disables_cache(self, toy_schema):
        tree = DCTree(toy_schema, config=DCTreeConfig(use_result_cache=False))
        assert tree.result_cache is None

    def test_hit_and_miss_counters(self):
        schema, tree, _records = build_tree(use_cache=True)
        mds = country_mds(schema, ["DE"])
        first = tree.range_query(mds)
        second = tree.range_query(mds)
        assert first == second == 35.0
        stats = tree.result_cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_cached_none_answer_is_a_hit(self):
        schema, tree, _records = build_tree(use_cache=True)
        query = query_from_labels(
            schema,
            {"Geo": ("Country", ["DE"]), "Color": ("Color", ["green"])},
        )
        assert tree.range_query(query.mds, op="avg") is None
        assert tree.range_query(query.mds, op="avg") is None
        stats = tree.result_cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)


class TestLRUEviction:
    def test_capacity_is_enforced(self):
        schema, tree, _records = build_tree(use_cache=True, capacity=2)
        for country in COUNTRIES:
            tree.range_query(country_mds(schema, [country]))
        stats = tree.result_cache.stats()
        assert stats.size == 2
        assert stats.evictions == 1
        assert len(tree.result_cache) == 2

    def test_least_recently_used_goes_first(self):
        schema, tree, _records = build_tree(use_cache=True, capacity=2)
        tree.range_query(country_mds(schema, ["DE"]))  # miss
        tree.range_query(country_mds(schema, ["FR"]))  # miss
        tree.range_query(country_mds(schema, ["DE"]))  # hit: DE now MRU
        tree.range_query(country_mds(schema, ["US"]))  # miss: evicts FR
        tree.range_query(country_mds(schema, ["DE"]))  # still cached
        tree.range_query(country_mds(schema, ["FR"]))  # evicted: miss again
        stats = tree.result_cache.stats()
        assert (stats.hits, stats.misses) == (2, 4)
        assert stats.evictions == 2


class TestInvalidation:
    """Every mutator entry point must make cached answers unservable."""

    def test_insert_invalidates(self):
        schema, tree, _records = build_tree(use_cache=True)
        mds = country_mds(schema, ["DE"])
        assert tree.range_query(mds) == 35.0
        tree.insert(toy_record(schema, "DE", "Bonn", "red", 7.0))
        assert tree.range_query(mds) == 42.0
        assert tree.result_cache.stats().invalidations == 1

    def test_delete_invalidates(self):
        schema, tree, records = build_tree(use_cache=True)
        mds = country_mds(schema, ["DE"])
        assert tree.range_query(mds) == 35.0
        tree.delete(records[0])  # Munich red, 10.0
        assert tree.range_query(mds) == 25.0
        assert tree.result_cache.stats().invalidations == 1

    def test_group_by_never_stale(self):
        schema, tree, _records = build_tree(use_cache=True)
        before = tree.group_by(0, 1)  # per country
        tree.insert(toy_record(schema, "FR", "Paris", "red", 100.0))
        after = tree.group_by(0, 1)
        assert before != after
        fresh = DCTree(schema)
        for record in tree.records():
            fresh.insert(record)
        assert after == fresh.group_by(0, 1)

    def test_bulk_load_bumps_version(self, toy_schema):
        records = [toy_record(toy_schema, *row) for row in TOY_ROWS]
        tree = bulk_load(toy_schema, records)
        assert tree.tree_version > 0
        mds = country_mds(toy_schema, ["DE"])
        assert tree.range_query(mds) == 35.0
        tree.insert(toy_record(toy_schema, "DE", "Bonn", "red", 5.0))
        assert tree.range_query(mds) == 40.0

    def test_maintenance_window_invalidates(self):
        schema = build_toy_schema()
        warehouse = BatchWarehouse(schema)
        for row in TOY_ROWS:
            warehouse.submit_insert_record(toy_record(schema, *row))
        warehouse.run_maintenance_window()
        where = {"Geo": ("Country", ["DE"])}
        assert warehouse.query(where=where) == 35.0
        warehouse.submit_insert_record(toy_record(schema, "DE", "Bonn", "red", 8.0))
        warehouse.run_maintenance_window()
        assert warehouse.query(where=where) == 43.0

    def test_version_is_monotone_across_mutators(self):
        schema, tree, records = build_tree(use_cache=True)
        seen = [tree.tree_version]
        tree.insert(toy_record(schema, "FR", "Nice", "red", 1.0))
        seen.append(tree.tree_version)
        tree.delete(records[0])
        seen.append(tree.tree_version)
        assert seen == sorted(set(seen))


def populated_schema():
    """Toy schema with the TOY_ROWS label paths registered."""
    schema = build_toy_schema()
    for row in TOY_ROWS:
        toy_record(schema, *row)
    return schema


class TestDigest:
    def test_key_and_digest_ignore_construction_order(self):
        toy_schema = populated_schema()
        hierarchies = tuple(d.hierarchy for d in toy_schema.dimensions)
        geo = hierarchies[0]
        countries = sorted(geo.values_at_level(1))[:2]
        color_all = {hierarchies[1].all_id}
        forward = MDS([set(countries), set(color_all)], [1, 1])
        backward = MDS([set(reversed(countries)), set(color_all)], [1, 1])
        assert forward.cache_key() == backward.cache_key()
        assert forward.digest() == backward.digest()

    def test_different_mds_has_different_key(self):
        toy_schema = populated_schema()
        hierarchies = tuple(d.hierarchy for d in toy_schema.dimensions)
        geo = hierarchies[0]
        countries = sorted(geo.values_at_level(1))
        color_all = {hierarchies[1].all_id}
        one = MDS([{countries[0]}, set(color_all)], [1, 1])
        two = MDS([{countries[1]}, set(color_all)], [1, 1])
        assert one.cache_key() != two.cache_key()
        assert one.digest() != two.digest()

    def test_digest_is_stable_across_calls(self):
        toy_schema = populated_schema()
        mds = MDS.all_mds(tuple(d.hierarchy for d in toy_schema.dimensions))
        assert mds.digest() == mds.digest()
        assert len(mds.digest()) == 64


class TestGroupByCopies:
    def test_cached_aggregators_cannot_be_poisoned(self):
        schema, tree, _records = build_tree(use_cache=True)
        first = tree.group_by_aggregators(0, 1)
        baseline = {value: agg.result() for value, agg in first.items()}
        victim = next(iter(first.values()))
        victim.add_summary(victim._summary.copy())  # double it in place
        second = tree.group_by_aggregators(0, 1)
        assert {v: a.result() for v, a in second.items()} == baseline


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from(COUNTRIES),
            st.integers(min_value=0, max_value=5),
            st.sampled_from(COLORS),
            st.integers(min_value=1, max_value=50),
        ),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("range"),
            st.sets(st.sampled_from(COUNTRIES), min_size=1),
            st.sampled_from(["sum", "count", "avg", "min", "max"]),
        ),
        st.tuples(st.just("groupby"), st.integers(min_value=0, max_value=1)),
    ),
    min_size=1,
    max_size=30,
)


def run_sequence(tree, schema, operations):
    """Apply an op sequence; returns the answers it produced."""
    live = [toy_record(schema, *row) for row in TOY_ROWS]
    answers = []
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            _, country, city_n, color, sales = operation
            record = toy_record(
                schema, country, "city%d" % city_n, color, float(sales)
            )
            tree.insert(record)
            live.append(record)
        elif kind == "delete":
            if live:
                record = live.pop(operation[1] % len(live))
                tree.delete(record)
        elif kind == "range":
            _, countries, op = operation
            mds = country_mds(schema, sorted(countries))
            answers.append(tree.range_query(mds, op=op))
        else:
            answers.append(tree.group_by(0, operation[1]))
    return answers


class TestEquivalence:
    @given(operations=ops_strategy)
    def test_cache_on_off_bit_identical(self, operations):
        """Same answers AND same tracker counters, cache on vs off."""
        schema_on, tree_on, _ = build_tree(use_cache=True)
        schema_off, tree_off, _ = build_tree(use_cache=False)
        tree_on.tracker.reset(clear_buffer=True)
        tree_off.tracker.reset(clear_buffer=True)
        answers_on = run_sequence(tree_on, schema_on, operations)
        answers_off = run_sequence(tree_off, schema_off, operations)
        assert answers_on == answers_off
        assert counter_tuple(tree_on) == counter_tuple(tree_off)

    @given(operations=ops_strategy)
    def test_repeated_queries_hit_without_mutation(self, operations):
        """Re-asking the same queries with no mutation in between is all
        hits, and the repeated pass charges the same counters again."""
        schema, tree, _ = build_tree(use_cache=True)
        queries = [op for op in operations if op[0] in ("range", "groupby")]
        if not queries:
            return
        tree.tracker.reset(clear_buffer=True)
        first = run_sequence(tree, schema, queries)
        first_cost = counter_tuple(tree)
        before = tree.result_cache.stats()
        second = run_sequence(tree, schema, queries)
        after = tree.result_cache.stats()
        assert first == second
        assert after.hits - before.hits == len(first)
        second_cost = tuple(
            now - then for now, then in zip(counter_tuple(tree), first_cost)
        )
        # Node accesses and CPU replay exactly; the buffer hit/miss split
        # may shift because the pool is warmer on the second pass (exactly
        # as it would be when recomputing without the cache).
        assert second_cost[0] == first_cost[0]
        assert second_cost[4] == first_cost[4]
