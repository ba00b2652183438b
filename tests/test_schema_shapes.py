"""Robustness tests for unusual cube shapes.

The paper evaluates one fixed 4-dimensional cube; a library must cope
with degenerate and extreme schemata: single-dimension cubes, flat
(1-level) dimensions, very deep hierarchies, and wide mixes.
"""

import math

import pytest

from repro import (
    CubeSchema,
    DCTree,
    DCTreeConfig,
    Dimension,
    FlatTable,
    Measure,
    Warehouse,
    XTree,
)
from repro.core.bulkload import bulk_load
from repro.errors import HierarchyError
from repro.workload.queries import QueryGenerator, query_from_labels


def insert_many(warehouse, records):
    for record in records:
        warehouse.insert_record(record)


class TestSingleDimensionCube:
    @pytest.fixture
    def schema(self):
        return CubeSchema(
            dimensions=[Dimension("Time", ("Day", "Month", "Year"))],
            measures=[Measure("Hits")],
        )

    def test_all_backends_agree(self, schema):
        records = [
            schema.record(
                (("%d" % year, "%d-%02d" % (year, month),
                  "%d-%02d-%02d" % (year, month, day)),),
                (float(day),),
            )
            for year in (2024, 2025)
            for month in (1, 2, 3)
            for day in (1, 8, 15, 22)
        ]
        backends = {
            "dc": DCTree(schema), "x": XTree(schema),
            "scan": FlatTable(schema),
        }
        for record in records:
            for index in backends.values():
                index.insert(record)
        backends["dc"].check_invariants()
        query = query_from_labels(schema, {"Time": ("Year", ["2024"])})
        expected = sum(
            r.measures[0] for r in records if query.matches(r)
        )
        assert backends["dc"].range_query(query.mds) == expected
        assert backends["x"].range_query(
            query.to_mbr(), query.predicate()
        ) == expected
        assert backends["scan"].range_query(query.mds) == expected


class TestFlatDimensions:
    @pytest.fixture
    def schema(self):
        """Every dimension has exactly one functional attribute."""
        return CubeSchema(
            dimensions=[
                Dimension("A", ("a",)),
                Dimension("B", ("b",)),
                Dimension("C", ("c",)),
            ],
            measures=[Measure("m")],
        )

    def test_tree_works_without_hierarchy_depth(self, schema):
        tree = DCTree(
            schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        records = [
            schema.record(
                (("a%d" % (i % 5),), ("b%d" % (i % 3),), ("c%d" % (i % 7),)),
                (float(i),),
            )
            for i in range(60)
        ]
        for record in records:
            tree.insert(record)
        tree.check_invariants()
        query = query_from_labels(schema, {"A": ("a", ["a0", "a1"])})
        expected = sum(r.measures[0] for r in records if query.matches(r))
        assert math.isclose(tree.range_query(query.mds), expected)

    def test_group_by_flat_dimension(self, schema):
        warehouse = Warehouse(schema)
        for i in range(20):
            warehouse.insert(
                (("a%d" % (i % 2),), ("b0",), ("c0",)), (1.0,)
            )
        groups = warehouse.group_by("A", "a", op="count")
        assert groups == {"a0": 10, "a1": 10}


class TestDeepHierarchy:
    @pytest.fixture
    def schema(self):
        """A 10-level hierarchy (near the 15-level encoding limit)."""
        levels = tuple("L%d" % i for i in range(10))
        return CubeSchema(
            dimensions=[
                Dimension("Deep", levels),
                Dimension("Flat", ("f",)),
            ],
            measures=[Measure("m")],
        )

    def _record(self, schema, leaf_index, value):
        path = tuple(
            "n%d.%d" % (depth, leaf_index % (depth + 2))
            for depth in range(9)
        ) + ("leaf%d" % leaf_index,)
        return schema.record((path, ("f0",)), (value,))

    def test_inserts_and_splits(self, schema):
        tree = DCTree(
            schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=4)
        )
        records = [self._record(schema, i, float(i)) for i in range(80)]
        for record in records:
            tree.insert(record)
        tree.check_invariants()
        assert tree.height() >= 2

    def test_queries_at_every_level(self, schema):
        tree = DCTree(schema)
        records = [self._record(schema, i, float(i)) for i in range(50)]
        for record in records:
            tree.insert(record)
        hierarchy = schema.hierarchy(0)
        for level in range(hierarchy.top_level):
            values = hierarchy.values_at_level(level)
            assert values
            from repro.core.mds import MDS

            query = MDS(
                [{values[0]}, {schema.hierarchy(1).all_id}],
                [level, schema.hierarchy(1).top_level],
            )
            expected = sum(
                r.measures[0] for r in records
                if r.value_at_level(0, level) == values[0]
            )
            assert math.isclose(tree.range_query(query), expected)

    def test_bulk_load_deep(self, schema):
        records = [self._record(schema, i, 1.0) for i in range(100)]
        tree = bulk_load(
            schema, records,
            config=DCTreeConfig(dir_capacity=4, leaf_capacity=4),
        )
        tree.check_invariants()
        assert len(tree) == 100

    def test_sixteen_levels_rejected(self):
        with pytest.raises(HierarchyError):
            Dimension("TooDeep", tuple("L%d" % i for i in range(16)))


class TestManyDimensions:
    def test_eight_dimensions(self):
        schema = CubeSchema(
            dimensions=[
                Dimension("D%d" % d, ("leaf", "top")) for d in range(8)
            ],
            measures=[Measure("m")],
        )
        tree = DCTree(
            schema, config=DCTreeConfig(dir_capacity=4, leaf_capacity=8)
        )
        records = []
        for i in range(64):
            paths = tuple(
                ("t%d" % ((i >> d) & 1), "v%d.%d" % (d, i % 4))
                for d in range(8)
            )
            record = schema.record(paths, (1.0,))
            tree.insert(record)
            records.append(record)
        tree.check_invariants()
        for query in QueryGenerator(schema, 0.5, seed=2).queries(5):
            expected = sum(1 for r in records if query.matches(r))
            assert tree.range_query(query.mds, op="count") == expected
