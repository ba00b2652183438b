"""Unit tests for DataRecord."""

from repro.cube import ids
from repro.cube.record import DataRecord
from tests.conftest import build_toy_schema, toy_record


class TestValueAccess:
    def test_value_at_level_zero_is_leaf(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 1.0)
        assert record.value_at_level(0, 0) == record.paths[0][-1]

    def test_value_at_level_walks_up(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 1.0)
        country = record.value_at_level(0, 1)
        assert ids.level_of(country) == 1
        assert schema.hierarchy(0).label(country) == "DE"

    def test_value_at_level_matches_hierarchy_ancestor(self):
        schema = build_toy_schema()
        record = toy_record(schema, "FR", "Paris", "blue", 1.0)
        hierarchy = schema.hierarchy(0)
        assert record.value_at_level(0, 1) == hierarchy.ancestor(
            record.paths[0][-1], 1
        )


class TestFlatPoint:
    def test_concatenates_paths(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 1.0)
        assert record.flat_point() == record.paths[0] + record.paths[1]

    def test_length_matches_schema(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 1.0)
        assert len(record.flat_point()) == schema.n_flat_attributes


class TestValueSemantics:
    def test_equal_records(self):
        schema = build_toy_schema()
        a = toy_record(schema, "DE", "Munich", "red", 1.0)
        b = DataRecord(a.paths, a.measures)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_measures_not_equal(self):
        schema = build_toy_schema()
        a = toy_record(schema, "DE", "Munich", "red", 1.0)
        b = toy_record(schema, "DE", "Munich", "red", 2.0)
        assert a != b

    def test_different_paths_not_equal(self):
        schema = build_toy_schema()
        a = toy_record(schema, "DE", "Munich", "red", 1.0)
        b = toy_record(schema, "DE", "Berlin", "red", 1.0)
        assert a != b

    def test_not_equal_to_other_types(self):
        schema = build_toy_schema()
        a = toy_record(schema, "DE", "Munich", "red", 1.0)
        assert a != "record"

    def test_repr_mentions_levels(self):
        schema = build_toy_schema()
        a = toy_record(schema, "DE", "Munich", "red", 1.0)
        assert "L1#" in repr(a)
