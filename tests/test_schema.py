"""Unit tests for cube schemata (Definition 2) and record construction."""

import pytest

from repro import CubeSchema, Dimension, Measure
from repro.errors import QueryError, SchemaError
from tests.conftest import build_toy_schema, toy_record


class TestDimension:
    def test_owns_a_hierarchy(self):
        dim = Dimension("Geo", ("City", "Country"))
        assert dim.hierarchy.name == "Geo"
        assert dim.top_level == 2

    def test_level_names_exposed(self):
        dim = Dimension("Geo", ("City", "Country"))
        assert dim.level_names == ("City", "Country")
        assert dim.n_attributes == 2


class TestCubeSchemaConstruction:
    def test_needs_dimensions(self):
        with pytest.raises(SchemaError):
            CubeSchema([], [Measure("m")])

    def test_needs_measures(self):
        with pytest.raises(SchemaError):
            CubeSchema([Dimension("D", ("a",))], [])

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(SchemaError):
            CubeSchema(
                [Dimension("D", ("a",)), Dimension("D", ("b",))],
                [Measure("m")],
            )

    def test_duplicate_measure_names_rejected(self):
        with pytest.raises(SchemaError):
            CubeSchema(
                [Dimension("D", ("a",))], [Measure("m"), Measure("m")]
            )

    def test_counts(self):
        schema = build_toy_schema()
        assert schema.n_dimensions == 2
        assert schema.n_measures == 1
        assert schema.n_flat_attributes == 3

    def test_tpcd_flat_dimensionality_is_13(self, tpcd_schema):
        # Fig. 10 of the paper: the X-tree gets 13 dimensions.
        assert tpcd_schema.n_flat_attributes == 13


class TestLookups:
    def test_dimension_index(self):
        schema = build_toy_schema()
        assert schema.dimension_index("Color") == 1

    def test_dimension_index_unknown(self):
        with pytest.raises(SchemaError):
            build_toy_schema().dimension_index("Nope")

    def test_measure_index(self):
        assert build_toy_schema().measure_index("Sales") == 0

    def test_measure_index_unknown(self):
        with pytest.raises(SchemaError):
            build_toy_schema().measure_index("Nope")

    @pytest.mark.parametrize("measure", [-1, 1, 0.0, None])
    def test_measure_index_out_of_range(self, measure):
        with pytest.raises(QueryError):
            build_toy_schema().measure_index(measure)

    def test_hierarchy_accessor(self):
        schema = build_toy_schema()
        assert schema.hierarchy(0) is schema.dimensions[0].hierarchy


class TestFlatPositions:
    def test_flat_offsets(self):
        schema = build_toy_schema()
        assert schema.flat_offset(0) == 0
        assert schema.flat_offset(1) == 2

    def test_flat_position_orders_high_level_first(self):
        schema = build_toy_schema()
        # Geo path is (Country, City): Country(level 1) first.
        assert schema.flat_position(0, 1) == 0
        assert schema.flat_position(0, 0) == 1
        assert schema.flat_position(1, 0) == 2

    def test_flat_position_out_of_range(self):
        with pytest.raises(SchemaError):
            build_toy_schema().flat_position(0, 2)

    def test_flat_position_matches_flat_point(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 1.0)
        point = record.flat_point()
        for dim in range(schema.n_dimensions):
            for level in range(schema.dimensions[dim].n_attributes):
                assert (
                    point[schema.flat_position(dim, level)]
                    == record.value_at_level(dim, level)
                )


class TestRecordConstruction:
    def test_record_assigns_ids_and_measures(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 12.5)
        assert record.measures == (12.5,)
        assert len(record.paths) == 2
        assert len(record.paths[0]) == 2
        assert len(record.paths[1]) == 1

    def test_records_share_hierarchy_ids(self):
        schema = build_toy_schema()
        first = toy_record(schema, "DE", "Munich", "red", 1.0)
        second = toy_record(schema, "DE", "Berlin", "red", 2.0)
        assert first.paths[0][0] == second.paths[0][0]
        assert first.paths[1][0] == second.paths[1][0]

    def test_wrong_dimension_count_rejected(self):
        schema = build_toy_schema()
        with pytest.raises(SchemaError):
            schema.record((("DE", "Munich"),), (1.0,))

    def test_wrong_measure_count_rejected(self):
        schema = build_toy_schema()
        with pytest.raises(SchemaError):
            schema.record((("DE", "Munich"), ("red",)), (1.0, 2.0))

    def test_measures_coerced_to_float(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 3)
        assert isinstance(record.measures[0], float)

    def test_record_from_ids_roundtrip(self):
        schema = build_toy_schema()
        original = toy_record(schema, "DE", "Munich", "red", 9.0)
        rebuilt = schema.record_from_ids(original.paths, original.measures)
        assert rebuilt == original

    def test_record_from_ids_wrong_path_length(self):
        schema = build_toy_schema()
        with pytest.raises(SchemaError):
            schema.record_from_ids(((1,), (2,)), (1.0,))

    def test_describe_renders_labels(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 10.0)
        text = schema.describe(record)
        assert "DE/Munich" in text
        assert "Sales=10" in text
