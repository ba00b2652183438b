"""Unit tests for the Warehouse facade."""

import math

import pytest

from repro import (
    DCTreeConfig,
    TPCDGenerator,
    Warehouse,
    XTreeConfig,
    make_tpcd_schema,
)
from repro.core.bulkload import bulk_load
from repro.core.debug import structure_digest
from repro.cube.record import DataRecord
from repro.errors import QueryError, SchemaError, TreeError
from repro.workload.queries import QueryGenerator, query_from_labels
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


def populate(warehouse):
    for country, city, color, sales in TOY_ROWS:
        warehouse.insert(((country, city), (color,)), (sales,))


class TestConstruction:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SchemaError):
            Warehouse(build_toy_schema(), backend="b-tree")

    def test_backend_config_type_checked(self):
        with pytest.raises(SchemaError):
            Warehouse(build_toy_schema(), "dc-tree", config=XTreeConfig())
        with pytest.raises(SchemaError):
            Warehouse(build_toy_schema(), "x-tree", config=DCTreeConfig())

    def test_tpcd_classmethod(self):
        warehouse = Warehouse.tpcd()
        assert warehouse.schema.n_dimensions == 4
        assert warehouse.backend == "dc-tree"

    def test_repr(self):
        warehouse = Warehouse(build_toy_schema())
        assert "dc-tree" in repr(warehouse)


@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
class TestAllBackends:
    def test_insert_and_len(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert len(warehouse) == len(TOY_ROWS)

    def test_query_by_labels(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert warehouse.query(
            "sum", where={"Geo": ("Country", ["DE"])}
        ) == 35.0

    def test_count(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert warehouse.count(where={"Color": ("Color", ["red"])}) == 3

    def test_execute_prepared_query(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        query = query_from_labels(
            warehouse.schema, {"Geo": ("City", ["Munich"])}
        )
        assert warehouse.execute(query) == 30.0

    def test_records_matching(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        query = query_from_labels(
            warehouse.schema, {"Geo": ("Country", ["US"])}
        )
        assert len(warehouse.records_matching(query)) == 2

    def test_delete(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        record = warehouse.insert((("IT", "Rome"), ("red",)), (100.0,))
        warehouse.delete(record)
        assert len(warehouse) == len(TOY_ROWS)
        assert warehouse.query("sum") == 96.0

    def test_tracker_and_footprint(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert warehouse.tracker.snapshot().node_accesses > 0
        assert warehouse.byte_size() > 0


class TestQueryValidation:
    def test_execute_requires_range_query(self):
        warehouse = Warehouse(build_toy_schema())
        with pytest.raises(SchemaError):
            warehouse.execute("not a query")

    def test_execute_rejects_foreign_schema_query(self):
        warehouse = Warehouse(build_toy_schema())
        other_schema = build_toy_schema()
        query = query_from_labels(other_schema, {})
        with pytest.raises(SchemaError):
            warehouse.execute(query)


MEASURE_CALLS = {
    "summary": lambda warehouse, measure: warehouse.summary(measure=measure),
    "group_by": lambda warehouse, measure: warehouse.group_by(
        "Geo", "Country", measure=measure
    ),
    "execute": lambda warehouse, measure: warehouse.execute(
        query_from_labels(warehouse.schema, {}), measure=measure
    ),
}


@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
@pytest.mark.parametrize("call", sorted(MEASURE_CALLS))
class TestMeasureArgument:
    """Every backend and entry point checks the measure the same way."""

    @pytest.mark.parametrize("measure", [-1, 1], ids=["negative", "n_measures"])
    def test_index_out_of_range_rejected(self, backend, call, measure):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        with pytest.raises(QueryError):
            MEASURE_CALLS[call](warehouse, measure)

    def test_unknown_name_rejected(self, backend, call):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        with pytest.raises(SchemaError):
            MEASURE_CALLS[call](warehouse, "Profit")

    def test_name_selects_its_index(self, backend, call):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        assert MEASURE_CALLS[call](warehouse, "Sales") == MEASURE_CALLS[call](
            warehouse, 0
        )


class TestCrossBackendAgreement:
    def test_all_backends_agree_on_tpcd(self):
        schema = make_tpcd_schema()
        from repro import TPCDGenerator

        generator = TPCDGenerator(schema, seed=11, scale_records=300)
        records = generator.generate(300)
        warehouses = {
            backend: Warehouse(schema, backend)
            for backend in ("dc-tree", "x-tree", "scan")
        }
        for record in records:
            for warehouse in warehouses.values():
                warehouse.insert_record(record)
        for query in QueryGenerator(schema, 0.1, seed=3).queries(15):
            results = {
                backend: warehouse.execute(query)
                for backend, warehouse in warehouses.items()
            }
            values = list(results.values())
            assert math.isclose(values[0], values[1], abs_tol=1e-6)
            assert math.isclose(values[1], values[2], abs_tol=1e-6)


@pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
class TestSummaryAndEstimate:
    def test_summary_matches_queries(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        where = {"Geo": ("Country", ["DE"])}
        summary = warehouse.summary(where=where)
        assert summary.aggregate("sum") == warehouse.query("sum", where=where)
        assert summary.aggregate("count") == warehouse.count(where=where)
        assert summary.aggregate("min") == warehouse.query(
            "min", where=where
        )
        assert summary.aggregate("max") == warehouse.query(
            "max", where=where
        )

    def test_summary_unconstrained(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        summary = warehouse.summary()
        assert summary.aggregate("count") == len(warehouse)

    def test_estimate_positive_for_matching_range(self, backend):
        warehouse = Warehouse(build_toy_schema(), backend)
        populate(warehouse)
        estimate = warehouse.estimate(where={"Geo": ("Country", ["DE"])})
        assert estimate > 0
        assert estimate <= len(warehouse)


def _malformed_records(schema, records):
    """Records that do not fit ``schema``, each with one defect."""
    good = records[0]
    # Same leaf chain except the dimension-0 leaf, taken from a record
    # under a different parent: every ID exists, the chain is wrong.
    stranger = next(r for r in records
                    if r.paths[0][-2] != good.paths[0][-2])
    spliced = ((good.paths[0][:-1] + stranger.paths[0][-1:]),) \
        + good.paths[1:]
    # Same shape, built by a second schema instance with other data.
    twin = make_tpcd_schema()
    twin_records = list(TPCDGenerator(twin, seed=99,
                                      scale_records=50).records(50))
    return {
        "other cube": toy_record(build_toy_schema(), "DE", "Munich",
                                 "red", 1.0),
        "twin schema": next(
            r for r in twin_records
            if any(_not_a_chain(schema, dim, path)
                   for dim, path in enumerate(r.paths))),
        "extra measure": DataRecord(good.paths, (1.0, 2.0)),
        "short path": DataRecord(
            (good.paths[0][1:],) + good.paths[1:], good.measures),
        "spliced path": DataRecord(spliced, good.measures),
    }


def _not_a_chain(schema, dim, path):
    table = schema.hierarchy(dim)._ancestor_table
    return table.get(path[-1], ())[:-1] != path[::-1]


@pytest.fixture(scope="module", params=["dc-tree", "x-tree", "scan"])
def loaded_tpcd(request):
    schema = make_tpcd_schema()
    warehouse = Warehouse(schema, request.param)
    records = list(TPCDGenerator(schema, seed=7,
                                 scale_records=2000).records(2000))
    warehouse.insert_records(records)
    return warehouse, records


class TestMalformedRecords:
    """A record that does not fit the schema is refused before any
    mutation, on every backend and on the batch and bulk-load paths."""

    def _state(self, warehouse):
        index = warehouse.index
        return (len(warehouse), getattr(index, "tree_version", None),
                structure_digest(index))

    @pytest.mark.parametrize("defect", ["other cube", "twin schema",
                                        "extra measure", "short path",
                                        "spliced path"])
    def test_refused_without_change(self, loaded_tpcd, defect):
        warehouse, records = loaded_tpcd
        bad = _malformed_records(warehouse.schema, records)[defect]
        before = self._state(warehouse)
        with pytest.raises(TreeError):
            warehouse.insert_record(bad)
        with pytest.raises(TreeError):
            warehouse.insert_records([records[1], bad])
        assert self._state(warehouse) == before
        if hasattr(warehouse.index, "check_invariants"):
            warehouse.index.check_invariants()


def test_bulk_load_refuses_malformed_records():
    schema = make_tpcd_schema()
    records = list(TPCDGenerator(schema, seed=7,
                                 scale_records=200).records(200))
    for bad in _malformed_records(schema, records).values():
        with pytest.raises(TreeError):
            bulk_load(schema, records + [bad])
