"""Tests for the batch-mode warehouse (the paper's antagonist regime)."""

import pytest

from repro.cube.record import DataRecord
from repro.errors import TreeError
from repro.maintenance import BatchWarehouse
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record


def batch_warehouse(backend="dc-tree", window_every=None):
    schema = build_toy_schema()
    return schema, BatchWarehouse(schema, backend, window_every=window_every)


def submit_all(schema, warehouse):
    for row in TOY_ROWS:
        warehouse.submit_insert_record(toy_record(schema, *row))


class TestStaleness:
    def test_updates_invisible_until_window(self):
        schema, warehouse = batch_warehouse()
        submit_all(schema, warehouse)
        assert warehouse.pending_updates == len(TOY_ROWS)
        assert len(warehouse) == 0
        assert warehouse.query("sum") == 0.0

    def test_window_makes_updates_visible(self):
        schema, warehouse = batch_warehouse()
        submit_all(schema, warehouse)
        n_applied, wall = warehouse.run_maintenance_window()
        assert n_applied == len(TOY_ROWS)
        assert wall >= 0
        assert warehouse.pending_updates == 0
        assert warehouse.query("sum") == 96.0

    def test_staleness_recorded_per_query(self):
        schema, warehouse = batch_warehouse()
        warehouse.submit_insert_record(
            toy_record(schema, "DE", "Munich", "red", 1.0))
        warehouse.query("sum")
        warehouse.submit_insert_record(
            toy_record(schema, "DE", "Berlin", "red", 2.0))
        warehouse.query("sum")
        assert warehouse.stats.staleness_samples == [1, 2]
        assert warehouse.stats.mean_staleness == 1.5
        assert warehouse.stats.max_staleness == 2



class TestWindows:
    def test_auto_window_policy(self):
        schema, warehouse = batch_warehouse(window_every=3)
        submit_all(schema, warehouse)  # 7 updates -> windows after 3 and 6
        assert warehouse.stats.n_windows == 2
        assert warehouse.pending_updates == 1

    def test_window_stats_accumulate(self):
        schema, warehouse = batch_warehouse()
        submit_all(schema, warehouse)
        warehouse.run_maintenance_window()
        assert warehouse.stats.windows[0][0] == len(TOY_ROWS)
        assert warehouse.stats.total_downtime_seconds > 0
        assert warehouse.stats.total_simulated_downtime > 0

    def test_empty_window_is_cheap(self):
        warehouse = BatchWarehouse(build_toy_schema())
        n_applied, _wall = warehouse.run_maintenance_window()
        assert n_applied == 0


class TestMalformedSubmission:
    @pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
    def test_refused_on_submit_and_window_still_applies(self, backend):
        """A record from another schema is refused when submitted, so the
        queue holds only records that fit and the next window cannot fail
        halfway through and lose them."""
        schema, warehouse = batch_warehouse(backend)
        munich = toy_record(schema, "DE", "Munich", "red", 1.0)
        warehouse.submit_insert_record(munich)
        other = build_toy_schema()
        toy_record(other, "FR", "Paris", "blue", 1.0)
        foreign = toy_record(other, "FR", "Lyon", "blue", 5.0)
        two_measures = DataRecord(munich.paths, (1.0, 2.0))
        for malformed in (foreign, two_measures):
            with pytest.raises(TreeError):
                warehouse.submit_insert_record(malformed)
        assert warehouse.pending_updates == 1
        warehouse.submit_insert_record(
            toy_record(schema, "DE", "Berlin", "red", 2.0))
        assert warehouse.run_maintenance_window()[0] == 2
        assert warehouse.pending_updates == 0
        assert len(warehouse) == 2
        assert warehouse.query("sum") == 3.0


class TestBackends:
    @pytest.mark.parametrize("backend", ["dc-tree", "x-tree", "scan"])
    def test_batch_regime_on_every_backend(self, backend):
        schema, warehouse = batch_warehouse(backend)
        submit_all(schema, warehouse)
        warehouse.run_maintenance_window()
        assert warehouse.query(
            "sum", where={"Geo": ("Country", ["DE"])}
        ) == 35.0

    def test_repr(self):
        schema, warehouse = batch_warehouse()
        warehouse.submit_insert_record(
            toy_record(schema, "DE", "Munich", "red", 1.0))
        text = repr(warehouse)
        assert "pending=1" in text


class TestMotivationExperiment:
    def test_rows_and_shapes(self):
        from repro.bench.motivation import run_motivation

        rows = run_motivation(n_updates=400, query_every=40, windows=2)
        dynamic, batch = rows
        assert dynamic[0].startswith("dynamic")
        # Drawback 2: the batch regime answers from stale contents.
        assert batch[1] > 0
        assert dynamic[1] == 0
        # Drawback 1: the batch regime pays maintenance downtime.
        assert batch[4] > 0
        assert dynamic[4] == 0

    def test_report_renders(self):
        from repro.bench.motivation import report_motivation

        text = report_motivation(n_updates=200, query_every=50, windows=2)
        assert "staleness" in text
        assert "dynamic dc-tree" in text
