"""Telemetry contract: the exact spans and metric families of a workload.

One scripted toy workload runs with observability on through a durable
session and touches every instrumented operation: ``insert`` and
``insert_batch``, a leaf split and a supernode growth, a delete whose
underflow condenses a leaf (its orphan is reinserted), ``range_query``,
``group_by`` and EXPLAIN of both, WAL appends, fsyncs and a truncate, a
checkpoint and, on reopening the directory, a recovery replay.

The test pins the span-name counts, the attribute keys each span name
carries, and every metric family with its kind and label sets.  A
refactor of how the telemetry is wired must leave all three unchanged;
a deliberate change of the telemetry surface edits the tables below.
"""

from __future__ import annotations

from repro.config import DCTreeConfig
from repro.persist.durable import DurableWarehouse
from repro.warehouse import Warehouse
from tests.conftest import TOY_ROWS, build_toy_schema, toy_record

WHERE_DE = {"Geo": ("Country", ["DE"])}

EXTRA_ROWS = (
    ("FR", "Nice", "red", 0.0),
    ("US", "LA", "blue", 1.0),
    ("US", "LA", "green", 2.0),
    ("FR", "Nice", "green", 3.0),
)


def _config():
    return DCTreeConfig(observability=True, dir_capacity=4, leaf_capacity=4)


def _contract(obs):
    """(span counts, attribute keys per span name, metric families)."""
    keys = {}
    for root in obs.tracer.roots:
        for span, _depth in root.walk():
            keys.setdefault(span.name, set()).update(span.attributes)
    families = {
        name: (
            family["type"],
            {tuple(sorted(sample["labels"].items()))
             for sample in family["samples"]},
        )
        for name, family in obs.registry.snapshot().items()
    }
    return dict(obs.tracer.span_counts), keys, families


def _run_workload(directory):
    schema = build_toy_schema()
    warehouse = Warehouse(schema, config=_config())
    session = DurableWarehouse.create(directory, warehouse)
    tree = warehouse.index
    records = [toy_record(schema, *row) for row in TOY_ROWS]
    extra = [toy_record(schema, *row) for row in EXTRA_ROWS]
    try:
        session.insert_records(records[:4])
        for record in records[4:] + extra:
            session.insert_record(record)
        # Six copies of one cell cannot be split apart: supernode.
        session.insert_records([
            toy_record(schema, "DE", "Munich", "red", 100.0 + index)
            for index in range(6)
        ])
        # Empty the US leaf down to one record: it underflows and the
        # orphan is reinserted (and splits a leaf) under the last delete
        # span.
        for record in (records[5], extra[1], extra[2]):
            session.delete(record)
        warehouse.query("sum", where=WHERE_DE)
        warehouse.query("sum", where=WHERE_DE)  # cache hit
        warehouse.query("max", where=WHERE_DE, explain=True)
        warehouse.group_by("Color", "Color")
        warehouse.group_by("Geo", "Country", explain=True)
        session.checkpoint()
        session.insert_record(toy_record(schema, "FR", "Nice", "blue", 2.0))
        session.insert_records([toy_record(schema, "US", "LA", "red", 1.0)])
    finally:
        session.close()
    tree.check_invariants()
    return tree


SESSION_SPANS = {
    "checkpoint": 1,
    "choose_subtree": 15,
    "delete": 3,
    "group_by": 2,
    "hierarchy_split": 5,
    "insert": 8,
    "insert_batch": 3,
    "range_query": 3,
    "wal.append": 14,
}

RECOVERY_SPANS = {
    "choose_subtree": 2,
    "insert": 1,
    "insert_batch": 1,
    "range_query": 1,
    "recovery.replay": 1,
}

ATTRIBUTE_KEYS = {
    "checkpoint": {"directory", "wal_lsn"},
    "choose_subtree": {"child", "fanout", "node", "position"},
    "delete": {"records", "tree_version"},
    "group_by": {"dim", "level", "op", "tree_version"},
    "hierarchy_split": {"entries", "kind", "mds", "n_blocks", "node",
                        "outcome", "sizes"},
    "insert": {"records", "tree_version"},
    "insert_batch": {"pages_written", "records", "tree_version"},
    "range_query": {"mds", "op", "tree_version"},
    "recovery.replay": {"applied", "bytes_scanned", "torn_tail", "wal"},
    "wal.append": {"lsn", "op"},
}

UNLABELLED = {()}


def _by_span_name(names):
    return {(("name", name),) for name in names}


SESSION_FAMILIES = {
    "checkpoints_total": ("counter", UNLABELLED),
    "dctree_batch_inserts_total": ("counter", UNLABELLED),
    "dctree_batch_pages_per_record": ("histogram", UNLABELLED),
    "dctree_batch_records_total": ("counter", UNLABELLED),
    "dctree_deletes_total": ("counter", UNLABELLED),
    "dctree_explains_total": (
        "counter", {(("kind", "group_by"),), (("kind", "range_query"),)},
    ),
    "dctree_inserts_total": ("counter", UNLABELLED),
    "dctree_splits_total": ("counter", {(("kind", "leaf"),)}),
    "dctree_supernode_growths_total": ("counter", {(("kind", "leaf"),)}),
    "repro_span_seconds": ("histogram", _by_span_name(SESSION_SPANS)),
    "repro_spans_total": ("counter", _by_span_name(SESSION_SPANS)),
    "wal_appends_total": (
        "counter",
        {(("op", "delete"),), (("op", "insert"),), (("op", "insert_batch"),)},
    ),
    "wal_bytes_written_total": ("counter", UNLABELLED),
    "wal_fsyncs_total": ("counter", UNLABELLED),
    "wal_truncates_total": ("counter", UNLABELLED),
}

# Event counters of the session (span counts are pinned above).
SESSION_COUNTS = {
    "checkpoints_total": {(): 1},
    "dctree_batch_inserts_total": {(): 3},
    "dctree_batch_records_total": {(): 11},
    "dctree_deletes_total": {(): 3},
    "dctree_explains_total": {
        (("kind", "group_by"),): 1, (("kind", "range_query"),): 1,
    },
    "dctree_inserts_total": {(): 8},
    "dctree_splits_total": {(("kind", "leaf"),): 3},
    "dctree_supernode_growths_total": {(("kind", "leaf"),): 2},
    "wal_appends_total": {
        (("op", "delete"),): 3, (("op", "insert"),): 8,
        (("op", "insert_batch"),): 3,
    },
    "wal_bytes_written_total": {(): 1156},
    # one per append (fsync_interval=1) plus the checkpoint's sync
    "wal_fsyncs_total": {(): 15},
    "wal_truncates_total": {(): 1},
}

RECOVERY_GAUGES = (
    "applied_batches", "applied_deletes", "applied_inserts",
    "checkpoint_age_seconds", "checkpoint_lsn", "failed_deletes",
    "last_lsn", "n_records", "records_at_checkpoint", "skipped_stale",
    "stopped_at_rebase", "torn_tail", "validated", "wal_bytes_scanned",
    "wal_records_seen",
)

RECOVERY_FAMILIES = {
    "dctree_batch_inserts_total": ("counter", UNLABELLED),
    "dctree_batch_pages_per_record": ("histogram", UNLABELLED),
    "dctree_batch_records_total": ("counter", UNLABELLED),
    "dctree_inserts_total": ("counter", UNLABELLED),
    "repro_span_seconds": ("histogram", _by_span_name(RECOVERY_SPANS)),
    "repro_spans_total": ("counter", _by_span_name(RECOVERY_SPANS)),
    "wal_truncates_total": ("counter", UNLABELLED),
}
RECOVERY_FAMILIES.update(
    ("recovery_" + gauge, ("gauge", UNLABELLED)) for gauge in RECOVERY_GAUGES
)


class TestTelemetryContract:
    def test_session_spans_attributes_and_families(self, tmp_path):
        tree = _run_workload(tmp_path / "dw")
        counts, keys, families = _contract(tree.observability)
        assert counts == SESSION_SPANS
        assert keys == {name: ATTRIBUTE_KEYS[name] for name in SESSION_SPANS}
        assert families == SESSION_FAMILIES

    def test_session_event_counts(self, tmp_path):
        tree = _run_workload(tmp_path / "dw")
        snapshot = tree.observability.registry.snapshot()
        assert {
            name: {tuple(sorted(sample["labels"].items())): sample["value"]
                   for sample in snapshot[name]["samples"]}
            for name in SESSION_COUNTS
        } == SESSION_COUNTS

    def test_condensing_delete_reinserts_under_its_span(self, tmp_path):
        tree = _run_workload(tmp_path / "dw")
        deletes = [root for root in tree.observability.tracer.roots
                   if root.name == "delete"]
        assert [[child.name for child in root.children]
                for root in deletes] == [
            ["wal.append"], ["wal.append"],
            ["choose_subtree", "hierarchy_split", "wal.append"],
        ]

    def test_split_outcomes(self, tmp_path):
        tree = _run_workload(tmp_path / "dw")
        outcomes = [
            span.attributes["outcome"]
            for root in tree.observability.tracer.roots
            for span, _depth in root.walk()
            if span.name == "hierarchy_split"
        ]
        assert outcomes == ["split", "split", "supernode", "supernode", "split"]

    def test_recovery_spans_attributes_and_families(self, tmp_path):
        directory = tmp_path / "dw"
        _run_workload(directory)
        session = DurableWarehouse.open(directory, config=_config())
        try:
            assert session.report.applied_inserts == 2
            counts, keys, families = _contract(session.warehouse.observability)
        finally:
            session.close()
        assert counts == RECOVERY_SPANS
        assert keys == {name: ATTRIBUTE_KEYS[name] for name in RECOVERY_SPANS}
        assert families == RECOVERY_FAMILIES
