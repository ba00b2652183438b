"""Outside-in layer tracer for the traced benchmark run.

The tracer wraps the public functions of each layer at the attribute the
caller looks up: ``repro.core.split.plan_node_split`` (the tree calls
``split_mod.plan_node_split``), ``repro.core.mds.covers_record``, the
``MDS.adapted_set`` method, ``WriteAheadLog.sync``, and
``repro.persist.durable.save_warehouse``, which durable.py binds at import.
Nothing inside ``src/`` changes; the wrappers are installed for the timed
part of the traced run only and removed afterwards.

Every wrapped call is a span with a start, an end and the span that caused
it.  Spans of the coarse layers (facade, tree operations, splits, WAL,
checkpoints, recovery) are kept in memory with their ids, parent ids and
root ids and written out at the end.  The MDS set operations run millions
of times per run, so their spans are folded into per-name totals as they
close instead of being kept one by one.  Self time is a span's duration
minus the time its child spans cover; a layer's self time is the sum over
its spans.  Time spent outside every span (the benchmark's own loop) is
``unattributed``, measured from the gaps between root spans, so the layer
self times plus the unattributed time must add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time

#: Span-name prefix -> layer (the repository's module names).
LAYERS = {
    "warehouse": "warehouse",
    "tree": "core.tree",
    "split": "core.split",
    "mds": "core.mds",
    "wal": "persist",
    "checkpoint": "persist",
    "recovery": "persist",
}


def layer_of(span_name):
    return LAYERS[span_name.split(".", 1)[0]]


class _Stat:
    """Per-span-name totals, plus counters the observers fill in."""

    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = {}

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount


# -- observers: counts measured where the work happens -------------------


def _count_none(stat, token, args, kwargs, result):
    """plan_node_split returns None when the node must become a supernode."""
    if result is None:
        stat.bump("none")


def _count_true(stat, token, args, kwargs, result):
    """covers_record's useful outcomes: records that match."""
    if result:
        stat.bump("true")


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _checkpoint_bytes(stat, token, args, kwargs, result):
    """save_warehouse(warehouse, path, ...): size of the file it wrote."""
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None:
        stat.bump("bytes", _file_size(path))


def _wal_size(args, kwargs):
    return _file_size(args[0].path)


def _wal_bytes(stat, token, args, kwargs, result):
    """WriteAheadLog.append(self, op, data): bytes and records appended."""
    stat.bump("bytes", _file_size(args[0].path) - token)
    data = kwargs.get("data", args[2] if len(args) > 2 else None)
    stat.bump("records", len(data) if isinstance(data, list) else 1)


# (owner, attribute, span name, keep each span, before hook, after hook).
# ``owner`` is "module" or "module:Class".
TARGETS = (
    ("repro.warehouse:Warehouse", "query", "warehouse.query", True, None, None),
    ("repro.warehouse:Warehouse", "execute", "warehouse.execute", True, None, None),
    ("repro.warehouse:Warehouse", "group_by", "warehouse.group_by", True, None, None),
    ("repro.warehouse:Warehouse", "insert_records", "warehouse.insert_records", True,
     None, None),
    ("repro.warehouse:Warehouse", "summary", "warehouse.summary", True, None, None),
    ("repro.warehouse:Warehouse", "records_matching", "warehouse.records_matching", True,
     None, None),
    ("repro.persist.durable:DurableWarehouse", "insert_records",
     "warehouse.durable_insert_records", True, None, None),
    ("repro.core.tree:DCTree", "insert", "tree.insert", True, None, None),
    ("repro.core.tree:DCTree", "insert_batch", "tree.insert_batch", True, None, None),
    ("repro.core.tree:DCTree", "range_query", "tree.range_query", True, None, None),
    ("repro.core.tree:DCTree", "group_by", "tree.group_by", True, None, None),
    ("repro.core.tree:DCTree", "group_by_aggregators", "tree.group_by", True, None, None),
    ("repro.core.tree:DCTree", "range_summary", "tree.range_summary", True, None, None),
    ("repro.core.tree:DCTree", "range_records", "tree.range_records", True, None, None),
    ("repro.core.tree:DCTree", "check_invariants", "tree.check_invariants", True,
     None, None),
    ("repro.core.split", "plan_node_split", "split.plan_node_split", True,
     None, _count_none),
    ("repro.core.split", "hierarchy_split", "split.hierarchy_split", True, None, None),
    ("repro.core.split", "choose_seeds", "split.choose_seeds", True, None, None),
    ("repro.core.mds", "operation_cost", "mds.operation_cost", False, None, None),
    ("repro.core.mds", "union_cardinality", "mds.union_cardinality", False, None, None),
    ("repro.core.mds", "classify", "mds.classify", False, None, None),
    ("repro.core.mds", "covers_record", "mds.covers_record", False, None, _count_true),
    ("repro.core.mds:MDS", "adapted_set", "mds.adapted_set", False, None, None),
    ("repro.persist.durable:WalSink", "record_insert_batch", "wal.log_batch", True,
     None, None),
    ("repro.persist.wal:WriteAheadLog", "append", "wal.append", True,
     _wal_size, _wal_bytes),
    ("repro.persist.wal:WriteAheadLog", "sync", "wal.sync", True, None, None),
    ("repro.persist.durable", "save_warehouse", "checkpoint", True,
     None, _checkpoint_bytes),
    ("repro.persist.durable", "recover_warehouse", "recovery", True, None, None),
    ("repro.persist.recovery", "read_warehouse_file", "recovery.load", True, None, None),
    ("repro.persist.recovery", "warehouse_from_dict", "recovery.load", True, None, None),
    ("repro.persist.recovery", "_replay_wal", "recovery.replay", True, None, None),
)


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Installs the layer wrappers and accounts their spans."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.missing = []
        self._stack = []
        self._installed = []
        self._next_id = 0
        self._clock = time.perf_counter
        self.region_start = None
        self.region_end = None
        self.unattributed_s = 0.0
        self._last_root_end = None

    # -- install / remove -------------------------------------------------

    def install(self):
        for owner, attr, name, keep, before, after in TARGETS:
            try:
                holder = _resolve(owner)
                original = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.missing.append("%s.%s" % (owner, attr))
                continue
            own = isinstance(holder, type) and attr in holder.__dict__
            raw = holder.__dict__[attr] if own else original
            setattr(holder, attr, self._wrap(name, original, keep, before, after))
            self._installed.append((holder, attr, raw, own or not isinstance(holder, type)))
        if self.missing:
            print("perfbench: trace targets not found: %s" % ", ".join(self.missing),
                  file=sys.stderr)

    def remove(self):
        for holder, attr, raw, restore in reversed(self._installed):
            if restore:
                setattr(holder, attr, raw)
            else:
                delattr(holder, attr)
        self._installed = []

    def __enter__(self):
        self.install()
        self.region_start = self._clock()
        self._last_root_end = self.region_start
        return self

    def __exit__(self, *exc_info):
        self.region_end = self._clock()
        self.unattributed_s += self.region_end - self._last_root_end
        self.remove()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, keep, before, after):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        spans = self.spans
        clock = self._clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            parent = stack[-1] if stack else None
            # frame: [child seconds, id for children's parent, root id]
            if keep or parent is None:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = None
            if parent is None:
                frame = [0.0, span_id, span_id]
            else:
                frame = [0.0, span_id if keep else parent[1], parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                stat.calls += 1
                stat.self_s += self_s
                stat.total_s += duration
                if parent is None:
                    tracer.unattributed_s += start - tracer._last_root_end
                    tracer._last_root_end = end
                else:
                    parent[0] += duration
                if keep:
                    spans.append((span_id, parent[1] if parent else None, frame[2],
                                  name, start, end, self_s))
            if after is not None:
                after(stat, token, args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def wall_s(self):
        return self.region_end - self.region_start

    def layer_self_s(self):
        layers = {}
        for name, stat in self.stats.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + stat.self_s
        return layers

    def reconciliation_error(self):
        """|sum of self times + unattributed - wall|, in seconds."""
        attributed = math.fsum(stat.self_s for stat in self.stats.values())
        return abs(attributed + self.unattributed_s - self.wall_s())

    def call_counts(self):
        return {name: stat.calls for name, stat in sorted(self.stats.items())}

    def write(self, path, summary):
        """Write the kept spans (JSON lines) after a summary line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(summary, sort_keys=True) + "\n")
            origin = self.region_start
            for span_id, parent, root, name, start, end, self_s in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "root": root, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                    "self_s": self_s,
                }) + "\n")
