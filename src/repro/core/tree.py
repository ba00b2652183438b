"""The DC-tree: a fully dynamic index structure for data cubes (§3–4).

The tree is X-tree-shaped — hierarchical directory, supernodes when no
good split exists — but replaces MBRs by MDSs, exploits the partial
ordering of the concept hierarchies, and materializes aggregate measures
in every directory entry so range queries can stop at contained entries.

Public operations:

* :meth:`DCTree.insert` / :meth:`DCTree.delete` — single-record dynamic
  updates (the paper's motivation: no nightly bulk-update window).
* :meth:`DCTree.range_query` — aggregation (SUM/COUNT/AVG/MIN/MAX) over a
  range MDS, Fig. 7's algorithm.
* :meth:`DCTree.range_records` — the matching records themselves.
* :meth:`DCTree.check_invariants` — deep structural audit used by tests.
"""

from __future__ import annotations

import time

from ..config import DCTreeConfig
from ..cube.aggregation import AggregateVector, StreamingAggregator, check_aggregate
from ..errors import QueryError, RecordNotFoundError, TreeError
from ..obs import ExplainResult, Observability, ProfileSession, QueryProfile, traced
from ..storage import page as page_mod
from ..storage.tracker import StorageTracker
from . import mds as mds_mod
from . import split as split_mod
from .mds import MDS
from .node import DCDataNode, DCDirNode
from .result_cache import ResultCache


class _BatchState:
    """Deferred charges of one open :meth:`DCTree.insert_batch`.

    Tracks the pages the batch dirties — in first-touch order, keeping
    the widest write observed per page — plus which of them took a path
    MDS/aggregate fold, so the flush charges ``write_node`` once and the
    fold CPU once per touched node instead of once per record.  Pages
    freed mid-batch (split sources) are dropped: a write-back buffer
    never flushes a page that died before the flush point.
    """

    __slots__ = ("pending",)

    def __init__(self):
        # page_id -> [n_pages, took_path_fold] (insertion-ordered, so the
        # flush replays writes deterministically in first-touch order).
        self.pending = {}

    def touch(self, page_id, n_pages=1):
        """Note a deferred page write (splice, split, root growth)."""
        entry = self.pending.get(page_id)
        if entry is None:
            self.pending[page_id] = [n_pages, False]
        elif n_pages > entry[0]:
            entry[0] = n_pages

    def extend(self, page_id):
        """Note a deferred path MDS/aggregate fold plus its page write."""
        entry = self.pending.get(page_id)
        if entry is None:
            self.pending[page_id] = [1, True]
        else:
            entry[1] = True

    def discard(self, page_id):
        """Forget a page freed before the flush (nothing left to write)."""
        self.pending.pop(page_id, None)


# ----------------------------------------------------------------------
# sinks of the Fig. 7 descent (DCTree._descend)
# ----------------------------------------------------------------------
#
# A sink takes the matching records of each data node read
# (``add_records``) and the aggregate of each contained entry answered
# whole (``fold``).  An entry's group key is ``key_of(child)``, or the
# constant ``key`` when ``key_of`` is None; a None key means the entry's
# aggregate is never taken, so only its overlap is tested.


class _AggregateSink:
    """One aggregate: ``range_query`` and ``range_summary``."""

    __slots__ = ("aggregator", "key")
    key_of = None

    def __init__(self, op, measure_index, use_aggregates):
        self.aggregator = StreamingAggregator(op, measure_index)
        self.key = True if use_aggregates else None

    def add_records(self, records):
        add_record = self.aggregator.add_record
        for record in records:
            add_record(record)

    def fold(self, _key, vector):
        self.aggregator.add_vector(vector)


class _RecordSink:
    """The matching records themselves (``range_records``)."""

    __slots__ = ("records",)
    key = None
    key_of = None

    def __init__(self):
        self.records = []

    def add_records(self, records):
        self.records.extend(records)


class _GroupSink:
    """One aggregator per value at ``level`` of dimension ``dim``.

    An entry's aggregate is taken whole only when its subtree lifts to a
    single group at ``level``.  A group's aggregator is created when the
    group first receives a record or a vector, so a disjoint entry never
    leaves an empty group behind.
    """

    __slots__ = ("groups", "op", "measure_index", "dim", "level",
                 "hierarchy", "key_of")
    key = None

    def __init__(self, op, measure_index, dim, level, hierarchy,
                 use_aggregates):
        self.groups = {}
        self.op = op
        self.measure_index = measure_index
        self.dim = dim
        self.level = level
        self.hierarchy = hierarchy
        self.key_of = self._single_group if use_aggregates else None

    def _single_group(self, child):
        """The one value ``child`` lifts to at ``level``, else None."""
        child_mds = child.mds
        if child_mds.level(self.dim) > self.level:
            return None
        lifted = child_mds.adapted_set(self.dim, self.level, self.hierarchy)
        return next(iter(lifted)) if len(lifted) == 1 else None

    def _group(self, value):
        aggregator = self.groups.get(value)
        if aggregator is None:
            aggregator = StreamingAggregator(self.op, self.measure_index)
            self.groups[value] = aggregator
        return aggregator

    def add_records(self, records):
        dim, level, group = self.dim, self.level, self._group
        for record in records:
            group(record.value_at_level(dim, level)).add_record(record)

    def fold(self, key, vector):
        self._group(key).add_vector(vector)


# ----------------------------------------------------------------------
# telemetry hooks: opening attributes and outcomes of the traced spans
# ----------------------------------------------------------------------


def _inserted(obs, span, _result, tree, _record):
    span.set(tree_version=tree._tree_version, records=tree._n_records)
    obs.counter("dctree_inserts_total", "Records inserted.").inc()


def _batch_applied(obs, span, pages_written, tree, records):
    span.set(tree_version=tree._tree_version, pages_written=pages_written)
    obs.counter("dctree_batch_inserts_total", "Batches inserted.").inc()
    obs.counter(
        "dctree_batch_records_total", "Records inserted through batches."
    ).inc(len(records))
    obs.registry.histogram(
        "dctree_batch_pages_per_record",
        "Amortized pages written per batched record.",
    ).observe(pages_written / len(records))


def _split_started(tree, node):
    return {
        "node": node.page_id, "kind": "leaf" if node.is_leaf else "dir",
        "entries": node.entry_count, "mds": node.mds.digest()[:12],
    }


def _split_finished(obs, span, pair, tree, node):
    kind = "leaf" if node.is_leaf else "dir"
    if pair is None:
        span.set(outcome="supernode", n_blocks=node.n_blocks)
        obs.counter(
            "dctree_supernode_growths_total",
            "Overfull nodes that grew a block instead of splitting.",
            kind=kind,
        ).inc()
    else:
        span.set(outcome="split", sizes=[n.entry_count for n in pair])
        obs.counter(
            "dctree_splits_total", "Successful node splits.", kind=kind,
        ).inc()


def _answered(obs, span, result, tree, *_args):
    span.set(tree_version=tree._tree_version)
    if isinstance(result, ExplainResult):
        obs.counter(
            "dctree_explains_total", "Profiled (EXPLAIN) queries by kind.",
            kind=result.profile.kind,
        ).inc()


def _range_answered(obs, span, result, tree, range_mds, *_args):
    span.set(mds=range_mds.digest()[:12])
    _answered(obs, span, result, tree)


def _deleted(obs, span, _result, tree, _record):
    span.set(tree_version=tree._tree_version, records=tree._n_records)
    obs.counter("dctree_deletes_total", "Records deleted.").inc()


class DCTree:
    """A DC-tree over one :class:`~repro.cube.schema.CubeSchema`.

    Parameters
    ----------
    schema:
        The cube schema; its concept hierarchies are shared with the tree.
    config:
        A :class:`~repro.config.DCTreeConfig` (defaults apply otherwise).
    tracker:
        Optional externally owned :class:`StorageTracker` (lets experiments
        share a buffer pool); the tree creates a private one by default.
    """

    def __init__(self, schema, config=None, tracker=None, storage_config=None):
        self.schema = schema
        self.config = config if config is not None else DCTreeConfig()
        self.hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        if tracker is not None:
            self.tracker = tracker
        else:
            self.tracker = StorageTracker(storage_config)
        self._n_records = 0
        self._root = self._new_data_node(MDS.all_mds(self.hierarchies))
        self._tree_version = 0
        self._batch = None
        self._mutation_sink = None
        self._result_cache = (
            ResultCache(self.config.result_cache_capacity)
            if self.config.use_result_cache else None
        )
        # Telemetry is strictly observational: spans and metrics read the
        # tracker, never charge it, so every deterministic counter is
        # bit-identical with observability on or off.
        self._obs = Observability() if self.config.observability else None
        self._profile = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    def __len__(self):
        return self._n_records

    @property
    def root(self):
        """The root node (read-only use, e.g. by the statistics module)."""
        return self._root

    @property
    def tree_version(self):
        """Monotone counter bumped by every mutation of the tree.

        The result cache keys memoized answers on it; *every* mutator
        entry point — :meth:`insert`, :meth:`delete`, bulk loading, and
        the maintenance paths built on them — must call
        :meth:`note_mutation` so a stale answer can never be served.
        """
        return self._tree_version

    @property
    def result_cache(self):
        """The attached :class:`ResultCache` (None when disabled)."""
        return self._result_cache

    @property
    def observability(self):
        """The attached :class:`~repro.obs.Observability` (None when off)."""
        return self._obs

    def note_mutation(self):
        """Bump :attr:`tree_version` (call after any structural change)."""
        self._tree_version += 1

    def set_mutation_sink(self, sink):
        """Attach a durability sink; pass ``None`` to detach.

        The sink rides next to the :attr:`tree_version` bump: every
        *acknowledged* mutator notifies it before returning —
        ``record_insert(record)`` / ``record_insert_batch(records)`` /
        ``record_delete(record)`` after the in-memory apply succeeds,
        ``record_rebase(n_records)`` on a wholesale root swap
        (:meth:`adopt_root`).  A write-ahead log (see
        :class:`repro.persist.durable.DurableWarehouse`) is the intended
        sink; anything with those four methods works.
        """
        self._mutation_sink = sink

    def adopt_root(self, root, n_records):
        """Install a new root wholesale (bulk load, deserialization).

        Bumps the version like any mutation and notifies the durability
        sink with a *rebase*: a record-level log cannot replay a root
        swap, so the sink must checkpoint (the WAL marks the spot and
        recovery refuses to replay past it without that checkpoint).
        """
        self._root = root
        self._n_records = n_records
        self.note_mutation()
        if self._mutation_sink is not None:
            self._mutation_sink.record_rebase(n_records)

    def height(self):
        """Number of levels, counting the root as 1."""
        levels = 1
        node = self._root
        while not node.is_leaf:
            levels += 1
            node = node.children[0]
        return levels

    def records(self):
        """Iterate over all records (no I/O accounting; test/debug aid)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.records
            else:
                stack.extend(node.children)

    def byte_size(self):
        """Approximate on-disk footprint of the whole tree in bytes."""
        n_flat = self.schema.n_flat_attributes
        n_measures = self.schema.n_measures
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += node.byte_size(n_flat, n_measures)
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    def page_count(self):
        """Pages occupied at the configured page size."""
        page_size = self.tracker.config.page_size
        n_flat = self.schema.n_flat_attributes
        n_measures = self.schema.n_measures
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += page_mod.pages_for(
                node.byte_size(n_flat, n_measures), page_size
            )
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    # ------------------------------------------------------------------
    # insertion (Fig. 4)
    # ------------------------------------------------------------------

    @traced("insert", finish=_inserted)
    def insert(self, record):
        """Insert one data record, keeping the index fully up to date.

        When a durability sink is attached, the mutation is logged after
        the in-memory apply and before this method returns — returning
        IS the acknowledgement, so an acknowledged insert is always
        recoverable and a crash mid-insert loses only the unacknowledged
        one.  A record that does not fit the schema raises
        :class:`TreeError` before anything changes.
        """
        self.schema.check_record(record)
        self.note_mutation()
        self._insert_one(record)
        self._n_records += 1
        if self._mutation_sink is not None:
            self._mutation_sink.record_insert(record)

    def _insert_one(self, record):
        """One Fig. 4 descent from the root; grows the root on a split."""
        # Dynamic hierarchy maintenance (§3.1): assigning/looking up the
        # level-tagged ID of each of the record's attribute values.
        self.tracker.cpu(2 * self.schema.n_flat_attributes)
        split_result = self._insert_into(self._root, record)
        if split_result is not None:
            self._grow_root(split_result)

    def insert_batch(self, records):
        """Insert many records, charging writes once per touched node.

        The descent is record-by-record — the same node accesses, the
        same choose-subtree decisions and the same split points as
        serial :meth:`insert` — so the resulting tree is structurally
        identical and every *read* counter matches bit-for-bit.  What a
        batch amortizes is the write-through charging: the per-path-node
        MDS/aggregate fold CPU and the ``write_node`` page write are
        coalesced per touched node and charged once at the flush that
        ends the batch, so batched page writes are at most (usually far
        below) the serial count.  Splits and supernode growth still run
        at their serial points; only their page writes join the flush.

        Semantics the rest of the stack relies on (and tests pin down):

        * :attr:`tree_version` bumps ONCE per batch, at batch start —
          the result cache invalidates once, not per record.
        * A durability sink is notified once, after the in-memory apply,
          via ``record_insert_batch(records)`` (the WAL group-commits the
          batch as one atomic record: one fsync per acknowledged batch).
          Returning IS the acknowledgement; a crash mid-batch loses the
          whole unacknowledged batch and nothing else.

        Every record is checked against the schema first, so a malformed
        one raises :class:`TreeError` before any record is applied.

        Returns the number of records inserted.
        """
        records = list(records)
        if not records:
            return 0
        for record in records:
            self.schema.check_record(record)
        if self._batch is not None:
            raise TreeError("insert_batch cannot be nested")
        self._apply_batch(records)
        return len(records)

    @traced("insert_batch",
            start=lambda tree, records: {"records": len(records)},
            finish=_batch_applied)
    def _apply_batch(self, records):
        """Insert a non-empty batch; returns the pages its flush wrote."""
        # One version bump acknowledges the whole batch: the result
        # cache (keyed on tree_version) flushes exactly once, and
        # readers observe the batch atomically.
        self.note_mutation()
        batch = self._batch = _BatchState()
        try:
            for record in records:
                self._insert_one(record)
                self._n_records += 1
            pages_written = self._flush_batch(batch)
        finally:
            self._batch = None
        if self._mutation_sink is not None:
            self._mutation_sink.record_insert_batch(records)
        return pages_written

    def _flush_batch(self, batch):
        """Charge the batch's coalesced folds and page writes.

        Pages flush in first-touch order with the widest write observed,
        so the charge sequence is deterministic; returns pages written.
        """
        n_flat = self.schema.n_flat_attributes
        pages_written = 0
        for page_id, (n_pages, extended) in batch.pending.items():
            if extended:
                self.tracker.cpu(n_flat)
            self.tracker.write_node(page_id, n_pages)
            pages_written += n_pages
        return pages_written

    def _charge_node_write(self, page_id, n_pages=1):
        """Charge a page write now, or defer it to the open batch."""
        if self._batch is None:
            self.tracker.write_node(page_id, n_pages)
        else:
            self._batch.touch(page_id, n_pages)

    def _free_node(self, page_id, n_blocks):
        """Free a node's pages, dropping any write still pending on them."""
        if self._batch is not None:
            self._batch.discard(page_id)
        self.tracker.free_node(page_id, n_blocks)

    def _insert_into(self, node, record):
        """Recursive insert; returns a (left, right) pair on split."""
        self.tracker.access_node(node.page_id, node.n_blocks)
        node.mds.add_record(record, self.hierarchies)
        node.aggregate.add_record(record)
        # The materialized measures of the paper make every insert dirty
        # every node on its path.  Serial inserts charge the fold CPU and
        # the write-through page write per record; an open batch defers
        # both to its flush, once per touched node.
        if self._batch is None:
            self.tracker.cpu(self.schema.n_flat_attributes)
            self.tracker.write_node(node.page_id)
        else:
            self._batch.extend(node.page_id)
        if node.is_leaf:
            node.records.append(record)
            if self._overfull(node, node.n_blocks):
                return self._split_or_grow(node)
            return None
        child, position = self._choose_subtree(node, record)
        child_split = self._insert_into(child, record)
        if child_split is not None:
            node.children[position:position + 1] = list(child_split)
            # The node is already pinned by this descent (accessed and
            # charged above); the splice only dirties it again.
            self._charge_node_write(node.page_id)
            if self._overfull(node, node.n_blocks):
                return self._split_or_grow(node)
        return None

    @traced("choose_subtree",
            start=lambda tree, node, record: {
                "node": node.page_id, "fanout": len(node.children),
            },
            finish=lambda obs, span, chosen, *_args: span.set(
                child=chosen[0].page_id, position=chosen[1],
            ))
    def _choose_subtree(self, node, record):
        """Pick the son the record descends into; returns (child, position).

        Criteria (in order): least growth of the child's MDS size, least
        resulting volume, fewest entries.  A child that already covers the
        record therefore always wins.  The record's value at each
        (dimension, level) pair is resolved once per insert, not once per
        child — siblings overwhelmingly share relevant levels.
        """
        best = None
        best_key = None
        best_position = 0
        value_at = {}
        n_dimensions = self.schema.n_dimensions
        hierarchies = self.hierarchies
        for position, child in enumerate(node.children):
            growth = 0
            volume = 1
            child_mds = child.mds
            for dim in range(n_dimensions):
                level = child_mds.level(dim)
                value = value_at.get((dim, level))
                if value is None:
                    hierarchy = hierarchies[dim]
                    if level >= hierarchy.top_level:
                        value = hierarchy.all_id
                    else:
                        value = record.value_at_level(dim, level)
                    value_at[(dim, level)] = value
                cardinality = child_mds.cardinality(dim)
                if value not in child_mds.value_set(dim):
                    growth += 1
                    cardinality += 1
                volume *= cardinality
            key = (growth, volume, child.entry_count)
            if best_key is None or key < best_key:
                best_key = key
                best = child
                best_position = position
        self.tracker.cpu(len(node.children) * n_dimensions)
        return best, best_position

    def _grow_root(self, split_pair):
        """Install a new root above a split root (tree grows by one level)."""
        old_mds = self._root.mds
        new_root = DCDirNode(
            MDS(
                [set(old_mds.value_set(d)) for d in range(old_mds.n_dimensions)],
                old_mds.levels,
            ),
            self._aggregate_of_nodes(split_pair),
            self.tracker.new_page_id(),
            children=list(split_pair),
        )
        self._root = new_root
        self.tracker.access_node(new_root.page_id, new_root.n_blocks)
        self._charge_node_write(new_root.page_id)

    # ------------------------------------------------------------------
    # splitting (Fig. 5) and supernode management
    # ------------------------------------------------------------------

    def _overfull(self, node, n_blocks):
        """Would the node overflow ``n_blocks`` blocks (per the capacity
        mode)?  ``node.n_blocks`` asks whether it outgrew its own."""
        if self.config.capacity_mode == "entries":
            base = (
                self.config.leaf_capacity if node.is_leaf
                else self.config.dir_capacity
            )
            return node.entry_count > base * n_blocks
        page_size = self.tracker.config.page_size
        return node.byte_size(
            self.schema.n_flat_attributes, self.schema.n_measures
        ) > page_size * n_blocks

    def _blocks_needed(self, node):
        """Blocks a freshly materialized node occupies."""
        if self.config.capacity_mode == "entries":
            base = (
                self.config.leaf_capacity if node.is_leaf
                else self.config.dir_capacity
            )
            return max(1, -(-node.entry_count // base))
        return page_mod.pages_for(
            node.byte_size(
                self.schema.n_flat_attributes, self.schema.n_measures
            ),
            self.tracker.config.page_size,
        )

    @traced("hierarchy_split", start=_split_started, finish=_split_finished)
    def _split_or_grow(self, node):
        """Split the overfull node or grow it into/as a supernode.

        Returns a (left, right) node pair on success, None when the node
        became (or stays) a supernode.
        """
        if node.is_leaf:
            adapt = self._make_record_adapter(node.records)
            n_entries = len(node.records)
        else:
            adapt = self._make_entry_adapter(node.children)
            n_entries = len(node.children)
        plan = split_mod.plan_node_split(
            node.mds, n_entries, adapt, self.config, self.hierarchies
        )
        if plan is None:
            node.n_blocks += 1
            return None
        self.tracker.cpu(plan.cpu_units)
        if node.is_leaf:
            pair = self._materialize_leaf_split(node, plan)
        else:
            pair = self._materialize_dir_split(node, plan)
        self._free_node(node.page_id, node.n_blocks)
        return pair

    def _make_record_adapter(self, records):
        """Adapter producing record MDSs at arbitrary target levels."""

        def adapt(levels):
            return [
                MDS.for_record(record, levels, self.hierarchies)
                for record in records
            ]

        return adapt

    def _make_entry_adapter(self, children):
        """Adapter producing child-entry MDSs at arbitrary target levels.

        When a child's relevant level in some dimension lies *above* the
        requested level (possible when the node split descends a concept
        level the child never descended), the child's actual values at the
        requested level are collected from its subtree — charged as real
        node accesses, as a disk-resident implementation would pay them.
        """

        def adapt(levels):
            adapted = []
            for child in children:
                sets = []
                for dim, level in enumerate(levels):
                    if child.mds.level(dim) <= level:
                        sets.append(
                            child.mds.adapted_set(
                                dim, level, self.hierarchies[dim]
                            )
                        )
                    else:
                        sets.append(self._collect_values(child, dim, level))
                adapted.append(MDS(sets, levels))
            return adapted

        return adapt

    def _collect_values(self, node, dim, level):
        """Actual values at ``level`` in ``dim`` occurring under ``node``."""
        hierarchy = self.hierarchies[dim]
        if level >= hierarchy.top_level:
            return {hierarchy.all_id}
        values = set()
        stack = [node]
        while stack:
            current = stack.pop()
            self.tracker.access_node(current.page_id, current.n_blocks)
            if current.is_leaf:
                for record in current.records:
                    values.add(record.value_at_level(dim, level))
                self.tracker.cpu(len(current.records))
            else:
                for child in current.children:
                    if child.mds.level(dim) <= level:
                        values.update(
                            child.mds.adapted_set(dim, level, hierarchy)
                        )
                    else:
                        stack.append(child)
                self.tracker.cpu(len(current.children))
        return values

    def _materialize_leaf_split(self, node, plan):
        groups = plan.groups
        pair = []
        for group in groups:
            records = [node.records[i] for i in group]
            new_node = self._new_data_node(
                MDS.empty(plan.levels), records=records
            )
            for record in records:
                new_node.mds.add_record(record, self.hierarchies)
                new_node.aggregate.add_record(record)
            new_node.n_blocks = self._blocks_needed(new_node)
            pair.append(new_node)
        self.tracker.cpu(len(node.records) * self.schema.n_dimensions)
        for new_node in pair:
            self.tracker.access_node(new_node.page_id, new_node.n_blocks)
            self._charge_node_write(new_node.page_id, new_node.n_blocks)
        return tuple(pair)

    def _materialize_dir_split(self, node, plan):
        groups = plan.groups
        pair = []
        for group in groups:
            children = [node.children[i] for i in group]
            for child in children:
                self._refine_child_levels(child, plan.levels)
            group_mds = MDS.empty(plan.levels)
            for child in children:
                self._extend_with_child(group_mds, child)
            new_node = DCDirNode(
                group_mds,
                self._aggregate_of_nodes(children),
                self.tracker.new_page_id(),
                children=children,
            )
            new_node.n_blocks = self._blocks_needed(new_node)
            pair.append(new_node)
        self.tracker.cpu(len(node.children) * self.schema.n_dimensions)
        for new_node in pair:
            self.tracker.access_node(new_node.page_id, new_node.n_blocks)
            self._charge_node_write(new_node.page_id, new_node.n_blocks)
        return tuple(pair)

    def _refine_child_levels(self, child, levels):
        """Deepen a child whose MDS is coarser than the split target.

        A hierarchy split may descend one concept level past a child that
        never descended there itself; the child's exact value set at the
        target level was already collected for the grouping, so the
        child's own MDS is refined to it — children stay at least as
        specific as their parents.
        """
        for dim, level in enumerate(levels):
            if child.mds.level(dim) > level:
                child.mds.refine_dimension(
                    dim, self._collect_values(child, dim, level), level
                )

    def _extend_with_child(self, group_mds, child):
        """Fold a child's value sets into a group MDS being built."""
        for dim in range(group_mds.n_dimensions):
            level = group_mds.level(dim)
            if child.mds.level(dim) <= level:
                group_mds.update_values(
                    dim,
                    child.mds.adapted_set(dim, level, self.hierarchies[dim]),
                )
            else:
                group_mds.update_values(
                    dim, self._collect_values(child, dim, level)
                )

    def _aggregate_of_nodes(self, nodes):
        aggregate = AggregateVector(self.schema.n_measures)
        for node in nodes:
            aggregate.add_vector(node.aggregate)
        return aggregate

    def _new_data_node(self, mds, records=None):
        return DCDataNode(
            mds,
            AggregateVector(self.schema.n_measures),
            self.tracker.new_page_id(),
            records=records,
        )

    # ------------------------------------------------------------------
    # range queries (Fig. 7)
    # ------------------------------------------------------------------

    def _classify_entry(self, range_mds, entry_mds, check_containment=True):
        """DISJOINT/PARTIAL/CONTAINED classification of one directory entry.

        Charges one :func:`~repro.core.mds.operation_cost` — the cost
        model prices the *logical* comparison — then runs the fused
        single-pass :func:`~repro.core.mds.classify`.
        """
        self.tracker.cpu(mds_mod.operation_cost(range_mds, entry_mds))
        return mds_mod.classify(
            range_mds, entry_mds, self.hierarchies, check_containment
        )

    @traced("range_query",
            start=lambda tree, range_mds, op, measure, explain: {"op": op},
            finish=_range_answered)
    def range_query(self, range_mds, op="sum", measure=0, explain=False):
        """Aggregate ``op`` of one measure over the cells in ``range_mds``.

        ``measure`` may be an index or a measure name.  Uses the
        materialized aggregates of contained directory entries unless the
        configuration disables them (ablation `abl-measures`).  MIN and
        MAX additionally run branch-and-bound over the stored extrema
        (the optimization of Ho et al., the paper's reference [6]): a
        partially overlapping subtree whose stored bound cannot improve
        the current best is pruned without being read.

        With ``explain=True`` the answer comes back as an
        :class:`~repro.obs.ExplainResult` carrying a per-level
        :class:`~repro.obs.QueryProfile` whose page/CPU totals reconcile
        exactly with the tracker delta of the call.  Charges are
        bit-identical to the plain call (see :meth:`_answer`).
        """
        check_aggregate(op)
        measure_index = self.schema.measure_index(measure)
        self._check_query_mds(range_mds)
        # use_materialized_aggregates changes the traversal (and therefore
        # the charged trace), so it is part of the memo identity: flipping
        # the ablation knob mid-life must recompute, not replay.
        key = ("range", range_mds.cache_key(), op, measure_index,
               self.config.use_materialized_aggregates)
        return self._answer(
            "range_query", op, measure_index, key, explain,
            lambda: self._range_query_computed(range_mds, op, measure_index),
        )

    def _answer(self, kind, op, measure_index, key, explain, compute,
                copy=None):
        """Answer a query through the result cache, profiled on EXPLAIN.

        A hit replays the stored charges and hands out the stored value
        (a ``copy`` of it when given — callers may mutate what they get).
        A miss runs ``compute`` under an access trace and stores its value
        (again a ``copy`` when given).  With ``explain`` the answer comes
        back as an :class:`ExplainResult` whose charges are bit-identical
        to the plain call: a miss traces and stores exactly as above, and
        a *hit* recomputes instead of replaying — the stored trace was
        recorded at this very tree version, so recomputing makes exactly
        the charges the replay would have (the cache's
        counter-invisibility invariant), while giving the profiler a real
        traversal to attribute.
        """
        cache = self._result_cache
        store = cache is not None
        if explain:
            profile = QueryProfile(kind, op, measure_index, self._tree_version)
            if store:
                store = cache.peek(key, self._tree_version) is None
                profile.cache_outcome = "miss" if store else "hit"
            else:
                profile.cache_outcome = "disabled"
            started = time.perf_counter()
            profile.before = self.tracker.snapshot()
            session = self._profile = ProfileSession(profile, self.tracker)
        elif store:
            entry = cache.fetch(key, self._tree_version, self.tracker)
            if entry is not None:
                return entry.value if copy is None else copy(entry.value)
        try:
            if store:
                with self.tracker.trace_accesses() as trace:
                    cpu_before = self.tracker.cpu_units
                    value = compute()
                    cpu_units = self.tracker.cpu_units - cpu_before
                cache.store(
                    key, self._tree_version,
                    value if copy is None else copy(value), trace, cpu_units,
                )
            else:
                value = compute()
        finally:
            if explain:
                self._profile = None
                session.finish()
                profile.after = self.tracker.snapshot()
                profile.wall_seconds = time.perf_counter() - started
        return ExplainResult(value, profile) if explain else value

    def _range_query_computed(self, range_mds, op, measure_index):
        """The actual Fig. 7 traversal behind :meth:`range_query`."""
        use_aggregates = self.config.use_materialized_aggregates
        if op in ("min", "max") and use_aggregates:
            return self._range_extremum(range_mds, op, measure_index)
        sink = _AggregateSink(op, measure_index, use_aggregates)
        self._descend(self._root, range_mds, sink)
        return sink.aggregator.result()

    def _descend(self, node, range_mds, sink, depth=0):
        """Fig. 7 for every read that feeds a sink: a disjoint entry is
        skipped, a contained one folds its materialized aggregate into its
        group key, any other is descended; leaves hand over their matches.
        """
        self.tracker.access_node(node.page_id, node.n_blocks)
        profile = self._profile
        if profile is not None:
            profile.visit(depth, node.n_blocks)
        if node.is_leaf:
            sink.add_records(self._leaf_matches(node, range_mds))
            if profile is not None:
                profile.scanned(depth, len(node.records))
                profile.charge_cpu(depth)
            return
        classify = self._classify_entry
        key_of = sink.key_of
        key = sink.key
        for child in node.children:
            if key_of is not None:
                key = key_of(child)
            outcome = classify(range_mds, child.mds, key is not None)
            if profile is not None:
                profile.classified(depth, outcome)
                profile.charge_cpu(depth)
            if outcome == mds_mod.DISJOINT:
                continue
            if outcome == mds_mod.CONTAINED:
                sink.fold(key, child.aggregate)
                if profile is not None:
                    profile.aggregate_hit(depth)
            else:
                self._descend(child, range_mds, sink, depth + 1)

    def _range_extremum(self, range_mds, op, measure_index):
        """Branch-and-bound range-MAX/MIN (reference [6] style)."""
        sign = 1.0 if op == "max" else -1.0
        best = self._extremum_node(
            self._root, range_mds, sign, measure_index, None
        )
        return best

    def _extremum_node(self, node, range_mds, sign, measure_index, best,
                       depth=0):
        self.tracker.access_node(node.page_id, node.n_blocks)
        profile = self._profile
        if profile is not None:
            profile.visit(depth, node.n_blocks)
        if node.is_leaf:
            for record in self._leaf_matches(node, range_mds):
                value = record.measures[measure_index]
                if best is None or sign * value > sign * best:
                    best = value
            if profile is not None:
                profile.scanned(depth, len(node.records))
                profile.charge_cpu(depth)
            return best
        candidates = []
        for child in node.children:
            outcome = self._classify_entry(range_mds, child.mds)
            if profile is not None:
                profile.classified(depth, outcome)
                profile.charge_cpu(depth)
            if outcome == mds_mod.DISJOINT:
                continue
            summary = child.aggregate.summaries[measure_index]
            if summary.count == 0:
                continue
            bound = summary.max if sign > 0 else summary.min
            contained = outcome == mds_mod.CONTAINED
            candidates.append((sign * bound, contained, bound, child))
        # Most promising bound first maximizes subsequent pruning.
        candidates.sort(key=lambda item: item[0], reverse=True)
        for signed_bound, contained, bound, child in candidates:
            if best is not None and signed_bound <= sign * best:
                break  # no remaining subtree can improve the best
            if contained:
                best = bound
                if profile is not None:
                    profile.aggregate_hit(depth)
            else:
                best = self._extremum_node(
                    child, range_mds, sign, measure_index, best, depth + 1
                )
        return best

    def range_summary(self, range_mds, measure=0):
        """All supported aggregates of one measure in a single pass.

        Returns a :class:`~repro.cube.aggregation.MeasureSummary` — sum,
        count, min and max together for the price of one traversal (the
        materialized vectors hold all four, Fig. 7's algorithm is
        aggregate-agnostic).
        """
        measure_index = self.schema.measure_index(measure)
        self._check_query_mds(range_mds)
        sink = _AggregateSink(
            "sum", measure_index, self.config.use_materialized_aggregates
        )
        self._descend(self._root, range_mds, sink)
        return sink.aggregator.summary

    def estimate_count(self, range_mds, max_depth=1):
        """Cheap cardinality estimate from the directory only.

        Descends at most ``max_depth`` levels; fully contained entries
        contribute their exact counts, partially overlapping entries are
        prorated by the fraction of their MDS volume the query covers
        (uniformity assumption — the classic optimizer trade of accuracy
        for I/O).  ``max_depth=0`` inspects only the root's entries.
        """
        self._check_query_mds(range_mds)
        return self._estimate_node(self._root, range_mds, max_depth)

    def _estimate_node(self, node, range_mds, depth_budget):
        self.tracker.access_node(node.page_id, node.n_blocks)
        if node.is_leaf:
            return float(len(self._leaf_matches(node, range_mds)))
        estimate = 0.0
        for child in node.children:
            outcome = self._classify_entry(range_mds, child.mds)
            if outcome == mds_mod.DISJOINT:
                continue
            if outcome == mds_mod.CONTAINED:
                estimate += child.aggregate.count
            elif depth_budget > 0:
                estimate += self._estimate_node(
                    child, range_mds, depth_budget - 1
                )
            else:
                fraction = self._overlap_fraction(range_mds, child.mds)
                estimate += child.aggregate.count * fraction
        return estimate

    def _overlap_fraction(self, range_mds, entry_mds):
        """Estimated fraction of the entry's records inside the range.

        Per dimension: the covered share of the entry's value set,
        expanded to the *query's* level when the query is more specific
        (upward adaptation would wildly overestimate — 25 % of the days
        adapt up to *all* months).  Dimensions multiply (independence
        assumption).
        """
        fraction = 1.0
        for dim in range(range_mds.n_dimensions):
            hierarchy = self.hierarchies[dim]
            query_level = range_mds.level(dim)
            entry_level = entry_mds.level(dim)
            query_set = range_mds.value_set(dim)
            if query_level >= entry_level:
                # Inspecting the entry means lifting each of its stored
                # values; charge those, not the (possibly collapsed)
                # adapted set.
                self.tracker.cpu(entry_mds.cardinality(dim))
                entry_set = entry_mds.adapted_set(dim, query_level, hierarchy)
                covered = len(entry_set & query_set)
                total = len(entry_set)
            else:
                covered = 0
                total = 0
                for value in entry_mds.value_set(dim):
                    descendants = hierarchy.descendants_at_level(
                        value, query_level
                    )
                    self.tracker.cpu(len(descendants))
                    covered += len(descendants & query_set)
                    total += len(descendants)
            if total == 0:
                return 0.0
            fraction *= covered / total
            if fraction == 0.0:
                return 0.0
        return fraction

    def range_records(self, range_mds):
        """The records inside ``range_mds`` (always descends to leaves)."""
        self._check_query_mds(range_mds)
        sink = _RecordSink()
        self._descend(self._root, range_mds, sink)
        return sink.records

    def _leaf_matches(self, node, range_mds):
        """The records of data node ``node`` inside ``range_mds``.

        Charges one CPU unit per record and dimension, then tests each
        record with :func:`~repro.core.mds.covers_record` — looked up on
        the module at call time, so a wrapper installed there sees every
        leaf test.
        """
        self.tracker.cpu(len(node.records) * self.schema.n_dimensions)
        covers_record = mds_mod.covers_record
        hierarchies = self.hierarchies
        return [record for record in node.records
                if covers_record(range_mds, record, hierarchies)]

    def _check_query_mds(self, range_mds):
        if range_mds.n_dimensions != self.schema.n_dimensions:
            raise QueryError(
                "query has %d dimensions, cube has %d"
                % (range_mds.n_dimensions, self.schema.n_dimensions)
            )
        if range_mds.is_empty():
            raise QueryError("query MDS has an empty dimension")

    # ------------------------------------------------------------------
    # group-by (roll-up along one concept hierarchy)
    # ------------------------------------------------------------------

    def group_by(self, dim_index, level, op="sum", measure=0,
                 range_mds=None, explain=False):
        """Aggregate per value at ``level`` of dimension ``dim_index``.

        Returns ``{attr_id: aggregate}`` for every value with at least
        one record (inside ``range_mds``, when given).  One traversal:
        a subtree whose MDS maps to a *single* group and lies fully
        inside the range contributes its materialized aggregate without
        being read; everything else descends.

        With ``explain=True`` returns an
        :class:`~repro.obs.ExplainResult` over the finished group dict.
        """
        answer = self.group_by_aggregators(
            dim_index, level, op, measure, range_mds, explain=explain
        )
        groups = answer.value if explain else answer
        finished = {
            value: aggregator.result() for value, aggregator in groups.items()
        }
        return ExplainResult(finished, answer.profile) if explain else finished

    @traced("group_by",
            start=lambda tree, dim_index, level, op, *_args: {
                "dim": dim_index, "level": level, "op": op,
            },
            finish=_answered)
    def group_by_aggregators(self, dim_index, level, op="sum", measure=0,
                             range_mds=None, explain=False):
        """Like :meth:`group_by` but returns the live aggregators.

        Callers that need to merge groups further (e.g. by label — TPC-D
        market segments repeat under every nation) combine the underlying
        summaries instead of the finished scalars.
        """
        check_aggregate(op)
        measure_index = self.schema.measure_index(measure)
        if not 0 <= dim_index < self.schema.n_dimensions:
            raise QueryError("dimension index %r out of range" % (dim_index,))
        hierarchy = self.hierarchies[dim_index]
        if not 0 <= level < hierarchy.top_level:
            raise QueryError(
                "group-by level %r out of range for dimension %d"
                % (level, dim_index)
            )
        if range_mds is None:
            range_mds = MDS.all_mds(self.hierarchies)
        else:
            self._check_query_mds(range_mds)
        key = (
            "groupby", dim_index, level, op, measure_index,
            range_mds.cache_key(),
            self.config.use_materialized_aggregates,
        )
        # Copies in and out of the cache: callers merge groups onwards
        # (e.g. by label) and must not mutate the memoized aggregators.
        return self._answer(
            "group_by", op, measure_index, key, explain,
            lambda: self._group_by_computed(
                dim_index, level, op, measure_index, range_mds
            ),
            copy=lambda groups: {
                value: aggregator.copy() for value, aggregator in groups.items()
            },
        )

    def _group_by_computed(self, dim_index, level, op, measure_index,
                           range_mds):
        """The actual one-pass roll-up behind :meth:`group_by_aggregators`."""
        sink = _GroupSink(
            op, measure_index, dim_index, level, self.hierarchies[dim_index],
            self.config.use_materialized_aggregates,
        )
        self._descend(self._root, range_mds, sink)
        return sink.groups

    # ------------------------------------------------------------------
    # deletion (the 'fully dynamic' complement of insert)
    # ------------------------------------------------------------------

    @traced("delete", finish=_deleted)
    def delete(self, record):
        """Remove one record (by value); raise if it is not indexed.

        Aggregates are subtracted along the deletion path; stale MIN/MAX
        summaries and the path's MDSs are recomputed bottom-up so coverage
        *and* minimality keep holding.  Empty nodes are unlinked,
        underflowing nodes are condensed (their contents reinserted, as in
        the R-tree), shrunk supernodes give blocks back, and a root
        directory left with a single child is collapsed.  A record that is
        not indexed raises :class:`RecordNotFoundError` without bumping
        :attr:`tree_version`: nothing changed, so cached answers stay.
        """
        orphans = []
        if not self._delete_from(self._root, record, orphans):
            raise RecordNotFoundError("record not found: %r" % (record,))
        self.note_mutation()
        self._n_records -= 1
        self._collapse_root()
        for orphan in orphans:
            self._insert_one(orphan)
        if self._mutation_sink is not None:
            self._mutation_sink.record_delete(record)

    def _collapse_root(self):
        root = self._root
        if not root.is_leaf and len(root.children) == 1:
            self._root = root.children[0]
            self._free_node(root.page_id, root.n_blocks)

    def _delete_from(self, node, record, orphans):
        self.tracker.access_node(node.page_id, node.n_blocks)
        if node.is_leaf:
            try:
                node.records.remove(record)
            except ValueError:
                return False
            self._recompute_leaf_summary(node)
            self.tracker.write_node(node.page_id)
            return True
        for child in node.children:
            self.tracker.cpu(self.schema.n_dimensions)
            if not mds_mod.covers_record(child.mds, record, self.hierarchies):
                continue
            if self._delete_from(child, record, orphans):
                self._handle_underflow(node, child, orphans)
                self._recompute_dir_summary(node)
                self.tracker.write_node(node.page_id)
                return True
        return False

    def _handle_underflow(self, parent, child, orphans):
        """Unlink empty/underfull children; shrink shrunken supernodes."""
        if child.entry_count == 0:
            parent.children.remove(child)
            self._free_node(child.page_id, child.n_blocks)
            return
        if child.is_supernode:
            while child.n_blocks > 1 and not self._overfull(
                child, child.n_blocks - 1
            ):
                child.n_blocks -= 1
            return
        min_fanout = (
            self.config.min_leaf_fanout() if child.is_leaf
            else self.config.min_dir_fanout()
        )
        if child.entry_count < min_fanout and len(parent.children) > 1:
            parent.children.remove(child)
            self._collect_orphans(child, orphans)

    def _collect_orphans(self, node, orphans):
        """Gather every record under ``node`` and free its pages."""
        stack = [node]
        while stack:
            current = stack.pop()
            self.tracker.access_node(current.page_id, current.n_blocks)
            self._free_node(current.page_id, current.n_blocks)
            if current.is_leaf:
                orphans.extend(current.records)
            else:
                stack.extend(current.children)

    def _recompute_leaf_summary(self, node):
        node.aggregate.clear()
        for dim in range(node.mds.n_dimensions):
            node.mds.clear_dimension(dim)
        for record in node.records:
            node.aggregate.add_record(record)
            node.mds.add_record(record, self.hierarchies)
        self.tracker.cpu(len(node.records) * self.schema.n_dimensions)

    def _recompute_dir_summary(self, node):
        node.aggregate.clear()
        for dim in range(node.mds.n_dimensions):
            node.mds.clear_dimension(dim)
        for child in node.children:
            node.aggregate.add_vector(child.aggregate)
            self._extend_with_child(node.mds, child)
        self.tracker.cpu(len(node.children) * self.schema.n_dimensions)

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------

    def check_invariants(self):
        """Audit the whole tree; raise :class:`TreeError` on any violation.

        Checks per node: MDS levels within bounds and dominated by the
        parent's, exact coverage *and* minimality of the MDS, aggregate
        consistency with the subtree, capacity respected, and supernode
        bookkeeping.  Returns the total number of records seen.
        """
        total = self._check_node(self._root, parent_levels=None)
        if total != self._n_records:
            raise TreeError(
                "record count mismatch: tree says %d, traversal found %d"
                % (self._n_records, total)
            )
        return total

    def _check_node(self, node, parent_levels):
        mds = node.mds
        for dim in range(mds.n_dimensions):
            level = mds.level(dim)
            top = self.hierarchies[dim].top_level
            if not 0 <= level <= top:
                raise TreeError("level %d out of range in dim %d" % (level, dim))
            if parent_levels is not None and level > parent_levels[dim]:
                raise TreeError(
                    "child level %d exceeds parent level %d in dim %d"
                    % (level, parent_levels[dim], dim)
                )
        if self._overfull(node, node.n_blocks):
            raise TreeError(
                "node overfull: %d entries in %d block(s)"
                % (node.entry_count, node.n_blocks)
            )
        if node.n_blocks < 1:
            raise TreeError("node with %d blocks" % node.n_blocks)

        expected = AggregateVector(self.schema.n_measures)
        total = 0
        observed_sets = [set() for _ in range(mds.n_dimensions)]
        if node.is_leaf:
            for record in node.records:
                expected.add_record(record)
                total += 1
                for dim in range(mds.n_dimensions):
                    level = mds.level(dim)
                    hierarchy = self.hierarchies[dim]
                    if level >= hierarchy.top_level:
                        observed_sets[dim].add(hierarchy.all_id)
                    else:
                        observed_sets[dim].add(
                            record.value_at_level(dim, level)
                        )
        else:
            if not node.children:
                raise TreeError("directory node without children")
            for child in node.children:
                total += self._check_node(child, mds.levels)
                expected.add_vector(child.aggregate)
                for dim in range(mds.n_dimensions):
                    level = mds.level(dim)
                    if child.mds.level(dim) <= level:
                        observed_sets[dim].update(
                            child.mds.adapted_set(
                                dim, level, self.hierarchies[dim]
                            )
                        )
                    else:
                        observed_sets[dim].update(
                            self._collect_values(child, dim, level)
                        )
        if node.is_leaf and not node.records:
            # An empty tree keeps the initial (ALL, ..., ALL) MDS; there is
            # nothing for minimality to bite on.
            return 0
        for dim in range(mds.n_dimensions):
            if observed_sets[dim] != mds.value_set(dim):
                raise TreeError(
                    "MDS of dim %d not minimal/covering: stored %r, actual %r"
                    % (dim, sorted(mds.value_set(dim)),
                       sorted(observed_sets[dim]))
                )
        if node.aggregate != expected:
            raise TreeError(
                "aggregate mismatch: stored %r, actual %r"
                % (node.aggregate, expected)
            )
        return total
