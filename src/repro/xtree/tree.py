"""The X-tree baseline (Berchtold/Keim/Kriegel, VLDB 1996).

A faithful reimplementation of the comparison index of the paper: records
are points in the flattened, totally ordered attribute space (Fig. 10);
directory entries are MBRs; splits are topological (R*-style) with a
fallback to the overlap-minimal split via split histories, and supernodes
where neither works.

Range queries navigate by MBR intersection and apply the *exact* query
predicate at the data nodes (the MDS→MBR conversion of §5.2 is lossy — an
ID interval covers gaps the value set does not — so leaf filtering is what
keeps all backends returning identical answers).
"""

from __future__ import annotations

from ..config import XTreeConfig
from ..cube.aggregation import StreamingAggregator
from ..errors import QueryError, RecordNotFoundError, TreeError
from ..storage import page as page_mod
from ..storage.tracker import StorageTracker
from . import split as split_mod
from .mbr import MBR
from .node import XDataNode, XDirNode


class XTree:
    """An X-tree over the flattened attribute space of a cube schema."""

    #: Telemetry bundle; the baseline backends are never instrumented.
    observability = None

    def __init__(self, schema, config=None, tracker=None, storage_config=None):
        self.schema = schema
        self.config = config if config is not None else XTreeConfig()
        if tracker is not None:
            self.tracker = tracker
        else:
            self.tracker = StorageTracker(storage_config)
        self.n_flat = schema.n_flat_attributes
        self._n_records = 0
        self._root = XDataNode(
            MBR([0] * self.n_flat, [0] * self.n_flat),
            self.tracker.new_page_id(),
        )
        self._root_empty = True

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    def __len__(self):
        return self._n_records

    @property
    def root(self):
        return self._root

    def height(self):
        levels = 1
        node = self._root
        while not node.is_leaf:
            levels += 1
            node = node.children[0]
        return levels

    def records(self):
        """Iterate over all records (test/debug aid, no I/O accounting)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for _point, record in node.entries:
                    yield record
            else:
                stack.extend(node.children)

    def byte_size(self):
        n_measures = self.schema.n_measures
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += node.byte_size(self.n_flat, n_measures)
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    def page_count(self):
        page_size = self.tracker.config.page_size
        n_measures = self.schema.n_measures
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += page_mod.pages_for(
                node.byte_size(self.n_flat, n_measures), page_size
            )
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, record):
        """Insert one record as a point in the flattened ID space."""
        self.schema.check_record(record)
        self._insert_record(record)

    def insert_batch(self, records):
        """Insert many records one by one; returns the number inserted.

        The X-tree has no amortized batch path: the tree and every
        counter match serial :meth:`insert` calls.  The whole batch is
        checked against the schema before the first record is applied.
        """
        records = list(records)
        for record in records:
            self.schema.check_record(record)
        for record in records:
            self._insert_record(record)
        return len(records)

    def _insert_record(self, record):
        point = record.flat_point()
        if self._root_empty:
            self._root.mbr = MBR.of_point(point)
            self._root_empty = False
        split_result = self._insert_into(self._root, point, record)
        if split_result is not None:
            self._grow_root(split_result)
        self._n_records += 1

    def _insert_into(self, node, point, record):
        self.tracker.access_node(node.page_id, node.n_blocks)
        grew = node.mbr.include_point(point)
        self.tracker.cpu(self.n_flat)
        if node.is_leaf:
            node.entries.append((point, record))
            # The data node always changes and is written back; directory
            # nodes only when their MBR grew or their child list changed -
            # the X-tree stores no measures, so most inserts leave the
            # upper levels untouched (the asymmetry behind Fig. 11a).
            self.tracker.write_node(node.page_id)
            if len(node.entries) > self._capacity(node):
                return self._split_or_grow(node)
            return None
        child = self._choose_subtree(node, point)
        child_split = self._insert_into(child, point, record)
        if child_split is not None:
            position = node.children.index(child)
            node.children[position:position + 1] = list(child_split)
            self.tracker.access_node(node.page_id, node.n_blocks)
            grew = True
        if grew:
            self.tracker.write_node(node.page_id)
        if not node.is_leaf and len(node.children) > self._capacity(node):
            return self._split_or_grow(node)
        return None

    def _choose_subtree(self, node, point):
        """R*-tree descent: least volume enlargement, then least volume."""
        best = None
        best_key = None
        for child in node.children:
            key = (
                child.mbr.enlargement(point),
                child.mbr.volume_plus_one(),
                child.entry_count,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = child
        self.tracker.cpu(len(node.children) * self.n_flat)
        return best

    def _grow_root(self, split_pair):
        new_root = XDirNode(
            MBR.cover_of(n.mbr for n in split_pair),
            self.tracker.new_page_id(),
            children=list(split_pair),
        )
        new_root.split_history = frozenset.intersection(
            *(n.split_history for n in split_pair)
        )
        self._root = new_root
        self.tracker.access_node(new_root.page_id, new_root.n_blocks)
        self.tracker.write_node(new_root.page_id)

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------

    def _capacity(self, node):
        base = (
            self.config.leaf_capacity if node.is_leaf
            else self.config.dir_capacity
        )
        return base * node.n_blocks

    def _split_or_grow(self, node):
        if node.is_leaf:
            mbrs = [MBR.of_point(point) for point, _record in node.entries]
        else:
            mbrs = [child.mbr for child in node.children]
        n = len(mbrs)
        min_group = max(2, int(self.config.min_fanout_fraction * n))
        self.tracker.cpu(n * self.n_flat * 4)

        plan = split_mod.topological_split(mbrs, min_group)
        left_mbr = MBR.cover_of(mbrs[i] for i in plan.groups[0])
        right_mbr = MBR.cover_of(mbrs[i] for i in plan.groups[1])
        ratio = split_mod.overlap_ratio(left_mbr, right_mbr)
        if not node.is_leaf and ratio > self.config.max_overlap_fraction:
            plan = split_mod.overlap_minimal_split(node.children, min_group)
            if plan is None:
                node.n_blocks += 1
                return None
        pair = self._materialize_split(node, plan)
        self.tracker.free_node(node.page_id, node.n_blocks)
        return pair

    def _materialize_split(self, node, plan):
        history = node.split_history | {plan.dimension}
        pair = []
        if node.is_leaf:
            capacity = self.config.leaf_capacity
            for group in plan.groups:
                entries = [node.entries[i] for i in group]
                new_node = XDataNode(
                    MBR.cover_of(MBR.of_point(p) for p, _r in entries),
                    self.tracker.new_page_id(),
                    entries=entries,
                )
                new_node.n_blocks = max(1, -(-len(entries) // capacity))
                new_node.split_history = history
                pair.append(new_node)
        else:
            capacity = self.config.dir_capacity
            for group in plan.groups:
                children = [node.children[i] for i in group]
                new_node = XDirNode(
                    MBR.cover_of(child.mbr for child in children),
                    self.tracker.new_page_id(),
                    children=children,
                )
                new_node.n_blocks = max(1, -(-len(children) // capacity))
                new_node.split_history = history
                pair.append(new_node)
        for new_node in pair:
            self.tracker.access_node(new_node.page_id, new_node.n_blocks)
            self.tracker.write_node(new_node.page_id, new_node.n_blocks)
        return tuple(pair)

    # ------------------------------------------------------------------
    # range queries
    # ------------------------------------------------------------------

    def range_query(self, range_mbr, predicate=None, op="sum", measure=0):
        """Aggregate over the records inside ``range_mbr``.

        ``predicate(record) -> bool`` refines the box at the data nodes
        (used for the exact MDS semantics); ``None`` means the box itself
        is the query.
        """
        measure_index = self.schema.measure_index(measure)
        self._check_query_mbr(range_mbr)
        aggregator = StreamingAggregator(op, measure_index)
        self._query_node(self._root, range_mbr, predicate, aggregator)
        return aggregator.result()

    def range_records(self, range_mbr, predicate=None):
        """The matching records themselves."""
        self._check_query_mbr(range_mbr)
        result = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.tracker.access_node(node.page_id, node.n_blocks)
            if node.is_leaf:
                self.tracker.cpu(len(node.entries) * self.n_flat)
                for point, record in node.entries:
                    if range_mbr.contains_point(point) and (
                        predicate is None or predicate(record)
                    ):
                        result.append(record)
            else:
                self.tracker.cpu(len(node.children) * self.n_flat)
                for child in node.children:
                    if range_mbr.intersects(child.mbr):
                        stack.append(child)
        return result

    def _query_node(self, node, range_mbr, predicate, aggregator):
        self.tracker.access_node(node.page_id, node.n_blocks)
        if node.is_leaf:
            self.tracker.cpu(len(node.entries) * self.n_flat)
            for point, record in node.entries:
                if range_mbr.contains_point(point) and (
                    predicate is None or predicate(record)
                ):
                    aggregator.add_record(record)
            return
        self.tracker.cpu(len(node.children) * self.n_flat)
        for child in node.children:
            if range_mbr.intersects(child.mbr):
                self._query_node(child, range_mbr, predicate, aggregator)

    def _check_query_mbr(self, range_mbr):
        if range_mbr.n_dimensions != self.n_flat:
            raise QueryError(
                "query MBR has %d dimensions, tree expects %d"
                % (range_mbr.n_dimensions, self.n_flat)
            )

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete(self, record):
        """Remove one record (by value); raise if it is not indexed."""
        point = record.flat_point()
        if not self._delete_from(self._root, point, record):
            raise RecordNotFoundError("record not found: %r" % (record,))
        self._n_records -= 1
        root = self._root
        if not root.is_leaf and len(root.children) == 1:
            self._root = root.children[0]
            self.tracker.free_node(root.page_id, root.n_blocks)
        if self._n_records == 0:
            self._root_empty = True

    def _delete_from(self, node, point, record):
        self.tracker.access_node(node.page_id, node.n_blocks)
        if node.is_leaf:
            for position, (entry_point, entry_record) in enumerate(
                node.entries
            ):
                if entry_point == point and entry_record == record:
                    del node.entries[position]
                    if node.entries:
                        node.mbr = MBR.cover_of(
                            MBR.of_point(p) for p, _r in node.entries
                        )
                    self.tracker.write_node(node.page_id)
                    return True
            return False
        for child in node.children:
            if not child.mbr.contains_point(point):
                continue
            if self._delete_from(child, point, record):
                if child.entry_count == 0:
                    node.children.remove(child)
                    self.tracker.free_node(child.page_id, child.n_blocks)
                if node.children:
                    node.mbr = MBR.cover_of(c.mbr for c in node.children)
                self.tracker.write_node(node.page_id)
                return True
        return False

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------

    def check_invariants(self):
        """Audit MBR coverage/minimality and counts; raise on violation."""
        total = self._check_node(self._root)
        if total != self._n_records:
            raise TreeError(
                "record count mismatch: tree says %d, traversal found %d"
                % (self._n_records, total)
            )
        return total

    def _check_node(self, node):
        if node.entry_count > self._capacity(node):
            raise TreeError(
                "node overfull: %d entries, capacity %d"
                % (node.entry_count, self._capacity(node))
            )
        if node.is_leaf:
            if node.entries:
                actual = MBR.cover_of(
                    MBR.of_point(p) for p, _r in node.entries
                )
                if actual != node.mbr:
                    raise TreeError("leaf MBR not minimal")
            return len(node.entries)
        if not node.children:
            raise TreeError("directory node without children")
        actual = MBR.cover_of(child.mbr for child in node.children)
        if actual != node.mbr:
            raise TreeError("directory MBR not minimal")
        return sum(self._check_node(child) for child in node.children)
