"""Static materialized aggregate views — the related-work counterpoint.

Section 1/2 of the paper: "it is a common approach to materialize the
results of many of the relevant queries in order to speed-up query
processing.  This approach, however, fails in a dynamic environment where
the queries are not known in advance [...] The proposed approach is
static, i.e. it is useful only for the initial load of the cube but does
not support incremental changes."

:class:`MaterializedAggregateView` implements that classic approach
(Harinarayan/Rajaraman/Ullman-style subcube materialization, reference
[7]): one aggregate cell per combination of the chosen per-dimension
levels.  It is very fast for the queries it covers, but

* it only answers queries phrased at (or above) its granularity —
  :meth:`can_answer` is False otherwise, and
* it is *static*: any warehouse update marks it stale and it must be
  rebuilt from the full record stream.

The `aggview` bench measures both limitations against the DC-tree.
"""

from __future__ import annotations

from ..cube.aggregation import AggregateVector, StreamingAggregator
from ..errors import QueryError, StorageError
from ..storage import page as page_mod
from ..storage.tracker import StorageTracker


class StaleViewError(StorageError):
    """The view was queried after updates invalidated it."""


class UnanswerableQueryError(QueryError):
    """The query is below the view's granularity."""


class MaterializedAggregateView:
    """A precomputed aggregate over one fixed group-by of the cube.

    Parameters
    ----------
    schema:
        The cube schema.
    levels:
        One concept-hierarchy level per dimension — the view's
        granularity (e.g. Nation, Region, Brand, Month for the TPC-D
        cube).  Use a dimension's ``top_level`` to roll it up entirely.
    """

    def __init__(self, schema, levels, tracker=None, storage_config=None):
        if len(levels) != schema.n_dimensions:
            raise QueryError(
                "view needs one level per dimension: got %d for %d dims"
                % (len(levels), schema.n_dimensions)
            )
        for dim, level in enumerate(levels):
            top = schema.dimensions[dim].hierarchy.top_level
            if not 0 <= level <= top:
                raise QueryError(
                    "level %r out of range for dimension %r"
                    % (level, schema.dimensions[dim].name)
                )
        self.schema = schema
        self.levels = tuple(levels)
        self.hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        if tracker is not None:
            self.tracker = tracker
        else:
            self.tracker = StorageTracker(storage_config)
        self._cells = {}
        self._stale = False
        self._built = False
        self._base_page = self.tracker.new_page_id()

    # ------------------------------------------------------------------
    # building (the static part)
    # ------------------------------------------------------------------

    def build(self, records):
        """(Re)compute every cell from the full record stream.

        This is the bulk load the paper's related work performs at cube
        load time; its cost is what `aggview` reports as the price of a
        single dynamic update.
        """
        self._cells = {}
        for record in records:
            key = self._cell_key(record)
            cell = self._cells.get(key)
            if cell is None:
                cell = AggregateVector(self.schema.n_measures)
                self._cells[key] = cell
            cell.add_record(record)
            self.tracker.cpu(self.schema.n_dimensions)
        self._stale = False
        self._built = True
        # Writing the materialized cells out once.
        self.tracker.write_node(self._base_page, self.page_count())

    def mark_stale(self):
        """Record that the underlying warehouse changed (static design)."""
        self._stale = True

    # ------------------------------------------------------------------
    # incremental maintenance (extension beyond [7]'s static design)
    # ------------------------------------------------------------------

    def apply_insert(self, record):
        """Fold one inserted record into its cell — no rebuild needed.

        SUM/COUNT/MIN/MAX are all insert-incremental, so the view stays
        exact and fresh.  Only valid on a built, non-stale view.
        """
        self._check_maintainable()
        key = self._cell_key(record)
        cell = self._cells.get(key)
        if cell is None:
            cell = AggregateVector(self.schema.n_measures)
            self._cells[key] = cell
        cell.add_record(record)
        self.tracker.cpu(self.schema.n_dimensions)
        self.tracker.write_node(self._base_page)

    def apply_delete(self, record):
        """Subtract one deleted record from its cell.

        SUM and COUNT stay exact; MIN/MAX are only semi-invertible — when
        the removed value was a cell's extremum the view cannot repair it
        locally and marks itself stale (the caller rebuilds before the
        next MIN/MAX-accurate use).  Returns True when the view stayed
        fresh.
        """
        self._check_maintainable()
        key = self._cell_key(record)
        cell = self._cells.get(key)
        if cell is None:
            raise StorageError(
                "delete of a record whose cell is not in the view: %r"
                % (record,)
            )
        extrema_stale = cell.subtract_record(record)
        if cell.count == 0:
            del self._cells[key]
            extrema_stale = False
        self.tracker.cpu(self.schema.n_dimensions)
        self.tracker.write_node(self._base_page)
        if extrema_stale:
            self._stale = True
            return False
        return True

    def _check_maintainable(self):
        if not self._built:
            raise StaleViewError("view was never built")
        if self._stale:
            raise StaleViewError(
                "view is stale: rebuild before applying further deltas"
            )

    @property
    def is_stale(self):
        return self._stale

    def _cell_key(self, record):
        key = []
        for dim, level in enumerate(self.levels):
            hierarchy = self.hierarchies[dim]
            if level >= hierarchy.top_level:
                key.append(hierarchy.all_id)
            else:
                key.append(record.value_at_level(dim, level))
        return tuple(key)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def can_answer(self, range_mds):
        """True when every query dimension is at/above the view level.

        A query below the view's granularity would need the detail the
        materialization rolled away — the paper's "queries not known in
        advance" failure mode.
        """
        for dim in range(self.schema.n_dimensions):
            if range_mds.level(dim) < self.levels[dim]:
                return False
        return True

    def range_query(self, range_mds, op="sum", measure=0):
        """Aggregate over the cells inside ``range_mds``.

        Raises :class:`UnanswerableQueryError` below the view's
        granularity and :class:`StaleViewError` when updates have not
        been folded in (callers must :meth:`build` again first).
        """
        if not self._built:
            raise StaleViewError("view was never built")
        if self._stale:
            raise StaleViewError(
                "view is stale: the warehouse changed after the last build"
            )
        if range_mds.n_dimensions != self.schema.n_dimensions:
            raise QueryError(
                "query has %d dimensions, cube has %d"
                % (range_mds.n_dimensions, self.schema.n_dimensions)
            )
        if not self.can_answer(range_mds):
            raise UnanswerableQueryError(
                "query level(s) %r below view granularity %r"
                % (range_mds.levels, self.levels)
            )
        measure_index = self.schema.measure_index(measure)
        aggregator = StreamingAggregator(op, measure_index)
        self.tracker.access_node(self._base_page, self.page_count())
        for key, cell in self._cells.items():
            self.tracker.cpu(self.schema.n_dimensions)
            if self._cell_in_range(key, range_mds):
                aggregator.add_vector(cell)
        return aggregator.result()

    def _cell_in_range(self, key, range_mds):
        for dim, value in enumerate(key):
            level = range_mds.level(dim)
            hierarchy = self.hierarchies[dim]
            if level >= hierarchy.top_level:
                continue
            if hierarchy.ancestor(value, level) not in range_mds.value_set(
                dim
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # footprint
    # ------------------------------------------------------------------

    def byte_size(self):
        """Approximate on-disk size of the materialized cells."""
        key_bytes = self.schema.n_dimensions * page_mod.ID_BYTES
        cell_bytes = self.schema.n_measures * page_mod.SUMMARY_BYTES
        return len(self._cells) * (key_bytes + cell_bytes)

    def page_count(self):
        return page_mod.pages_for(
            self.byte_size(), self.tracker.config.page_size
        )

    def __repr__(self):
        return (
            "MaterializedAggregateView(levels=%r, cells=%d, stale=%r)"
            % (list(self.levels), len(self._cells), self._stale)
        )
