"""The conventional bulk-update warehouse the paper argues against.

Section 1: "Updates are collected and applied to the data warehouse
periodically in a batch mode, e.g., each night. [...] This approach of
bulk incremental updates, however, has two drawbacks: (1) while the
average runtime for one update is small, the total runtime for the whole
batch of updates is rather large — bulk incremental updates require a
considerable time window where the data warehouse is not available for
OLAP; (2) the contents of the data warehouse is not always up to date."

:class:`BatchWarehouse` wraps any backend with exactly that regime so the
two drawbacks become measurable: inserts queue until the next
maintenance window; queries meanwhile read stale contents (staleness is
recorded per query); the window's downtime — wall time and simulated page
I/O of applying the whole batch — is recorded.  The `motivation` bench compares it against a plain dynamic
:class:`~repro.warehouse.Warehouse` on the same update/query stream.
"""

from __future__ import annotations

import time

from ..warehouse import Warehouse


class MaintenanceStats:
    """What the batch regime cost, measured over one run."""

    def __init__(self):
        #: Per-query number of updates the answer did not yet reflect.
        self.staleness_samples = []
        #: Per-window (n_updates, wall_seconds, simulated_seconds).
        self.windows = []

    @property
    def n_windows(self):
        return len(self.windows)

    @property
    def total_downtime_seconds(self):
        return sum(wall for _n, wall, _sim in self.windows)

    @property
    def total_simulated_downtime(self):
        return sum(sim for _n, _wall, sim in self.windows)

    @property
    def mean_staleness(self):
        if not self.staleness_samples:
            return 0.0
        return sum(self.staleness_samples) / len(self.staleness_samples)

    @property
    def max_staleness(self):
        return max(self.staleness_samples, default=0)

    def __repr__(self):
        return (
            "MaintenanceStats(windows=%d, downtime=%.3fs, "
            "mean_staleness=%.1f, max_staleness=%d)"
            % (self.n_windows, self.total_downtime_seconds,
               self.mean_staleness, self.max_staleness)
        )


class BatchWarehouse:
    """A warehouse operated in the classic collect-then-bulk-load mode.

    Parameters
    ----------
    schema, backend, config, storage_config:
        Forwarded to the underlying :class:`Warehouse`.
    window_every:
        Automatically run a maintenance window once this many updates
        are pending (``None`` = only when :meth:`run_maintenance_window`
        is called explicitly — the "nightly" policy driven by the
        caller).
    """

    def __init__(self, schema, backend="dc-tree", config=None,
                 storage_config=None, window_every=None):
        self._warehouse = Warehouse(schema, backend, config, storage_config)
        self.window_every = window_every
        self._pending = []
        self.stats = MaintenanceStats()

    # -- update side -----------------------------------------------------

    def submit_insert_record(self, record):
        """Queue one insert; it is NOT visible until the next window.

        The record is checked against the schema here, so a malformed
        record is refused on submission and a window never fails halfway.
        """
        self._warehouse.schema.check_record(record)
        self._pending.append(record)
        if self.window_every and len(self._pending) >= self.window_every:
            self.run_maintenance_window()

    @property
    def pending_updates(self):
        """Updates submitted but not yet visible (drawback 2)."""
        return len(self._pending)

    # -- maintenance window ------------------------------------------------

    def run_maintenance_window(self):
        """Apply every pending insert; OLAP waits for it (drawback 1).

        Returns ``(n_updates, wall_seconds)``.  The simulated downtime
        (page I/O of the whole batch) is recorded in :attr:`stats`.
        """
        tracker = self._warehouse.tracker
        before = tracker.snapshot()
        start = time.perf_counter()
        batch, self._pending = self._pending, []
        # The window IS a batch regime, so it applies as one amortized
        # batch (insert_batch charges each touched node's write once).
        self._warehouse.insert_records(batch)
        wall = time.perf_counter() - start
        delta = tracker.snapshot() - before
        self.stats.windows.append(
            (len(batch), wall, delta.simulated_seconds())
        )
        return len(batch), wall

    # -- query side ---------------------------------------------------------

    def query(self, op="sum", measure=0, where=None):
        """Answer from the *loaded* contents (possibly stale).

        Records how many submitted updates the answer does not reflect
        (drawback 2) and delegates to the backend.
        """
        self.stats.staleness_samples.append(len(self._pending))
        return self._warehouse.query(op=op, measure=measure, where=where)

    def execute(self, range_query, op="sum", measure=0):
        """Prepared-query variant of :meth:`query` (same staleness rules)."""
        self.stats.staleness_samples.append(len(self._pending))
        return self._warehouse.execute(range_query, op=op, measure=measure)

    def __len__(self):
        """Loaded (visible) records — pending updates excluded."""
        return len(self._warehouse)

    def __repr__(self):
        return "BatchWarehouse(loaded=%d, pending=%d, %r)" % (
            len(self), self.pending_updates, self.stats,
        )
