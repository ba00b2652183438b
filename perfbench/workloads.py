"""The benchmark's workloads: ``ingest``, ``olap`` and ``dashboard``.

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Inputs come from the seed alone, and
the work done in the timed part is fixed by ``seconds`` and ``scale``, so
two runs of one seed make the same calls and charge the same
deterministic counters.

* ``ingest`` inserts TPC-D records one at a time into an empty DC-tree:
  the paper's fully dynamic regime (Fig. 11).  Splits and seed choice do
  the work; no query, cache or WAL code runs.
* ``olap`` runs unique range queries (1/5/25 % selectivity round-robin,
  Fig. 12) and group-bys through the ``Warehouse`` facade on a tree built
  by dynamic insertion.  No request repeats, so the result cache never
  hits: this is the workload where MDS classification, leaf filtering and
  aggregate pruning do the work.
* ``dashboard`` re-asks a small pool of reports (Zipf, smaller than the
  result cache) between acknowledged, group-committed insert batches on a
  durable warehouse, checkpoints now and then, and finally reopens the
  directory.  Cache, WAL, checkpoint and ``insert_batch`` do the work.

The benchmark uses only the default ``DCTreeConfig``/``StorageConfig`` and
public entry points; it never touches a configuration switch.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import random
import shutil
import tempfile
import time

from repro.core.mds import MDS
from repro.core.tree import DCTree
from repro.persist.durable import DurableWarehouse
from repro.tpcd.generator import TPCDGenerator
from repro.warehouse import Warehouse
from repro.workload.queries import RangeQuery, query_from_labels

from stats import SpeedGauge, Timing

SELECTIVITIES = (0.01, 0.05, 0.25)
OPS = ("sum", "count", "avg", "min", "max")


def derive_seed(seed, tag):
    """A sub-seed for one input stream, independent of hash randomization."""
    digest = hashlib.sha256(("%s:%s" % (seed, tag)).encode()).hexdigest()
    return int(digest[:12], 16)


def generate_records(seed, count, stream="tpcd"):
    generator = TPCDGenerator(seed=derive_seed(seed, stream), scale_records=count)
    return generator, generator.generate(count)


def build_tree(schema, records):
    """A DC-tree grown by dynamic insertion (the paper's regime)."""
    tree = DCTree(schema)
    for record in records:
        tree.insert(record)
    return tree


def where_of(schema, mds):
    """Label constraints selecting (at least) the values of ``mds``."""
    where = {}
    for dim, dimension in enumerate(schema.dimensions):
        hierarchy = dimension.hierarchy
        level = mds.level(dim)
        if level >= hierarchy.top_level:
            continue
        labels = sorted({hierarchy.label(v) for v in mds.value_set(dim)})
        where[dimension.name] = (dimension.level_names[level], labels)
    return where


def query_shapes(schema, constrain_dims):
    """Every ``(dimensions, levels)`` a query may constrain, in a fixed order."""
    tops = [d.hierarchy.top_level for d in schema.dimensions]
    n = len(tops)
    shapes = [
        (dims, levels)
        for dims in itertools.combinations(range(n), constrain_dims or n)
        for levels in itertools.product(*(range(tops[d]) for d in dims))
    ]
    random.Random("perfbench-shapes").shuffle(shapes)
    return shapes


def unique_queries(schema, seed, tag, count, constrain_dims=None):
    """``count`` distinct range queries (§5.2 of the paper).

    Query ``i`` has a fixed shape: selectivity ``SELECTIVITIES[i % 3]`` and
    the constrained dimensions and levels of ``query_shapes()[i // 3]``.
    The seed picks only the values, as many as the selectivity allows at
    that level.  Fixing the shapes keeps the mix of cheap and expensive
    queries the same on every seed, so the seed moves a run's averages
    far less than random shapes would.
    """
    hierarchies = [d.hierarchy for d in schema.dimensions]
    shapes = query_shapes(schema, constrain_dims)
    rng = random.Random(derive_seed(seed, tag))
    seen = set()
    queries = []
    template = 0
    misses = 0
    while len(queries) < count:
        selectivity = SELECTIVITIES[template % len(SELECTIVITIES)]
        dims, levels = shapes[(template // len(SELECTIVITIES)) % len(shapes)]
        sets = [{h.all_id} for h in hierarchies]
        query_levels = [h.top_level for h in hierarchies]
        for dim, level in zip(dims, levels):
            candidates = sorted(hierarchies[dim].values_at_level(level))
            cap = max(1, int(selectivity * len(candidates)))
            sets[dim] = set(rng.sample(candidates, min(cap, len(candidates))))
            query_levels[dim] = level
        query = RangeQuery(schema, MDS(sets, query_levels))
        if query.mds.entries not in seen:
            seen.add(query.mds.entries)
            queries.append(query)
        elif misses < 20:
            misses += 1
            continue
        template += 1
        misses = 0
    return queries


# -- brute-force oracle --------------------------------------------------


def fold(values, op):
    """``op`` over plain measure values, with the facade's empty results."""
    if op == "count":
        return len(values)
    if op == "sum":
        return math.fsum(values)
    if not values:
        return None
    if op == "avg":
        return math.fsum(values) / len(values)
    return min(values) if op == "min" else max(values)


def same(answer, expected):
    if answer is None or expected is None:
        return answer is None and expected is None
    return math.isclose(answer, expected, rel_tol=1e-9, abs_tol=1e-6)


def brute_range(range_query, records, op):
    return fold([r.measures[0] for r in records if range_query.matches(r)], op)


def brute_group_by(schema, records, dim_name, level_name, op, where):
    dim = schema.dimension_index(dim_name)
    dimension = schema.dimensions[dim]
    level = dimension.level_names.index(level_name)
    range_query = query_from_labels(schema, where or {})
    groups = {}
    for record in records:
        if range_query.matches(record):
            label = dimension.hierarchy.label(record.value_at_level(dim, level))
            groups.setdefault(label, []).append(record.measures[0])
    return {label: fold(values, op) for label, values in groups.items()}


def same_groups(answer, expected):
    return answer.keys() == expected.keys() and all(
        same(answer[label], expected[label]) for label in expected
    )


# -- one timed pass --------------------------------------------------------


class Pass:
    """What one timed pass produced: latencies, answers and counts."""

    def __init__(self):
        self.timings = {}
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.errors = []
        self.answers = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.gauge = SpeedGauge()
        #: Every call made inside the timed region, for throughput.
        self.region_calls = Timing("calls", self.gauge)
        self.values = {}
        self.counts = {}
        self.last = (0.0, 0.0)
        self._region = None

    def timing(self, kind):
        if kind not in self.timings:
            self.timings[kind] = Timing(kind, self.gauge)
        return self.timings[kind]

    def start(self):
        """Open the timed region (after a collection, so it starts clean)."""
        gc.collect()
        self._region = (time.perf_counter(), time.process_time())
        self.gauge.start()

    def stop(self):
        """Close the timed region; later calls are timed but not in throughput."""
        self.cpu_s = time.process_time() - self._region[1]
        self.wall_s = time.perf_counter() - self._region[0]
        self._region = None

    def throughput(self, clock="norm", kinds=None):
        """Calls completed per second of their time: every call of the timed
        region, or the calls of the given kinds."""
        timings = [self.region_calls] if kinds is None else [self.timings[k] for k in kinds]
        return sum(len(t) for t in timings) / math.fsum(t.total(clock) for t in timings)

    def call(self, kind, fn, *args, **kwargs):
        """Time one public-API call; a raised error counts as failed."""
        self.attempted += 1
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.fail("%s raised %s: %s" % (kind, type(error).__name__, error))
            return None
        now = time.process_time()
        cpu = now - cpu
        wall = time.perf_counter() - wall
        self.last = (wall, cpu)
        position = self.gauge.position()
        self.timing(kind).add(wall, cpu, position)
        self.completed += 1
        if self._region is not None:
            self.region_calls.add(wall, cpu, position)
            self.gauge.tick(now)
        return result

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def tracker_counts(trackers, before):
    """Storage-counter deltas since the ``before`` snapshots, summed over
    ``trackers``, and their simulated seconds."""
    counts = dict.fromkeys(
        ("node_accesses", "buffer_hits", "buffer_misses", "page_writes", "cpu_units"), 0)
    sim_s = 0.0
    for tracker, snapshot in zip(trackers, before):
        delta = tracker.snapshot() - snapshot
        for name in counts:
            counts[name] += getattr(delta, name)
        sim_s += delta.simulated_seconds()
    return counts, sim_s


def cache_counts(indexes, before=None):
    """Result-cache counters summed over ``indexes``, as deltas from
    ``before`` when given (zeros for a tree without a cache)."""
    counts = dict.fromkeys(("hits", "misses", "evictions", "invalidations"), 0)
    for index in indexes:
        cache = getattr(index, "result_cache", None)
        if cache is not None:
            stats = cache.stats()
            for name in counts:
                counts[name] += getattr(stats, name)
    if before:
        counts = {name: counts[name] - before[name] for name in counts}
    return counts


class Workload:
    """Shared shape: ``setup()`` -> state, ``run(state)`` -> Pass,
    ``check(state, pass)`` adds oracle failures, ``close(state)``."""

    name = None
    #: Request kind whose latency is the workload's headline latency.
    primary = None
    #: Request kinds whose throughput is gated (``ops_per_cpu_s``).
    throughput_kinds = ()

    def __init__(self, seed, seconds, scale, workdir):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.workdir = workdir
        self.setup_times = {"tpcd.generate_s": 0.0, "workload.query_gen_s": 0.0}

    def _timed(self, key, fn, *args):
        start = time.process_time()
        result = fn(*args)
        self.setup_times[key] += time.process_time() - start
        return result

    def close(self, state):
        pass


class Ingest(Workload):
    """Many trees, each grown from empty on its own record stream.

    Whether a tree's root becomes a supernode (Fig. 5) is settled by its
    first ~1 000 records, and it happens to about a third of the TPC-D
    record streams; such a tree inserts about twice as slowly for the rest
    of its life.  One tree per run would make every timing depend on that
    coin, so a run grows ``TREES`` trees and pools their inserts.
    """

    name = "ingest"
    primary = "insert"
    throughput_kinds = ("insert",)
    TREES = 24

    def sizes(self):
        return {"trees": self.TREES, "records_per_tree": max(300, round(100 * self.seconds))}

    def setup(self):
        self.setup_times = dict.fromkeys(self.setup_times, 0.0)
        sizes = self.sizes()
        streams = [
            self._timed("tpcd.generate_s", generate_records, self.seed,
                        sizes["records_per_tree"], "tpcd%d" % tree)
            for tree in range(sizes["trees"])
        ]
        return {"streams": [(generator.schema, records) for generator, records in streams]}

    def run(self, state):
        trees = state["trees"] = [DCTree(schema) for schema, _ in state["streams"]]
        result = Pass()
        before = [tree.tracker.snapshot() for tree in trees]
        result.start()
        for tree, (_, records) in zip(trees, state["streams"]):
            for record in records:
                result.call("insert", tree.insert, record)
        result.stop()
        result.counts["storage"], sim_s = tracker_counts(
            [tree.tracker for tree in trees], before)
        result.counts["result_cache"] = cache_counts(trees)
        inserted = len(result.timing("insert"))
        result.values["sim_insert_ms"] = 1e3 * sim_s / inserted
        result.values["sim_ms_per_op"] = result.values["sim_insert_ms"]
        result.values["records_inserted"] = inserted
        return result

    def check(self, state, result):
        for tree, (schema, records) in zip(state["trees"], state["streams"]):
            try:
                tree.check_invariants()
            except Exception as error:  # noqa: BLE001 - reported as a failure
                result.fail("check_invariants: %s" % error)
            if len(tree) != len(records):
                result.fail("tree holds %d records, %d inserted" % (len(tree), len(records)))
            answer = tree.range_query(query_from_labels(schema, {}).mds, op="sum")
            expected = math.fsum(r.measures[0] for r in records)
            if not same(answer, expected):
                result.fail("SUM is %r, records add up to %r" % (answer, expected))

    def inject_wrong_answer(self, state, result):
        """Self-test hook: a tree gains a record nobody generated."""
        state["trees"][0].insert(state["streams"][0][1][0])


class Olap(Workload):
    """Three warehouses, each a tree grown by dynamic insertion; requests
    go round-robin over them.  Several trees keep a run from depending on
    whether one tree's root became a supernode (see :class:`Ingest`)."""

    name = "olap"
    primary = "query"
    throughput_kinds = ("query", "group_by")
    WAREHOUSES = 3

    def sizes(self):
        return {
            "warehouses": self.WAREHOUSES,
            "records_per_warehouse": max(100, round(5000 * self.scale)),
            "queries": max(100, round(200 * self.seconds)),
            "group_bys": max(20, round(40 * self.seconds)),
            "checked_queries": 40,
            "checked_group_bys": 20,
        }

    def setup(self):
        self.setup_times = dict.fromkeys(self.setup_times, 0.0)
        sizes = self.sizes()
        marts = []
        for k in range(self.WAREHOUSES):
            generator, records = self._timed(
                "tpcd.generate_s", generate_records, self.seed,
                sizes["records_per_warehouse"], "tpcd%d" % k)
            warehouse = Warehouse.wrap(build_tree(generator.schema, records))
            marts.append((generator.schema, records, warehouse))
        per_mart = [
            self._timed("workload.query_gen_s", self._requests, schema, k,
                        sizes["queries"] // self.WAREHOUSES,
                        sizes["group_bys"] // self.WAREHOUSES)
            for k, (schema, _, _) in enumerate(marts)
        ]
        requests = [request for batch in zip(*per_mart) for request in batch]
        return {"marts": marts, "requests": requests}

    def _requests(self, schema, mart, n_queries, n_group_bys):
        """One warehouse's queries, with a group-by after every fifth one;
        none repeats."""
        rng = random.Random(derive_seed(self.seed, "olap-requests%d" % mart))
        queries = [
            ("query", mart, query, OPS[i % len(OPS)])
            for i, query in enumerate(
                unique_queries(schema, self.seed, "olap%d" % mart, n_queries))
        ]
        combos = [
            (dimension.name, level_name, op)
            for dimension in schema.dimensions
            for level_name in dimension.level_names
            for op in OPS
        ]
        rng.shuffle(combos)
        n_unrestricted = min(len(combos), n_group_bys // 3)
        group_bys = [("group_by", mart) + combo + ({},) for combo in combos[:n_unrestricted]]
        ranges = unique_queries(schema, self.seed, "olap-gb%d" % mart,
                                n_group_bys - n_unrestricted)
        seen = set()
        for range_query in ranges:
            dimension = rng.choice(schema.dimensions)
            level_name = rng.choice(dimension.level_names)
            where = where_of(schema, range_query.mds)
            key = (dimension.name, level_name,
                   query_from_labels(schema, where).mds.entries)
            if key in seen:
                continue
            seen.add(key)
            group_bys.append(("group_by", mart, dimension.name, level_name,
                              rng.choice(OPS), where))
        rng.shuffle(group_bys)
        requests = []
        for i, query in enumerate(queries):
            requests.append(query)
            if i % 5 == 4 and group_bys:
                requests.append(group_bys.pop())
        requests.extend(group_bys)
        return requests

    def run(self, state):
        warehouses = [warehouse for _, _, warehouse in state["marts"]]
        result = Pass()
        indexes = [w.index for w in warehouses]
        before = [w.tracker.snapshot() for w in warehouses]
        cache_before = cache_counts(indexes)
        answers = result.answers
        result.start()
        for i, request in enumerate(state["requests"]):
            warehouse = warehouses[request[1]]
            if request[0] == "query":
                _, _, query, op = request
                answers[i] = result.call("query", warehouse.execute, query, op=op)
            else:
                _, _, dim_name, level_name, op, where = request
                answers[i] = result.call("group_by", warehouse.group_by, dim_name,
                                         level_name, op=op, where=where)
        result.stop()
        result.counts["storage"], sim_s = tracker_counts(
            [w.tracker for w in warehouses], before)
        result.counts["result_cache"] = cache_counts(indexes, cache_before)
        n_queries = len(result.timing("query"))
        result.values["sim_query_ms"] = 1e3 * sim_s / max(1, n_queries)
        result.values["sim_ms_per_op"] = 1e3 * sim_s / max(1, result.completed)
        result.values["records_inserted"] = 0
        return result

    def check(self, state, result):
        """Brute-force a fixed sample of answers over the generated records."""
        sizes = self.sizes()
        requests = state["requests"]
        queries = [i for i, r in enumerate(requests) if r[0] == "query"]
        group_bys = [i for i, r in enumerate(requests) if r[0] == "group_by"]
        for i in queries[::max(1, len(queries) // sizes["checked_queries"])]:
            _, mart, query, op = requests[i]
            expected = brute_range(query, state["marts"][mart][1], op)
            if not same(result.answers.get(i), expected):
                result.fail("query %d (%s) answered %r, expected %r"
                            % (i, op, result.answers.get(i), expected))
        for i in group_bys[::max(1, len(group_bys) // sizes["checked_group_bys"])]:
            _, mart, dim_name, level_name, op, where = requests[i]
            schema, records, _ = state["marts"][mart]
            expected = brute_group_by(schema, records, dim_name, level_name, op, where)
            answer = result.answers.get(i)
            if answer is None or not same_groups(answer, expected):
                result.fail("group-by %d (%s.%s %s) answered wrongly"
                            % (i, dim_name, level_name, op))

    def inject_wrong_answer(self, state, result):
        """Self-test hook: the first query (always checked) is off by one."""
        result.answers[0] = (result.answers[0] or 0) + 1


class Dashboard(Workload):
    name = "dashboard"
    #: A refresh is one burst of report asks: what a dashboard user waits for.
    primary = "refresh"
    #: Commits and checkpoints wait on fsyncs, whose cost on a shared disk
    #: swings twofold between runs; they are reported but not gated.
    throughput_kinds = ("query",)
    POOL = 96
    BURST = 20
    BATCH = 32
    ZIPF = 1.2

    def sizes(self):
        rounds = max(100, round(8 * self.seconds))
        return {
            "tree_records": max(200, round(8000 * self.scale)),
            "rounds": rounds,
            "burst": self.BURST,
            "report_pool": self.POOL,
            "batch_records": self.BATCH,
            # Checkpoints at rounds 20, 60, 100, ... leave the session with
            # 20 rounds of log to replay.
            "checkpoint_every": 40,
            "checked_reports": self.POOL // 4,
        }

    def setup(self):
        self.setup_times = dict.fromkeys(self.setup_times, 0.0)
        sizes = self.sizes()
        total = sizes["tree_records"] + sizes["rounds"] * sizes["batch_records"]
        generator, records = self._timed("tpcd.generate_s", generate_records,
                                         self.seed, total)
        schema = generator.schema
        initial = records[:sizes["tree_records"]]
        warehouse = Warehouse.wrap(build_tree(schema, initial))
        reports = self._timed("workload.query_gen_s", unique_queries, schema, self.seed,
                              "dashboard", sizes["report_pool"], 2)
        rng = random.Random(derive_seed(self.seed, "zipf"))
        weights = [1.0 / (rank + 1) ** self.ZIPF for rank in range(len(reports))]
        # Which reports are popular is re-drawn every round.  Each commit
        # empties the cache, so only repeats within a burst can hit, and the
        # re-draw leaves the hit ratio alone; it lets one run see many popular
        # reports instead of hanging on the few a seed happened to put on top.
        popularity = list(range(len(reports)))
        asks = []
        for _ in range(sizes["rounds"]):
            rng.shuffle(popularity)
            ranks = rng.choices(range(len(reports)), weights, k=sizes["burst"])
            asks.append([popularity[rank] for rank in ranks])
        directory = tempfile.mkdtemp(prefix="dashboard-", dir=self.workdir)
        session = DurableWarehouse.create(directory, warehouse)
        return {"schema": schema, "records": records, "reports": reports, "asks": asks,
                "directory": directory, "session": session}

    def run(self, state):
        sizes = self.sizes()
        session = state["session"]
        warehouse = session.warehouse
        tracker = warehouse.tracker
        records = state["records"]
        result = Pass()
        before = tracker.snapshot()
        cache_before = cache_counts([warehouse.index])
        acknowledged = sizes["tree_records"]
        live_at = []
        sim_s = {"query": 0.0, "commit": 0.0}
        refresh = result.timing("refresh")
        result.start()
        for round_no, burst in enumerate(state["asks"]):
            charged = tracker.snapshot()
            wall = cpu = 0.0
            for position, report in enumerate(burst):
                answer = result.call("query", warehouse.execute, state["reports"][report])
                result.answers[(round_no, position)] = answer
                wall += result.last[0]
                cpu += result.last[1]
            refresh.add(wall, cpu, result.gauge.position())
            sim_s["query"] += (tracker.snapshot() - charged).simulated_seconds()
            live_at.append(acknowledged)
            batch = records[acknowledged:acknowledged + sizes["batch_records"]]
            charged = tracker.snapshot()
            if result.call("commit", session.insert_records, batch) is not None:
                acknowledged += len(batch)
            sim_s["commit"] += (tracker.snapshot() - charged).simulated_seconds()
            every = sizes["checkpoint_every"]
            if (round_no + 1) % every == every // 2:
                result.call("checkpoint", session.checkpoint)
        result.counts["storage"], total_sim_s = tracker_counts([tracker], [before])
        result.counts["result_cache"] = cache_counts([warehouse.index], cache_before)
        directory = state["directory"]
        stored = sum(
            os.path.getsize(path) for path in (
                DurableWarehouse.checkpoint_path(directory),
                DurableWarehouse.wal_path(directory),
            )
        )
        # The session is abandoned with log left to replay; reopening the
        # directory is the recovery a restarted user pays for.  It is timed
        # on its own (recovery_s), outside the request throughput.
        session.close()
        state["session"] = None
        result.stop()
        state["reopened"] = result.call("recovery", DurableWarehouse.open, directory)
        state["live_at"] = live_at
        state["acknowledged"] = acknowledged
        inserted = acknowledged - sizes["tree_records"]
        result.values["sim_query_ms"] = 1e3 * sim_s["query"] / max(1, len(result.timing("query")))
        result.values["sim_insert_ms"] = 1e3 * sim_s["commit"] / max(1, inserted)
        result.values["sim_ms_per_op"] = 1e3 * total_sim_s / max(1, result.completed)
        result.values["stored_bytes_per_record"] = stored / acknowledged
        result.values["records_inserted"] = inserted
        return result

    def check(self, state, result):
        """Recovered count and SUM, plus a sample of report answers."""
        records = state["records"]
        acknowledged = state["acknowledged"]
        reopened = state.get("reopened")
        if reopened is None:
            result.fail("recovery failed")
        else:
            if len(reopened) != acknowledged:
                result.fail("recovered %d records, %d acknowledged"
                            % (len(reopened), acknowledged))
            expected = math.fsum(r.measures[0] for r in records[:acknowledged])
            answer = reopened.warehouse.query("sum")
            if not same(answer, expected):
                result.fail("recovered SUM is %r, expected %r" % (answer, expected))
        for report in self._checked_reports(state):
            query = state["reports"][report]
            # prefix[n]: the report's SUM over the first n records.
            prefix = [0.0] + list(itertools.accumulate(
                r.measures[0] if query.matches(r) else 0.0 for r in records))
            for (round_no, position), answer in result.answers.items():
                if state["asks"][round_no][position] != report:
                    continue
                expected = prefix[state["live_at"][round_no]]
                if not same(answer, expected):
                    result.fail("report %d in round %d answered %r, expected %r"
                                % (report, round_no, answer, expected))

    def _checked_reports(self, state):
        n_reports = len(state["reports"])
        return range(0, n_reports, n_reports // self.sizes()["checked_reports"])

    def inject_wrong_answer(self, state, result):
        """Self-test hook: the first answer to a checked report is off."""
        checked = set(self._checked_reports(state))
        key = next(k for k in sorted(result.answers) if state["asks"][k[0]][k[1]] in checked)
        result.answers[key] = (result.answers[key] or 0) + 1

    def close(self, state):
        for key in ("session", "reopened"):
            session = state.get(key)
            if session is not None:
                session.close()
        shutil.rmtree(state["directory"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ingest, Olap, Dashboard)}
