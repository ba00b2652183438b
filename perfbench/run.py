#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload olap --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Their times are process CPU times expressed at nominal machine speed (see
``stats.SpeedGauge``); raw CPU and wall-clock figures are printed beside
them.
``--trace 1`` sets the workload up twice, runs it once plainly and once
under the outside-in layer tracer (see ``tracing.py``), checks that both
runs charged identical deterministic counters, and reports the per-layer
metrics.  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report: run metadata, then every metric with its unit and
sample count.  The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from stats import UnsupportedPercentile, kernel_seconds, label, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Seeds at or above this value are held out: never used while a change is
#: being written, so a claimed gain can be re-checked on fresh inputs.
HELD_OUT_BASE = 1_000_000_000

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Reference-kernel runs before and after each set-up (see ``run_once``).
SPEED_RUNS = 10

#: The metrics BENCHMARK.json lists, in its order.  Times are process CPU
#: time at nominal machine speed: on the shared virtual machines this runs
#: on, the wall clock also counts the time the hypervisor gives to other
#: guests, and even CPU time drifts with the load on the shared cores.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("cpu_p50_ms", "ms"),
    ("cpu_tail_ms", "ms"),
    ("sim_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("tree.insert.self_s", "s"),
    ("tree.insert_batch.self_s", "s"),
    ("tree.range_query.self_s", "s"),
    ("tree.group_by.self_s", "s"),
    ("split.plan_node_split.calls", "count"),
    ("split.plan_node_split.self_s", "s"),
    ("split.choose_seeds.calls", "count"),
    ("split.choose_seeds.self_s", "s"),
    ("split.hierarchy_split.self_s", "s"),
    ("split.supernode_ratio", "ratio"),
    ("mds.operation_cost.calls", "count"),
    ("mds.operation_cost.self_s", "s"),
    ("mds.union_cardinality.calls", "count"),
    ("mds.union_cardinality.self_s", "s"),
    ("mds.classify.calls", "count"),
    ("mds.classify.self_s", "s"),
    ("mds.covers_record.calls", "count"),
    ("mds.covers_record.self_s", "s"),
    ("mds.covers_record.match_ratio", "ratio"),
    ("mds.adapted_set.calls", "count"),
    ("mds.adapted_set.self_s", "s"),
    ("result_cache.hit_ratio", "ratio"),
    ("result_cache.hits", "count"),
    ("result_cache.misses", "count"),
    ("result_cache.evictions", "count"),
    ("result_cache.invalidations", "count"),
    ("storage.node_accesses_per_op", "count/op"),
    ("storage.page_reads_per_op", "count/op"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("storage.page_writes_per_insert", "count/record"),
    ("storage.cpu_units_per_op", "count/op"),
    ("wal.append.calls", "count"),
    ("wal.append.self_s", "s"),
    ("wal.sync.calls", "count"),
    ("wal.sync.self_s", "s"),
    ("wal.bytes_per_record", "B/record"),
    ("checkpoint.calls", "count"),
    ("checkpoint.self_s", "s"),
    ("checkpoint.bytes", "B"),
    ("recovery.load_s", "s"),
    ("recovery.replay_s", "s"),
    ("warehouse.self_s", "s"),
    ("tpcd.generate_s", "s"),
    ("workload.query_gen_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)

#: Layer self times must add up to the traced wall time within this.
RECONCILE_TOLERANCE_S = 1e-6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "olap", "dashboard"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15,
                        help="sizes the timed part; calibrated so a run measures "
                             "about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out seed HELD_OUT_BASE + SEED")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale of the data set up before timing (self-tests)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test: corrupt one checked answer")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0 or not 0 < args.scale <= 10:
        parser.error("need --seconds >= 1, --seed >= 0 and 0 < --scale <= 10")
    return args


def commit_id():
    """HEAD of the checkout when it is a git repository, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def deterministic_counts(result):
    """What must be bit-identical between traced and untraced runs."""
    return {
        "storage": result.counts["storage"],
        "result_cache": {k: result.counts["result_cache"][k] for k in ("hits", "misses")},
        "requests": {kind: len(t) for kind, t in sorted(result.timings.items())},
        "answers": digest(sorted(result.answers.items(), key=repr)),
    }


# -- end-to-end report ------------------------------------------------------


CLOCKS = ("norm", "cpu", "wall")


def timing_rows(result, kind, name, unit, scale, tail):
    """Median and a named tail percentile on each clock, refused when the
    sample cannot support it."""
    timing = result.timing(kind)
    rows = [("%s_p50_%s" % (name, unit),)
            + tuple(timing.median(c) * scale for c in CLOCKS) + (unit, len(timing))]
    tag, q = tail
    metric = "%s_%s_%s" % (name, tag, unit)
    try:
        rows.append((metric,) + tuple(timing.at(q, c) * scale for c in CLOCKS)
                    + (unit, len(timing)))
    except UnsupportedPercentile as error:
        rows.append((metric, None, None, None, unit, "refused: %s" % error))
    return rows


def report_rows(workload, result, setup):
    """Every end-to-end metric of the workload, by its name:
    ``(name, value, cpu clock, wall clock, unit, n)``; the value of a time
    is on the normalized clock (see ``stats.SpeedGauge``)."""
    calls = len(result.region_calls)
    rows = [
        ("setup_s",) + tuple(statistics.median(setup[c]) for c in CLOCKS)
        + ("s", len(setup["cpu"])),
        ("ops_per_s",) + tuple(result.throughput(c) for c in CLOCKS) + ("1/s", calls),
    ]
    name = workload.name
    if name == "ingest":
        rows += timing_rows(result, "insert", "insert", "us", 1e6, ("p999", 0.999))
    if name == "dashboard":
        rows += timing_rows(result, "refresh", "refresh", "ms", 1e3, ("p90", 0.9))
    if name in ("olap", "dashboard"):
        rows += timing_rows(result, "query", "query", "ms", 1e3, ("p99", 0.99))
    if name == "olap":
        rows += timing_rows(result, "group_by", "groupby", "ms", 1e3, ("p95", 0.95))
    if name == "dashboard":
        rows += timing_rows(result, "commit", "commit", "ms", 1e3, ("p90", 0.9))
        recovery = result.timing("recovery")
        rows.append(("recovery_s",) + tuple(recovery.median(c) for c in CLOCKS)
                    + ("s", len(recovery)))
        rows.append(("stored_bytes_per_record", result.values["stored_bytes_per_record"],
                     None, None, "B", 1))
    if name in ("ingest", "dashboard"):
        rows.append(("sim_insert_ms", result.values["sim_insert_ms"], None, None, "ms",
                     result.values["records_inserted"]))
    if name in ("olap", "dashboard"):
        rows.append(("sim_query_ms", result.values["sim_query_ms"], None, None, "ms",
                     len(result.timing("query"))))
    rows.append(("sim_ms_per_op", result.values["sim_ms_per_op"], None, None, "ms",
                 result.completed))
    rows.append(("peak_rss_mb", peak_rss_mb(), None, None, "MB", 1))
    rows.append(("error_rate", result.failed / max(1, result.attempted), None, None, "ratio",
                 result.attempted))
    return rows


def end_to_end_metrics(workload, result, setup):
    primary = result.timing(workload.primary)
    tail_q, tail = primary.tail("norm")
    values = {
        "setup_s": statistics.median(setup["norm"]),
        "ops_per_cpu_s": result.throughput("norm", workload.throughput_kinds),
        "cpu_p50_ms": primary.median("norm") * 1e3,
        "cpu_tail_ms": tail * 1e3,
        "sim_ms_per_op": result.values["sim_ms_per_op"],
        "peak_rss_mb": peak_rss_mb(),
    }
    note = "cpu_p50_ms/cpu_tail_ms: %s requests, p50 and p%s of n=%d; %d speed probes" % (
        workload.primary, label(tail_q), len(primary), len(result.gauge.probes))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, note


# -- per-layer report -------------------------------------------------------


def layer_metrics(workload, tracer, traced, untraced):
    stats = tracer.stats

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    def extra(name, key):
        return stats[name].extra.get(key, 0) if name in stats else 0

    def ratio(num, den):
        return num / den if den else 0.0

    storage = traced.counts["storage"]
    cache = traced.counts["result_cache"]
    ops = traced.completed
    values = {}
    for name in ("tree.insert", "tree.insert_batch", "tree.range_query", "tree.group_by",
                 "split.hierarchy_split"):
        values[name + ".self_s"] = self_s(name)
    for name in ("split.plan_node_split", "split.choose_seeds", "mds.operation_cost",
                 "mds.union_cardinality", "mds.classify", "mds.covers_record",
                 "mds.adapted_set", "wal.append", "wal.sync", "checkpoint"):
        values[name + ".calls"] = calls(name)
        values[name + ".self_s"] = self_s(name)
    values["split.supernode_ratio"] = ratio(extra("split.plan_node_split", "none"),
                                            calls("split.plan_node_split"))
    values["mds.covers_record.match_ratio"] = ratio(extra("mds.covers_record", "true"),
                                                    calls("mds.covers_record"))
    values["result_cache.hit_ratio"] = ratio(cache["hits"], cache["hits"] + cache["misses"])
    for key in ("hits", "misses", "evictions", "invalidations"):
        values["result_cache." + key] = cache[key]
    values["storage.node_accesses_per_op"] = ratio(storage["node_accesses"], ops)
    values["storage.page_reads_per_op"] = ratio(storage["buffer_misses"], ops)
    values["storage.buffer_hit_ratio"] = ratio(
        storage["buffer_hits"], storage["buffer_hits"] + storage["buffer_misses"])
    values["storage.page_writes_per_insert"] = ratio(storage["page_writes"],
                                                     traced.values["records_inserted"])
    values["storage.cpu_units_per_op"] = ratio(storage["cpu_units"], ops)
    values["wal.bytes_per_record"] = ratio(extra("wal.append", "bytes"),
                                           extra("wal.append", "records"))
    values["checkpoint.bytes"] = ratio(extra("checkpoint", "bytes"), calls("checkpoint"))
    values["recovery.load_s"] = stats["recovery.load"].total_s if "recovery.load" in stats \
        else 0.0
    values["recovery.replay_s"] = stats["recovery.replay"].total_s \
        if "recovery.replay" in stats else 0.0
    values["warehouse.self_s"] = tracer.layer_self_s().get("warehouse", 0.0)
    values["tpcd.generate_s"] = workload.setup_times["tpcd.generate_s"]
    values["workload.query_gen_s"] = workload.setup_times["workload.query_gen_s"]
    values["trace.overhead_ratio"] = traced.cpu_s / untraced.cpu_s
    values["trace.unattributed_s"] = tracer.unattributed_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- running a workload -----------------------------------------------------


def print_rows(rows):
    def shown(value):
        return "-" if value is None else "%.6g" % value

    print("%-28s %12s %12s %12s  %-12s %s" % ("metric", "value", "cpu clock", "wall clock",
                                              "unit", "n"))
    for name, value, cpu, wall, unit, n in rows:
        print("%-28s %12s %12s %12s  %-12s %s" % (name, shown(value), shown(cpu), shown(wall),
                                                  unit, n))


def run_once(workload, inject):
    """Set up (SETUP_REPEATS times), run and check; returns the pass.

    Each set-up's CPU time is also expressed at nominal machine speed,
    from reference-kernel runs just before and after it.
    """
    setup = {"norm": [], "cpu": [], "wall": []}
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
                gc.collect()
            kernel_runs = [kernel_seconds() for _ in range(SPEED_RUNS)]
            wall, cpu = time.perf_counter(), time.process_time()
            state = workload.setup()
            cpu = time.process_time() - cpu
            setup["wall"].append(time.perf_counter() - wall)
            kernel_runs += [kernel_seconds() for _ in range(SPEED_RUNS)]
            setup["cpu"].append(cpu)
            setup["norm"].append(cpu * speed_factor(kernel_runs))
        result = workload.run(state)
        if inject:
            workload.inject_wrong_answer(state, result)
        workload.check(state, result)
    finally:
        if state is not None:
            workload.close(state)
    return result, setup


def run_traced(workload, inject, seed):
    """Plain pass, then traced pass on a fresh identical set-up."""
    from tracing import Tracer

    state = workload.setup()
    try:
        untraced = workload.run(state)
    finally:
        workload.close(state)
    del state
    gc.collect()
    state = workload.setup()
    tracer = Tracer()
    try:
        with tracer:
            traced = workload.run(state)
        if inject:
            workload.inject_wrong_answer(state, traced)
        workload.check(state, traced)
    finally:
        workload.close(state)
    plain_counts = deterministic_counts(untraced)
    traced_counts = deterministic_counts(traced)
    if plain_counts != traced_counts:
        traced.fail("deterministic counts differ under tracing: %s vs %s"
                    % (plain_counts, traced_counts))
    error = tracer.reconciliation_error()
    if error > RECONCILE_TOLERANCE_S:
        traced.fail("layer self times + unattributed miss the traced wall by %.3g s"
                    % error)
    metrics = layer_metrics(workload, tracer, traced, untraced)
    summary = {
        "workload": workload.name, "seed": seed, "wall_s": tracer.wall_s(),
        "untraced_wall_s": untraced.wall_s, "reconciliation_error_s": error,
        "layers_self_s": tracer.layer_self_s(), "calls": tracer.call_counts(),
        "counts": traced_counts, "missing_targets": tracer.missing,
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d.trace.jsonl" % (workload.name, seed))
    tracer.write(path, summary)
    print("# trace written to %s (%d spans kept)" % (path.relative_to(ROOT),
                                                    len(tracer.spans)))
    print("# layers self_s %s unattributed_s %.6f wall_s %.6f"
          % (json.dumps({k: round(v, 6) for k, v in sorted(tracer.layer_self_s().items())}),
             tracer.unattributed_s, tracer.wall_s()))
    print("# counts %s calls %s" % (digest(traced_counts), digest(tracer.call_counts())))
    return traced, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no source tree at %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    from repro.config import DCTreeConfig

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    seed = HELD_OUT_BASE + args.seed if args.held_out else args.seed
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](seed, args.seconds, args.scale, str(workdir))
    meta = {
        "workload": args.workload, "seed": seed, "held_out": args.held_out,
        "trace": args.trace, "seconds": args.seconds, "scale": args.scale,
        "sizes": workload.sizes(), "commit": commit_id(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "clients": 1, "loop": "closed",
        "fsync_policy": "wal_fsync_interval=%d" % DCTreeConfig().wal_fsync_interval,
    }
    print("# perfbench meta %s" % json.dumps(meta, sort_keys=True))
    try:
        if args.trace:
            result, metrics = run_traced(workload, args.inject_wrong_answer, seed)
            print_rows([(name, m["value"], None, None, m["unit"], "")
                        for name, m in metrics.items()])
        else:
            result, setup = run_once(workload, args.inject_wrong_answer)
            print_rows(report_rows(workload, result, setup))
            metrics, note = end_to_end_metrics(workload, result, setup)
            print("# %s" % note)
            print("# counts %s" % digest(deterministic_counts(result)))
    except Exception:  # noqa: BLE001 - the benchmark reports and exits non-zero
        traceback.print_exc()
        return 1
    finally:
        try:
            workdir.rmdir()
        except OSError:
            pass
    for message in result.errors:
        print("perfbench: FAILED %s" % message, file=sys.stderr)
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            print("perfbench: metric %s is not finite" % name, file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
