"""Self-tests of the benchmark, at a tiny size.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("ingest", "olap", "dashboard")

#: Names the readable report must print, per workload.
REPORTED = {
    "ingest": ("insert_p50_us", "insert_p999_us", "sim_insert_ms"),
    "olap": ("query_p50_ms", "query_p99_ms", "groupby_p50_ms", "groupby_p95_ms",
             "sim_query_ms"),
    "dashboard": ("query_p50_ms", "query_p99_ms", "commit_p50_ms", "commit_p90_ms",
                  "recovery_s", "sim_insert_ms", "sim_query_ms",
                  "stored_bytes_per_record"),
}
COMMON = ("setup_s", "ops_per_s", "peak_rss_mb", "error_rate")


def bench(workload, trace=0, seed=3, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--scale", "0.1", "--trace", str(trace)]
        + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(proc):
    """The ``# counts`` line: counts digest (and calls digest when traced)."""
    for line in proc.stdout.splitlines():
        if line.startswith("# counts "):
            return line.split()[2::2]
    raise AssertionError("no counts line in:\n" + proc.stdout)


class TestPercentiles(unittest.TestCase):
    def test_refuses_unsupported_tail(self):
        sample = sorted(range(1000))
        self.assertEqual(stats.percentile(sample, 0.99), 989)
        with self.assertRaises(stats.UnsupportedPercentile):
            stats.percentile(sample, 0.999)

    def test_ladder_follows_sample_count(self):
        self.assertEqual(stats.tail_quantile(12000), 0.999)
        self.assertEqual(stats.tail_quantile(9999), 0.99)
        self.assertEqual(stats.tail_quantile(200), 0.95)
        self.assertEqual(stats.tail_quantile(100), 0.9)
        self.assertIsNone(stats.tail_quantile(99))


class TestWorkloads(unittest.TestCase):
    def test_end_to_end_metrics_emitted_with_units(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        self.assertEqual(units, dict(run.END_TO_END))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, units)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()
                        if line and not line.startswith(("#", "{"))}
                for name in REPORTED[workload] + COMMON:
                    self.assertIn(name, rows)
                    self.assertGreaterEqual(len(rows[name]), 4, rows[name])

    def test_traced_run_matches_untraced_counts(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        self.assertEqual(units, dict(run.PER_LAYER))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain = bench(workload, 0, 5)
                traced = bench(workload, 1, 5)
                again = bench(workload, 1, 5)
                for proc in (plain, traced, again):
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(traced)
                self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, units)
                # Counts repeat under tracing and across runs of one seed;
                # call counts repeat across traced runs.
                self.assertEqual(digests(plain)[0], digests(traced)[0])
                self.assertEqual(digests(traced), digests(again))
                self.assertGreater(result["metrics"]["trace.overhead_ratio"]["value"], 0)

    def test_injected_wrong_answer_trips_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, 0, 3, "--inject-wrong-answer")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("FAILED", proc.stderr)

    def test_held_out_seed_is_recorded(self):
        proc = bench("ingest", 0, 3, "--held-out")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        meta = json.loads(proc.stdout.splitlines()[0].split(" ", 3)[3])
        self.assertEqual(meta["seed"], run.HELD_OUT_BASE + 3)
        self.assertTrue(meta["held_out"])

    def test_fails_without_source_tree(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("ingest", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
