"""Read-path charges: the answer and exact tracker delta of every DC-tree read.

A fixed 2 000-record TPC-D tree is built twice, with materialized
aggregates on and off.  On each tree the same script of reads runs:
``range_query`` with all five aggregates, ``range_summary``,
``range_records`` and ``group_by`` (unrestricted and range-restricted).
Every call starts from an empty buffer pool and zeroed counters, so its
tracker delta — node accesses, buffer misses, page writes, CPU units —
is a function of the traversal alone.  The per-level EXPLAIN rows of
``range_query`` and ``group_by`` are pinned as well.  Answers are checked
against a :class:`~repro.scan.table.FlatTable` oracle.

A refactor of the read path must leave every number below unchanged.  A
deliberate change of the cost model regenerates the tables with::

    PYTHONPATH=src python -m tests.test_read_path_charges
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import pytest

from repro import DCTree, DCTreeConfig, FlatTable, TPCDGenerator, make_tpcd_schema
from repro.workload import query_from_labels

N_RECORDS = 2000
OPS = ("sum", "count", "avg", "min", "max")
GROUP_DIM, GROUP_LEVEL = 0, 3  # Customer by Region
# Contained entries with aggregates on; many disjoint entries; a narrow
# two-dimensional range that reads few leaves.
WHERE = (
    {"Customer": ("Region", ["AFRICA", "AMERICA", "ASIA"])},
    {"Customer": ("Region", ["AFRICA", "AMERICA", "ASIA", "EUROPE"]),
     "Time": ("Year", ["1993", "1994", "1995", "1996"])},
    {"Customer": ("Nation", ["FRANCE", "CHINA"]), "Time": ("Year", ["1996"])},
)


@lru_cache(maxsize=None)
def _material():
    schema = make_tpcd_schema()
    records = TPCDGenerator(schema, seed=31, scale_records=N_RECORDS) \
        .generate(N_RECORDS)
    oracle = FlatTable(schema)
    for record in records:
        oracle.insert(record)
    queries = tuple(query_from_labels(schema, where) for where in WHERE)
    return schema, records, oracle, queries


@lru_cache(maxsize=None)
def _tree(use_aggregates):
    schema, records, _oracle, _queries = _material()
    tree = DCTree(schema, config=DCTreeConfig(
        use_result_cache=False, use_materialized_aggregates=use_aggregates,
    ))
    for record in records:
        tree.insert(record)
    return tree


def _charged(tree, call):
    """(answer, (node accesses, buffer misses, page writes, cpu units))."""
    tracker = tree.tracker
    tracker.reset(clear_buffer=True)
    answer = call()
    delta = tracker.snapshot()
    return answer, (delta.node_accesses, delta.buffer_misses,
                    delta.page_writes, delta.cpu_units)


def _level_rows(profile):
    return [tuple(level.to_dict().values()) for level in profile.levels]


def _script(tree):
    """Every pinned read as ``(name, call, oracle_check)``."""
    _schema, _records, oracle, queries = _material()
    steps = []
    for q, query in enumerate(queries):
        mds = query.mds
        for op in OPS:
            steps.append((
                "q%d.%s" % (q, op),
                lambda mds=mds, op=op: tree.range_query(mds, op=op),
                lambda answer, mds=mds, op=op: _same(
                    answer, oracle.range_query(mds, op=op)
                ),
            ))
        steps.append((
            "q%d.summary" % q,
            lambda mds=mds: tree.range_summary(mds),
            lambda summary, mds=mds: all(
                _same(summary.aggregate(op), oracle.range_query(mds, op=op))
                for op in OPS
            ),
        ))
        steps.append((
            "q%d.records" % q,
            lambda mds=mds: tree.range_records(mds),
            lambda found, mds=mds: Counter(map(id, found))
            == Counter(map(id, oracle.range_records(mds))),
        ))
    for name, mds in (("all", None), ("q0", queries[0].mds)):
        steps.append((
            "group_by.%s" % name,
            lambda mds=mds: tree.group_by(
                GROUP_DIM, GROUP_LEVEL, op="sum", range_mds=mds
            ),
            lambda groups, mds=mds: _same_groups(groups, oracle, mds),
        ))
    return steps


def _same(got, expected):
    if got is None or expected is None:
        return got is expected
    return math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-6)


def _same_groups(groups, oracle, mds):
    expected = {}
    records = (oracle.range_records(mds) if mds is not None
               else list(oracle.records()))
    for record in records:
        value = record.value_at_level(GROUP_DIM, GROUP_LEVEL)
        expected[value] = expected.get(value, 0.0) + record.measures[0]
    return groups.keys() == expected.keys() and all(
        _same(groups[value], total) for value, total in expected.items()
    )


def _measure(use_aggregates):
    """{call name: tracker delta} plus the EXPLAIN level rows."""
    tree = _tree(use_aggregates)
    _schema, _records, _oracle, queries = _material()
    deltas = {}
    for name, call, _check in _script(tree):
        deltas[name] = _charged(tree, call)[1]
    explains = {}
    for name, call in (
        ("range_query", lambda: tree.range_query(queries[0].mds,
                                                 explain=True)),
        ("group_by.all", lambda: tree.group_by(
            GROUP_DIM, GROUP_LEVEL, explain=True,
        )),
        ("group_by.q0", lambda: tree.group_by(
            GROUP_DIM, GROUP_LEVEL, range_mds=queries[0].mds, explain=True,
        )),
    ):
        tree.tracker.reset(clear_buffer=True)
        explains[name] = _level_rows(call().profile)
    return deltas, explains


# (node accesses, buffer misses, page writes, cpu units) per call.
EXPECTED_DELTAS = {
    True: {
        'q0.sum': (21, 22, 0, 3400),
        'q0.count': (21, 22, 0, 3400),
        'q0.avg': (21, 22, 0, 3400),
        'q0.min': (5, 6, 0, 776),
        'q0.max': (3, 3, 0, 356),
        'q0.summary': (21, 22, 0, 3400),
        'q0.records': (33, 34, 0, 5744),
        'q1.sum': (40, 41, 0, 7259),
        'q1.count': (40, 41, 0, 7259),
        'q1.avg': (40, 41, 0, 7259),
        'q1.min': (6, 7, 0, 1123),
        'q1.max': (6, 7, 0, 1003),
        'q1.summary': (40, 41, 0, 7259),
        'q1.records': (41, 42, 0, 7367),
        'q2.sum': (13, 14, 0, 1954),
        'q2.count': (13, 14, 0, 1954),
        'q2.avg': (13, 14, 0, 1954),
        'q2.min': (8, 9, 0, 1242),
        'q2.max': (13, 14, 0, 1954),
        'q2.summary': (13, 14, 0, 1954),
        'q2.records': (13, 14, 0, 1954),
        'group_by.all': (24, 25, 0, 3988),
        'group_by.q0': (24, 25, 0, 4056),
    },
    False: {
        'q0.sum': (33, 34, 0, 5744),
        'q0.count': (33, 34, 0, 5744),
        'q0.avg': (33, 34, 0, 5744),
        'q0.min': (33, 34, 0, 5744),
        'q0.max': (33, 34, 0, 5744),
        'q0.summary': (33, 34, 0, 5744),
        'q0.records': (33, 34, 0, 5744),
        'q1.sum': (41, 42, 0, 7367),
        'q1.count': (41, 42, 0, 7367),
        'q1.avg': (41, 42, 0, 7367),
        'q1.min': (41, 42, 0, 7367),
        'q1.max': (41, 42, 0, 7367),
        'q1.summary': (41, 42, 0, 7367),
        'q1.records': (41, 42, 0, 7367),
        'q2.sum': (13, 14, 0, 1954),
        'q2.count': (13, 14, 0, 1954),
        'q2.avg': (13, 14, 0, 1954),
        'q2.min': (13, 14, 0, 1954),
        'q2.max': (13, 14, 0, 1954),
        'q2.summary': (13, 14, 0, 1954),
        'q2.records': (13, 14, 0, 1954),
        'group_by.all': (47, 48, 0, 8368),
        'group_by.q0': (33, 34, 0, 5744),
    },
}

# LevelProfile rows: (depth, node_accesses, pages_touched, page_ios,
# cpu_units, disjoint, partial, contained, aggregate_hits,
# records_scanned) per depth.
EXPECTED_EXPLAIN = {
    True: {
        'range_query': [
            (0, 1, 1, 1, 19, 0, 2, 0, 0, 0),
            (1, 2, 3, 3, 417, 14, 18, 12, 12, 0),
            (2, 18, 18, 18, 2964, 0, 0, 0, 0, 741),
        ],
        'group_by.all': [
            (0, 1, 1, 1, 16, 0, 2, 0, 0, 0),
            (1, 2, 3, 3, 352, 0, 21, 23, 23, 0),
            (2, 21, 21, 21, 3620, 0, 0, 0, 0, 905),
        ],
        'group_by.q0': [
            (0, 1, 1, 1, 19, 0, 2, 0, 0, 0),
            (1, 2, 3, 3, 417, 14, 21, 9, 9, 0),
            (2, 21, 21, 21, 3620, 0, 0, 0, 0, 905),
        ],
    },
    False: {
        'range_query': [
            (0, 1, 1, 1, 19, 0, 2, 0, 0, 0),
            (1, 2, 3, 3, 417, 14, 30, 0, 0, 0),
            (2, 30, 30, 30, 5308, 0, 0, 0, 0, 1327),
        ],
        'group_by.all': [
            (0, 1, 1, 1, 16, 0, 2, 0, 0, 0),
            (1, 2, 3, 3, 352, 0, 44, 0, 0, 0),
            (2, 44, 44, 44, 8000, 0, 0, 0, 0, 2000),
        ],
        'group_by.q0': [
            (0, 1, 1, 1, 19, 0, 2, 0, 0, 0),
            (1, 2, 3, 3, 417, 14, 30, 0, 0, 0),
            (2, 30, 30, 30, 5308, 0, 0, 0, 0, 1327),
        ],
    },
}


@pytest.mark.parametrize("use_aggregates", [True, False],
                         ids=["aggregates-on", "aggregates-off"])
def test_answers_match_oracle(use_aggregates):
    tree = _tree(use_aggregates)
    for name, call, check in _script(tree):
        assert check(call()), name


@pytest.mark.parametrize("use_aggregates", [True, False],
                         ids=["aggregates-on", "aggregates-off"])
def test_tracker_deltas_pinned(use_aggregates):
    deltas, _explains = _measure(use_aggregates)
    assert deltas == EXPECTED_DELTAS[use_aggregates]


@pytest.mark.parametrize("use_aggregates", [True, False],
                         ids=["aggregates-on", "aggregates-off"])
def test_explain_levels_pinned(use_aggregates):
    _deltas, explains = _measure(use_aggregates)
    assert explains == EXPECTED_EXPLAIN[use_aggregates]


def test_aggregates_prune_reads():
    """The pinned script exercises the materialized-aggregate path."""
    on, _ = _measure(True)
    off, _ = _measure(False)
    assert on["q0.sum"][0] < off["q0.sum"][0]
    assert on["group_by.all"][0] < off["group_by.all"][0]


if __name__ == "__main__":
    from pprint import pprint

    for flag in (True, False):
        deltas, explains = _measure(flag)
        print("# use_materialized_aggregates=%s" % flag)
        pprint(deltas, width=72, sort_dicts=False)
        pprint(explains, width=72, sort_dicts=False)
