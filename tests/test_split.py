"""Unit tests for the hierarchy split (Figures 5 and 6)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CubeSchema, Dimension, Measure, TPCDGenerator, make_tpcd_schema
from repro.config import DCTreeConfig
from repro.core import mds as mds_mod
from repro.core import split as split_mod
from repro.core.debug import structure_digest
from repro.core.mds import MDS
from repro.core.tree import DCTree
from repro.errors import MdsError
from tests.conftest import build_toy_schema, toy_record


def hset(schema):
    return tuple(d.hierarchy for d in schema.dimensions)


@pytest.fixture
def city_mdss():
    """Eight single-record MDSs at city level, 2 countries x 4 cities."""
    schema = build_toy_schema()
    rows = [
        ("DE", "Munich", "red", 1.0),
        ("DE", "Berlin", "red", 1.0),
        ("DE", "Hamburg", "blue", 1.0),
        ("DE", "Cologne", "blue", 1.0),
        ("FR", "Paris", "red", 1.0),
        ("FR", "Lyon", "red", 1.0),
        ("FR", "Nice", "blue", 1.0),
        ("FR", "Lille", "blue", 1.0),
    ]
    records = [toy_record(schema, *row) for row in rows]
    hierarchies = hset(schema)
    mdss = [MDS.for_record(r, (0, 0), hierarchies) for r in records]
    return schema, hierarchies, records, mdss


class TestChooseSeeds:
    def test_seeds_are_distinct(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        a, b, _cost = split_mod.choose_seeds(mdss, hierarchies)
        assert a != b

    def test_seeds_maximize_cover_size(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        a, b, _cost = split_mod.choose_seeds(mdss, hierarchies)
        best = max(
            sum(
                mds_mod.union_cardinality(mdss[i], mdss[j], d, hierarchies)
                for d in range(2)
            )
            for i in range(len(mdss))
            for j in range(i + 1, len(mdss))
        )
        achieved = sum(
            mds_mod.union_cardinality(mdss[a], mdss[b], d, hierarchies)
            for d in range(2)
        )
        assert achieved == best

    def test_cost_positive(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        _a, _b, cost = split_mod.choose_seeds(mdss, hierarchies)
        assert cost > 0


class TestHierarchySplit:
    def test_partitions_all_indices(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            mdss, 0, hierarchies
        )
        assert sorted(group_a + group_b) == list(range(len(mdss)))
        assert not set(group_a) & set(group_b)

    def test_split_by_country_separates_countries(self, city_mdss):
        schema, hierarchies, _records, mdss = city_mdss
        lifted = [m.adapted_to((1, 0), hierarchies) for m in mdss]
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            lifted, 0, hierarchies, min_group=2
        )
        countries_a = set()
        for i in group_a:
            countries_a.update(lifted[i].value_set(0))
        countries_b = set()
        for i in group_b:
            countries_b.update(lifted[i].value_set(0))
        assert not countries_a & countries_b

    def test_min_group_forced_assignment(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            mdss, 0, hierarchies, min_group=4
        )
        assert min(len(group_a), len(group_b)) >= 4

    def test_two_entries_split_into_singletons(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            mdss[:2], 0, hierarchies
        )
        assert len(group_a) == 1 and len(group_b) == 1


class TestLinearSplit:
    def test_partitions_all_indices(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.linear_split(
            mdss, 0, hierarchies
        )
        assert sorted(group_a + group_b) == list(range(len(mdss)))

    def test_min_group_respected(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.linear_split(
            mdss, 0, hierarchies, min_group=3
        )
        assert min(len(group_a), len(group_b)) >= 3

    def test_cheaper_than_quadratic(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        _groups, quadratic_cost = split_mod.hierarchy_split(
            mdss, 0, hierarchies
        )
        _groups, linear_cost = split_mod.linear_split(mdss, 0, hierarchies)
        assert linear_cost < quadratic_cost


class TestDimensionOrder:
    def test_highest_level_first(self):
        mds = MDS([{1}, {2}], [2, 0])
        assert split_mod._dimension_order(mds)[0] == 0

    def test_tie_broken_by_cardinality(self):
        mds = MDS([{1}, {2, 3}], [1, 1])
        assert split_mod._dimension_order(mds)[0] == 1

    def test_full_tie_broken_by_index(self):
        mds = MDS([{1}, {2}], [1, 1])
        assert split_mod._dimension_order(mds) == [0, 1]


class TestAdaptationAttempts:
    def test_multi_value_set_tries_both_levels(self):
        mds = MDS([{1, 2}, {9}], [1, 0])
        attempts = split_mod._adaptation_attempts(mds, 0)
        assert attempts == [[1, 0], [0, 0]]

    def test_singleton_descends_only(self):
        mds = MDS([{1}, {9}], [1, 0])
        assert split_mod._adaptation_attempts(mds, 0) == [[0, 0]]

    def test_singleton_at_leaf_level_unusable(self):
        mds = MDS([{1}, {9}], [0, 0])
        assert split_mod._adaptation_attempts(mds, 0) == []

    def test_multi_value_at_leaf_level_single_attempt(self):
        mds = MDS([{1, 2}, {9}], [0, 0])
        assert split_mod._adaptation_attempts(mds, 0) == [[0, 0]]


class TestPlanNodeSplit:
    def _plan(self, mdss, node_levels, hierarchies, config=None):
        node_mds = split_mod.compute_group_mds(
            [m.adapted_to(node_levels, hierarchies) for m in mdss],
            node_levels,
            hierarchies,
        )

        def adapt(levels):
            return [m.adapted_to(levels, hierarchies) for m in mdss]

        return split_mod.plan_node_split(
            node_mds,
            len(mdss),
            adapt,
            config if config is not None else DCTreeConfig(),
            hierarchies,
        )

    def test_separable_entries_get_a_plan(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (1, 0), hierarchies)
        assert plan is not None
        assert sorted(plan.groups[0] + plan.groups[1]) == list(
            range(len(mdss))
        )

    def test_plan_separates_in_split_dimension(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (1, 0), hierarchies)
        adapted = [m.adapted_to(plan.levels, hierarchies) for m in mdss]
        set_a = set()
        for i in plan.groups[0]:
            set_a.update(adapted[i].value_set(plan.split_dimension))
        set_b = set()
        for i in plan.groups[1]:
            set_b.update(adapted[i].value_set(plan.split_dimension))
        assert not set_a & set_b

    def test_singleton_node_mds_descends_level(self, city_mdss):
        """(ALL, ALL) node splits by descending to country level (§3.2)."""
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (2, 1), hierarchies)
        assert plan is not None
        assert plan.levels[plan.split_dimension] < (2, 1)[
            plan.split_dimension
        ]

    def test_identical_entries_yield_no_plan(self):
        """All records in the same cell: nothing separates -> supernode."""
        schema = build_toy_schema()
        hierarchies = hset(schema)
        records = [
            toy_record(schema, "DE", "Munich", "red", float(i))
            for i in range(8)
        ]
        mdss = [MDS.for_record(r, (0, 0), hierarchies) for r in records]
        plan = self._plan(mdss, (0, 0), hierarchies)
        assert plan is None

    def test_cpu_units_accounted(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (1, 0), hierarchies)
        assert plan.cpu_units > 0


class TestComputeGroupMds:
    def test_union_at_levels(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        group = split_mod.compute_group_mds(mdss[:4], (1, 0), hierarchies)
        assert group.levels == (1, 0)
        assert group.cardinality(0) == 1  # all DE
        assert group.cardinality(1) == 2  # red, blue


class TestSplitInputErrors:
    """The bitset kernel needs two or more entries at common levels."""

    @pytest.fixture(params=["choose_seeds", "hierarchy_split",
                            "linear_split"])
    def split_call(self, request, city_mdss):
        _schema, hierarchies, _records, _mdss = city_mdss
        if request.param == "choose_seeds":
            return lambda mdss: split_mod.choose_seeds(mdss, hierarchies)
        function = getattr(split_mod, request.param)
        return lambda mdss: function(mdss, 0, hierarchies)

    def test_single_entry_raises(self, split_call, city_mdss):
        mdss = city_mdss[3]
        with pytest.raises(MdsError, match="at least two entries"):
            split_call(mdss[:1])

    def test_no_entries_raises(self, split_call):
        with pytest.raises(MdsError, match="at least two entries"):
            split_call([])

    def test_mixed_levels_raise(self, split_call, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        mixed = list(mdss)
        mixed[5] = mdss[5].adapted_to((1, 0), hierarchies)
        with pytest.raises(MdsError, match="share their levels"):
            split_call(mixed)


# ----------------------------------------------------------------------
# differential tests: the bitset kernel against the set algebra
# ----------------------------------------------------------------------
#
# The functions below are the set-based seed choice, assignment loop and
# linear split the kernel replaced, kept here as the reference it must
# agree with: same seeds, same groups, same CPU units.


def ref_choose_seeds(mdss, hierarchies):
    best = None
    best_size = -1
    cpu_units = 0
    n = len(mdss)
    for i in range(n):
        for j in range(i + 1, n):
            size = 0
            for dim in range(mdss[i].n_dimensions):
                size += mds_mod.union_cardinality(
                    mdss[i], mdss[j], dim, hierarchies
                )
            cpu_units += mds_mod.operation_cost(mdss[i], mdss[j])
            if size > best_size:
                best_size = size
                best = (i, j)
    return best[0], best[1], cpu_units


def ref_prefer_group_a(mds_a, mds_b, candidate, group_a, group_b, split_dim,
                       hierarchies):
    shared_a = len(
        candidate.value_set(split_dim) & mds_a.value_set(split_dim)
    )
    shared_b = len(
        candidate.value_set(split_dim) & mds_b.value_set(split_dim)
    )
    if shared_a != shared_b:
        return shared_a > shared_b
    enlarged_a = mds_a.copy()
    enlarged_a.add_mds(candidate, hierarchies)
    enlarged_b = mds_b.copy()
    enlarged_b.add_mds(candidate, hierarchies)
    overlap_if_a = mds_mod.overlap(enlarged_a, mds_b, hierarchies)
    overlap_if_b = mds_mod.overlap(mds_a, enlarged_b, hierarchies)
    if overlap_if_a != overlap_if_b:
        return overlap_if_a < overlap_if_b
    extension_if_a = enlarged_a.size() + mds_b.size()
    extension_if_b = mds_a.size() + enlarged_b.size()
    if extension_if_a != extension_if_b:
        return extension_if_a < extension_if_b
    volume_if_a = enlarged_a.volume() + mds_b.volume()
    volume_if_b = mds_a.volume() + enlarged_b.volume()
    if volume_if_a != volume_if_b:
        return volume_if_a < volume_if_b
    return len(group_a) <= len(group_b)


def _ref_assign(mdss, idx, mds_a, mds_b, group_a, group_b, split_dim,
                hierarchies):
    target_a = ref_prefer_group_a(
        mds_a, mds_b, mdss[idx], group_a, group_b, split_dim, hierarchies
    )
    cpu_units = mds_mod.operation_cost(mds_a, mds_b)
    if target_a:
        group_a.append(idx)
        mds_a.add_mds(mdss[idx], hierarchies)
    else:
        group_b.append(idx)
        mds_b.add_mds(mdss[idx], hierarchies)
    return cpu_units


def ref_hierarchy_split(mdss, split_dim, hierarchies, min_group=2):
    seed_a, seed_b, cpu_units = ref_choose_seeds(mdss, hierarchies)
    group_a, group_b = [seed_a], [seed_b]
    mds_a = mdss[seed_a].copy()
    mds_b = mdss[seed_b].copy()
    remaining = [i for i in range(len(mdss)) if i not in (seed_a, seed_b)]
    while remaining:
        if len(group_a) + len(remaining) <= min_group:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) <= min_group:
            group_b.extend(remaining)
            break
        chosen_pos = None
        chosen_diff = -1
        for pos, idx in enumerate(remaining):
            candidate = mdss[idx].value_set(split_dim)
            enlargement_a = len(candidate - mds_a.value_set(split_dim))
            enlargement_b = len(candidate - mds_b.value_set(split_dim))
            cpu_units += 2 * len(candidate)
            diff = abs(enlargement_a - enlargement_b)
            if diff > chosen_diff:
                chosen_diff = diff
                chosen_pos = pos
        idx = remaining.pop(chosen_pos)
        cpu_units += _ref_assign(mdss, idx, mds_a, mds_b, group_a, group_b,
                                 split_dim, hierarchies)
    return (group_a, group_b), cpu_units


def ref_linear_split(mdss, split_dim, hierarchies, min_group=2):
    seed_a = 0
    seed_b = None
    worst_similarity = None
    cpu_units = 0
    base = mdss[seed_a].value_set(split_dim)
    for idx in range(1, len(mdss)):
        other = mdss[idx].value_set(split_dim)
        union = len(base | other)
        similarity = len(base & other) / union if union else 1.0
        cpu_units += len(base) + len(other)
        if worst_similarity is None or similarity < worst_similarity:
            worst_similarity = similarity
            seed_b = idx
    group_a, group_b = [seed_a], [seed_b]
    mds_a = mdss[seed_a].copy()
    mds_b = mdss[seed_b].copy()
    remaining = [i for i in range(len(mdss)) if i not in (seed_a, seed_b)]
    for position, idx in enumerate(remaining):
        left = len(remaining) - position
        if len(group_a) + left <= min_group:
            group_a.extend(remaining[position:])
            break
        if len(group_b) + left <= min_group:
            group_b.extend(remaining[position:])
            break
        cpu_units += _ref_assign(mdss, idx, mds_a, mds_b, group_a, group_b,
                                 split_dim, hierarchies)
    return (group_a, group_b), cpu_units


def _grid_hierarchies():
    """Four dimensions of depth two (Leaf < Mid < ALL): 3 mids x 4 leaves."""
    schema = CubeSchema(
        dimensions=[Dimension("D%d" % d, ("Leaf", "Mid")) for d in range(4)],
        measures=[Measure("M")],
    )
    hierarchies = hset(schema)
    for hierarchy in hierarchies:
        for mid in range(3):
            for leaf in range(4):
                hierarchy.insert_path(("m%d" % mid, "l%d.%d" % (mid, leaf)))
    return hierarchies


GRID_HIERARCHIES = _grid_hierarchies()


@st.composite
def split_inputs(draw):
    """Entries at common levels over 1-4 grid dimensions.

    Each dimension sits at the leaf, intermediate or ALL level; value sets
    are singletons or larger.  Entries are drawn from a small palette of
    templates, so repeated entries force ties in the seed scan and down
    the whole tie-break chain of the group criterion.
    """
    n_dims = draw(st.integers(1, 4))
    hierarchies = GRID_HIERARCHIES[:n_dims]
    levels = [draw(st.integers(0, h.top_level)) for h in hierarchies]
    pools = [h.values_at_level(level) for h, level in zip(hierarchies, levels)]
    sets = st.tuples(*[
        st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool))
        for pool in pools
    ])
    palette = draw(st.lists(sets, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(palette) - 1),
                          min_size=2, max_size=14))
    mdss = [MDS(palette[p], levels) for p in picks]
    split_dim = draw(st.integers(0, n_dims - 1))
    min_group = draw(st.integers(2, max(2, len(mdss) // 2)))
    return mdss, split_dim, hierarchies, min_group


class TestBitsetKernelMatchesSetAlgebra:
    @given(split_inputs())
    def test_choose_seeds(self, case):
        mdss, _split_dim, hierarchies, _min_group = case
        assert split_mod.choose_seeds(mdss, hierarchies) == ref_choose_seeds(
            mdss, hierarchies
        )

    @given(split_inputs())
    def test_hierarchy_split(self, case):
        mdss, split_dim, hierarchies, min_group = case
        assert split_mod.hierarchy_split(
            mdss, split_dim, hierarchies, min_group
        ) == ref_hierarchy_split(mdss, split_dim, hierarchies, min_group)

    @given(split_inputs())
    def test_linear_split(self, case):
        mdss, split_dim, hierarchies, min_group = case
        assert split_mod.linear_split(
            mdss, split_dim, hierarchies, min_group
        ) == ref_linear_split(mdss, split_dim, hierarchies, min_group)

    @given(split_inputs())
    def test_closed_form_seed_charge(self, case):
        mdss, _split_dim, hierarchies, _min_group = case
        _a, _b, cpu_units = split_mod.choose_seeds(mdss, hierarchies)
        assert cpu_units == sum(
            mds_mod.operation_cost(mdss[i], mdss[j])
            for i in range(len(mdss))
            for j in range(i + 1, len(mdss))
        )

    def test_first_pair_wins_ties(self):
        hierarchies = GRID_HIERARCHIES[:1]
        leaves = hierarchies[0].values_at_level(0)
        mdss = [MDS([{leaves[k]}], [0]) for k in range(4)]
        assert split_mod.choose_seeds(mdss, hierarchies)[:2] == (0, 1)


@pytest.mark.parametrize("capacity_mode", ["entries", "bytes"])
def test_tree_built_with_reference_split_is_identical(capacity_mode,
                                                      monkeypatch):
    """2 000 TPC-D inserts: the bitset split and the set-based reference
    build the same tree and charge the same counters."""
    schema = make_tpcd_schema()
    records = TPCDGenerator(schema, seed=8, scale_records=2000).generate(2000)

    def build():
        tree = DCTree(schema, config=DCTreeConfig(capacity_mode=capacity_mode))
        for record in records:
            tree.insert(record)
        return structure_digest(tree), repr(tree.tracker.snapshot())

    actual = build()
    monkeypatch.setattr(split_mod, "hierarchy_split", ref_hierarchy_split)
    assert build() == actual
