"""Unit and property tests for the MDS algebra (Definitions 3 and 4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import mds as mds_mod
from repro.core.mds import MDS
from repro.errors import MdsError
from tests.conftest import adapted, build_toy_schema, toy_record

COUNTRIES = ("DE", "FR", "US", "JP")
CITIES = {
    "DE": ("Munich", "Berlin"),
    "FR": ("Paris", "Lyon"),
    "US": ("NYC", "Boston"),
    "JP": ("Tokyo",),
}
COLORS = ("red", "blue", "green")


@pytest.fixture
def populated():
    """Toy schema with every (country, city, color) combination inserted."""
    schema = build_toy_schema()
    records = []
    value = 1.0
    for country in COUNTRIES:
        for city in CITIES[country]:
            for color in COLORS:
                records.append(
                    toy_record(schema, country, city, color, value)
                )
                value += 1.0
    return schema, records


def hset(schema):
    return tuple(d.hierarchy for d in schema.dimensions)


class TestConstruction:
    def test_all_mds(self, populated):
        schema, _records = populated
        mds = MDS.all_mds(hset(schema))
        assert mds.levels == (2, 1)
        assert mds.volume() == 1
        assert mds.size() == 2

    def test_mismatched_sets_levels(self):
        with pytest.raises(MdsError):
            MDS([{1}, {2}], [0])

    def test_for_record_at_leaf_levels(self, populated):
        schema, records = populated
        record = records[0]
        mds = MDS.for_record(record, (0, 0), hset(schema))
        assert mds.value_set(0) == {record.paths[0][-1]}
        assert mds.value_set(1) == {record.paths[1][-1]}

    def test_for_record_at_top_levels_uses_all(self, populated):
        schema, records = populated
        mds = MDS.for_record(records[0], (2, 1), hset(schema))
        assert mds.value_set(0) == {schema.hierarchy(0).all_id}
        assert mds.value_set(1) == {schema.hierarchy(1).all_id}

    def test_empty(self):
        mds = MDS.empty((1, 0))
        assert mds.is_empty()
        assert mds.volume() == 0

    def test_copy_independent(self, populated):
        schema, records = populated
        mds = MDS.for_record(records[0], (0, 0), hset(schema))
        clone = mds.copy()
        clone.value_set(0).add(999)
        assert mds.cardinality(0) == 1


class TestPaperExample:
    """The (Germany, France | North America | 1996, 1997) example of §3.2."""

    @pytest.fixture
    def cube(self):
        from repro import CubeSchema, Dimension, Measure

        schema = CubeSchema(
            dimensions=[
                Dimension("Customer", ("Nation", "Region")),
                Dimension("Supplier", ("Region",)),
                Dimension("Time", ("Year",)),
            ],
            measures=[Measure("Dollars")],
        )
        r1 = schema.record(
            (("Europe", "Germany"), ("North America",), ("1996",)), (100.0,)
        )
        r2 = schema.record(
            (("Europe", "France"), ("North America",), ("1997",)), (200.0,)
        )
        return schema, r1, r2

    def test_cover_at_nation_level(self, cube):
        schema, r1, r2 = cube
        hierarchies = hset(schema)
        m1 = MDS.for_record(r1, (0, 0, 0), hierarchies)
        m2 = MDS.for_record(r2, (0, 0, 0), hierarchies)
        cover = MDS.cover_of([m1, m2], hierarchies)
        # ({Germany, France}, {North America}, {1996, 1997})
        assert cover.cardinality(0) == 2
        assert cover.cardinality(1) == 1
        assert cover.cardinality(2) == 2
        assert cover.size() == 5
        assert cover.volume() == 4

    def test_cover_at_region_level(self, cube):
        schema, r1, r2 = cube
        hierarchies = hset(schema)
        m1 = MDS.for_record(r1, (1, 0, 0), hierarchies)
        m2 = MDS.for_record(r2, (1, 0, 0), hierarchies)
        cover = MDS.cover_of([m1, m2], hierarchies)
        # ({Europe}, {North America}, {1996, 1997})
        assert cover.cardinality(0) == 1
        europe = next(iter(cover.value_set(0)))
        assert schema.hierarchy(0).label(europe) == "Europe"


class TestAdaptation:
    def test_adapt_up_maps_to_ancestors(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.for_record(records[0], (0, 0), hierarchies)
        lifted = mds.adapted_set(0, 1, hierarchies[0])
        assert lifted == {records[0].value_at_level(0, 1)}

    def test_adapt_same_level_returns_copy(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.for_record(records[0], (0, 0), hierarchies)
        same = mds.adapted_set(0, 0, hierarchies[0])
        same.add(123)
        assert mds.cardinality(0) == 1

    def test_adapt_down_raises(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.for_record(records[0], (1, 0), hierarchies)
        with pytest.raises(MdsError):
            mds.adapted_set(0, 0, hierarchies[0])

    def test_adaptation_merges_values(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.empty((0, 0))
        for record in records[:6]:  # all DE records
            mds.add_record(record, hierarchies)
        lifted = mds.adapted_set(0, 1, hierarchies[0])
        assert len(lifted) == 1  # Munich+Berlin -> DE


class TestDefinition4Operations:
    @pytest.fixture
    def pair(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        de = MDS.empty((0, 0))
        for record in records:
            if schema.hierarchy(0).label(record.value_at_level(0, 1)) == "DE":
                de.add_record(record, hierarchies)
        fr = MDS.empty((0, 0))
        for record in records:
            if schema.hierarchy(0).label(record.value_at_level(0, 1)) == "FR":
                fr.add_record(record, hierarchies)
        return schema, hierarchies, de, fr

    def test_size_is_sum_of_cardinalities(self, pair):
        _schema, _h, de, _fr = pair
        assert de.size() == 2 + 3  # 2 cities, 3 colors

    def test_volume_is_product(self, pair):
        _schema, _h, de, _fr = pair
        assert de.volume() == 2 * 3

    def test_overlap_disjoint_cities_shared_colors(self, pair):
        _schema, hierarchies, de, fr = pair
        # Cities disjoint => overlap product = 0.
        assert mds_mod.overlap(de, fr, hierarchies) == 0
        assert not mds_mod.overlaps(de, fr, hierarchies)

    def test_overlap_with_itself_is_volume(self, pair):
        _schema, hierarchies, de, _fr = pair
        assert mds_mod.overlap(de, de, hierarchies) == de.volume()

    def test_extension(self, pair):
        _schema, hierarchies, de, fr = pair
        # 4 cities union, 3 colors union.
        assert mds_mod.extension(de, fr, hierarchies) == 4 * 3

    def test_union_cardinality_per_dimension(self, pair):
        _schema, hierarchies, de, fr = pair
        assert mds_mod.union_cardinality(de, fr, 0, hierarchies) == 4
        assert mds_mod.union_cardinality(de, fr, 1, hierarchies) == 3

    def test_overlap_adapts_levels(self, pair):
        schema, hierarchies, de, fr = pair
        country_level = adapted(de, (1, 0), hierarchies)
        # At country level DE vs FR city-level MDS: adaptation lifts FR to
        # country level; countries differ => no overlap.
        assert mds_mod.overlap(country_level, fr, hierarchies) == 0

    def test_overlap_level_adaptation_can_overestimate(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        munich = MDS.empty((0, 0))
        munich.add_record(records[0], hierarchies)
        berlin = MDS.empty((0, 0))
        berlin.add_record(records[3], hierarchies)
        de_level = adapted(munich, (1, 0), hierarchies)
        # Munich-at-country-level vs Berlin overlaps (both DE) even though
        # the city sets are disjoint - the documented may-overlap effect.
        assert mds_mod.overlaps(de_level, berlin, hierarchies)


class TestContains:
    def test_contains_same_level(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        small = MDS.empty((0, 0))
        small.add_record(records[0], hierarchies)
        big = MDS.empty((0, 0))
        for record in records[:6]:
            big.add_record(record, hierarchies)
        assert mds_mod.contains(big, small, hierarchies)
        assert not mds_mod.contains(small, big, hierarchies)

    def test_contains_higher_container_level(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        de_country = MDS.empty((1, 0))
        for record in records[:6]:
            de_country.add_record(record, hierarchies)
        munich_red = MDS.empty((0, 0))
        munich_red.add_record(records[0], hierarchies)
        assert mds_mod.contains(de_country, munich_red, hierarchies)

    def test_contains_lower_container_level_needs_all_descendants(
        self, populated
    ):
        schema, records = populated
        hierarchies = hset(schema)
        # Container: city-level MDS with only Munich.
        munich_only = MDS.empty((0, 0))
        for record in records[:3]:
            munich_only.add_record(record, hierarchies)
        # Contained: country-level {DE} - NOT contained, Berlin missing.
        de = MDS.empty((1, 0))
        for record in records[:6]:
            de.add_record(record, hierarchies)
        assert not mds_mod.contains(munich_only, de, hierarchies)

    def test_contains_lower_container_level_with_all_descendants(
        self, populated
    ):
        schema, records = populated
        hierarchies = hset(schema)
        all_de_cities = MDS.empty((0, 0))
        for record in records[:6]:
            all_de_cities.add_record(record, hierarchies)
        de = MDS.empty((1, 0))
        for record in records[:6]:
            de.add_record(record, hierarchies)
        assert mds_mod.contains(all_de_cities, de, hierarchies)

    def test_all_mds_contains_everything(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        everything = MDS.all_mds(hierarchies)
        any_mds = MDS.for_record(records[5], (0, 0), hierarchies)
        assert mds_mod.contains(everything, any_mds, hierarchies)


class TestCoversRecord:
    def test_covers_after_add(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.empty((1, 0))
        mds.add_record(records[0], hierarchies)
        assert mds_mod.covers_record(mds, records[0], hierarchies)

    def test_covers_sibling_city_at_country_level(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.empty((1, 0))
        mds.add_record(records[0], hierarchies)  # Munich red -> DE, red
        assert mds_mod.covers_record(mds, records[3], hierarchies)  # Berlin red

    def test_does_not_cover_other_country(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.empty((1, 0))
        mds.add_record(records[0], hierarchies)
        # records[6] is FR (after 2 cities x 3 colors of DE).
        assert not mds_mod.covers_record(mds, records[6], hierarchies)

    def test_all_mds_covers_everything(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        everything = MDS.all_mds(hierarchies)
        for record in records:
            assert mds_mod.covers_record(everything, record, hierarchies)


class TestOperationCost:
    def test_positive_and_bounded(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        a = MDS.empty((0, 0))
        b = MDS.empty((0, 0))
        for record in records[:6]:
            a.add_record(record, hierarchies)
        for record in records:
            b.add_record(record, hierarchies)
        cost = mds_mod.operation_cost(a, b)
        assert cost >= a.n_dimensions
        assert cost <= a.n_dimensions + a.size()


class TestValueSemantics:
    def test_equality(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        a = MDS.for_record(records[0], (0, 0), hierarchies)
        b = MDS.for_record(records[0], (0, 0), hierarchies)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_by_level(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        a = MDS.for_record(records[0], (0, 0), hierarchies)
        b = MDS.for_record(records[0], (1, 0), hierarchies)
        assert a != b

    def test_not_equal_to_other_type(self, populated):
        schema, records = populated
        a = MDS.for_record(records[0], (0, 0), hset(schema))
        assert a != "mds"

    def test_entries_view_is_frozen(self, populated):
        schema, records = populated
        a = MDS.for_record(records[0], (0, 0), hset(schema))
        values, level = a.entries[0]
        assert isinstance(values, frozenset)
        assert level == 0


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------

record_indices = st.lists(
    st.integers(min_value=0, max_value=20), min_size=1, max_size=12
)
level_pairs = st.tuples(
    st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=1)
)


@given(indices=record_indices, levels=level_pairs)
def test_cover_covers_all_inputs(indices, levels):
    schema, records = _shared_populated()
    hierarchies = hset(schema)
    mdss = [
        MDS.for_record(records[i % len(records)], levels, hierarchies)
        for i in indices
    ]
    cover = MDS.cover_of(mdss, hierarchies)
    for mds in mdss:
        assert mds_mod.contains(cover, mds, hierarchies)


@given(indices=record_indices, levels=level_pairs)
def test_cover_is_minimal(indices, levels):
    """Dropping any value from the cover breaks coverage (Definition 3)."""
    schema, records = _shared_populated()
    hierarchies = hset(schema)
    chosen = [records[i % len(records)] for i in indices]
    cover = MDS.empty(levels)
    for record in chosen:
        cover.add_record(record, hierarchies)
    for dim in range(cover.n_dimensions):
        for value in list(cover.value_set(dim)):
            cover.value_set(dim).discard(value)
            assert not all(
                mds_mod.covers_record(cover, record, hierarchies)
                for record in chosen
            )
            cover.value_set(dim).add(value)


@given(indices_a=record_indices, indices_b=record_indices, levels=level_pairs)
def test_overlap_symmetry(indices_a, indices_b, levels):
    schema, records = _shared_populated()
    hierarchies = hset(schema)
    a = MDS.empty(levels)
    for i in indices_a:
        a.add_record(records[i % len(records)], hierarchies)
    b = MDS.empty(levels)
    for i in indices_b:
        b.add_record(records[i % len(records)], hierarchies)
    assert mds_mod.overlap(a, b, hierarchies) == mds_mod.overlap(
        b, a, hierarchies
    )
    assert mds_mod.extension(a, b, hierarchies) == mds_mod.extension(
        b, a, hierarchies
    )


@given(indices_a=record_indices, indices_b=record_indices, levels=level_pairs)
def test_overlap_bounded_by_volumes(indices_a, indices_b, levels):
    schema, records = _shared_populated()
    hierarchies = hset(schema)
    a = MDS.empty(levels)
    for i in indices_a:
        a.add_record(records[i % len(records)], hierarchies)
    b = MDS.empty(levels)
    for i in indices_b:
        b.add_record(records[i % len(records)], hierarchies)
    shared = mds_mod.overlap(a, b, hierarchies)
    assert shared <= min(a.volume(), b.volume())
    assert mds_mod.extension(a, b, hierarchies) >= max(
        a.volume(), b.volume()
    )


@given(indices_a=record_indices, indices_b=record_indices)
def test_contains_implies_covers_same_records(indices_a, indices_b):
    """If A contains B then every record covered by B is covered by A."""
    schema, records = _shared_populated()
    hierarchies = hset(schema)
    a = MDS.empty((1, 0))
    for i in indices_a:
        a.add_record(records[i % len(records)], hierarchies)
    b = MDS.empty((0, 0))
    for i in indices_b:
        b.add_record(records[i % len(records)], hierarchies)
    if mds_mod.contains(a, b, hierarchies):
        for record in records:
            if mds_mod.covers_record(b, record, hierarchies):
                assert mds_mod.covers_record(a, record, hierarchies)


_POPULATED_CACHE = None


def _shared_populated():
    """Build the fully populated toy cube once (hypothesis calls are many)."""
    global _POPULATED_CACHE
    if _POPULATED_CACHE is None:
        schema = build_toy_schema()
        records = []
        value = 1.0
        for country in COUNTRIES:
            for city in CITIES[country]:
                for color in COLORS:
                    records.append(
                        toy_record(schema, country, city, color, value)
                    )
                    value += 1.0
        _POPULATED_CACHE = (schema, records)
    return _POPULATED_CACHE


class TestRefineDimension:
    def test_refine_lowers_level_and_replaces_set(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        mds = MDS.for_record(records[0], (2, 1), hierarchies)
        country = records[0].value_at_level(0, 1)
        mds.refine_dimension(0, {country}, 1)
        assert mds.level(0) == 1
        assert mds.value_set(0) == {country}

    def test_refine_same_level_allowed(self, populated):
        schema, records = populated
        mds = MDS.for_record(records[0], (1, 0), hset(schema))
        mds.refine_dimension(0, {42}, 1)
        assert mds.value_set(0) == {42}

    def test_refine_upwards_rejected(self, populated):
        schema, records = populated
        mds = MDS.for_record(records[0], (0, 0), hset(schema))
        with pytest.raises(MdsError):
            mds.refine_dimension(0, {1}, 1)


class TestAddMds:
    def test_add_mds_merges_adapted_values(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        country_level = MDS.empty((1, 0))
        country_level.add_record(records[0], hierarchies)
        city_level = MDS.for_record(records[6], (0, 0), hierarchies)
        country_level.add_mds(city_level, hierarchies)
        assert country_level.cardinality(0) == 2  # DE + FR

    def test_add_mds_rejects_coarser_source(self, populated):
        schema, records = populated
        hierarchies = hset(schema)
        fine = MDS.for_record(records[0], (0, 0), hierarchies)
        coarse = MDS.for_record(records[0], (1, 0), hierarchies)
        with pytest.raises(MdsError):
            fine.add_mds(coarse, hierarchies)


WIDE_MASK = (1 << 28) - 1 | ((1 << 28) - 1) << 40 | 1 << 200


class TestPopcount:
    """``popcount`` (and its pre-3.10 fallback) against ``bin().count``."""

    @pytest.mark.parametrize(
        "function", [mds_mod.popcount, mds_mod._bin_popcount]
    )
    @pytest.mark.parametrize("bits", [0, 1, 2, (1 << 28) - 1, 1 << 28,
                                      WIDE_MASK])
    def test_edge_cases(self, function, bits):
        assert function(bits) == bin(bits).count("1")

    @given(st.integers(min_value=0, max_value=(1 << 512) - 1))
    def test_random(self, bits):
        assert mds_mod.popcount(bits) == bin(bits).count("1")
        assert mds_mod._bin_popcount(bits) == bin(bits).count("1")
