"""Minimum Describing Sequences and their algebra (Definitions 3 and 4).

An MDS describes a subcube by one entry per dimension: a set of attribute
values that all belong to the same *relevant level* of that dimension's
concept hierarchy.  Unlike an MBR, an MDS enumerates exactly the values
that actually occur (coverage + minimality), so it covers less dead space
at the price of a variable size.

Operations on two MDSs require their per-dimension levels to be comparable;
:meth:`MDS.adapted_set` lifts a value set to a higher level ("the union of
American customers and North America makes no sense", §3.2).  Upward
adaptation loses precision, which is why the range-query algorithm treats
adapted overlap as a *may-overlap* signal and recurses — exactness is
restored either at the data nodes or through the descendant-based
containment test in :func:`contains`.
"""

from __future__ import annotations

import hashlib

from ..errors import MdsError

#: Outcomes of :func:`classify` (ordered: more overlap = larger value).
DISJOINT = 0
PARTIAL = 1
CONTAINED = 2


class MDS:
    """A minimum describing sequence: per dimension a (value-set, level).

    The class is deliberately mutable — DC-tree nodes update their MDS in
    place on every insertion — but exposes value-style equality and a
    :meth:`copy` for callers that need snapshots.
    """

    __slots__ = ("_sets", "_levels", "_version", "_adapt_cache")

    def __init__(self, sets, levels):
        sets = [set(s) for s in sets]
        levels = list(levels)
        if len(sets) != len(levels):
            raise MdsError(
                "MDS needs one level per dimension: %d sets vs %d levels"
                % (len(sets), len(levels))
            )
        self._sets = sets
        self._levels = levels
        self._version = 0
        self._adapt_cache = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def all_mds(cls, hierarchies):
        """The MDS ``(ALL, ..., ALL)`` a new DC-tree starts from (§3.2)."""
        return cls(
            [{h.all_id} for h in hierarchies],
            [h.top_level for h in hierarchies],
        )

    @classmethod
    def empty(cls, levels):
        """An MDS with the given relevant levels and no values yet."""
        return cls([set() for _ in levels], levels)

    @classmethod
    def for_record(cls, record, levels, hierarchies):
        """MDS describing a single record at the given relevant levels."""
        sets = []
        for dim, level in enumerate(levels):
            hierarchy = hierarchies[dim]
            if level >= hierarchy.top_level:
                sets.append({hierarchy.all_id})
            else:
                sets.append({record.value_at_level(dim, level)})
        return cls(sets, levels)

    @classmethod
    def cover_of(cls, mdss, hierarchies):
        """Minimal MDS covering all of ``mdss``.

        The relevant level per dimension is the highest level occurring in
        the inputs (lower-level sets are adapted upwards), which is the
        only choice that keeps every input comparable to the result.
        """
        mdss = list(mdss)
        if not mdss:
            raise MdsError("cannot cover an empty collection of MDSs")
        n_dims = mdss[0].n_dimensions
        levels = [
            max(m.level(dim) for m in mdss) for dim in range(n_dims)
        ]
        cover = cls.empty(levels)
        for mds in mdss:
            for dim in range(n_dims):
                cover._sets[dim].update(
                    mds.adapted_set(dim, levels[dim], hierarchies[dim])
                )
        return cover

    def copy(self):
        return MDS(self._sets, self._levels)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def n_dimensions(self):
        return len(self._sets)

    @property
    def entries(self):
        """Immutable view: one ``(frozenset, level)`` pair per dimension."""
        return tuple(
            (frozenset(s), lvl) for s, lvl in zip(self._sets, self._levels)
        )

    def value_set(self, dim):
        """The value set of dimension ``dim`` (the live set — do not mutate)."""
        return self._sets[dim]

    def level(self, dim):
        """Relevant level of dimension ``dim``."""
        return self._levels[dim]

    @property
    def levels(self):
        return tuple(self._levels)

    def cardinality(self, dim):
        """Number of values stored for dimension ``dim``."""
        return len(self._sets[dim])

    def size(self):
        """``size(M) = sum_i |M_i|`` (Definition 4)."""
        return sum(len(s) for s in self._sets)

    def volume(self):
        """``volume(M) = prod_i |M_i|`` (Definition 4)."""
        product = 1
        for s in self._sets:
            product *= len(s)
        return product

    def is_empty(self):
        """True when any dimension has no values (describes nothing)."""
        return any(not s for s in self._sets)

    @property
    def version(self):
        """Monotone mutation counter; adaptation memos are keyed on it."""
        return self._version

    def cache_key(self):
        """Canonical hashable digest of this MDS (result-cache key part).

        One ``(frozenset, level)`` pair per dimension — exactly the
        information Definition 3 says an MDS carries.  Two semantically
        equal MDSs (same value sets at the same levels, however they were
        built) produce equal keys, and two different MDSs cannot collide:
        the key *is* the described subcube, not a lossy hash of it.
        """
        return self.entries

    def digest(self):
        """Stable hex digest of :meth:`cache_key` (logging/test aid).

        Values are sorted per dimension before hashing, so the digest is
        independent of set iteration order and of how the MDS was grown.
        """
        h = hashlib.sha256()
        for s, level in zip(self._sets, self._levels):
            h.update(repr((level, sorted(s))).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # mutation (DC-tree maintenance)
    # ------------------------------------------------------------------

    def _touch(self):
        """Bump the version and drop memoized adaptations (now stale)."""
        self._version += 1
        if self._adapt_cache:
            self._adapt_cache.clear()

    def add_record(self, record, hierarchies):
        """Extend the MDS to cover ``record`` at the current levels."""
        self._touch()
        for dim, level in enumerate(self._levels):
            hierarchy = hierarchies[dim]
            if level >= hierarchy.top_level:
                self._sets[dim].add(hierarchy.all_id)
            else:
                self._sets[dim].add(record.value_at_level(dim, level))

    def add_mds(self, other, hierarchies):
        """Extend the MDS to cover ``other`` (levels must be <= ours)."""
        self._touch()
        for dim, level in enumerate(self._levels):
            self._sets[dim].update(
                other.adapted_set(dim, level, hierarchies[dim])
            )

    def update_values(self, dim, values):
        """Add ``values`` to dimension ``dim`` (they must live at its level).

        The version-bumping way to grow one dimension's set; callers that
        previously mutated ``value_set(dim)`` in place must use this so the
        adaptation memo notices the change.
        """
        self._touch()
        self._sets[dim].update(values)

    def clear_dimension(self, dim):
        """Empty dimension ``dim``'s value set (level is kept)."""
        self._touch()
        self._sets[dim].clear()

    def refine_dimension(self, dim, values, level):
        """Replace one dimension by a more specific description.

        Used when a hierarchy split descends a concept level past this
        MDS's granularity: the caller collected the exact value set at
        the deeper ``level`` and installs it here, keeping the invariant
        that a node's levels dominate its children's.
        """
        if level > self._levels[dim]:
            raise MdsError(
                "refinement must not raise the level (dim %d: %d -> %d)"
                % (dim, self._levels[dim], level)
            )
        self._touch()
        self._sets[dim] = set(values)
        self._levels[dim] = level

    # ------------------------------------------------------------------
    # level adaptation
    # ------------------------------------------------------------------

    def adapted_set(self, dim, target_level, hierarchy):
        """This dimension's value set lifted to ``target_level``.

        Only upward adaptation is defined: lifting replaces each value by
        its ancestor at the target level.  Requesting a level *below* the
        stored one raises :class:`MdsError` — descending is not an MDS
        operation (it would require enumerating descendants and is handled
        separately by :func:`contains` where exactness demands it).

        Results are memoized per ``(version, dim, target_level)``; a cached
        result is a frozenset shared between callers, so it must not be
        mutated.  Every mutator bumps the version and drops the memo,
        keeping the cache semantically invisible.
        """
        own_level = self._levels[dim]
        if target_level == own_level:
            return set(self._sets[dim])
        if target_level < own_level:
            raise MdsError(
                "cannot adapt dimension %d downwards (level %d -> %d)"
                % (dim, own_level, target_level)
            )
        key = (self._version, dim, target_level)
        cached = self._adapt_cache.get(key)
        if cached is None:
            cached = frozenset(
                hierarchy.ancestor(value, target_level)
                for value in self._sets[dim]
            )
            self._adapt_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MDS):
            return NotImplemented
        return self._levels == other._levels and self._sets == other._sets

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        dims = []
        for s, lvl in zip(self._sets, self._levels):
            dims.append("L%d:{%s}" % (lvl, ",".join(str(v) for v in sorted(s))))
        return "MDS(%s)" % "; ".join(dims)


# ----------------------------------------------------------------------
# binary operations (Definition 4), with automatic upward adaptation
# ----------------------------------------------------------------------


def _comparable_sets(m, n, dim, hierarchies):
    """Value sets of dimension ``dim`` of both MDSs, lifted to a common level."""
    level_m = m.level(dim)
    level_n = n.level(dim)
    if level_m == level_n:
        return m.value_set(dim), n.value_set(dim)
    if level_m < level_n:
        return m.adapted_set(dim, level_n, hierarchies[dim]), n.value_set(dim)
    return m.value_set(dim), n.adapted_set(dim, level_m, hierarchies[dim])


def overlap(m, n, hierarchies):
    """``overlap(M, N) = prod_i |M_i ∩ N_i|`` after level adaptation."""
    product = 1
    for dim in range(m.n_dimensions):
        set_m, set_n = _comparable_sets(m, n, dim, hierarchies)
        common = len(set_m & set_n)
        if common == 0:
            return 0
        product *= common
    return product


def overlaps(m, n, hierarchies):
    """True when the (level-adapted) overlap is non-empty.

    Cheaper than :func:`overlap` thanks to per-dimension early exit; a
    True result is a *may overlap* because upward adaptation loses
    precision (the caller recurses to resolve it).
    """
    for dim in range(m.n_dimensions):
        set_m, set_n = _comparable_sets(m, n, dim, hierarchies)
        if set_m.isdisjoint(set_n):
            return False
    return True


def extension(m, n, hierarchies):
    """``extension(M, N) = prod_i |M_i ∪ N_i|`` after level adaptation."""
    product = 1
    for dim in range(m.n_dimensions):
        set_m, set_n = _comparable_sets(m, n, dim, hierarchies)
        product *= len(set_m | set_n)
    return product


def union_cardinality(m, n, dim, hierarchies):
    """``|M_i ∪ N_i|`` for a single dimension after level adaptation."""
    set_m, set_n = _comparable_sets(m, n, dim, hierarchies)
    return len(set_m | set_n)


def contains(container, contained, hierarchies):
    """Exact containment test: is every cell of ``contained`` inside?

    Definition 4's *contains* assumes the container's levels dominate.  The
    range-query algorithm, however, also meets the inverse situation (a
    query phrased at a lower level than a directory entry); in that case
    the entry is contained only if *all* descendants of its values at the
    query's level lie in the query's set.  Handling both directions here
    keeps stored-aggregate usage provably exact.
    """
    for dim in range(container.n_dimensions):
        level_out = container.level(dim)
        level_in = contained.level(dim)
        hierarchy = hierarchies[dim]
        outer = container.value_set(dim)
        if level_out >= level_in:
            for value in contained.value_set(dim):
                if hierarchy.ancestor(value, level_out) not in outer:
                    return False
        else:
            for value in contained.value_set(dim):
                if not hierarchy.descendants_at_level(value, level_out) <= outer:
                    return False
    return True


def classify(range_mds, entry_mds, hierarchies, check_containment=True):
    """Fused overlap/containment test: one adaptation pass per dimension.

    Returns :data:`DISJOINT`, :data:`PARTIAL` or :data:`CONTAINED`
    (``entry_mds`` inside ``range_mds``), with the same semantics as
    :func:`overlaps` followed by ``contains(range, entry)`` — the
    Definition 4 reference pair — but each dimension is adapted exactly
    once, with early exit as soon as one dimension is disjoint.  Passing
    ``check_containment=False`` skips the containment half entirely (the
    caller only wants the overlap signal) and never returns CONTAINED.
    """
    contained = check_containment
    for dim in range(range_mds.n_dimensions):
        level_r = range_mds.level(dim)
        level_e = entry_mds.level(dim)
        hierarchy = hierarchies[dim]
        range_set = range_mds.value_set(dim)
        entry_set = entry_mds.value_set(dim)
        if level_r == level_e:
            if range_set.isdisjoint(entry_set):
                return DISJOINT
            if contained and not entry_set <= range_set:
                contained = False
        elif level_r > level_e:
            lifted = entry_mds.adapted_set(dim, level_r, hierarchy)
            if range_set.isdisjoint(lifted):
                return DISJOINT
            if contained and not lifted <= range_set:
                contained = False
        else:
            lifted_range = range_mds.adapted_set(dim, level_e, hierarchy)
            if lifted_range.isdisjoint(entry_set):
                return DISJOINT
            if contained:
                for value in entry_set:
                    if not hierarchy.descendants_at_level(
                        value, level_r
                    ) <= range_set:
                        contained = False
                        break
    return CONTAINED if contained else PARTIAL


def covers_record(mds, record, hierarchies):
    """Coverage test of Definition 3: does ``mds`` describe ``record``?"""
    for dim in range(mds.n_dimensions):
        level = mds.level(dim)
        hierarchy = hierarchies[dim]
        if level >= hierarchy.top_level:
            value = hierarchy.all_id
        else:
            value = record.value_at_level(dim, level)
        if value not in mds.value_set(dim):
            return False
    return True


def _bin_popcount(bits):
    """Number of set bits of a non-negative int (Python < 3.10)."""
    return bin(bits).count("1")


#: Number of set bits of a non-negative int: ``int.bit_count`` where the
#: interpreter has it (3.10+), :func:`_bin_popcount` otherwise.
popcount = getattr(int, "bit_count", _bin_popcount)


def operation_cost(m, n):
    """CPU work units of one binary MDS operation (for the cost model).

    Models hash-set intersection: per dimension, iterate the smaller side
    and probe the larger one — one unit per probed value, plus a unit per
    dimension of bookkeeping.  Large query MDSs still make overlap
    computations expensive (the paper's observation about 25 % selectivity
    queries paying "very expensive computations"), but only where both
    operands are actually large.
    """
    units = m.n_dimensions
    for dim in range(m.n_dimensions):
        units += min(m.cardinality(dim), n.cardinality(dim))
    return units
