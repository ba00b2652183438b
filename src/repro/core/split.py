"""The hierarchy split (Figures 5 and 6 of the paper).

Splitting a DC-tree node proceeds in two stages:

1. :func:`plan_node_split` (Fig. 5) iterates over the dimensions in order
   of decreasing relevant level.  For each candidate dimension it adapts
   the entry MDSs to the node's MDS — trying the node's own level first
   and then one concept-hierarchy level deeper ("the relevant level ...
   may be decreased by one"; mandatory when the node's value set in that
   dimension is a singleton) — runs the hierarchy split, and accepts the
   first partitioning that is balanced and has acceptably low overlap in
   the split dimension.  If no dimension yields one, the node becomes
   (or grows as) a supernode — the caller's job.

2. :func:`hierarchy_split` (Fig. 6) is a quadratic-split variant that
   exploits the partial ordering: seeds are the pair with the largest
   covering MDS; each round picks the remaining MDS whose two candidate
   groups differ most in *split-dimension enlargement* and inserts it
   into the group sharing the most split-dimension values with it
   (§4.3), tie-broken by least resulting inter-group overlap, extension
   sum, volume sum, then the smaller group.

A cheaper single-pass :func:`linear_split` implements the paper's
future-work suggestion of a sub-quadratic split and is exposed through
``DCTreeConfig.split_algorithm = "linear"`` for the `abl-split` ablation.

Both splits run on int bitsets rather than on the value sets: each entry
gets one mask per dimension, bit ``k`` standing for the ``k``-th distinct
value of that dimension among the entries, and the cover, enlargement
and shared-value sizes Fig. 6 compares become popcounts of OR and AND.  That is only sound when every entry sits at the same levels —
which :func:`plan_node_split` guarantees by adapting all entries to one
level configuration — so both functions reject mixed levels with
:class:`~repro.errors.MdsError`.  The decisions and the CPU units charged
are those of the set algebra of Definition 4; the seed choice charges its
per-pair :func:`~repro.core.mds.operation_cost` sum in closed form.
"""

from __future__ import annotations

from ..errors import MdsError
from . import mds as mds_mod
from .mds import MDS, popcount


class SplitPlan:
    """Outcome of a successful split attempt.

    ``groups`` holds two lists of entry indices; ``levels`` the relevant
    levels the resulting nodes must use (the node's levels, with the split
    dimension possibly decreased by one); ``split_dimension`` the dimension
    the split was performed along; ``cpu_units`` the work spent planning.
    """

    __slots__ = ("groups", "levels", "split_dimension", "cpu_units")

    def __init__(self, groups, levels, split_dimension, cpu_units):
        self.groups = groups
        self.levels = levels
        self.split_dimension = split_dimension
        self.cpu_units = cpu_units


def plan_node_split(node_mds, n_entries, adapt_entries, config, hierarchies):
    """Try to split a node's entries; return a :class:`SplitPlan` or None.

    ``adapt_entries(levels)`` must return the node's entry MDSs adapted to
    exactly ``levels`` — the tree supplies it because down-adaptation (an
    entry whose relevant level sits *above* the split target) requires
    reading the entry's subtree, which only the tree can do and charge for.

    ``None`` means no dimension admitted a balanced, low-overlap split and
    the node must become a supernode (Fig. 5, last line).
    """
    min_group = max(2, int(config.min_fanout_fraction * n_entries))
    cpu_units = 0
    for dim in _dimension_order(node_mds):
        for target_levels in _adaptation_attempts(node_mds, dim):
            adapted = adapt_entries(target_levels)
            cpu_units += sum(m.size() for m in adapted)
            if config.split_algorithm == "linear":
                groups, work = linear_split(
                    adapted, dim, hierarchies, min_group
                )
            else:
                groups, work = hierarchy_split(
                    adapted, dim, hierarchies, min_group
                )
            cpu_units += work
            if min(len(groups[0]), len(groups[1])) < min_group:
                continue
            if not _overlap_acceptable(groups, adapted, dim, config,
                                       hierarchies):
                continue
            return SplitPlan(groups, target_levels, dim, cpu_units)
    return None


def _dimension_order(node_mds):
    """Dimensions ordered by decreasing relevant level (Fig. 5).

    Ties are broken towards the dimension with the larger value set, which
    offers more distinct values to separate, then by index for
    determinism.
    """
    dims = range(node_mds.n_dimensions)
    return sorted(
        dims,
        key=lambda d: (-node_mds.level(d), -node_mds.cardinality(d), d),
    )


def _adaptation_attempts(node_mds, split_dim):
    """Level configurations to try for a split along ``split_dim``.

    All dimensions use the node's relevant level (the node MDS "is the
    best choice for the adaption", §4.2).  In the split dimension "the
    relevant level ... may be decreased by one": a singleton value set
    cannot be partitioned at its own level but its children in the
    concept hierarchy can (the Europe → {Germany, France, ...} example of
    §3.2), and even a multi-value set whose values co-occur in every
    entry may only separate one level further down — so both levels are
    attempted, the coarser one first.
    """
    attempts = []
    levels = list(node_mds.levels)
    if node_mds.cardinality(split_dim) > 1:
        attempts.append(list(levels))
    if levels[split_dim] > 0:
        refined = list(levels)
        refined[split_dim] -= 1
        attempts.append(refined)
    return attempts


def _overlap_acceptable(groups, adapted, split_dim, config, hierarchies):
    """Fig. 5's "overlap is not too high" test on the two groups.

    The hierarchy split works "to obtain two groups with disjunct
    attribute values in the split dimension" (§4.3); the acceptance test
    accordingly judges the split dimension's separation — the shared
    fraction of the smaller group's value set there.  (The full
    product-form overlap of Definition 4 is useless as a criterion in a
    warehouse: sibling subtrees legitimately share most values of the
    non-split dimensions, which drives the product ratio to ~1 for every
    conceivable split.)
    """
    mds_a = compute_group_mds((adapted[i] for i in groups[0]),
                              adapted[groups[0][0]].levels, hierarchies)
    mds_b = compute_group_mds((adapted[i] for i in groups[1]),
                              adapted[groups[1][0]].levels, hierarchies)
    set_a = mds_a.value_set(split_dim)
    set_b = mds_b.value_set(split_dim)
    shared = len(set_a & set_b)
    if shared == 0:
        return True
    smaller = min(len(set_a), len(set_b))
    return shared <= config.max_overlap_fraction * smaller


def compute_group_mds(mdss, levels, hierarchies):
    """Cover of ``mdss`` at exactly ``levels`` (levels must dominate)."""
    group = MDS.empty(levels)
    for m in mdss:
        group.add_mds(m, hierarchies)
    return group


# ----------------------------------------------------------------------
# quadratic hierarchy split (Fig. 6)
# ----------------------------------------------------------------------


def _check_split_input(mdss):
    """Reject what the bitset kernel cannot split: fewer than two entries,
    or entries whose relevant levels differ (a value's bit only means the
    same thing in two masks when both sit at the same level)."""
    if len(mdss) < 2:
        raise MdsError("a split needs at least two entries, got %d"
                       % len(mdss))
    levels = mdss[0].levels
    for m in mdss:
        if m.levels != levels:
            raise MdsError("split entries must share their levels: %r vs %r"
                           % (levels, m.levels))


def _value_masks(mdss, dim):
    """One int bitset per entry over dimension ``dim``'s value sets.

    Bit ``k`` stands for the ``k``-th distinct value met, so a mask is as
    wide as the split's distinct values in ``dim`` (not as the 28-bit ID
    counter space).
    """
    index = {}
    masks = []
    for m in mdss:
        bits = 0
        for value in m.value_set(dim):
            bit = index.get(value)
            if bit is None:
                bit = index[value] = len(index)
            bits |= 1 << bit
        masks.append(bits)
    return masks


def choose_seeds(mdss, hierarchies):
    """Pick the two seed entries: the pair with the largest covering MDS.

    Returns ``(i, j, cpu_units)``.  ``mdss`` must share their levels
    (:class:`MdsError` otherwise, or for fewer than two entries), so the
    size of a pair's cover is ``popcount(mask_i | mask_j)`` over one mask
    per entry that concatenates its per-dimension value masks.  Pairs
    are scanned in ``(i, j)`` order and only a strictly larger cover
    replaces the best, so ties keep the first pair.  ``hierarchies`` is
    not consulted: entries at common levels need no adaptation.

    ``cpu_units`` is what one :func:`~repro.core.mds.operation_cost` per
    pair would charge, summed in closed form (docs/cost_model.md): with
    one dimension's cardinalities in ascending order ``c_0 <= c_1 <= ...``,
    ``c_k`` is the smaller side of exactly ``n - k - 1`` pairs.
    """
    _check_split_input(mdss)
    n = len(mdss)
    n_dims = mdss[0].n_dimensions
    cpu_units = n * (n - 1) // 2 * n_dims
    covers = [0] * n
    offset = 0
    for dim in range(n_dims):
        masks = _value_masks(mdss, dim)
        for i, bits in enumerate(masks):
            covers[i] |= bits << offset
        offset += max(masks).bit_length()
        cardinalities = sorted(m.cardinality(dim) for m in mdss)
        cpu_units += sum(c * (n - k - 1) for k, c in enumerate(cardinalities))
    best = None
    best_size = -1
    for i in range(n - 1):
        cover = covers[i]
        sizes = [popcount(cover | other) for other in covers[i + 1:]]
        size = max(sizes)
        if size > best_size:
            best_size = size
            best = (i, i + 1 + sizes.index(size))
    return best[0], best[1], cpu_units


class _Group:
    """One side of a split in progress: its entry indices, its
    split-dimension value mask and its cover MDS, grown together."""

    __slots__ = ("members", "bits", "mds")

    def __init__(self, seed, bits, mds):
        self.members = [seed]
        self.bits = bits
        self.mds = mds.copy()

    def add(self, idx, bits, mds, hierarchies):
        self.members.append(idx)
        self.bits |= bits
        self.mds.add_mds(mds, hierarchies)


def hierarchy_split(mdss, split_dim, hierarchies, min_group=2):
    """Fig. 6: quadratic split of ``mdss`` along ``split_dim``.

    ``mdss`` must share their levels (:class:`MdsError` otherwise, or for
    fewer than two entries).  Returns ``((group_a, group_b), cpu_units)``
    where the groups are lists of indices into ``mdss``.  Like Guttman's
    quadratic split (which Fig. 6 is explicitly based on), remaining
    entries are assigned wholesale to a group that needs all of them to
    reach ``min_group``.

    Each round picks the first remaining entry whose split-dimension
    enlargement ``popcount((mask | group) ^ group)`` differs most between
    the two groups, charging ``2·|candidate|`` units per remaining entry,
    then assigns it by :func:`_prefer_group_a`.
    """
    seed_a, seed_b, cpu_units = choose_seeds(mdss, hierarchies)
    masks = _value_masks(mdss, split_dim)
    a = _Group(seed_a, masks[seed_a], mdss[seed_a])
    b = _Group(seed_b, masks[seed_b], mdss[seed_b])
    remaining = [i for i in range(len(mdss)) if i not in (seed_a, seed_b)]
    # Sum of |candidate| over ``remaining``: each round charges it twice.
    pending = sum(popcount(masks[i]) for i in remaining)

    while remaining:
        if len(a.members) + len(remaining) <= min_group:
            a.members.extend(remaining)
            break
        if len(b.members) + len(remaining) <= min_group:
            b.members.extend(remaining)
            break
        # A group's enlargement by m is |m| - |m & group|, so the two
        # enlargements differ by exactly the two shared counts' difference.
        bits_a, bits_b = a.bits, b.bits
        diffs = [
            abs(popcount(masks[i] & bits_a) - popcount(masks[i] & bits_b))
            for i in remaining
        ]
        cpu_units += 2 * pending
        idx = remaining.pop(diffs.index(max(diffs)))
        pending -= popcount(masks[idx])
        cpu_units += _assign(a, b, idx, masks[idx], mdss[idx], hierarchies)
    return (a.members, b.members), cpu_units


def linear_split(mdss, split_dim, hierarchies, min_group=2):
    """Single-pass split (future-work ablation): linear seed choice, then
    the remaining entries are assigned in input order with Fig. 6's group
    criterion.  Returns the same shape as :func:`hierarchy_split` and has
    the same precondition."""
    _check_split_input(mdss)
    masks = _value_masks(mdss, split_dim)
    seed_a = 0
    seed_b = None
    worst_similarity = None
    cpu_units = 0
    base = masks[seed_a]
    for idx in range(1, len(mdss)):
        other = masks[idx]
        union = popcount(base | other)
        similarity = popcount(base & other) / union if union else 1.0
        cpu_units += popcount(base) + popcount(other)
        if worst_similarity is None or similarity < worst_similarity:
            worst_similarity = similarity
            seed_b = idx
    a = _Group(seed_a, masks[seed_a], mdss[seed_a])
    b = _Group(seed_b, masks[seed_b], mdss[seed_b])
    remaining = [i for i in range(len(mdss)) if i not in (seed_a, seed_b)]
    for position, idx in enumerate(remaining):
        left = len(remaining) - position
        if len(a.members) + left <= min_group:
            a.members.extend(remaining[position:])
            break
        if len(b.members) + left <= min_group:
            b.members.extend(remaining[position:])
            break
        cpu_units += _assign(a, b, idx, masks[idx], mdss[idx], hierarchies)
    return (a.members, b.members), cpu_units


def _assign(a, b, idx, bits, candidate, hierarchies):
    """Add entry ``idx`` to the group Fig. 6's criterion prefers; return
    the units charged (one binary operation on the two group MDSs)."""
    target = a if _prefer_group_a(a, b, bits, candidate, hierarchies) else b
    cpu_units = mds_mod.operation_cost(a.mds, b.mds)
    target.add(idx, bits, candidate, hierarchies)
    return cpu_units


def _prefer_group_a(a, b, bits, candidate, hierarchies):
    """Fig. 6's insertion criterion.

    §4.3: the algorithm "selects a group such that the new MDS and the MDS
    of the group share as many attribute values as possible in the split
    dimension" — that is the primary criterion, ``popcount(bits & group)``,
    and what drives the groups towards disjoint split-dimension value
    sets.  Remaining ties fall to the least resulting inter-group overlap,
    then extension sum, volume sum, and finally the smaller group
    (balance).
    """
    shared_a = popcount(bits & a.bits)
    shared_b = popcount(bits & b.bits)
    if shared_a != shared_b:
        return shared_a > shared_b

    mds_a, mds_b = a.mds, b.mds
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

    return len(a.members) <= len(b.members)
