"""Level-tagged 32-bit attribute-value IDs.

Section 3.1 of the paper: "An ID is represented by a 32-bit integer. The
highest four bits define the height of an ID in the concept hierarchy of its
dimension to distinguish IDs from different levels."

This module implements exactly that encoding.  The remaining 28 bits hold a
counter that is allocated per ``(dimension, level)`` in insertion order,
which is what the paper's conversion of a range MDS into a range MBR for the
X-tree relies on (the counter order *is* the artificial total order).
"""

from __future__ import annotations

from ..errors import HierarchyError, IdSpaceExhaustedError

#: Number of bits reserved for the hierarchy level.
LEVEL_BITS = 4
#: Number of bits left for the per-level counter.
COUNTER_BITS = 32 - LEVEL_BITS
#: Highest encodable hierarchy level (the root/ALL level must fit here).
MAX_LEVEL = (1 << LEVEL_BITS) - 1
#: Highest encodable counter value.
MAX_COUNTER = (1 << COUNTER_BITS) - 1

#: Counter conventionally used for the unique ALL value of a dimension.
ALL_COUNTER = 0


def make_id(level, counter):
    """Pack ``level`` and ``counter`` into a 32-bit attribute ID.

    >>> make_id(2, 5)
    536870917
    >>> hex(make_id(2, 5))
    '0x20000005'
    """
    if not 0 <= level <= MAX_LEVEL:
        raise HierarchyError(
            "hierarchy level %r out of range [0, %d]" % (level, MAX_LEVEL)
        )
    if not 0 <= counter <= MAX_COUNTER:
        raise IdSpaceExhaustedError(
            "counter %r out of range [0, %d] at level %d"
            % (counter, MAX_COUNTER, level)
        )
    return (level << COUNTER_BITS) | counter


def level_of(attr_id):
    """Return the hierarchy level encoded in ``attr_id``.

    The level is the distance from the leaves of the concept hierarchy
    (leaves have level 0, Definition 1 of the paper).
    """
    return attr_id >> COUNTER_BITS


def counter_of(attr_id):
    """Return the per-level counter encoded in ``attr_id``."""
    return attr_id & MAX_COUNTER


def split_id(attr_id):
    """Return ``(level, counter)`` for ``attr_id``."""
    return attr_id >> COUNTER_BITS, attr_id & MAX_COUNTER


class IdAllocator:
    """Allocates sequential counters for one dimension, one level at a time.

    The allocator never reuses counters; deleting a value from a hierarchy
    leaves a hole in the counter space, which is harmless (the counters only
    need to be unique, plus monotone within a level for the X-tree's total
    ordering).
    """

    def __init__(self):
        self._next = {}

    def allocate(self, level):
        """Return a fresh ID at ``level``; raise when the level is full."""
        counter = self._next.get(level, 0)
        if counter > MAX_COUNTER:
            raise IdSpaceExhaustedError(
                "no IDs left at hierarchy level %d" % level
            )
        self._next[level] = counter + 1
        return make_id(level, counter)

    def allocated_count(self, level):
        """Number of IDs handed out so far at ``level``."""
        return self._next.get(level, 0)
