"""Data records of a data cube (Definition 2).

A record carries, for every dimension, the complete root-to-leaf ID path
through the concept hierarchy (one level-tagged ID per functional attribute)
plus the measure values.  Keeping the full path on the record makes both
index families cheap to feed:

* the DC-tree reads ``value_at_level`` to maintain MDSs at arbitrary
  relevant levels without hierarchy lookups on the hot path, and
* the X-tree uses the flattened path (13 attributes for the paper's TPC-D
  cube, Fig. 10) directly as a point in its totally ordered space.
"""

from __future__ import annotations

from . import ids as ids_mod


class DataRecord:
    """One immutable cube cell: ID paths per dimension plus measures.

    ``paths[i]`` is ordered from the *highest* functional attribute of
    dimension ``i`` down to the leaf, i.e. ``paths[i][0]`` has the highest
    level and ``paths[i][-1]`` has level 0.
    """

    __slots__ = ("paths", "measures")

    def __init__(self, paths, measures):
        self.paths = paths
        self.measures = measures

    def value_at_level(self, dim_index, level):
        """The record's ancestor ID at ``level`` in dimension ``dim_index``.

        Works without touching the hierarchy because the full path is
        stored: the path entry for level ``l`` sits ``l`` positions before
        the leaf.  ``level`` must be between 0 and the dimension's highest
        functional attribute; use the hierarchy's ``all_id`` for ALL.
        """
        path = self.paths[dim_index]
        return path[len(path) - 1 - level]

    def flat_point(self):
        """All attribute IDs of the record as one flat tuple.

        Concatenates the per-dimension paths in schema order; this is the
        point the X-tree indexes (Fig. 10 of the paper).
        """
        point = []
        for path in self.paths:
            point.extend(path)
        return tuple(point)

    def __eq__(self, other):
        if not isinstance(other, DataRecord):
            return NotImplemented
        return self.paths == other.paths and self.measures == other.measures

    def __hash__(self):
        return hash((self.paths, self.measures))

    def __repr__(self):
        dims = []
        for path in self.paths:
            dims.append(
                "/".join(
                    "L%d#%d" % ids_mod.split_id(attr_id) for attr_id in path
                )
            )
        return "DataRecord(%s | %s)" % (
            "; ".join(dims),
            ", ".join("%g" % m for m in self.measures),
        )
