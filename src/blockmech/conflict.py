"""Storage-conflict graph: grouping bundles into connected components.

Two bundles conflict when one's writes intersect the other's reads or
writes (write-write or read-write; read-read is not a conflict). Groups are
computed from the declared footprints, not from gated effective execution:
grouping runs before any algorithm executes, and the declared footprint is
the conservative superset for a gated bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Bundle


@dataclass(frozen=True)
class ConflictGroup:
    """One connected component of the conflict graph; `members` holds its
    ids as an ascending tuple."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def __len__(self) -> int:
        return len(self.members)


def conflicts(a: Bundle, b: Bundle) -> bool:
    """Pairwise conflict predicate (symmetric by construction)."""
    return bool(a.writes & b.footprint) or bool(b.writes & a.footprint)


def get_conflict_groups(bundles: dict) -> list:
    """Partition bundles into conflict groups.

    Driven by a per-key index (writers and readers per storage key) so the
    cost is proportional to the total number of declared accesses plus
    component labeling; bundles are never compared pairwise. Returned groups
    are sorted by smallest member id.
    """
    ids = sorted(bundles)
    parent = {i: i for i in ids}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    first_writer: dict = {}
    readers: dict = {}
    for i in ids:
        b = bundles[i]
        for key in b.writes:
            if key in first_writer:
                union(i, first_writer[key])
            else:
                first_writer[key] = i
        for key in b.reads:
            readers.setdefault(key, []).append(i)

    # A reader joins the component of any writer of the same key. Keys with
    # no writer create no edges: concurrent reads commute.
    for key, reading in readers.items():
        writer = first_writer.get(key)
        if writer is None:
            continue
        for i in reading:
            union(i, writer)

    # In id order, each component is first met at its smallest member.
    components: dict = {}
    for i in ids:
        components.setdefault(find(i), []).append(i)
    return [ConflictGroup(m) for m in components.values()]


def conflict_free_set(groups) -> frozenset:
    """Bundles alone in their group: execution neither affects nor depends
    on any other bundle."""
    return frozenset(g.members[0] for g in groups if len(g) == 1)
