"""Conflict graph: grouping, symmetry, partition invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from blockmech.conflict import conflict_free_set, conflicts, get_conflict_groups
from blockmech.model import CoinbaseLabel

from conftest import canonical_context, key, make_bundle

LABEL = CoinbaseLabel("test")


def test_write_read_conflict_groups():
    a = make_bundle(1, 1, writes={key("k1")})
    b = make_bundle(2, 1, reads={key("k1")})
    c = make_bundle(3, 1, writes={key("k2")})
    groups = get_conflict_groups({1: a, 2: b, 3: c})
    assert [g.members for g in groups] == [(1, 2), (3,)]


def test_read_read_is_not_a_conflict():
    a = make_bundle(1, 1, reads={key("k1")})
    b = make_bundle(2, 1, reads={key("k1")})
    groups = get_conflict_groups({1: a, 2: b})
    assert all(len(g) == 1 for g in groups)


def test_write_chain_is_transitively_grouped():
    # five bundles chained over four keys: one component
    keys = [key(f"k{i}") for i in range(1, 5)]
    bundles = [
        make_bundle(0, 1, writes={keys[0]}),
        make_bundle(1, 1, writes={keys[0], keys[1]}),
        make_bundle(2, 1, writes={keys[1], keys[2]}),
        make_bundle(3, 1, writes={keys[2], keys[3]}),
        make_bundle(4, 1, writes={keys[3]}),
    ]
    groups = get_conflict_groups({b.id: b for b in bundles})
    assert len(groups) == 1 and len(groups[0]) == 5


def test_conflict_free_set():
    a = make_bundle(1, 1, writes={key("k1")})
    b = make_bundle(2, 1, reads={key("k1")})
    c = make_bundle(3, 1, writes={key("k2")})
    groups = get_conflict_groups({1: a, 2: b, 3: c})
    assert conflict_free_set(groups) == frozenset({3})
    only_singletons = get_conflict_groups({1: a, 3: c})
    assert conflict_free_set(only_singletons) == frozenset({1, 3})


def test_no_singletons_gives_empty_set():
    a = make_bundle(1, 1, writes={key("k1")})
    b = make_bundle(2, 1, writes={key("k1")})
    assert conflict_free_set(get_conflict_groups({1: a, 2: b})) == frozenset()


@st.composite
def _random_bundles(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    keys = [key(f"k{i}") for i in range(4)]
    bundles = []
    for i in range(n):
        writes = draw(st.sets(st.sampled_from(keys), max_size=2))
        reads = draw(st.sets(st.sampled_from(keys), max_size=2))
        bundles.append(make_bundle(i, 1, writes=writes, reads=reads))
    return bundles


@given(bundles=_random_bundles())
@settings(max_examples=80)
def test_groups_partition_the_bundle_set(bundles):
    groups = get_conflict_groups({b.id: b for b in bundles})
    seen = [i for g in groups for i in g.members]
    assert sorted(seen) == sorted(b.id for b in bundles)
    # groups are ordered by smallest member, deterministically
    assert [g.members[0] for g in groups] == sorted(g.members[0] for g in groups)


@given(bundles=_random_bundles())
@settings(max_examples=80)
def test_conflict_predicate_is_symmetric_and_matches_grouping(bundles):
    by_id = {b.id: b for b in bundles}
    groups = get_conflict_groups(by_id)
    group_of = {i: n for n, g in enumerate(groups) for i in g.members}
    for a in bundles:
        for b in bundles:
            if a.id >= b.id:
                continue
            assert conflicts(a, b) == conflicts(b, a)
            if conflicts(a, b):
                assert group_of[a.id] == group_of[b.id]
    # and grouping is independent of input order
    regrouped = get_conflict_groups(dict(reversed(by_id.items())))
    assert [g.members for g in regrouped] == [g.members for g in groups]


@given(bundles=_random_bundles())
@settings(max_examples=60)
def test_conflict_free_bundles_always_see_empty_context(bundles):
    by_id = {b.id: b for b in bundles}
    groups = get_conflict_groups(by_id)
    free = conflict_free_set(groups)
    order = tuple(sorted(by_id))
    for i in free:
        assert canonical_context(order, i, by_id, LABEL).predecessors == ()
