"""Default algorithm: enumeration, shortcuts, truncation, counterfactuals."""

from __future__ import annotations

from dataclasses import replace

import pytest

from blockmech.conflict import ConflictGroup, get_conflict_groups
from blockmech.default_algo import (
    Strategy,
    _plan,
    block_building,
    candidate_set,
    counterfactual_blocks,
    resolve_group,
)
from blockmech.harness import compare_sweep, verify_budget_and_refunds
from blockmech.model import (
    CoinbaseLabel,
    ConstantBid,
    TxRef,
    ZERO_BID,
    block_bids,
    block_total_bid,
    one_time_label,
)
from blockmech.workload import PROFILES, generate_scenario

from conftest import key, make_bundle

LABEL = CoinbaseLabel("test")


def _group(bundles: dict) -> ConflictGroup:
    return ConflictGroup(tuple(bundles))


def _pivot_bundles(n, values=None):
    victim = TxRef("0xvictim", "0xpool")
    shared = key("pool")
    out = {}
    for i in range(1, n + 1):
        value = values[i - 1] if values else 1
        out[i] = make_bundle(
            i,
            value,
            writes={shared},
            txs=(TxRef(f"0x{i:02x}", f"0xself{i}"), victim),
        )
    return out


def test_candidate_counts_small_groups():
    pair = {i: make_bundle(i, 1, writes={key("k")}) for i in (1, 2)}
    cands = list(candidate_set(_group(pair), pair, 8, 0))
    assert cands == [(), (1,), (2,), (1, 2), (2, 1)]
    trio = {i: make_bundle(i, 1, writes={key("k")}) for i in (1, 2, 3)}
    assert len(list(candidate_set(_group(trio), trio, 8, 0))) == 16


def test_shared_pivot_candidates_are_singletons():
    bundles = _pivot_bundles(4)
    cands = list(candidate_set(_group(bundles), bundles, 3, 0))
    assert cands == [(1,), (2,), (3,), (4,)]


def test_same_target_single_candidate_is_seeded_shuffle():
    shared = key("token")
    bundles = {
        i: make_bundle(i, 1, writes={shared}, txs=(TxRef(f"0x{i:02x}", "0xtoken"),))
        for i in range(1, 10)
    }
    group = _group(bundles)
    cands_a = list(candidate_set(group, bundles, 8, seed=1))
    cands_b = list(candidate_set(group, bundles, 8, seed=1))
    assert len(cands_a) == 1 and cands_a == cands_b
    assert sorted(cands_a[0]) == list(bundles)


def test_is_feasible_classification():
    # Below the cutoff every group is enumerated; above it a feasible
    # shortcut is taken, and truncation is the last resort.
    pivots = _pivot_bundles(10)
    assert _plan(_group(pivots), pivots, 11, 0)[0] is Strategy.ENUMERATED
    assert _plan(_group(pivots), pivots, 8, 0)[0] is Strategy.SHARED_PIVOT
    shared = key("token")
    same_target = {
        i: make_bundle(i, 1, writes={shared}, txs=(TxRef(f"0x{i:02x}", "0xtoken"),))
        for i in range(12)
    }
    assert _plan(_group(same_target), same_target, 8, 0)[0] is Strategy.SAME_TARGET
    plain = {i: make_bundle(i, 1, writes={shared}) for i in range(9)}
    assert _plan(_group(plain), plain, 8, 0)[0] is Strategy.TRUNCATED


def test_select_subset_is_deterministic_and_seed_sensitive():
    # A truncated group's pool: the first k_cutoff - 1 members in the
    # seeded order, as sorted ids.
    bundles = {i: make_bundle(i, 1, writes={key("k")}) for i in range(12)}
    group = _group(bundles)
    strategy, first, shortlist = _plan(group, bundles, 8, seed=5)
    assert strategy is Strategy.TRUNCATED and shortlist is None
    assert len(first) == 7 and _plan(group, bundles, 8, seed=5)[1] == first
    assert _plan(group, bundles, 99, seed=5)[1] == group.members
    other = _plan(group, bundles, 8, seed=6)[1]
    assert len(other) == 7  # may differ from `first`, must be internally stable
    assert _plan(group, bundles, 8, seed=6)[1] == other


def test_resolve_group_table1(example2):
    bundles = example2.bundle_map()
    groups = get_conflict_groups(bundles)
    res = resolve_group(groups[0], bundles, 8, 0, LABEL)
    assert res.sub_block == (2, 1)
    assert res.value == 150
    assert res.strategy is Strategy.ENUMERATED


def test_resolve_group_all_zero_bids_picks_empty_block():
    bundles = {i: make_bundle(i, 0, writes={key("k")}) for i in (1, 2, 3)}
    res = resolve_group(_group(bundles), bundles, 8, 0, LABEL)
    assert res.sub_block == ()
    assert res.value == 0


def test_resolve_group_constant_bids_first_full_permutation():
    bundles = {
        1: make_bundle(1, 5, writes={key("k")}),
        2: make_bundle(2, 7, writes={key("k")}),
        3: make_bundle(3, 9, writes={key("k")}),
    }
    res = resolve_group(_group(bundles), bundles, 8, 0, LABEL)
    assert res.value == 21
    assert res.sub_block == (1, 2, 3)  # first maximizer in canonical order


def test_block_building_example2(example2):
    bundles = example2.bundle_map()
    label = one_time_label(example2.seed)
    assert block_building(bundles, 8, example2.seed, label) == (2, 1)


def test_block_building_merges_nonconflicting_groups():
    a = make_bundle(1, 5, writes={key("a")})
    b = make_bundle(2, 9, writes={key("b")})
    block = block_building({1: a, 2: b}, 8, 0, LABEL)
    assert sorted(block) == [1, 2]
    assert block_total_bid(block, {1: a, 2: b}, LABEL) == 14


def test_shared_pivot_resolution_matches_linear_scan():
    bundles = _pivot_bundles(9, values=list(range(1, 10)))
    block = block_building(bundles, 8, 0, LABEL)
    best = max(bundles, key=lambda i: bundles[i].bid.value)
    assert block == (best,)


def test_counterfactual_blocks_example2(example2):
    bundles = example2.bundle_map()
    label = one_time_label(example2.seed)
    counter = counterfactual_blocks(bundles, 8, example2.seed, label)
    assert counter[1] == (1, 2)
    assert counter[2] == (2, 1)
    values_1 = block_bids(counter[1], bundles, label)
    assert sum(v for j, v in values_1.items() if j != 1) == 80
    values_2 = block_bids(counter[2], bundles, label)
    assert sum(v for j, v in values_2.items() if j != 2) == 100


def test_counterfactual_sole_bundle():
    lone = make_bundle(1, 42, writes={key("k")})
    counter = counterfactual_blocks({1: lone}, 8, 0, LABEL)
    values = block_bids(counter[1], {1: replace(lone, bid=ZERO_BID)}, LABEL)
    assert sum(v for j, v in values.items() if j != 1) == 0


def _counterfactual_blocks_naive(bundles, k_cutoff, seed, coinbase) -> dict:
    """Reference for `counterfactual_blocks`: a full rebuild per zeroed
    bundle."""
    return {
        i: block_building(
            {**bundles, i: replace(bundles[i], bid=ZERO_BID)}, k_cutoff, seed, coinbase
        )
        for i in sorted(bundles)
    }


@pytest.mark.parametrize("seed", [0, 3, 11, 29])
def test_counterfactuals_equal_full_rerun(seed):
    scenario = generate_scenario(PROFILES["realistic"], seed)
    bundles = scenario.bundle_map()
    label = one_time_label(scenario.seed)
    fast = counterfactual_blocks(bundles, scenario.k_cutoff, scenario.seed, label)
    naive = _counterfactual_blocks_naive(
        bundles, scenario.k_cutoff, scenario.seed, label
    )
    assert fast == naive


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_resolve_group_is_exact_maximizer_by_independent_reenumeration(seed):
    scenario = generate_scenario(PROFILES["realistic"], seed)
    bundles = scenario.bundle_map()
    label = one_time_label(scenario.seed)
    for group in get_conflict_groups(bundles):
        res = resolve_group(group, bundles, scenario.k_cutoff, scenario.seed, label)
        best_block, best_value = None, 0.0
        for block in candidate_set(
            group, bundles, scenario.k_cutoff, scenario.seed
        ):
            value = block_total_bid(block, bundles, label)
            if best_block is None or value > best_value:
                best_block, best_value = block, value
        assert res.sub_block == best_block
        assert res.value == best_value


def test_candidate_sets_ignore_bids_transcript():
    scenario = generate_scenario(PROFILES["realistic"], 13)
    bundles = scenario.bundle_map()
    label = one_time_label(scenario.seed)
    profile_a = {i: replace(b, bid=ConstantBid(float(i))) for i, b in bundles.items()}
    profile_b = {
        i: replace(b, bid=ConstantBid(float(1000 - i))) for i, b in bundles.items()
    }
    for group in get_conflict_groups(bundles):
        seen_a: list = []
        seen_b: list = []
        resolve_group(
            group, profile_a, scenario.k_cutoff, scenario.seed, label,
            transcript=seen_a,
        )
        resolve_group(
            group, profile_b, scenario.k_cutoff, scenario.seed, label,
            transcript=seen_b,
        )
        assert seen_a == seen_b


def test_resolution_strategies_recorded():
    scenario = generate_scenario(PROFILES["stress-large-groups"], 2)
    bundles = scenario.bundle_map()
    label = one_time_label(scenario.seed)
    resolutions = [
        resolve_group(g, bundles, scenario.k_cutoff, scenario.seed, label)
        for g in get_conflict_groups(bundles)
    ]
    strategies = {res.strategy for res in resolutions}
    assert Strategy.ENUMERATED in strategies  # singletons at least
    large = [res for res in resolutions if len(res.group) >= scenario.k_cutoff]
    assert large, "stress profile must produce large groups"
    for res in large:
        assert res.strategy in (
            Strategy.SHARED_PIVOT,
            Strategy.SAME_TARGET,
            Strategy.TRUNCATED,
        )
        if res.strategy is Strategy.TRUNCATED:
            assert len(set(res.sub_block)) <= scenario.k_cutoff - 1


def test_threading_does_not_change_output():
    one = verify_budget_and_refunds(8, 3, threads=1)
    eight = verify_budget_and_refunds(8, 3, threads=8)
    assert one == eight and one.checked == 8

    # Witnesses carry per-scenario values and seeds, so a pool that
    # collected in completion order would reorder them.
    sweeps = [compare_sweep(PROFILES["stress-large-groups"], 12, 121, t) for t in (1, 8)]
    assert sweeps[0].details["witness_count"] >= 2
    assert sweeps[0].details == sweeps[1].details
