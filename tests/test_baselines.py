"""Greedy baselines and the comparison harness."""

from __future__ import annotations

import pytest

from blockmech.baselines import (
    compare_algorithms,
    greedy_by_bid,
    greedy_by_density,
)
from blockmech.conflict import get_conflict_groups
from blockmech.model import (
    CoinbaseLabel,
    Scenario,
    TxRef,
    validate_builder_block,
)
from blockmech.workload import PROFILES, Profile, generate_scenario

from conftest import key, make_bundle, make_scenario

LABEL = CoinbaseLabel("test")


def test_greedy_by_bid_orders_nonconflicting_by_value():
    a = make_bundle(1, 5, writes={key("a")})
    b = make_bundle(2, 9, writes={key("b")})
    assert greedy_by_bid({1: a, 2: b}, LABEL) == (2, 1)


def test_greedy_by_bid_traces_example2(example2):
    # 50 beats 40 at the head; bundle 1 then bids 100 behind bundle 2
    assert greedy_by_bid(example2.bundle_map(), LABEL) == (2, 1)


def test_greedy_stops_at_zero_value():
    bundles = {i: make_bundle(i, 0) for i in (1, 2)}
    assert greedy_by_bid(bundles, LABEL) == ()


def test_greedy_by_density_prefers_value_per_weight():
    heavy = make_bundle(1, 10, weight=10, writes={key("a")})
    light = make_bundle(2, 9, weight=3, writes={key("b")})
    assert greedy_by_density({1: heavy, 2: light}, LABEL) == (2, 1)


def test_greedy_by_density_equals_greedy_by_bid_on_equal_weights(example2):
    assert greedy_by_density(example2.bundle_map(), LABEL) == greedy_by_bid(
        example2.bundle_map(), LABEL
    )


def test_greedy_by_density_rejects_zero_weight():
    bad = make_bundle(1, 5, weight=0)
    with pytest.raises(ValueError, match="weight > 0"):
        greedy_by_density({1: bad}, LABEL)


def test_greedy_ties_break_by_id():
    bundles = {i: make_bundle(i, 7, writes={key(f"x{i}")}) for i in (3, 1, 2)}
    assert greedy_by_bid(bundles, LABEL) == (1, 2, 3)


def test_greedy_outputs_are_valid_blocks():
    scenario = generate_scenario(PROFILES["realistic"], 9)
    bundles = scenario.bundle_map()
    for block in (greedy_by_bid(bundles, LABEL), greedy_by_density(bundles, LABEL)):
        assert validate_builder_block(block, bundles) is None


def test_default_is_best_when_groups_are_small():
    checked = 0
    for seed in range(12):
        scenario = generate_scenario(PROFILES["realistic"], seed)
        if any(
            len(g) >= scenario.k_cutoff
            for g in get_conflict_groups(scenario.bundle_map())
        ):
            continue
        report = compare_algorithms(scenario)
        assert report.default_is_best
        checked += 1
    assert checked > 0


def test_truncation_can_lose_to_greedy():
    # nine constant bidders in one group, no shortcut applies: the default
    # keeps only k_cutoff-1 of them, greedy packs all nine
    contested = key("hot")
    bundles = [
        make_bundle(
            i,
            10,
            writes={contested},
            txs=(TxRef(f"0x{i:02x}", f"t{i}"),),
        )
        for i in range(1, 10)
    ]
    scenario = make_scenario(*bundles, k_cutoff=8, seed=3)
    report = compare_algorithms(scenario)
    assert report.values["greedy-bid"] == 90
    assert report.values["default"] == 70
    assert not report.default_is_best
    assert report.gap_absolute == 20


def test_empty_scenario_all_values_zero():
    scenario = Scenario(bundles=(), k_cutoff=8, seed=0)
    report = compare_algorithms(scenario)
    assert set(report.values.values()) == {0}
    assert report.default_is_best


def test_oracle_upper_bounds_all_algorithms():
    small = Profile(
        name="small", n_bundles=6, group_sizes={1: 0.4, 2: 0.3, 3: 0.3},
        bid_model="table",
    )
    for seed in (2, 4, 6):
        scenario = generate_scenario(small, seed)
        report = compare_algorithms(scenario)
        assert "oracle" in report.values
        for value in report.values.values():
            assert value <= report.values["oracle"] + 1e-9
