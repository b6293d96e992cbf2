"""Exact enumeration oracle: counts, Table-1 values, truthfulness grids."""

from __future__ import annotations

import pytest

from blockmech.conflict import conflict_free_set, get_conflict_groups
from blockmech.default_algo import resolve_group_with_counterfactuals
from blockmech.model import (
    CoinbaseLabel,
    block_bids,
    exclusive_bid,
    one_time_label,
    with_bids,
)
from blockmech.oracle import OracleSizeError, full_omega, vcg_outcome
from blockmech.workload import PROFILES, generate_scenario

from conftest import key, make_bundle

LABEL = CoinbaseLabel("test")


def test_full_omega_counts():
    two = {i: make_bundle(i, 1) for i in (1, 2)}
    assert len(list(full_omega(two))) == 5
    three = {i: make_bundle(i, 1) for i in (1, 2, 3)}
    assert len(list(full_omega(three))) == 16
    assert list(full_omega({})) == [()]


def test_full_omega_refuses_oversized_instances():
    big = {i: make_bundle(i, 1) for i in range(9)}
    with pytest.raises(OracleSizeError, match="refusing"):
        list(full_omega(big))


def test_example2_outcome(example2):
    outcome = vcg_outcome(example2.bundle_map(), LABEL)
    assert outcome.winner == (2, 1)
    assert outcome.total_bid == 150
    assert outcome.refunds == {1: 70, 2: 50}
    assert outcome.charges == {1: 100, 2: 50}
    assert outcome.proposer_revenue == 30


def test_single_bundle_has_zero_net_payment():
    lone = {1: make_bundle(1, 42, writes={key("k")})}
    outcome = vcg_outcome(lone, LABEL)
    assert outcome.charges[1] == 42
    assert outcome.refunds[1] == 42
    assert outcome.proposer_revenue == 0


def test_three_mutually_exclusive_constant_bids():
    bundles = {
        i: make_bundle(i, bid=exclusive_bid(v), writes={key("k")})
        for i, v in ((1, 100.0), (2, 60.0), (3, 10.0))
    }
    outcome = vcg_outcome(bundles, LABEL)
    assert outcome.winner == (1,)
    assert outcome.refunds[1] == 40
    assert outcome.refunds[2] == 0 and outcome.refunds[3] == 0
    assert outcome.proposer_revenue == 60


def test_net_payment_bounds(example2):
    outcome = vcg_outcome(example2.bundle_map(), LABEL)
    for i in outcome.charges:
        net = outcome.charges[i] - outcome.refunds[i]
        assert 0 <= net <= outcome.charges[i]


@pytest.mark.parametrize("subject", [1, 2])
def test_truthfulness_on_misreport_grid(example2, subject):
    """Sweeping one bundle's bid over a multiplicative grid never beats
    bidding the true valuation."""
    bundles = example2.bundle_map()
    truth = bundles[subject].valuation
    valued = with_bids(bundles, {subject: truth})

    def utility(bid_fn) -> float:
        outcome = vcg_outcome(with_bids(bundles, {subject: bid_fn}), LABEL)
        realized = block_bids(outcome.winner, valued, LABEL)
        return (
            realized.get(subject, 0.0)
            - outcome.charges[subject]
            + outcome.refunds[subject]
        )

    truthful = utility(truth)
    for factor in (0.0, 0.25, 0.5, 2.0, 4.0):
        assert utility(truth.scaled(factor)) <= truthful


def test_three_bundle_truthfulness_grid():
    bundles = {
        1: make_bundle(1, 30, writes={key("k")}),
        2: make_bundle(2, bid=exclusive_bid(50.0), writes={key("k")}),
        3: make_bundle(3, 20, writes={key("j"), key("k")}),
    }
    for subject in bundles:
        truth = bundles[subject].valuation
        valued = with_bids(bundles, {subject: truth})

        def utility(bid_fn) -> float:
            outcome = vcg_outcome(with_bids(bundles, {subject: bid_fn}), LABEL)
            realized = block_bids(outcome.winner, valued, LABEL)
            return (
                realized.get(subject, 0.0)
                - outcome.charges[subject]
                + outcome.refunds[subject]
            )

        truthful = utility(truth)
        for factor in (0.0, 0.25, 0.5, 2.0, 4.0):
            assert utility(truth.scaled(factor)) <= truthful


def test_default_refunds_equal_vcg_refunds_beyond_eight_bundles():
    # Generated cores of 10-12 bundles in several groups, each below the
    # cutoff, so the default pass is exact per group. Groups are separable,
    # and the bids are integers, so group-local refunds must equal the
    # refunds of the exact oracle over the whole core, bit for bit.
    checked = 0
    for seed in range(40):
        scenario = generate_scenario(PROFILES["realistic"], seed)
        bundles = scenario.bundle_map()
        groups = get_conflict_groups(bundles)
        free = conflict_free_set(groups)
        core = {i: b for i, b in bundles.items() if i not in free}
        core_groups = [g for g in groups if len(g) > 1]
        if not 10 <= len(core) <= 12 or len(core_groups) < 2:
            continue
        if max(len(g) for g in core_groups) >= scenario.k_cutoff:
            continue
        label = one_time_label(scenario.seed)
        resolved = [
            resolve_group_with_counterfactuals(
                g, core, scenario.k_cutoff, scenario.seed, label
            )
            for g in core_groups
        ]
        refunds = {
            i: res.value - others
            for res, counterfactuals in resolved
            for i, (_, others) in counterfactuals.items()
        }
        exact = vcg_outcome(core, label, limit=len(core))
        assert refunds == exact.refunds, seed
        checked += 1
    assert checked >= 8
