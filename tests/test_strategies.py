"""Strategy lab: deviation sweeps, integration game, demos, adoption."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from blockmech import harness, strategies
from blockmech.fixtures import FIXTURE_DIR, load_fixture
from blockmech.mechanism import (
    BuilderAlgorithm,
    BuilderEntry,
    LedgerEntry,
    builder_label,
    builder_utility,
    instantiate_builders,
    run_mechanism,
    searcher_utility,
)
from blockmech.model import (
    BuilderSpec,
    CoinbaseLabel,
    ConstantBid,
    ExecutionContext,
    Scenario,
    TxRef,
    exclusive_bid,
)
from blockmech.strategies import (
    BUILDER_OFFSET_GRID,
    COLLUSION_EPSILONS,
    INTEGRATION_OFFSET_GRID,
    AdoptionReport,
    AdoptionScopeError,
    adoption_game,
    budget_deficit_demo,
    builder_deviation_sweep,
    classify_adoption,
    collusion_demo,
    integration_game,
    searcher_deviation_sweep,
    standard_bid_transforms,
    sybil_demo,
)
from blockmech.workload import PROFILES, generate_scenario, with_builders

from conftest import key, make_bundle, make_scenario, rebid_scenario


def test_searcher_sweep_example2_is_dominant(example2):
    for subject in (1, 2):
        report = searcher_deviation_sweep(example2, subject)
        assert report.dominant
        assert report.witness is None
        assert report.truthful_utility >= report.best_deviation_utility - 1e-9


def test_searcher_sweep_conflict_free_dominant_with_builders():
    scenario = load_fixture("integration")
    report = searcher_deviation_sweep(scenario, 3)
    assert report.dominant
    # a conflict-free bundle's utility is pinned at its valuation
    assert report.truthful_utility == 25
    assert all(u == 25 for u in report.deviations.values())


class _PunishingBuilder(BuilderAlgorithm):
    """Non-truthful competitor that keys its block on the subject's bid:
    excludes the subject when it bids high, and overbids enough to win."""

    def __init__(self, subject: int):
        self.subject = subject

    def produce(self, bundles, env):
        head = bundles[self.subject].bid.evaluate(ExecutionContext((), env.label))
        if head > 10:
            block = tuple(i for i in sorted(bundles) if i != self.subject)
        else:
            block = tuple(sorted(bundles))
        return block, 500.0


def test_searcher_dominance_can_fail_under_winning_nonconforming_builder():
    from blockmech.mechanism import run_mechanism, searcher_utility

    bundles = [
        make_bundle(1, 100, writes={key("k")}),
        make_bundle(2, 40, writes={key("k")}),
    ]
    scenario = make_scenario(*bundles)
    assert searcher_deviation_sweep(scenario, 1).dominant  # no builders

    # same instance, but a winning builder that reacts to the subject's bid
    truth = bundles[0].valuation
    builder = _PunishingBuilder(1)

    def utility(bid_fn):
        reported = rebid_scenario(scenario, {1: bid_fn})
        outcome = run_mechanism(reported, builders=[builder])
        return searcher_utility(1, outcome, scenario.bundle_map())

    # overstating the bid inflates the phase-1 refund while the builder
    # excludes the bundle from the final block: a strict gain
    assert utility(truth.scaled(4)) > utility(truth)


def test_builder_sweep_second_price_dominance():
    gated = make_bundle(
        1,
        bid=ConstantBid(100.0),
        writes={key("k")},
        txs=(TxRef("0x01", "t"),),
        gate=CoinbaseLabel("builder-0"),
    )
    plain = make_bundle(2, 80, writes={key("k")}, txs=(TxRef("0xff", "t2"),))
    scenario = make_scenario(gated, plain, builders=(BuilderSpec("hash-min"),))
    report = builder_deviation_sweep(scenario, 0)
    assert report.truthful_utility == 20  # beta* 100 against reserve 80
    assert report.dominant
    # overbids still pay the reserve; underbids below it forfeit the win
    assert max(report.deviations.values()) <= 20


def test_builder_sweep_refuses_a_missing_builder():
    scenario = make_scenario(
        make_bundle(1, 3, writes={key("k")}), builders=(BuilderSpec("empty"),)
    )
    with pytest.raises(ValueError, match=r"^no builder at index 3$"):
        builder_deviation_sweep(scenario, 3)


def test_builder_below_reserve_cannot_profit_by_overbidding():
    bundles = [
        make_bundle(1, 3, writes={key("k")}),
        make_bundle(2, 2, writes={key("k")}),
    ]
    scenario = make_scenario(*bundles, builders=(BuilderSpec("empty"),))
    report = builder_deviation_sweep(scenario, 0)
    assert report.truthful_utility == 0
    assert report.dominant
    # winning with an empty block means paying for nothing
    assert min(report.deviations.values()) < 0


def test_disqualified_builder_stays_disqualified_at_every_offset():
    # Under builder 0's label the gated bundle is worth 100 against a
    # reserve of 2, so a valid bid of 11 (-5 shifted by +16) would win.
    gated = make_bundle(
        1, bid=ConstantBid(100.0), writes={key("k")}, gate=CoinbaseLabel("builder-0")
    )
    plain = make_bundle(2, 2, writes={key("k")})
    scenario = make_scenario(
        gated, plain, builders=(BuilderSpec("constant-bid", (("bid", -5.0),)),)
    )
    assert run_mechanism(scenario).builder_ledger[0].disqualified
    report = builder_deviation_sweep(scenario, 0)
    assert report.truthful_utility == 0
    assert set(report.deviations.values()) == {0}
    assert report.dominant


def test_tied_builders_lowest_index_wins_at_equal_utility():
    from blockmech.mechanism import builder_utility, run_mechanism

    contested = key("hot")
    bundles = [
        make_bundle(i, 10, writes={contested}, txs=(TxRef(f"0x{i:02x}", f"t{i}"),))
        for i in range(1, 10)
    ]
    scenario = make_scenario(
        *bundles,
        builders=(BuilderSpec("greedy-bid"), BuilderSpec("greedy-bid")),
        k_cutoff=8,
    )
    outcome = run_mechanism(scenario)
    # greedy packs all nine (90) against the truncated default block (70)
    assert outcome.beta0 == 70
    assert outcome.beta_star == outcome.beta_prime == 90
    assert outcome.winning_builder == 0
    assert builder_utility(0, outcome) == builder_utility(1, outcome) == 0


def _case1_scenario():
    gated = make_bundle(
        1,
        bid=ConstantBid(100.0),
        writes={key("k")},
        gate=CoinbaseLabel("builder-0"),
    )
    rival = make_bundle(2, 30, writes={key("k")})
    free = make_bundle(3, 25, writes={key("solo")})
    return make_scenario(gated, rival, free, builders=(BuilderSpec("greedy-bid"),))


def test_integration_case1_builder_wins():
    scenario = _case1_scenario()
    report = integration_game(scenario, 3, 0)
    # joint utility at truth: v_i + V_j - best competing bid = 25 + 130 - 30
    assert report.truthful_utility == 125
    assert report.dominant
    # integrating while the builder wins anyway changes nothing
    assert report.deviations["integrate|bid=truthful|builder=+0"] == 125


def test_integration_case2_builder_loses():
    scenario = load_fixture("integration")
    report = integration_game(scenario, 3, 1)  # builder 1 is the empty stub
    assert report.truthful_utility == 25  # just the bundle's own valuation
    assert report.dominant
    # integrating with a loser voids the bundle entirely
    assert report.deviations["integrate|bid=truthful|builder=+0"] == 0


def test_integration_rejects_core_bundles():
    scenario = load_fixture("integration")
    with pytest.raises(ValueError, match="not conflict-free"):
        integration_game(scenario, 1, 0)


def test_collusion_demo_matches_construction():
    report = collusion_demo()
    assert report.deployed_rule_unaffected
    assert report.exploit_holds
    assert report.beta0 == 150
    assert report.honest_refund == 70
    assert report.honest_utility == 70
    assert report.honest_proposer == 30
    assert len(report.per_epsilon) == 3
    for row in report.per_epsilon:
        assert row["eq1_refund"] == 70  # deployed rule ignores builder reports
        assert row["eq2_refund"] == 150  # jumps to the full default-block value
        assert row["exploit_utility"] == 150  # v - b + beta0 = 100 - 100 + 150
        assert row["utility_gain"] == 80
        assert row["proposer_after"] == 0


def test_collusion_demo_requires_default_dominance(example2):
    strong = Scenario(
        bundles=example2.bundles,
        builders=(BuilderSpec("copy-default"),),
        k_cutoff=example2.k_cutoff,
        seed=example2.seed,
    )
    with pytest.raises(ValueError, match="strictly outperforms"):
        collusion_demo(strong)


def test_budget_deficit_demo_reproduces_counterexample():
    report = budget_deficit_demo()
    assert report.hypothetical_refunds == {1: 99, 2: 0}
    assert report.hypothetical_collected == 1
    assert report.hypothetical_deficit == 98
    assert report.actual_balanced
    assert report.actual_inflow >= report.actual_outflow


def test_sybil_split_inflates_refund():
    report = sybil_demo()
    assert report.refund_before == 40
    assert report.refund_after == 80
    assert report.inflated
    assert report.proposer_after < report.proposer_before


def test_sybil_degenerate_split_changes_nothing():
    k1 = key("a")
    subject = make_bundle(1, bid=exclusive_bid(100.0), writes={k1})
    rival = make_bundle(2, bid=exclusive_bid(60.0), writes={k1})
    scenario = make_scenario(subject, rival)
    clone = make_bundle(11, bid=exclusive_bid(100.0), writes={k1})
    report = sybil_demo(scenario, 1, (clone,))
    assert report.refund_before == report.refund_after
    assert report.net_before == report.net_after
    assert not report.inflated


def test_sybil_gains_nothing_for_conflict_free_subject():
    subject = make_bundle(1, 30, writes={key("a"), key("b")})
    bystander = make_bundle(2, 10, writes={key("c")})
    scenario = make_scenario(subject, bystander)
    parts = (
        make_bundle(11, 15, writes={key("a")}),
        make_bundle(12, 15, writes={key("b")}),
    )
    report = sybil_demo(scenario, 1, parts)
    assert report.refund_before == 30  # conflict-free: already fully refunded
    assert report.refund_after == 30
    assert not report.inflated


def test_sybil_rejects_mismatched_split():
    subject = make_bundle(1, 30, writes={key("a"), key("b")})
    scenario = make_scenario(subject, make_bundle(2, 1, writes={key("c")}))
    with pytest.raises(ValueError, match="cover the subject's writes"):
        sybil_demo(scenario, 1, (make_bundle(11, 30, writes={key("a")}),))
    with pytest.raises(ValueError, match="sum to the subject's bid"):
        sybil_demo(
            scenario,
            1,
            (
                make_bundle(11, 10, writes={key("a")}),
                make_bundle(12, 10, writes={key("b")}),
            ),
        )


def test_sybil_rejects_split_missing_the_subject_reads():
    subject = make_bundle(1, 30, writes={key("a")}, reads={key("r")})
    scenario = make_scenario(subject, make_bundle(2, 1, writes={key("c")}))
    with pytest.raises(
        ValueError, match=r"^split parts must jointly cover the subject's reads$"
    ):
        sybil_demo(scenario, 1, (make_bundle(11, 30, writes={key("a")}),))


def test_adoption_no_conflict_pays_proposer_nothing():
    bundles = [make_bundle(i, v, writes={key(f"x{i}")}) for i, v in ((1, 3), (2, 5), (3, 7))]
    report = adoption_game(make_scenario(*bundles))
    assert report.mode == "no-conflict"
    assert report.commit_proposer == 0
    assert report.best_alternative_proposer == 0
    assert report.commit_weakly_optimal


def test_adoption_full_conflict_pays_second_highest():
    contested = key("hot")
    bundles = [
        make_bundle(i, bid=exclusive_bid(v), writes={contested})
        for i, v in ((1, 100.0), (2, 60.0), (3, 10.0))
    ]
    report = adoption_game(make_scenario(*bundles))
    assert report.mode == "full-conflict"
    assert report.commit_proposer == 60
    assert report.second_highest_valuation == 60
    assert report.best_alternative_proposer <= 60
    assert report.commit_weakly_optimal
    assert report.partitions_checked == 8
    assert report.witness_partition is None


def test_adoption_refuses_mixed_scenarios(example2):
    with pytest.raises(AdoptionScopeError, match="no-conflict or full-conflict"):
        classify_adoption(example2)
    with pytest.raises(AdoptionScopeError):
        adoption_game(example2)


# Differential: the sweeps and demos settle one prepare and compete many
# times; each cell must equal a literal `run_mechanism` with the deviation
# built into the line-up, bit for bit.


class _OffsetBidBuilder(BuilderAlgorithm):
    """Same block as the wrapped builder, bid shifted by a fixed offset
    (clamped at zero)."""

    def __init__(self, inner: BuilderAlgorithm, offset: float):
        self.inner = inner
        self.offset = offset

    def produce(self, bundles, env):
        block, beta = self.inner.produce(bundles, env)
        return block, max(0.0, beta + self.offset)


class _FixedBuilder(BuilderAlgorithm):
    """A precomputed block at a fixed bid (the collusion demo's colluder)."""

    def __init__(self, block, bid: float):
        self.block = block
        self.bid = bid

    def produce(self, bundles, env):
        return self.block, self.bid


def _shifted_lineup(scenario, j: int, offset: float) -> list:
    lineup = instantiate_builders(scenario.builders)
    lineup[j] = _OffsetBidBuilder(lineup[j], offset)
    return lineup


_HARNESS_LINEUPS = sorted(
    set(
        harness._BUILDER_ROTATION
        + harness._BUILDER_DSIC_LINEUPS
        + harness._INTEGRATION_LINEUPS
    )
)

_DIFFERENTIAL_PROFILES = {
    "sweep": harness._SWEEP_PROFILE,
    "realistic": PROFILES["realistic"],
    "full-conflict": PROFILES["full-conflict"],
}


def _differential_scenarios(profile_name: str) -> list:
    """One scenario per harness line-up, on consecutive seeds; or every
    fixture with its own line-up."""
    if profile_name == "fixtures":
        return [load_fixture(path.stem) for path in sorted(FIXTURE_DIR.glob("*.json"))]
    profile = _DIFFERENTIAL_PROFILES[profile_name]
    return [
        with_builders(generate_scenario(profile, 7000 + n), lineup)
        for n, lineup in enumerate(_HARNESS_LINEUPS)
    ]


@pytest.mark.parametrize("profile_name", sorted(_DIFFERENTIAL_PROFILES) + ["fixtures"])
def test_builder_sweep_equals_literal_runs(profile_name):
    checked = 0
    for scenario in _differential_scenarios(profile_name):
        for j in range(len(scenario.builders)):
            report = builder_deviation_sweep(scenario, j)

            def literal(offset):
                lineup = _shifted_lineup(scenario, j, offset)
                return builder_utility(j, run_mechanism(scenario, builders=lineup))

            assert report.truthful_utility == literal(0.0)
            assert report.deviations == {
                f"offset:{o:+g}": literal(o) for o in BUILDER_OFFSET_GRID if o != 0.0
            }
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("profile_name", ["fixtures", "full-conflict", "sweep"])
def test_searcher_sweep_equals_literal_runs(profile_name):
    checked = 0
    for scenario in _differential_scenarios(profile_name):
        for i in sorted(scenario.bundle_map())[:2]:
            report = searcher_deviation_sweep(scenario, i)
            truth = scenario.bundle_map()[i].valuation

            def literal(bid_fn):
                outcome = run_mechanism(rebid_scenario(scenario, {i: bid_fn}))
                return searcher_utility(i, outcome, scenario.bundle_map())

            assert report.truthful_utility == literal(truth)
            assert report.deviations == {
                label: literal(fn) for label, fn in standard_bid_transforms(truth)
            }
            checked += 1
    assert checked >= 3


# full-conflict scenarios have no conflict-free bundle to integrate
@pytest.mark.parametrize("profile_name", ["fixtures", "realistic", "sweep"])
def test_integration_game_equals_literal_runs(monkeypatch, profile_name):
    checked = 0
    for scenario in _differential_scenarios(profile_name):
        free = sorted(run_mechanism(scenario, builders=()).conflict_free)
        for j in range(len(scenario.builders)):
            for i in free[:2]:
                report, phases = _recorded_phases(
                    monkeypatch, lambda: integration_game(scenario, i, j)
                )
                runs = _literal_integration_runs(scenario, i, j)
                assert list(report.deviations) == [cell for cell, _, _ in runs]
                assert list(report.deviations.values()) == [
                    searcher_utility(i, outcome, stated) + builder_utility(j, outcome)
                    for _, stated, outcome in runs
                ]
                # A conflict-free subject is refunded what it is charged, and a
                # winning builder pays the tail's bids back, so no joint
                # utility depends on the subject's bid: only the settled
                # outcomes show that each misreport is applied.
                assert phases["settle"] == [outcome for _, _, outcome in runs]
                assert (len(phases["prepare"]), len(phases["compete"])) == (1, 1)
                checked += 1
    assert checked >= 1


def _literal_integration_runs(scenario, i: int, j: int) -> list:
    """(cell, the mode's bundle map, outcome) for every integration cell, one
    literal `run_mechanism` call each."""
    bundles = scenario.bundle_map()
    truth = bundles[i].valuation
    gated = replace(bundles[i], gate=builder_label(j))
    integrate = replace(
        scenario, bundles=tuple(gated if b.id == i else b for b in scenario.bundles)
    )
    cells = []
    for mode, sc in (("participate", scenario), ("integrate", integrate)):
        for bid_label, bid_fn in [("truthful", truth)] + standard_bid_transforms(truth):
            for offset in INTEGRATION_OFFSET_GRID:
                lineup = _shifted_lineup(scenario, j, offset)
                reported = rebid_scenario(sc, {i: bid_fn})
                outcome = run_mechanism(reported, builders=lineup)
                cell = f"{mode}|bid={bid_label}|builder={offset:+g}"
                cells.append((cell, sc.bundle_map(), outcome))
    return cells


def _recorded_phases(monkeypatch, call) -> tuple:
    """`call()`'s result, and every result `strategies.prepare`, `compete`
    and `settle` return during it, by phase, in call order."""
    recorded = {}
    with monkeypatch.context() as patch:
        for name in ("prepare", "compete", "settle"):
            results = recorded[name] = []

            def recording(*args, phase=getattr(strategies, name), results=results):
                results.append(phase(*args))
                return results[-1]

            patch.setattr(strategies, name, recording)
        result = call()
    return result, recorded


def _literal_collusion_runs(scenario) -> list:
    honest = run_mechanism(scenario)
    runs = [honest]
    for eps in COLLUSION_EPSILONS:
        colluder = _FixedBuilder(
            honest.default_block, float(Fraction(honest.beta0) + eps)
        )
        lineup = instantiate_builders(scenario.builders) + [colluder]
        runs.append(run_mechanism(scenario, builders=lineup))
    return runs


@pytest.mark.parametrize("profile_name", sorted(_DIFFERENTIAL_PROFILES) + ["fixtures"])
def test_collusion_rows_equal_literal_runs(monkeypatch, profile_name):
    checked = 0
    for scenario in _differential_scenarios(profile_name):
        try:
            _, phases = _recorded_phases(monkeypatch, lambda: collusion_demo(scenario))
        except ValueError:  # a builder matches the default: no exploit to show
            honest = run_mechanism(scenario)
            assert honest.winning_builder is not None or honest.beta_star >= honest.beta0
            continue
        # the honest run, then one rigged run per epsilon (one row each)
        assert phases["settle"] == _literal_collusion_runs(scenario)
        checked += 1
    assert checked >= 1


# (strategies function, the sweep that calls it, its one failure line at
# n=1, seed 2). Attempt 0 of seed 2 has no conflict-free bundle, so the
# integration case is attempt 1, the first that has one.
_DEVIATION_LINES = (
    ("searcher_deviation_sweep", "verify_searcher_dsic",
     "scenario 0: searcher 6 gains via integrate|x (1.0 -> 2.0)"),
    ("builder_deviation_sweep", "verify_builder_dsic",
     "scenario 0: builder 1 gains via integrate|x (1.0 -> 2.0)"),
    ("integration_game", "verify_integration",
     "scenario 1: pair (7, builder 0) gains via integrate|x (1.0 -> 2.0)"),
)


@pytest.mark.parametrize(
    "game, sweep, line", _DEVIATION_LINES, ids=[row[0] for row in _DEVIATION_LINES]
)
def test_every_deviation_verdict_fails_with_one_line_shape(monkeypatch, game, sweep, line):
    def losing(scenario, *subject):
        return strategies._verdict(1.0, {"integrate|x": 2.0})

    monkeypatch.setattr(harness, game, losing)
    assert getattr(harness, sweep)(1, 2).failures == (line,)



def test_budget_check_fails_with_one_line_per_breach(monkeypatch, example2):
    broken = replace(
        run_mechanism(example2),
        searcher_ledger={1: LedgerEntry(5.0, -1.0)},
        builder_ledger={0: BuilderEntry((), 0.0, refund=-2.0)},
        proposer_revenue=10.0,
    )
    monkeypatch.setattr(harness, "run_mechanism", lambda scenario: broken)
    assert harness.verify_budget_and_refunds(1, 0).failures == (
        "scenario 0: negative refund for [1, 0]",
        "scenario 0: outflow 7.0 exceeds inflow 5.0",
    )


def test_oracle_check_fails_with_one_line_per_scenario(monkeypatch):
    monkeypatch.setattr(harness, "block_building", lambda *args: ())
    monkeypatch.setattr(
        harness, "vcg_outcome", lambda bundles, coinbase: SimpleNamespace(total_bid=7.0)
    )
    assert harness.verify_oracle_equivalence(2, 0).failures == (
        "scenario 0: default 0.0 != oracle 7.0",
        "scenario 1: default 0.0 != oracle 7.0",
    )


def test_adoption_sweep_fails_with_one_line_per_breach(monkeypatch):
    report = AdoptionReport(
        mode="full-conflict",
        commit_proposer=1.0,
        best_alternative_proposer=3.0,
        second_highest_valuation=2.0,
        partitions_checked=0,
        commit_weakly_optimal=False,
        witness_partition=(3,),
    )
    monkeypatch.setattr(harness, "adoption_game", lambda scenario: report)
    assert harness.adoption_sweep(2, 0).failures == (
        "scenario 0: nonzero proposer under no-conflict",
        "scenario 1: commit pays 1.0, expected 2.0",
        "scenario 1: partition (3,) beats commit",
    )
