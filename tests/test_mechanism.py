"""Mechanism settlement: refunds, builder competition, ledgers, utilities."""

from __future__ import annotations

import pytest
from fractions import Fraction

from blockmech import harness
from blockmech.baselines import compare_algorithms, greedy_by_bid, greedy_by_density
from blockmech.conflict import get_conflict_groups
from blockmech.default_algo import block_building, counterfactual_blocks
from blockmech.fixtures import load_fixture
from blockmech.mechanism import (
    BUILDER_REGISTRY,
    BuilderAlgorithm,
    BuilderEntry,
    BuilderEnv,
    MechanismError,
    alternative_refund,
    builder_label,
    builder_utility,
    instantiate_builders,
    prepare,
    refund_default,
    run_mechanism,
    searcher_utility,
)
from blockmech.model import (
    BuilderSpec,
    CoinbaseLabel,
    ConstantBid,
    Scenario,
    TxRef,
    block_total_bid,
    one_time_label,
)
from blockmech.oracle import vcg_outcome
from blockmech.workload import PROFILES, generate_scenario, with_builders

from conftest import (
    canonical_context,
    key,
    make_bundle,
    make_scenario,
    rebid,
    rebid_scenario,
)

LABEL = CoinbaseLabel("test")


class _OverbidCopy(BuilderAlgorithm):
    """Copies the default block and adds a fixed premium to its value."""

    def __init__(self, premium: float):
        self.premium = premium

    def produce(self, bundles, env):
        block = block_building(bundles, env.k_cutoff, env.seed, env.label)
        return block, block_total_bid(block, bundles, env.label) + self.premium


def test_refund_default_example2(example2):
    bundles = example2.bundle_map()
    label = one_time_label(example2.seed)
    counter = counterfactual_blocks(bundles, 8, example2.seed, label)
    o_star = block_building(bundles, 8, example2.seed, label)
    assert refund_default(1, o_star, counter[1], bundles, label) == 70
    assert refund_default(2, o_star, counter[2], bundles, label) == 50


def test_refund_default_zero_for_irrelevant_bundle():
    # bundle 3 bids nothing and changes nothing when removed
    bundles = {
        1: make_bundle(1, 10, writes={key("k")}),
        2: make_bundle(2, 4, writes={key("k")}),
        3: make_bundle(3, 0, writes={key("k")}),
    }
    label = LABEL
    o_star = block_building(bundles, 8, 0, label)
    counter = counterfactual_blocks(bundles, 8, 0, label)
    assert refund_default(3, o_star, counter[3], bundles, label) == 0


def test_refund_default_rejects_foreign_bundle(example2):
    bundles = example2.bundle_map()
    with pytest.raises(MechanismError, match="core"):
        refund_default(9, (2, 1), (1, 2), bundles, LABEL)


def test_refunds_match_oracle_when_candidate_set_covers_omega():
    bundles = {
        1: make_bundle(1, 30, writes={key("k")}),
        2: make_bundle(2, 45, writes={key("k")}),
        3: make_bundle(3, 20, writes={key("k")}),
    }
    label = LABEL
    o_star = block_building(bundles, 8, 0, label)
    counter = counterfactual_blocks(bundles, 8, 0, label)
    exact = vcg_outcome(bundles, label)
    assert o_star == exact.winner
    for i in bundles:
        assert refund_default(i, o_star, counter[i], bundles, label) == exact.refunds[i]


def test_alternative_refund_weight_branch():
    # a colluder reports beta_minus = eps for its partner: weight = beta0
    beta0, eps = Fraction(150), Fraction(1, 1000)
    beta_star = beta0 + eps
    reported = {1: eps, 2: beta_star}
    assert alternative_refund(1, beta_star, reported, beta0, Fraction(0)) == beta0
    # zero marginal signal: beta_minus equal to beta_star
    assert alternative_refund(2, beta_star, reported, beta0, Fraction(0)) == 0


def test_alternative_refund_proportional_scaling():
    weights_source = {1: 40.0, 2: 40.0}  # beta_minus: beta_star - w
    refund_1 = alternative_refund(1, 100.0, weights_source, 60.0, 100.0)
    refund_2 = alternative_refund(2, 100.0, weights_source, 60.0, 100.0)
    # w = 60 each, sum 120 over the cap 100: scaled to 50/50
    assert refund_1 == 50 and refund_2 == 50


def test_degenerates_to_refund_based_outcome_without_builders(example2):
    outcome = run_mechanism(example2)
    assert outcome.winning_builder is None
    assert outcome.final_block == (2, 1)
    assert outcome.beta0 == 150
    assert {i: e.refund for i, e in outcome.searcher_ledger.items()} == {1: 70, 2: 50}
    assert outcome.proposer_revenue == 30
    assert outcome.total_inflow == outcome.total_outflow


def test_ledger_equals_manual_vcg_composition():
    scenario = generate_scenario(PROFILES["realistic"], 21)
    outcome = run_mechanism(scenario)
    bundles = scenario.bundle_map()
    label = one_time_label(scenario.seed)
    groups = get_conflict_groups(bundles)
    free = {next(iter(g.members)) for g in groups if len(g) == 1}
    core = {i: b for i, b in bundles.items() if i not in free}
    o_star = block_building(core, scenario.k_cutoff, scenario.seed, label)
    counter = counterfactual_blocks(core, scenario.k_cutoff, scenario.seed, label)
    for i in core:
        expected = refund_default(i, o_star, counter[i], core, label)
        assert outcome.searcher_ledger[i].refund == expected
    assert outcome.beta0 == block_total_bid(o_star, core, label)


def test_copy_default_tie_goes_to_default(example2):
    scenario = Scenario(
        bundles=example2.bundles,
        builders=(BuilderSpec("copy-default"),),
        k_cutoff=example2.k_cutoff,
        seed=example2.seed,
    )
    outcome = run_mechanism(scenario)
    assert outcome.beta_star == outcome.beta0 == 150
    assert outcome.winning_builder is None  # beta0 >= beta* resolves to default
    assert outcome.builder_ledger[0].payment == 0
    assert outcome.builder_ledger[0].refund == 0
    assert outcome.proposer_revenue == 30


def test_overbidding_builder_wins_with_epsilon_surplus(example2):
    outcome = run_mechanism(example2, builders=[_OverbidCopy(0.5)])
    assert outcome.winning_builder == 0
    assert outcome.beta_star == 150.5
    assert outcome.beta_prime == 0
    entry = outcome.builder_ledger[0]
    assert entry.payment == 150.5
    assert entry.refund == 0.5  # beta* - max(beta0, beta')
    # searcher refunds are the phase-1 values either way
    assert {i: e.refund for i, e in outcome.searcher_ledger.items()} == {1: 70, 2: 50}
    assert outcome.proposer_revenue == 30
    assert builder_utility(0, outcome) == 0  # paid epsilon above, got it back


def test_refunds_identical_whichever_case_fires(example2):
    default_wins = run_mechanism(example2)
    builder_wins = run_mechanism(example2, builders=[_OverbidCopy(7.0)])
    assert default_wins.winning_builder is None
    assert builder_wins.winning_builder == 0
    for i in example2.bundle_map():
        assert (
            default_wins.searcher_ledger[i].refund
            == builder_wins.searcher_ledger[i].refund
        )


class _BrokenBuilder(BuilderAlgorithm):
    def __init__(self, mode: str):
        self.mode = mode

    def produce(self, bundles, env):
        if self.mode == "foreign":
            return (999,), 10.0
        if self.mode == "duplicate":
            first = min(bundles)
            return (first, first), 10.0
        if self.mode == "negative":
            return (), -5.0
        raise RuntimeError("builder crashed")


@pytest.mark.parametrize("mode", ["foreign", "duplicate", "negative", "crash"])
def test_invalid_builders_are_disqualified_not_fatal(example2, mode):
    outcome = run_mechanism(example2, builders=[_BrokenBuilder(mode)])
    assert outcome.builder_ledger[0].disqualified
    assert outcome.builder_ledger[0].bid == 0
    assert outcome.winning_builder is None
    assert outcome.proposer_revenue == 30


class _MalformedBlockBuilder(BuilderAlgorithm):
    def __init__(self, block):
        self.block = block

    def produce(self, bundles, env):
        return self.block, 1.0


def test_malformed_blocks_are_disqualified_not_fatal(example2):
    # `tuple(None)` raises, and so does validating a block that holds an
    # unhashable id (a list): each must disqualify, not escape.
    builders = [_MalformedBlockBuilder(None), _MalformedBlockBuilder([[1]])]
    outcome = run_mechanism(example2, builders=builders)
    assert outcome.builder_ledger == {
        0: BuilderEntry((), 0.0, True),
        1: BuilderEntry((), 0.0, True),
    }
    assert outcome.winning_builder is None
    assert outcome.proposer_revenue == 30


def test_conflict_free_bundles_appended_by_hash_and_net_zero():
    contested = key("hot")
    core = [
        make_bundle(1, 30, writes={contested}),
        make_bundle(2, 20, writes={contested}),
    ]
    late = make_bundle(4, 9, writes={key("x")}, txs=(TxRef("0xzz", "t4"),))
    early = make_bundle(5, 11, writes={key("y")}, txs=(TxRef("0xaa", "t5"),))
    scenario = make_scenario(*core, late, early)
    outcome = run_mechanism(scenario)
    assert outcome.conflict_free == frozenset({4, 5})
    assert outcome.final_block[-2:] == (5, 4)  # ascending first-tx hash
    for i in (4, 5):
        entry = outcome.searcher_ledger[i]
        assert entry.net == 0
        assert entry.charge == entry.refund > 0


def test_conflict_free_net_zero_even_when_builder_wins():
    scenario = load_fixture("integration")
    outcome = run_mechanism(scenario, builders=[_OverbidCopy(3.0)])
    assert outcome.winning_builder == 0
    for i in outcome.conflict_free:
        assert outcome.searcher_ledger[i].net == 0


def test_second_price_surplus_for_truthful_winner():
    gated = make_bundle(
        1,
        bid=ConstantBid(100.0),
        writes={key("k")},
        txs=(TxRef("0x01", "t"),),
        gate=CoinbaseLabel("builder-0"),
    )
    plain = make_bundle(
        2, 80, writes={key("k")}, txs=(TxRef("0xff", "t2"),)
    )
    scenario = make_scenario(gated, plain, builders=(BuilderSpec("hash-min"),))
    outcome = run_mechanism(scenario)
    # the builder unlocks the gated bundle: beta* 100 against reserve beta0 80
    assert outcome.beta0 == 80
    assert outcome.beta_star == 100
    assert outcome.winning_builder == 0
    assert builder_utility(0, outcome) == 20
    assert outcome.total_inflow == outcome.total_outflow


def test_searcher_utility_values(example2):
    outcome = run_mechanism(example2)
    bundles = example2.bundle_map()
    assert searcher_utility(1, outcome, bundles) == 70  # 100 - 100 + 70
    assert searcher_utility(2, outcome, bundles) == 50


def test_searcher_utility_reads_the_valuation_whatever_the_map_bids(example2):
    # Bundle 1 reports half its valuation; its utility is its valuation in
    # the final context, from a map stating the report, the declared bid
    # (an equal but distinct object) or the valuation itself.
    truth = example2.bundle_map()[1].valuation
    reported = rebid_scenario(example2, {1: truth.scaled(0.5)})
    outcome = run_mechanism(reported)
    ctx = canonical_context(
        outcome.final_block, 1, reported.bundle_map(), outcome.final_coinbase
    )
    entry = outcome.searcher_ledger[1]
    assert entry.charge == truth.scaled(0.5).evaluate(ctx) < truth.evaluate(ctx)
    expected = truth.evaluate(ctx) - entry.charge + entry.refund
    valued = rebid(example2.bundle_map(), {1: truth})
    for bundles in (reported.bundle_map(), example2.bundle_map(), valued):
        assert searcher_utility(1, outcome, bundles) == expected


def test_conflict_free_truthful_utility_is_valuation():
    scenario = load_fixture("integration")
    outcome = run_mechanism(scenario)
    assert searcher_utility(3, outcome, scenario.bundle_map()) == 25


def test_excluded_bundle_with_zero_refund_has_zero_utility():
    bundles = [
        make_bundle(1, bid=ConstantBid(0.0), valuation=0, writes={key("k")}),
        make_bundle(2, 50, writes={key("k")}),
    ]
    scenario = make_scenario(*bundles)
    outcome = run_mechanism(scenario)
    assert 1 not in outcome.final_block or outcome.searcher_ledger[1].charge == 0
    assert searcher_utility(1, outcome, scenario.bundle_map()) == 0


def test_losing_builder_utility_zero(example2):
    scenario = Scenario(
        bundles=example2.bundles,
        builders=(BuilderSpec("empty"),),
        k_cutoff=example2.k_cutoff,
        seed=example2.seed,
    )
    outcome = run_mechanism(scenario)
    assert builder_utility(0, outcome) == 0


def test_unknown_builder_name_rejected():
    with pytest.raises(MechanismError, match="unknown builder"):
        instantiate_builders((BuilderSpec("no-such-algorithm"),))
    specs = (BuilderSpec("empty"), BuilderSpec("greedy-bid", {"bid": 1.0}))
    with pytest.raises(MechanismError, match=r"^builders\[1\]\.params: "):
        instantiate_builders(specs)
    with pytest.raises(MechanismError, match=r"^builders\[1\]\.name: unknown builder"):
        instantiate_builders(specs[:1] + (BuilderSpec("nope"),))


def test_builder_prime_defaults_to_zero_with_single_builder(example2):
    outcome = run_mechanism(example2, builders=[_OverbidCopy(1.0)])
    assert outcome.beta_prime == 0
    # effective winner payment is max(beta0, 0) = beta0
    entry = outcome.builder_ledger[0]
    assert entry.payment - entry.refund == outcome.beta0


def test_amounts_over_no_bundles_are_floats():
    # Every sum of amounts starts at 0.0, so a report never prints the int 0.
    empty = make_scenario()
    label = one_time_label(empty.seed)
    outcome = run_mechanism(empty)
    report = compare_algorithms(empty)
    amounts = {
        "beta0": outcome.beta0,
        "proposer_revenue": outcome.proposer_revenue,
        "total_inflow": outcome.total_inflow,
        "total_outflow": outcome.total_outflow,
        "block_total_bid": block_total_bid((), {}, label),
        "oracle proposer_revenue": vcg_outcome({}, label).proposer_revenue,
        "compare default": report.values["default"],
        "compare gap_absolute": report.gap_absolute,
    }
    assert {k: type(v) for k, v in amounts.items()} == dict.fromkeys(amounts, float)
    assert set(amounts.values()) == {0.0}


@pytest.mark.parametrize("index", range(8))
def test_budget_balance_and_nonnegative_refunds_random(index):
    names = ("realistic", "no-conflict", "full-conflict", "stress-large-groups")
    scenario = generate_scenario(PROFILES[names[index % 4]], 500 + index)
    lineups = ((), ("copy-default",), ("greedy-bid", "empty"), ("copy-default", "greedy-density", "half-default"))
    scenario = with_builders(scenario, lineups[index % 4])
    outcome = run_mechanism(scenario)
    for entry in outcome.searcher_ledger.values():
        assert entry.refund >= 0
    for entry in outcome.builder_ledger.values():
        assert entry.refund >= 0
    assert outcome.total_outflow <= outcome.total_inflow + 1e-9
    assert outcome.proposer_revenue >= -1e-9
    # generated scenarios bid their true valuation, so individual
    # rationality must hold for every searcher
    for i in scenario.bundle_map():
        assert searcher_utility(i, outcome, scenario.bundle_map()) >= -1e-9


# -- registry builders against a restatement of their rules ---------------


def _reference_produce(name, params, bundles, env):
    """What each registry name produces, spelled out one rule at a time:
    copy-default and half-default take the offered default block or rebuild
    it, the greedy names take their greedy block, hash-min/hash-max the
    bundle with the smallest/largest first tx hash; the bid is the block's
    total bid (halved for half-default), zero for empty, and the `bid`
    param for constant-bid."""

    def default():
        if env.default_block is not None:
            return env.default_block
        return block_building(bundles, env.k_cutoff, env.seed, env.label)

    def truthful(block):
        return block, block_total_bid(block, bundles, env.label)

    if name == "copy-default":
        return truthful(default())
    if name == "half-default":
        block = default()
        return block, block_total_bid(block, bundles, env.label) / 2.0
    if name == "greedy-bid":
        return truthful(greedy_by_bid(bundles, env.label))
    if name == "greedy-density":
        return truthful(greedy_by_density(bundles, env.label))
    if name == "empty":
        return (), 0.0
    if name == "constant-bid":
        return greedy_by_bid(bundles, env.label), float(params.get("bid", 0.0))
    assert name in ("hash-min", "hash-max")
    by_id = dict(bundles)
    if not by_id:
        return (), 0.0
    pick = (max if name == "hash-max" else min)(
        by_id, key=lambda i: (by_id[i].txs[0].tx_hash, i)
    )
    return truthful((pick,))


def _registry_inputs():
    """(core, default block) from the four fixtures, ten sweep-profile
    scenarios and an empty core; bids are the declared ones or every core
    bid scaled by a quarter."""
    scenarios = [
        load_fixture("example2"), load_fixture("deficit"), load_fixture("collusion"),
        load_fixture("integration"),
    ] + [generate_scenario(harness._SWEEP_PROFILE, seed) for seed in range(10)]
    out = [({}, ())]
    for scenario in scenarios:
        scaled = {i: b.bid.scaled(0.25) for i, b in scenario.bundle_map().items()}
        for reported in (scenario, rebid_scenario(scenario, scaled)):
            prepared = prepare(reported)
            out.append((prepared.core, prepared.default_block))
    return out


_REGISTRY_CASES = [(name, {}) for name in sorted(BUILDER_REGISTRY)] + [
    ("constant-bid", {"bid": 12.25}),
    ("constant-bid", {"bid": 0}),
]


@pytest.mark.parametrize(
    "name, params",
    _REGISTRY_CASES,
    ids=[name + "".join(f"-bid={v}" for v in p.values()) for name, p in _REGISTRY_CASES],
)
def test_registry_builders_equal_their_rules(name, params):
    builder = instantiate_builders((BuilderSpec(name, params),))[0]
    checked = 0
    for core, default_block in _registry_inputs():
        # an offered block is taken as it is, even one a rebuild would not give
        for offered in (default_block, default_block[::-1], None):
            for index in (0, 2):
                env = BuilderEnv(builder_label(index), 8, 5, offered)
                block, bid = builder.produce(core, env)
                ref_block, ref_bid = _reference_produce(name, params, core, env)
                assert tuple(block) == tuple(ref_block)
                assert float(bid).hex() == float(ref_bid).hex()
                checked += 1
    assert checked == 6 * (1 + 2 * 14)


def test_registry_builders_share_one_class():
    classes = {type(factory({})) for factory in BUILDER_REGISTRY.values()}
    assert len(classes) == 1
    (cls,) = classes
    assert issubclass(cls, BuilderAlgorithm) and "produce" in vars(cls)
