"""Executable checks of the mechanism's game-theoretic properties.

Deviation sweeps are grid-based empirical comparisons over finite misreport
grids, not proofs over the continuum of bid functions; the `verify` report
says so in its `note` (see `cli.py`). A misreport is stated as a scenario
whose subject bundle carries the misreported `bid` (`model.with_bids`);
utilities are always taken against the bundle's `valuation`.
The demos exhibit three known failure modes on self-contained fixtures: the
collusion exploit against the alternative refund rule, the budget deficit a
"fully ideal" mechanism would run, and refund inflation through bundle
splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .conflict import conflicts, get_conflict_groups
from .fixtures import load_fixture, sybil_fixture
from .mechanism import (
    BuilderEntry,
    alternative_refund,
    builder_label,
    builder_utility,
    compete,
    prepare,
    run_mechanism,
    searcher_utility,
    settle,
)
from .model import (
    ExecutionContext,
    Scenario,
    TableBid,
    ZERO_BID,
    add_up,
    block_bids,
    block_total_bid,
    one_time_label,
    with_bids,
)

ABS_TOLERANCE = 1e-9

SCALE_GRID = (0.0, 0.25, 0.5, 2.0, 4.0)

BUILDER_OFFSET_GRID = (-16.0, -4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 4.0, 16.0)

INTEGRATION_OFFSET_GRID = (-4.0, 0.0, 4.0)

COLLUSION_EPSILONS = (Fraction(1, 10**6), Fraction(1, 10**3), Fraction(1))

ADOPTION_PARTITION_LIMIT = 6


@dataclass(frozen=True)
class DeviationReport:
    truthful_utility: float
    best_deviation_utility: float
    dominant: bool
    witness: Optional[str]
    deviations: dict  # label -> utility


def standard_bid_transforms(fn) -> list:
    """Misreport grid for one bid function: multiplicative scalings plus,
    for small tables, per-context overrides."""
    out = [(f"scale:{c:g}", fn.scaled(c)) for c in SCALE_GRID]
    if isinstance(fn, TableBid) and len(fn.entries) <= 6:
        for key in sorted(fn.entries):
            shown = key or "<head>"
            zeroed = dict(fn.entries)
            zeroed[key] = 0.0
            out.append((f"zero-entry:{shown}", TableBid(zeroed, fn.default)))
            doubled = dict(fn.entries)
            doubled[key] = doubled[key] * 2.0
            out.append((f"double-entry:{shown}", TableBid(doubled, fn.default)))
        out.append(("zero-default", TableBid(dict(fn.entries), 0.0)))
    return out


def _verdict(truthful: float, deviations: dict) -> DeviationReport:
    """Truthful utility against the best grid deviation, within tolerance."""
    best = max(deviations.values(), default=truthful)
    dominant = truthful >= best - ABS_TOLERANCE
    return DeviationReport(
        truthful_utility=truthful,
        best_deviation_utility=max(best, truthful),
        dominant=dominant,
        witness=None if dominant else max(deviations, key=deviations.get),
        deviations=deviations,
    )


def _rebid(scenario: Scenario, i: int, bid_fn) -> Scenario:
    """The scenario with bundle i reporting `bid_fn`."""
    rebid = with_bids(scenario.bundle_map(), {i: bid_fn})
    return replace(scenario, bundles=tuple(rebid.values()))


def searcher_deviation_sweep(scenario: Scenario, i: int) -> DeviationReport:
    """Utility of bidding the true valuation versus every grid misreport:
    one mechanism run on a rebuilt scenario per reported bid function.

    Utilities are always computed against the true valuation; only the
    reported bid changes.
    """
    bundles = scenario.bundle_map()
    truth = bundles[i].valuation
    valued = with_bids(bundles, {i: truth})

    def utility(bid_fn) -> float:
        outcome = run_mechanism(_rebid(scenario, i, bid_fn))
        return searcher_utility(i, outcome, valued)

    truthful = utility(truth)
    deviations = {
        label: utility(fn) for label, fn in standard_bid_transforms(truth)
    }
    return _verdict(truthful, deviations)


def _shifted(entries: dict, j: int, offset: float) -> dict:
    """`compete` entries with builder j's bid shifted by `offset` (clamped at
    zero) and its block kept; a disqualified entry stays as it is."""
    if j not in entries:
        raise ValueError(f"no builder at index {j}")
    entry = entries[j]
    if entry.disqualified or offset == 0.0:
        return entries
    return {**entries, j: replace(entry, bid=max(0.0, entry.bid + offset))}


def builder_deviation_sweep(scenario: Scenario, j: int) -> DeviationReport:
    """Second-price sanity sweep: shift builder j's bid around its truthful
    value, keeping its block fixed. A bid moves neither the default pass
    nor any block, so every offset settles the same prepare and compete."""
    prepared = prepare(scenario)
    entries = compete(prepared, None)

    def utility(offset: float) -> float:
        return builder_utility(j, settle(prepared, _shifted(entries, j, offset)))

    truthful = utility(0.0)
    deviations = {
        f"offset:{o:+g}": utility(o) for o in BUILDER_OFFSET_GRID if o != 0.0
    }
    return _verdict(truthful, deviations)


def integration_game(scenario: Scenario, i: int, j: int) -> DeviationReport:
    """Participate-vs-integrate meta-game for a conflict-free bundle.

    Integration is modeled as gating the bundle on the builder's coinbase
    label: under every other algorithm it is a no-op. The desired cell is
    (participate, truthful bid, truthful builder bid); dominance is judged
    on the pair's joint utility, and `deviations` holds every cell, the
    desired one included.
    """
    prepared = prepare(scenario)
    if i not in prepared.conflict_free:
        raise ValueError(f"bundle {i} is not conflict-free; the claim only covers S")
    bundles = scenario.bundle_map()
    truth = bundles[i].valuation
    gated = replace(bundles[i], gate=builder_label(j))
    integrate = replace(
        scenario, bundles=tuple(gated if b.id == i else b for b in scenario.bundles)
    )

    # The subject is conflict-free, so neither its bid nor its gate reaches
    # the default pass or a builder: one prepare and compete serve both
    # modes, and each cell settles them with its mode's scenario and the
    # subject's bid replaced.
    entries = compete(prepared, None)
    table = {}
    for mode, stated in (("participate", scenario), ("integrate", integrate)):
        valued = with_bids(stated.bundle_map(), {i: truth})
        for bid_label, bid_fn in [("truthful", truth)] + standard_bid_transforms(truth):
            reported = replace(prepared, scenario=_rebid(stated, i, bid_fn))
            for offset in INTEGRATION_OFFSET_GRID:
                outcome = settle(reported, _shifted(entries, j, offset))
                table[f"{mode}|bid={bid_label}|builder={offset:+g}"] = searcher_utility(
                    i, outcome, valued
                ) + builder_utility(j, outcome)
    desired = table["participate|bid=truthful|builder=+0"]
    return _verdict(desired, table)


@dataclass(frozen=True)
class CollusionReport:
    subject: int
    beta0: float
    honest_refund: float
    honest_utility: float
    honest_proposer: float
    per_epsilon: tuple  # one dict per epsilon
    exploit_holds: bool
    deployed_rule_unaffected: bool


def collusion_demo(scenario: Optional[Scenario] = None) -> CollusionReport:
    """Exhibit the collusion exploit against the alternative refund rule.

    A builder clones the default block, overbids it by epsilon, and reports
    a fabricated counterfactual bid of epsilon for its partner bundle (and
    its full bid for everyone else). Under the deployed refund rule nothing
    changes for the partner; under the alternative rule the partner's
    refund jumps to the whole default-block value. The alternative-rule
    arithmetic runs in exact rationals so the comparison is exact for every
    epsilon.
    """
    if scenario is None:
        scenario = load_fixture("collusion")
    bundles = scenario.bundle_map()
    prepared = prepare(scenario)
    entries = compete(prepared, None)
    honest = settle(prepared, entries)
    if honest.winning_builder is not None or honest.beta_star >= honest.beta0:
        raise ValueError(
            "collusion demo needs a scenario where the default strictly "
            "outperforms every registered builder"
        )
    core = [b for b in sorted(bundles) if b not in honest.conflict_free]
    subject = core[0]
    valued = with_bids(bundles, {subject: bundles[subject].valuation})
    beta0 = honest.beta0
    honest_refund = honest.searcher_ledger[subject].refund
    honest_utility = searcher_utility(subject, honest, bundles)

    colluder = len(entries)  # index of a builder appended to the line-up
    rows = []
    eq1_ok = True
    exploit_ok = True
    for eps in COLLUSION_EPSILONS:
        bid = float(Fraction(beta0) + eps)
        rigged = settle(
            prepared, {**entries, colluder: BuilderEntry(honest.default_block, bid)}
        )
        exploit_ok &= rigged.winning_builder == colluder
        # Deployed rule: phase-1 refunds ignore builder reports entirely.
        eq1_refund = rigged.searcher_ledger[subject].refund
        eq1_ok &= eq1_refund == honest_refund

        # Alternative rule, on the colluder's fabricated reports, in exact
        # arithmetic: w_subject = (beta0 + eps) - eps, w_other = 0.
        beta_star = Fraction(beta0) + eps
        reported = {
            k: (eps if k == subject else beta_star) for k in core
        }
        refunds2 = {
            k: alternative_refund(
                k, beta_star, reported, Fraction(beta0), Fraction(rigged.beta_prime)
            )
            for k in core
        }
        realized = block_bids(rigged.final_block, valued, rigged.final_coinbase)
        v_i = Fraction(realized.get(subject, 0.0))
        charge = Fraction(rigged.searcher_ledger[subject].charge)
        exploit_utility = v_i - charge + refunds2[subject]
        gain = exploit_utility - Fraction(honest_utility)
        proposer_after = max(Fraction(beta0), Fraction(rigged.beta_prime)) - sum(
            refunds2.values()
        )
        exploit_ok &= refunds2[subject] == Fraction(beta0) and gain > 0
        rows.append(
            {
                "epsilon": str(eps),
                "eq1_refund": eq1_refund,
                "eq2_refund": float(refunds2[subject]),
                "exploit_utility": float(exploit_utility),
                "utility_gain": float(gain),
                "proposer_after": float(proposer_after),
                "other_searcher_refunds": {
                    str(k): float(refunds2[k]) for k in core if k != subject
                },
            }
        )
    return CollusionReport(
        subject=subject,
        beta0=beta0,
        honest_refund=honest_refund,
        honest_utility=honest_utility,
        honest_proposer=honest.proposer_revenue,
        per_epsilon=tuple(rows),
        exploit_holds=exploit_ok,
        deployed_rule_unaffected=eq1_ok,
    )


@dataclass(frozen=True)
class DeficitReport:
    hypothetical_refunds: dict
    hypothetical_collected: float
    hypothetical_deficit: float
    actual_inflow: float
    actual_outflow: float
    actual_proposer: float
    actual_balanced: bool


def budget_deficit_demo() -> DeficitReport:
    """Why exact marginal refunds and second-price builder charging cannot
    coexist with budget balance.

    The hypothetical mechanism takes the builders' blocks and bids from the
    deployed run, charges the winner the second highest bid, and refunds
    each bundle its full marginal contribution across all algorithms; on
    the fixture it collects 1 and pays 99. The deployed run balances.
    """
    scenario = load_fixture("deficit")
    bundles = scenario.bundle_map()
    actual = run_mechanism(scenario)
    refunds = {}
    for i in sorted(bundles):
        zeroed = with_bids(bundles, {i: ZERO_BID})
        best_without = 0.0
        for index, entry in actual.builder_ledger.items():
            value = block_total_bid(entry.block, zeroed, builder_label(index))
            best_without = max(best_without, value)
        refunds[i] = actual.beta_star - best_without

    collected = actual.beta_prime  # effective second-price charge on the winner
    paid = add_up(refunds.values())
    return DeficitReport(
        hypothetical_refunds=refunds,
        hypothetical_collected=collected,
        hypothetical_deficit=paid - collected,
        actual_inflow=actual.total_inflow,
        actual_outflow=actual.total_outflow,
        actual_proposer=actual.proposer_revenue,
        actual_balanced=actual.total_inflow >= actual.total_outflow - ABS_TOLERANCE,
    )


@dataclass(frozen=True)
class SybilReport:
    subject: int
    refund_before: float
    refund_after: float
    net_before: float
    net_after: float
    proposer_before: float
    proposer_after: float
    inflated: bool


def sybil_demo(
    scenario: Optional[Scenario] = None,
    subject: Optional[int] = None,
    parts: Optional[tuple] = None,
) -> SybilReport:
    """Split one bundle into mutually compatible parts and compare refunds.

    The parts must jointly cover the subject's declared footprint and their
    head-of-block bids must sum to the subject's; refunds are then compared
    before and after the split.
    """
    if scenario is None:
        scenario, subject, parts = sybil_fixture()
    bundles = scenario.bundle_map()
    original = bundles[subject]
    label = one_time_label(scenario.seed)
    head = ExecutionContext((), label)
    if frozenset().union(*[p.writes for p in parts]) != original.writes:
        raise ValueError("split parts must jointly cover the subject's writes")
    if frozenset().union(*[p.reads for p in parts]) != original.reads:
        raise ValueError("split parts must jointly cover the subject's reads")
    if add_up(p.bid.evaluate(head) for p in parts) != original.bid.evaluate(head):
        raise ValueError("split parts' bids must sum to the subject's bid")

    before = run_mechanism(scenario)
    after_scenario = replace(
        scenario,
        bundles=tuple(b for b in scenario.bundles if b.id != subject) + tuple(parts),
    )
    after = run_mechanism(after_scenario)
    part_ids = [p.id for p in parts]
    refund_before = before.searcher_ledger[subject].refund
    refund_after = add_up(after.searcher_ledger[i].refund for i in part_ids)
    net_before = before.searcher_ledger[subject].net
    net_after = add_up(after.searcher_ledger[i].net for i in part_ids)
    return SybilReport(
        subject=subject,
        refund_before=refund_before,
        refund_after=refund_after,
        net_before=net_before,
        net_after=net_after,
        proposer_before=before.proposer_revenue,
        proposer_after=after.proposer_revenue,
        inflated=refund_after > refund_before,
    )


class AdoptionScopeError(ValueError):
    """Scenario outside the two structures the adoption claim covers."""


@dataclass(frozen=True)
class AdoptionReport:
    mode: str  # "no-conflict" | "full-conflict"
    commit_proposer: float
    best_alternative_proposer: float
    second_highest_valuation: float
    partitions_checked: int
    commit_weakly_optimal: bool
    witness_partition: Optional[tuple]


def _second_highest(values) -> float:
    vs = sorted(values, reverse=True)
    return vs[1] if len(vs) >= 2 else 0.0


def classify_adoption(scenario: Scenario) -> str:
    bundles = scenario.bundle_map()
    groups = get_conflict_groups(bundles)
    if all(len(g) == 1 for g in groups):
        return "no-conflict"
    whole = len(groups) == 1 and len(groups[0]) == len(bundles)
    exclusive = all(
        isinstance(b.bid, TableBid)
        and set(b.bid.entries) == {""}
        and b.bid.default == 0.0
        and b.gate is None
        for b in bundles.values()
    )
    ids = sorted(bundles)
    pairwise = all(
        conflicts(bundles[a], bundles[b])
        for n, a in enumerate(ids)
        for b in ids[n + 1 :]
    )
    if whole and exclusive and pairwise:
        return "full-conflict"
    raise AdoptionScopeError(
        "adoption analysis covers only no-conflict or full-conflict scenarios"
    )


def adoption_game(scenario: Scenario) -> AdoptionReport:
    """Commit-vs-build-and-choose outcome for the proposer.

    The default algorithm is the only one in play, so registered builders
    are stripped. Under no conflict every bid is fully refunded and both
    branches pay the proposer nothing. Under full conflict committing pays
    the second-highest valuation, and every way of privately withholding a
    subset is checked exhaustively and pays at most that.
    """
    mode = classify_adoption(scenario)
    base = replace(scenario, builders=())
    bundles = base.bundle_map()
    commit = run_mechanism(base).proposer_revenue

    if mode == "no-conflict":
        # Searchers' best response to build-and-choose is still to submit to
        # the mechanism, which refunds everything: zero either way.
        return AdoptionReport(
            mode=mode,
            commit_proposer=commit,
            best_alternative_proposer=commit,
            second_highest_valuation=0.0,
            partitions_checked=0,
            commit_weakly_optimal=True,
            witness_partition=None,
        )

    ids = sorted(bundles)
    if len(ids) > ADOPTION_PARTITION_LIMIT:
        raise AdoptionScopeError(
            f"exhaustive partition search capped at {ADOPTION_PARTITION_LIMIT} bundles"
        )
    head = ExecutionContext((), one_time_label(base.seed))
    head_value = {i: bundles[i].valuation.evaluate(head) for i in ids}
    v2_all = _second_highest(head_value.values())

    best_alt = 0.0
    witness = None
    count = 0
    for mask in range(2 ** len(ids)):
        sent_away = [i for n, i in enumerate(ids) if mask >> n & 1]
        kept = [i for i in ids if i not in sent_away]
        # First-price equilibrium on the withheld side, mechanism second
        # price on the submitted side; the proposer takes the better one.
        alt = max(
            _second_highest([head_value[i] for i in sent_away]),
            _second_highest([head_value[i] for i in kept]),
        )
        count += 1
        if alt > best_alt:
            best_alt, witness = alt, tuple(sent_away)
    return AdoptionReport(
        mode=mode,
        commit_proposer=commit,
        best_alternative_proposer=best_alt,
        second_highest_valuation=v2_all,
        partitions_checked=count,
        commit_weakly_optimal=commit >= best_alt,
        witness_partition=witness if best_alt > commit else None,
    )
