"""The full block-building mechanism, in three phases.

`prepare` sets conflict-free bundles aside: they are appended to whatever
block wins and always refunded their own bid, so their net payment is zero.
It then makes the default algorithm's one pass over the remaining core
under a one-time coinbase label: each conflict group's enumeration yields
its sub-block of the default block and, per member, its best sub-block with
that member's bid zeroed. That pass fixes every searcher refund, group by
group. `compete` runs the builder algorithms on the same core, one after
another in the calling thread. `settle` runs the auction: the best builder
bid faces a second-price rule with the default block's value as the
reserve. Searcher refunds are identical no matter which side wins.
`run_mechanism` is the composition of the three; a deviation that moves
only a builder's bid, or a conflict-free bundle's bid or gate, changes
neither of the first two phases, so deviation sweeps reuse them.

Settlement has one ledger path. The auction picks the core block, the
coinbase label and the reserve (β0 when the default wins, max(β0, β′) when
a builder does); the final block, the charges, both ledgers and the
proposer's revenue (reserve minus the refunds) follow from those three.

An alternative refund rule driven by builder-reported counterfactual bids is
also provided. It is deliberately vulnerable to builder-searcher collusion
and exists only so the demos can exhibit the exploit; `run_mechanism` never
uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from .baselines import greedy_by_bid, greedy_by_density
from .conflict import conflict_free_set, get_conflict_groups
from .default_algo import block_building, resolve_group_with_counterfactuals
from .model import (
    Block,
    BuilderSpec,
    CoinbaseLabel,
    GatedBid,
    Scenario,
    add_up,
    block_bids,
    block_total_bid,
    builder_label,
    one_time_label,
    validate_builder_block,
    with_bids,
)


class MechanismError(ValueError):
    pass


@dataclass(frozen=True)
class BuilderEnv:
    """Per-run context handed to a builder algorithm.

    `default_block` is the run's default block when no core bundle's
    execution depends on the coinbase label, so that rerunning the default
    algorithm under the builder's label would rebuild it; otherwise None.
    """

    label: CoinbaseLabel
    k_cutoff: int
    seed: int
    default_block: Optional[Block] = None


class BuilderAlgorithm:
    """A competing block producer.

    `produce` returns a candidate block over the given id -> Bundle map
    plus the bid the builder is willing to pay if its block is selected;
    each bundle's bid is its `bid` field. Implementations must be pure
    functions of their inputs.
    """

    def produce(self, bundles: dict, env: BuilderEnv) -> tuple:
        raise NotImplementedError


def _default_block(bundles, env: BuilderEnv) -> Block:
    if env.default_block is not None:
        return env.default_block
    return block_building(bundles, env.k_cutoff, env.seed, env.label)


def _by_bid(bundles, env) -> Block:
    return greedy_by_bid(bundles, env.label)


def _hash_extreme(pick):
    """Block rule: the bundle whose first tx hash is `pick` (min or max)."""

    def block_rule(bundles, env) -> Block:
        if not bundles:
            return ()
        return (pick(bundles, key=lambda i: (bundles[i].txs[0].tx_hash, i)),)

    return block_rule


class _RegisteredBuilder(BuilderAlgorithm):
    """A registry entry: the block its block rule returns, bid at the block's
    total bid times `scale`, or at `fixed_bid` when that is set. The registry
    key is its name."""

    def __init__(self, block_rule, scale=1, fixed_bid=None):
        self.block_rule, self.scale, self.fixed_bid = block_rule, scale, fixed_bid

    def produce(self, bundles, env):
        block = self.block_rule(bundles, env)
        if self.fixed_bid is not None:
            return block, self.fixed_bid
        return block, block_total_bid(block, bundles, env.label) * self.scale


# Every rule runs under the builder's own label. `empty` and `half-default`
# are dominated stubs: neither can ever outbid the default block.
BUILDER_REGISTRY = {
    "copy-default": lambda params: _RegisteredBuilder(_default_block),
    "greedy-bid": lambda params: _RegisteredBuilder(_by_bid),
    "greedy-density": lambda params: _RegisteredBuilder(
        lambda b, env: greedy_by_density(b, env.label)
    ),
    "empty": lambda params: _RegisteredBuilder(lambda *_: (), fixed_bid=0.0),
    "half-default": lambda params: _RegisteredBuilder(_default_block, scale=0.5),
    "constant-bid": lambda params: _RegisteredBuilder(
        _by_bid, fixed_bid=float(params.get("bid", 0.0))
    ),
    "hash-min": lambda params: _RegisteredBuilder(_hash_extreme(min)),
    "hash-max": lambda params: _RegisteredBuilder(_hash_extreme(max)),
}


# The params a registered builder reads; it refuses any other.
_BUILDER_PARAMS = {"constant-bid": ("bid",)}


def instantiate_builders(specs: Sequence[BuilderSpec]) -> list:
    """The line-up the specs name. An unknown name or an unread param is a
    MechanismError that names the spec's position, as scenario and profile
    files are checked with this at load."""
    out = []
    for n, spec in enumerate(specs):
        factory = BUILDER_REGISTRY.get(spec.name)
        if factory is None:
            raise MechanismError(
                f"builders[{n}].name: unknown builder algorithm '{spec.name}'"
            )
        params = dict(spec.params)
        for key in params:
            if key not in _BUILDER_PARAMS.get(spec.name, ()):
                raise MechanismError(
                    f"builders[{n}].params: {spec.name} takes no param '{key}'"
                )
        out.append(factory(params))
    return out


@dataclass(frozen=True)
class LedgerEntry:
    charge: float
    refund: float

    @property
    def net(self) -> float:
        return self.charge - self.refund


@dataclass(frozen=True)
class BuilderEntry:
    """One builder's line: `compete` states its block and bid, and `settle`
    fills in the winner's payment and refund."""

    block: Block
    bid: float
    disqualified: bool = False
    payment: float = 0.0
    refund: float = 0.0


@dataclass(frozen=True)
class MechanismOutcome:
    final_block: Block
    final_coinbase: CoinbaseLabel
    winning_builder: Optional[int]  # None when the default algorithm wins
    beta0: float
    beta_star: float
    beta_prime: float
    default_block: Block
    conflict_free: frozenset
    searcher_ledger: dict  # bundle id -> LedgerEntry
    builder_ledger: dict  # builder index -> BuilderEntry
    proposer_revenue: float

    @property
    def total_inflow(self) -> float:
        """Everything the mechanism collects: searcher charges in the
        default-wins case, the winning builder's payment otherwise."""
        if self.winning_builder is None:
            return add_up(e.charge for e in self.searcher_ledger.values())
        return add_up(e.payment for e in self.builder_ledger.values())

    @property
    def total_outflow(self) -> float:
        return (
            add_up(e.refund for e in self.searcher_ledger.values())
            + add_up(e.refund for e in self.builder_ledger.values())
            + self.proposer_revenue
        )


def refund_default(
    i: int,
    o_star: Block,
    o_minus_i: Block,
    bundles: dict,
    coinbase: CoinbaseLabel,
) -> float:
    """Refund fixed by the default run: total bid of the default block minus
    what the others collect in the counterfactual block built with i's bid
    zeroed. Non-negative, and never more than i's own bid in the block.

    Test reference for the group-local refunds of `run_mechanism`, which
    never calls it: this route evaluates two full blocks per bundle."""
    if i not in bundles:
        raise MechanismError(
            f"bundle {i} is not in the core set; conflict-free bundles are "
            "refunded their own bid, not through this rule"
        )
    total = block_total_bid(o_star, bundles, coinbase)
    others = block_bids(o_minus_i, bundles, coinbase)
    others_total = add_up(v for j, v in others.items() if j != i)
    return total - others_total


def alternative_refund(i: int, beta_star, beta_minus: Mapping, beta0, beta_prime):
    """Refund derived from the winning builder's self-reported counterfactual
    bids (the marginal weight of bundle i is beta_star - beta_minus[i]).

    Weights are paid outright while their sum fits under max(beta0,
    beta_prime); past the cap they are scaled down proportionally, which
    keeps every refund non-negative and the total within the cap. Exact on
    `Fraction`s, which builtin `sum` keeps (`model.add_up` makes floats).

    Deliberately vulnerable: a colluding builder can fabricate beta_minus to
    inflate one bundle's weight. Demo use only.
    """
    weights = {j: max(0 * beta_star, beta_star - bm) for j, bm in beta_minus.items()}
    cap = max(beta0, beta_prime)
    total = sum(weights.values())
    if total <= cap:
        return weights[i]
    return weights[i] * cap / total


def _append_conflict_free(core_block: Block, free_ids, bundles: dict) -> Block:
    tail = sorted(free_ids, key=lambda i: (bundles[i].txs[0].tx_hash, i))
    return tuple(core_block) + tuple(tail)


def _label_invariant(core: dict) -> bool:
    """True when no core bundle has a gate or a gated bid: then every label
    sees the same bids and writes."""
    for b in core.values():
        if b.gate is not None or isinstance(b.bid, GatedBid):
            return False
    return True


@dataclass(frozen=True)
class Prepared:
    """What the default pass fixes before any builder runs. No builder's
    bid or block, nor any conflict-free bundle's bid or gate, can change
    it: the default pass and every builder see only the core. A sweep
    settles one prepare with such a change stated in its `scenario`."""

    scenario: Scenario
    conflict_free: frozenset
    core: dict  # bundle id -> Bundle: what the builders compete over
    default_block: Block
    beta0: float
    refunds: dict  # core bundle id -> refund, in id order


def prepare(scenario: Scenario) -> Prepared:
    """The default pass: one pass over the core's conflict groups gives the
    default block and every refund. Groups are separable, so bundle i's
    refund is its group's best value minus what the other members collect
    in the group's best sub-block with i's bid zeroed: the other groups
    would add the same amount to both terms."""
    by_id = scenario.bundle_map()
    groups = get_conflict_groups(by_id)
    free = conflict_free_set(groups)
    core = {i: b for i, b in by_id.items() if i not in free}

    # Default run under a fresh one-time label; refunds are fixed here and
    # never revisited.
    label0 = one_time_label(scenario.seed)
    resolved = [
        resolve_group_with_counterfactuals(
            g, core, scenario.k_cutoff, scenario.seed, label0
        )
        for g in groups
        if len(g) > 1
    ]
    o_star = tuple(i for res, _ in resolved for i in res.sub_block)
    group_refunds = {
        i: res.value - others
        for res, counterfactuals in resolved
        for i, (_, others) in counterfactuals.items()
    }
    return Prepared(
        scenario=scenario,
        conflict_free=free,
        core=core,
        default_block=o_star,
        beta0=block_total_bid(o_star, core, label0),
        refunds={i: group_refunds[i] for i in core},
    )


def compete(prepared: Prepared, builders) -> dict:
    """Builder competition on the core, each builder under its own fixed
    label; `builders` None means the scenario's registry-named line-up. Returns
    {index: BuilderEntry}, none of them paid yet: a builder that raises,
    returns a malformed or invalid block, or bids anything but a finite
    non-negative number is disqualified with an empty block and a zero bid.
    When the core is label-invariant, every builder is handed the default
    block."""
    scenario = prepared.scenario
    if builders is None:
        builders = instantiate_builders(scenario.builders)
    reuse = prepared.default_block if _label_invariant(prepared.core) else None
    entries = {}
    for index, algo in enumerate(builders):
        env = BuilderEnv(builder_label(index), scenario.k_cutoff, scenario.seed, reuse)
        try:
            block, beta = algo.produce(prepared.core, env)
            block = tuple(block)
            valid = (
                validate_builder_block(block, prepared.core) is None
                and isinstance(beta, (int, float))
                and math.isfinite(beta)
                and beta >= 0
            )
        except Exception:  # a raising builder, or a block that is not a sequence of ids
            valid = False
        if valid:
            entries[index] = BuilderEntry(block, float(beta))
        else:
            entries[index] = BuilderEntry((), 0.0, True)
    return entries


def settle(prepared: Prepared, entries: Mapping) -> MechanismOutcome:
    """The auction over `compete`'s entries, then the one ledger path: the
    entries pass to the builder ledger as they are, except that the winner's
    gains its payment and refund. Searchers are charged the bids stated in
    `prepared.scenario`."""
    by_id = prepared.scenario.bundle_map()
    free, o_star, beta0 = prepared.conflict_free, prepared.default_block, prepared.beta0
    bids = {index: e.bid for index, e in entries.items() if not e.disqualified}
    top = max(bids, key=bids.get, default=None)
    beta_star = bids.pop(top, 0.0)
    beta_prime = max([0.0, *bids.values()])

    # Second-price rule with the default block's value as the reserve; the
    # default wins ties. Searchers pay their bids in the final block (to the
    # mechanism, or to the winning builder, which pays its bid plus the
    # conflict-free tail's bids and is refunded its surplus over the
    # reserve). Appending the tail cannot change any core bundle's context,
    # and core refunds are the default run's, whoever wins.
    if top is None or beta0 >= beta_star:
        label = one_time_label(prepared.scenario.seed)
        winner, core_block, reserve = None, o_star, beta0
    else:
        winner, label = top, builder_label(top)
        core_block, reserve = entries[top].block, max(beta0, beta_prime)
    final = _append_conflict_free(core_block, free, by_id)
    charges = block_bids(final, by_id, label)
    free_total = add_up(charges.get(i, 0.0) for i in free)
    searcher_ledger = {
        i: LedgerEntry(
            charge=charges.get(i, 0.0),
            refund=charges.get(i, 0.0) if i in free else prepared.refunds[i],
        )
        for i in by_id
    }
    builder_ledger = dict(entries)
    if winner is not None:
        builder_ledger[winner] = replace(
            entries[winner], payment=beta_star + free_total, refund=beta_star - reserve
        )
    return MechanismOutcome(
        final_block=final,
        final_coinbase=label,
        winning_builder=winner,
        beta0=beta0,
        beta_star=beta_star,
        beta_prime=beta_prime,
        default_block=o_star,
        conflict_free=free,
        searcher_ledger=searcher_ledger,
        builder_ledger=builder_ledger,
        proposer_revenue=reserve - add_up(prepared.refunds.values()),
    )


def run_mechanism(
    scenario: Scenario,
    builders: Optional[Sequence[BuilderAlgorithm]] = None,
) -> MechanismOutcome:
    """Execute the full mechanism on a scenario: `prepare`, `compete`, `settle`.

    Every searcher reports the `bid` of its bundle in the scenario; a
    misreport is a scenario with that bid replaced (`model.with_bids`).
    `builders` optionally replaces the scenario's registry-named line-up."""
    prepared = prepare(scenario)
    return settle(prepared, compete(prepared, builders))


def searcher_utility(i: int, outcome: MechanismOutcome, bundles: dict) -> float:
    """Bundle i's `valuation` in its final-block context, whatever it bid,
    minus its net payment. A map in which i already bids its valuation is
    read as it is, so a sweep builds that map once."""
    truth = bundles[i].valuation
    if bundles[i].bid is not truth:
        bundles = with_bids(bundles, {i: truth})
    values = block_bids(outcome.final_block, bundles, outcome.final_coinbase)
    entry = outcome.searcher_ledger[i]
    return values.get(i, 0.0) - entry.charge + entry.refund


def builder_utility(j: int, outcome: MechanismOutcome) -> float:
    """Collected searcher payments minus net payment for the winner; losers
    pay and receive nothing."""
    if outcome.winning_builder != j:
        return 0.0
    collected = add_up(e.charge for e in outcome.searcher_ledger.values())
    entry = outcome.builder_ledger[j]
    return collected - entry.payment + entry.refund
