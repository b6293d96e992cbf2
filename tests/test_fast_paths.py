"""Differential tests pinning each fast path to a slow reference route.

- group-local refunds of `run_mechanism` against `refund_default` over
  `counterfactual_blocks`;
- the indexed `model.block_bids` against a scan of every placed bundle;
- the heap-ordered greedies against the quadratic greedy kept below;
- builders reusing the default block against ones that rebuild it;
- the prefix-tree walk of `default_algo` against a per-candidate
  `block_bids` scan, and the oracle built on it against a `full_omega` +
  `block_bids` loop;
- the walk's transcript against the normal forms of `candidate_set`, with
  commuting bundles derived from the declared read and write sets;
- the bound-pruned walk against the unpruned walk a transcript asks for,
  bit for bit on every objective.

Generated bids are integers, so the fast and slow routes must agree
exactly; the one fractional refund case states its tolerance. The walk
adds a kept ordering's contributions in another order than the skipped
orderings it stands for, so on fractional bids it must reach the exact
optimum rather than the scan's float bits.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from blockmech.baselines import greedy_by_bid, greedy_by_density
from blockmech.conflict import ConflictGroup, conflict_free_set, get_conflict_groups
from blockmech.default_algo import (
    Strategy,
    _plan,
    _walk,
    block_building,
    candidate_set,
    counterfactual_blocks,
    resolve_group,
    resolve_group_with_counterfactuals,
)
from blockmech.fixtures import load_fixture
from blockmech.mechanism import (
    BuilderAlgorithm,
    instantiate_builders,
    refund_default,
    run_mechanism,
)
from blockmech.model import (
    BALANCE_SLOT,
    BuilderSpec,
    Bundle,
    ConstantBid,
    ExecutionContext,
    GatedBid,
    StorageKey,
    TableBid,
    TxRef,
    ZERO_BID,
    block_bids,
    block_total_bid,
    builder_label,
    evaluate_bid,
    exclusive_bid,
    one_time_label,
    with_bids,
)
from blockmech.oracle import VcgOutcome, full_omega, vcg_outcome
from blockmech.scenario_io import load_scenario, save_scenario
from blockmech.workload import PROFILES, Profile, generate_scenario

from conftest import key, make_bundle, make_scenario, rebid

# The order-flow shape at 400 bundles: groups of 1-3, table bids, both
# shortcuts present.
SETTLE_SHAPED = Profile(
    name="settle-shaped",
    n_bundles=400,
    group_sizes={1: 0.52, 2: 0.2, 3: 0.12},
    shared_pivot_rate=0.2,
    same_target_rate=0.2,
    bid_model="table",
    builders=("copy-default", "greedy-bid", "greedy-density"),
)

# The benchmark's enum-deep shape: groups of 5-7 and some of 9-10, so every
# group strategy occurs and the walks are deep.
ENUM_SHAPED = Profile(
    name="enum-shaped",
    n_bundles=28,
    group_sizes={5: 0.25, 6: 0.25, 7: 0.3, 9: 0.1, 10: 0.1},
    shared_pivot_rate=0.2,
    same_target_rate=0.2,
    bid_model="table",
    builders=("copy-default", "greedy-bid"),
)

SCENARIOS = {
    "example2": lambda: load_fixture("example2"),
    "deficit": lambda: load_fixture("deficit"),
    "collusion": lambda: load_fixture("collusion"),
    "integration": lambda: load_fixture("integration"),
    "realistic-3": lambda: generate_scenario(PROFILES["realistic"], 3),
    "realistic-17": lambda: generate_scenario(PROFILES["realistic"], 17),
    "stress-2": lambda: generate_scenario(PROFILES["stress-large-groups"], 2),
    "stress-5": lambda: generate_scenario(PROFILES["stress-large-groups"], 5),
    "settle-400": lambda: generate_scenario(SETTLE_SHAPED, 1),
}


def _reporting(scenario, bids):
    """The scenario with `bids` stated through `model.with_bids`."""
    return replace(
        scenario, bundles=tuple(with_bids(scenario.bundle_map(), bids).values())
    )


def _reference_settlement(scenario, bids=None):
    """Default block, beta0 and refunds by the slow route: full
    counterfactual blocks and two block evaluations per core bundle."""
    bundles = rebid(scenario.bundle_map(), bids)
    label = one_time_label(scenario.seed)
    free = conflict_free_set(get_conflict_groups(bundles))
    core = {i: b for i, b in bundles.items() if i not in free}
    o_star = block_building(core, scenario.k_cutoff, scenario.seed, label)
    counter = counterfactual_blocks(
        core, scenario.k_cutoff, scenario.seed, label
    )
    refunds = {
        i: refund_default(i, o_star, counter[i], core, label) for i in core
    }
    return o_star, block_total_bid(o_star, core, label), refunds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_group_local_refunds_equal_refund_default(name):
    scenario = SCENARIOS[name]()
    outcome = run_mechanism(scenario)
    o_star, beta0, refunds = _reference_settlement(scenario)
    assert outcome.default_block == o_star
    assert outcome.beta0 == beta0
    for i, refund in refunds.items():
        assert outcome.searcher_ledger[i].refund == refund, i
    if outcome.winning_builder is None:
        settled = outcome.beta0
    else:
        settled = max(outcome.beta0, outcome.beta_prime)
    assert outcome.proposer_revenue == settled - sum(refunds.values())


def test_group_local_refunds_fractional_bids_within_tolerance():
    # Scaling by 0.1 makes every bid inexact in binary, so the group-local
    # difference and the whole-block difference may round differently.
    # The allowed gap is 1e-9 of the default block's value.
    scenario = generate_scenario(PROFILES["realistic"], 8)
    bids = {b.id: b.bid.scaled(0.1) for b in scenario.bundles}
    outcome = run_mechanism(_reporting(scenario, bids))
    o_star, beta0, refunds = _reference_settlement(scenario, bids)
    assert outcome.default_block == o_star
    assert outcome.beta0 == beta0
    tolerance = 1e-9 * max(1.0, beta0)
    assert refunds
    for i, refund in refunds.items():
        assert math.isclose(
            outcome.searcher_ledger[i].refund, refund, rel_tol=0, abs_tol=tolerance
        ), i


# -- block evaluation -----------------------------------------------------


def _placed_scan_block_bids(block, bundles, coinbase, bids=None):
    """Reference: each entry checks every placed bundle's writes."""
    bundles = rebid(bundles, bids)
    values = {}
    placed = []
    for i in block:
        b = bundles[i]
        preds = tuple(j for j, w in placed if w & b.footprint)
        values[i] = evaluate_bid(b, ExecutionContext(preds, coinbase))
        placed.append((i, b.effective_writes(coinbase)))
    return values


KEYS = [StorageKey("c", f"s{k}") for k in range(4)]
GATE = builder_label(0)


def _order_sensitive_bundles(rng: random.Random, n: int) -> dict:
    """Bundles over four keys whose table bids price every predecessor
    sequence of length one and two differently; some bundles and some bids
    are gated on builder 0."""
    ids = list(range(1, n + 1))
    out = {}
    for i in ids:
        others = [j for j in ids if j != i]
        entries = {
            ",".join(map(str, seq)): float(rng.randint(0, 60))
            for size in (1, 2)
            for seq in itertools.permutations(others, size)
        }
        bid = TableBid(entries, float(rng.randint(0, 60)))
        if rng.random() < 0.2:
            bid = GatedBid(GATE, bid)
        out[i] = Bundle(
            id=i,
            txs=(TxRef(f"0x{i:02x}", f"t{i % 3}"),),
            reads=frozenset(rng.sample(KEYS, rng.randint(0, 2))),
            writes=frozenset(rng.sample(KEYS, rng.randint(0, 2))),
            weight=rng.randint(1, 4),
            gate=GATE if rng.random() < 0.2 else None,
            bid=bid,
            valuation=bid,
        )
    return out


@pytest.mark.parametrize("seed", range(6))
def test_indexed_block_bids_equal_placed_scan(seed):
    rng = random.Random(seed)
    bundles = _order_sensitive_bundles(rng, 7)
    ids = sorted(bundles)
    for label in (GATE, builder_label(1)):  # gate matches, gate does not
        for _ in range(40):
            block = tuple(rng.sample(ids, rng.randint(0, len(ids))))
            override = {ids[0]: ConstantBid(3.0), ids[1]: GatedBid(GATE, ConstantBid(5.0))}
            for bids in ({}, override):
                fast = block_bids(block, with_bids(bundles, bids), label)
                slow = _placed_scan_block_bids(block, bundles, label, bids)
                assert list(fast.items()) == list(slow.items())


def test_indexed_block_bids_with_nested_gates_and_constant_bids():
    # Nested gated overrides pay only when both labels match, which no run
    # label does; constant bids on empty footprints skip the predecessor
    # lookup entirely.
    rng = random.Random(41)
    bundles = _order_sensitive_bundles(rng, 7)
    for i in (8, 9, 10):
        bundles[i] = make_bundle(i, float(i), gate=GATE if i == 9 else None)
    ids = sorted(bundles)
    assert not any(bundles[i].footprint for i in (8, 9, 10))
    other = builder_label(1)
    override = {
        ids[0]: GatedBid(GATE, GatedBid(other, ConstantBid(7.0))),
        ids[1]: GatedBid(GATE, GatedBid(GATE, TableBid({"": 2.0, "1": 9.0}, 4.0))),
        ids[2]: GatedBid(other, GatedBid(other, ConstantBid(6.0))),
        9: GatedBid(GATE, ConstantBid(11.0)),
    }
    for label in (GATE, other, builder_label(2)):
        for _ in range(40):
            block = tuple(rng.sample(ids, rng.randint(0, len(ids))))
            for bids in ({}, override):
                fast = block_bids(block, with_bids(bundles, bids), label)
                slow = _placed_scan_block_bids(block, bundles, label, bids)
                assert list(fast.items()) == list(slow.items())


def test_indexed_block_bids_on_generated_scenarios():
    for scenario in (
        generate_scenario(PROFILES["realistic"], 4),
        generate_scenario(PROFILES["stress-large-groups"], 4),
    ):
        bundles = scenario.bundle_map()
        label = one_time_label(scenario.seed)
        block = tuple(random.Random(4).sample(sorted(bundles), len(bundles)))
        assert block_bids(block, bundles, label) == _placed_scan_block_bids(
            block, bundles, label
        )


# -- storage keys ----------------------------------------------------------


def test_storage_key_order_repr_and_file_round_trip(tmp_path):
    # Keys hash and compare as tuples; order, repr and the saved bytes are
    # those of an ordered (address, slot) record.
    keys = [
        StorageKey("b", "a"),
        StorageKey.balance("a"),
        StorageKey("a", "z"),
        StorageKey("a", "_"),
        StorageKey("B", "s"),
    ]
    assert sorted(keys) == [
        StorageKey("B", "s"),
        StorageKey("a", "_"),
        StorageKey("a", "__balance__"),
        StorageKey("a", "z"),
        StorageKey("b", "a"),
    ]
    assert StorageKey.balance("a") == StorageKey("a", BALANCE_SLOT)
    assert repr(StorageKey("c", "s0")) == "StorageKey(address='c', slot='s0')"
    bundle = make_bundle(1, 3.0, reads=keys[:3], writes=keys[2:])
    scenario = make_scenario(bundle)
    path = tmp_path / "keys.json"
    save_scenario(scenario, path)
    saved = json.loads(path.read_text())["bundles"][0]
    assert [(k["address"], k["slot"]) for k in saved["reads"]] == [
        ("a", "__balance__"), ("a", "z"), ("b", "a"),
    ]
    assert [(k["address"], k["slot"]) for k in saved["writes"]] == [
        ("B", "s"), ("a", "_"), ("a", "z"),
    ]
    loaded = load_scenario(path)
    assert loaded == scenario
    save_scenario(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


# -- greedy builders ------------------------------------------------------


def _quadratic_greedy(bundles, coinbase, bids, key_weight):
    """Reference greedy: every round evaluates every remaining bundle in the
    partial block's context. A bundle's predecessors are the placed bundles
    that effectively write a key of its footprint, in placement order."""
    by_id = rebid(bundles, bids)
    remaining = sorted(by_id)
    writers = {}  # storage key -> placed ids whose effective writes hold it
    position = {}  # placed id -> its index in the block
    block = []
    while remaining:
        best_id = None
        best_bid = 0.0
        best_key = 0.0
        for i in remaining:
            b = by_id[i]
            found = {j for k in b.footprint for j in writers.get(k, ())}
            preds = tuple(sorted(found, key=position.__getitem__))
            value = evaluate_bid(b, ExecutionContext(preds, coinbase))
            key = value / key_weight(b)
            if best_id is None or key > best_key:
                best_id, best_bid, best_key = i, value, key
        if best_bid <= 0.0:
            break
        position[best_id] = len(block)
        block.append(best_id)
        for k in by_id[best_id].effective_writes(coinbase):
            writers.setdefault(k, []).append(best_id)
        remaining.remove(best_id)
    return tuple(block)


def _assert_greedies_match(bundles, label, bids=None):
    reported = with_bids(bundles, bids or {})
    assert greedy_by_bid(reported, label) == _quadratic_greedy(
        bundles, label, bids, lambda b: 1.0
    )
    assert greedy_by_density(reported, label) == _quadratic_greedy(
        bundles, label, bids, lambda b: float(b.weight)
    )


@pytest.mark.parametrize("seed", range(8))
def test_incremental_greedies_equal_quadratic_reference(seed):
    rng = random.Random(100 + seed)
    bundles = _order_sensitive_bundles(rng, 7)
    for label in (GATE, builder_label(1)):
        _assert_greedies_match(bundles, label)
        zeroed = {i: ConstantBid(0.0) for i in sorted(bundles)[::2]}
        _assert_greedies_match(bundles, label, zeroed)


def test_incremental_greedies_on_zero_bids_and_ties():
    shared = key("hot")
    ties = {
        i: make_bundle(i, 7, writes={shared} if i % 2 else {key(f"x{i}")}, weight=1 + i % 3)
        for i in (5, 1, 4, 2, 3)
    }
    _assert_greedies_match(ties, builder_label(0))
    zeros = {i: make_bundle(i, 0, writes={shared}) for i in (1, 2, 3)}
    assert greedy_by_bid(zeros, builder_label(0)) == ()
    _assert_greedies_match(zeros, builder_label(0))
    gated = {
        1: make_bundle(1, 9, writes={shared}, gate=GATE),
        2: make_bundle(2, bid=TableBid({"1": 50.0}, 4.0), reads={shared}),
        3: make_bundle(3, 9, writes={shared}),
    }
    for label in (GATE, builder_label(1)):
        _assert_greedies_match(gated, label)


HOT_KEYS = [StorageKey("hot", f"k{k}") for k in range(3)]


def _tie_heavy_bundles(rng: random.Random, n: int) -> dict:
    """Bundles whose integer bids in 0..4 tie often, most of them touching
    one of three hot keys, so that most placements re-evaluate many
    remaining bundles. Table bids price the head and a few single
    predecessors apart from their default; some bundles and some bids are
    gated on builder 0; weights are 1-3."""
    out = {}
    for i in range(1, n + 1):
        if rng.random() < 0.4:
            bid = ConstantBid(float(rng.randint(0, 4)))
        else:
            entries = {"": float(rng.randint(0, 4))}
            for j in rng.sample(range(1, n + 1), 4):
                entries[str(j)] = float(rng.randint(0, 4))
            bid = TableBid(entries, float(rng.randint(0, 4)))
        if rng.random() < 0.15:
            bid = GatedBid(GATE, bid)
        out[i] = Bundle(
            id=i,
            txs=(TxRef(f"0x{i:03x}", "t"),),
            reads=frozenset(rng.sample(HOT_KEYS, rng.randint(0, 2))),
            writes=frozenset(rng.sample(HOT_KEYS, rng.randint(0, 1))),
            weight=rng.randint(1, 3),
            gate=GATE if rng.random() < 0.1 else None,
            bid=bid,
            valuation=bid,
        )
    return out


def test_heap_greedies_equal_quadratic_reference_on_ties():
    rng = random.Random(7)
    bundles = _tie_heavy_bundles(rng, 300)
    ids = sorted(bundles)
    # Most bundles touch a hot key, and head values tie in large classes.
    assert sum(1 for b in bundles.values() if b.footprint) > 200
    heads = [block_bids((i,), bundles, GATE)[i] for i in ids]
    assert max(heads.count(v) for v in set(heads)) > 40
    # Ids absent from the override keep their declared bid.
    bids = {i: ZERO_BID for i in ids[::9]}
    bids.update({i: GatedBid(GATE, ConstantBid(3.0)) for i in ids[4::11]})
    for label in (GATE, builder_label(1)):  # gate matches, gate does not
        assert len(greedy_by_bid(with_bids(bundles, bids), label)) > 30
        _assert_greedies_match(bundles, label, bids)


@pytest.mark.parametrize("name", ["realistic-3", "stress-5", "settle-400"])
def test_incremental_greedies_on_generated_scenarios(name):
    bundles = SCENARIOS[name]().bundle_map()
    _assert_greedies_match(bundles, builder_label(0))


# -- reuse of the default block by builders --------------------------------


class _RebuildDefault(BuilderAlgorithm):
    """copy-default/half-default as they ran before reuse: the default
    algorithm rerun under the builder's label."""

    def __init__(self, divisor: float):
        self.divisor = divisor

    def produce(self, bundles, env):
        block = block_building(bundles, env.k_cutoff, env.seed, env.label)
        return block, block_total_bid(block, bundles, env.label) / self.divisor


class _EnvSpy(BuilderAlgorithm):
    def __init__(self):
        self.envs = []

    def produce(self, bundles, env):
        self.envs.append(env)
        return (), 0.0


def _lineups():
    names = ("copy-default", "half-default", "greedy-bid")
    reusing = instantiate_builders([BuilderSpec(name) for name in names])
    rebuilding = [_RebuildDefault(1.0), _RebuildDefault(2.0), reusing[2]]
    return reusing, rebuilding


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_reuse_equals_rebuild(name):
    scenario = SCENARIOS[name]()
    reusing, rebuilding = _lineups()
    assert run_mechanism(scenario, builders=reusing) == run_mechanism(
        scenario, builders=rebuilding
    )


def _gate(scenario, bundle_id: int, label):
    return replace(
        scenario,
        bundles=tuple(
            replace(b, gate=label) if b.id == bundle_id else b
            for b in scenario.bundles
        ),
    )


def _offered_default(scenario):
    spy = _EnvSpy()
    outcome = run_mechanism(scenario, builders=[spy])
    return spy.envs[0].default_block, outcome


def test_default_block_is_offered_only_when_label_invariant():
    offered, outcome = _offered_default(load_fixture("example2"))
    assert offered == outcome.default_block == (2, 1)
    gated_bid = {1: GatedBid(GATE, ConstantBid(1.0))}
    assert _offered_default(_reporting(load_fixture("example2"), gated_bid))[0] is None

    # The integration fixture with a gated core bundle: reuse must not
    # apply, and the builders rebuild under their own labels.
    fixture = load_fixture("integration")
    core_gated = _gate(fixture, 1, GATE)
    assert _offered_default(core_gated)[0] is None
    # Integrating the conflict-free bundle (what the integration sweeps do)
    # gates a bundle outside the core that builders see, so reuse applies.
    integrated = _gate(fixture, 3, GATE)
    assert 3 in _offered_default(integrated)[1].conflict_free
    assert _offered_default(integrated)[0] == (2, 1)
    for scenario in (core_gated, integrated):
        reusing, rebuilding = _lineups()
        assert run_mechanism(scenario, builders=reusing) == run_mechanism(
            scenario, builders=rebuilding
        )


def test_gated_override_runs_match_rebuild():
    scenario = generate_scenario(PROFILES["realistic"], 11)
    free = conflict_free_set(get_conflict_groups(scenario.bundle_map()))
    first = min(b.id for b in scenario.bundles if b.id not in free)
    scenario = _reporting(
        scenario, {first: GatedBid(builder_label(0), ConstantBid(500.0))}
    )
    assert _offered_default(scenario)[0] is None
    reusing, rebuilding = _lineups()
    assert run_mechanism(scenario, builders=reusing) == run_mechanism(
        scenario, builders=rebuilding
    )


# -- the prefix-tree walk and the oracle -----------------------------------


def _scan_reference(group, bundles, k_cutoff, seed, coinbase, bids=None):
    """Reference resolution: every candidate of `candidate_set` scored from
    scratch by `block_bids`, summed left to right, in canonical order; the
    first maximizer kept for the base objective and for each member's
    objective with its bid zeroed."""
    reported = rebid(bundles, bids)
    group_bundles = {i: reported[i] for i in group.members}
    members = group.members
    best, best_value = None, 0.0
    without_block = {i: None for i in members}
    without_value = {i: 0.0 for i in members}
    for block in candidate_set(group, group_bundles, k_cutoff, seed):
        values = block_bids(block, group_bundles, coinbase)
        total = 0.0
        for value in values.values():
            total += value
        if best is None or total > best_value:
            best, best_value = block, total
        for i in members:
            value = total - values.get(i, 0.0)
            if without_block[i] is None or value > without_value[i]:
                without_block[i], without_value[i] = block, value
    counterfactuals = {i: (without_block[i], without_value[i]) for i in members}
    return (best, best_value), counterfactuals


def _oracle_reference(bundles, coinbase, bids=None) -> VcgOutcome:
    """Reference oracle: `block_bids` on every block of `full_omega`."""
    bundles = rebid(bundles, bids)
    ids = sorted(bundles)
    best_block, best_total = None, 0.0
    best_without = {i: 0.0 for i in ids}
    for block in full_omega(bundles):
        values = block_bids(block, bundles, coinbase)
        total = sum(values.values(), 0.0)  # a float for the empty block too
        if best_block is None or total > best_total:
            best_block, best_total = block, total
        for i in ids:
            without = total - values.get(i, 0.0)
            if without > best_without[i]:
                best_without[i] = without
    winner_values = block_bids(best_block, bundles, coinbase)
    charges = {i: winner_values.get(i, 0.0) for i in ids}
    refunds = {i: best_total - best_without[i] for i in ids}
    proposer = sum(charges[i] - refunds[i] for i in ids)
    return VcgOutcome(best_block, best_total, charges, refunds, proposer)


def _exact(block, value):
    return block, float(value).hex()


def _bid_profiles(bundles) -> dict:
    """Bid overrides: integer tables as declared, the same at 0.1 steps,
    all zero, all tied, and gated overrides on the lowest and highest ids."""
    ids = sorted(bundles)
    return {
        "integer": None,
        "fractional": {i: b.bid.scaled(0.1) for i, b in bundles.items()},
        "zero": {i: ConstantBid(0.0) for i in ids},
        "tied": {i: ConstantBid(5.0) for i in ids},
        "gated-override": {
            ids[0]: GatedBid(GATE, ConstantBid(30.0)),
            ids[-1]: GatedBid(GATE, TableBid({}, 0.7)),
        },
    }


def _strategy_group(strategy: Strategy, seed: int) -> tuple:
    """(bundles, k_cutoff) forming one group resolved by `strategy`."""
    rng = random.Random(200 + seed)
    if strategy is Strategy.ENUMERATED:
        return _order_sensitive_bundles(rng, 4 + seed), 8
    bundles = _order_sensitive_bundles(rng, 7)
    if strategy is Strategy.SHARED_PIVOT:
        victim = TxRef("0xvictim", "pool")
        bundles = {i: replace(b, txs=b.txs + (victim,)) for i, b in bundles.items()}
    elif strategy is Strategy.SAME_TARGET:
        bundles = {
            i: replace(b, txs=(TxRef(f"0x{i:02x}", "pool"),))
            for i, b in bundles.items()
        }
    return bundles, 4


_WALKED = (Strategy.ENUMERATED, Strategy.TRUNCATED)


def _commuting_pairs(pool, bundles, coinbase) -> set:
    """Ordered pairs of `pool` members whose adjacent swap changes no
    member's predecessor sequence: neither one's effective writes meet the
    other's footprint, and no third member's footprint meets both."""
    eff = {i: bundles[i].effective_writes(coinbase) for i in pool}
    reads = {
        (s, t) for s in pool for t in pool if s != t and eff[s] & bundles[t].footprint
    }
    return {
        (a, b)
        for a in pool
        for b in pool
        if a != b
        and (a, b) not in reads
        and (b, a) not in reads
        and not any((a, r) in reads and (b, r) in reads for r in pool)
    }


def _descending_commuting_pair(block, commuting):
    """Index k of the first adjacent pair with block[k + 1] < block[k] that
    commutes, or None when `block` is in normal form."""
    for k in range(len(block) - 1):
        if block[k + 1] < block[k] and (block[k], block[k + 1]) in commuting:
            return k
    return None


def _normal_form(block, commuting) -> tuple:
    """`block` with descending commuting neighbours swapped until none is
    left: an equivalent the walk keeps, with the same contributions."""
    block = list(block)
    k = _descending_commuting_pair(block, commuting)
    while k is not None:
        block[k], block[k + 1] = block[k + 1], block[k]
        k = _descending_commuting_pair(block, commuting)
    return tuple(block)


def _assert_transcript_holds_normal_forms(
    group, bundles, k_cutoff, seed, coinbase, transcript
):
    """The walk scores exactly the candidates in normal form, and every
    candidate's normal form is scored with the same bid for every bundle."""
    candidates = list(candidate_set(group, bundles, k_cutoff, seed))
    pool = sorted({i for block in candidates for i in block})
    commuting = _commuting_pairs(pool, bundles, coinbase)
    kept = [
        block
        for block in candidates
        if _descending_commuting_pair(block, commuting) is None
    ]
    assert sorted(transcript) == sorted(kept)
    walked = set(transcript)
    for block in candidates:
        normal = _normal_form(block, commuting)
        assert normal in walked, block
        assert block_bids(normal, bundles, coinbase) == block_bids(
            block, bundles, coinbase
        ), block


def _assert_exact_optimum(group, bundles, k_cutoff, seed, coinbase, res, without):
    """Each returned block attains, in exact arithmetic, the optimum of its
    objective over the full candidate set: the total bid, or the total
    with one member's bid zeroed. Each reported value is the walk's own
    left-to-right float total of the block it returns."""
    candidates = list(candidate_set(group, bundles, k_cutoff, seed))
    floats = {b: block_bids(b, bundles, coinbase) for b in candidates}
    exact = {b: {i: Fraction(v) for i, v in f.items()} for b, f in floats.items()}

    def objective(block, zeroed=None):
        return sum(v for i, v in exact[block].items() if i != zeroed)

    assert objective(res.sub_block) == max(objective(b) for b in candidates)
    assert res.value == sum(floats[res.sub_block].values(), 0.0)
    for i, (block, value) in without.items():
        assert objective(block, i) == max(objective(b, i) for b in candidates), i
        total = sum(floats[block].values(), 0.0)
        assert value == total - floats[block].get(i, 0.0), i


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_walk_equals_per_candidate_scan(strategy, seed):
    bundles, k_cutoff = _strategy_group(strategy, seed)
    group = ConflictGroup(frozenset(bundles))
    assert _plan(group, bundles, k_cutoff, seed)[0] is strategy
    for label in (GATE, builder_label(1)):  # gate matches, gate does not
        for name, bids in _bid_profiles(bundles).items():
            (ref_block, ref_value), ref_without = _scan_reference(
                group, bundles, k_cutoff, seed, label, bids
            )
            reported = with_bids(bundles, bids or {})
            res, without = resolve_group_with_counterfactuals(
                group, reported, k_cutoff, seed, label
            )
            transcript = []
            base = resolve_group(
                group, reported, k_cutoff, seed, label, transcript
            )
            assert res.strategy is base.strategy is strategy
            assert _exact(base.sub_block, base.value) == _exact(
                res.sub_block, res.value
            ), name
            if strategy in _WALKED and name == "fractional":
                # 0.1-step bids: commuting orders round differently.
                _assert_exact_optimum(
                    group, rebid(bundles, bids), k_cutoff, seed, label, res, without
                )
            else:
                expected = _exact(ref_block, ref_value)
                assert _exact(res.sub_block, res.value) == expected, name
                assert {i: _exact(*w) for i, w in without.items()} == {
                    i: _exact(*w) for i, w in ref_without.items()
                }, name
            if strategy in _WALKED:
                _assert_transcript_holds_normal_forms(
                    group, rebid(bundles, bids), k_cutoff, seed, label, transcript
                )
            else:
                assert transcript == list(
                    candidate_set(group, bundles, k_cutoff, seed)
                )


@pytest.mark.parametrize("seed", [1, 8])
def test_walk_equals_scan_on_realistic_groups(seed):
    # Every group of a generated scenario at cutoff 4, so that its groups
    # of four and eight members are truncated. Table bids are integers, so
    # each resolution and counterfactual matches the scan bit for bit.
    scenario = generate_scenario(PROFILES["realistic"], seed)
    bundles = scenario.bundle_map()
    label = one_time_label(scenario.seed)
    strategies = set()
    for group in get_conflict_groups(bundles):
        (ref_block, ref_value), ref_without = _scan_reference(
            group, bundles, 4, scenario.seed, label
        )
        res, without = resolve_group_with_counterfactuals(
            group, bundles, 4, scenario.seed, label
        )
        strategies.add(res.strategy)
        assert _exact(res.sub_block, res.value) == _exact(ref_block, ref_value)
        assert {i: _exact(*w) for i, w in without.items()} == {
            i: _exact(*w) for i, w in ref_without.items()
        }
    assert strategies == {Strategy.ENUMERATED, Strategy.TRUNCATED}


def _exclusive_bundles(values) -> dict:
    """A winner-take-all group below the cutoff: every bundle writes one
    contested key and pays its value only at the head of the block."""
    return {
        i: make_bundle(i, bid=exclusive_bid(v), writes={KEYS[0]})
        for i, v in enumerate(values, start=1)
    }


# Distinct and tied heads: after the first member every bid pays 0.
EXCLUSIVE = (40.0, 70.0, 10.0, 0.0, 70.0, 5.0, 70.0)


def _walked_groups() -> list:
    """(id, bundles, group, k_cutoff, seed, strategy): order-sensitive
    enumerated and truncated groups, a winner-take-all group, and the groups
    of a generated scenario."""
    exclusive = _exclusive_bundles(EXCLUSIVE)
    cases = [
        ("exclusive-7", exclusive, ConflictGroup(frozenset(exclusive)), 8, 0,
         Strategy.ENUMERATED)
    ]
    for n, k_cutoff in ((5, 8), (6, 8), (9, 7)):
        bundles = _order_sensitive_bundles(random.Random(400 + n), n)
        group = ConflictGroup(frozenset(bundles))
        strategy = Strategy.ENUMERATED if n < k_cutoff else Strategy.TRUNCATED
        cases.append((f"{strategy.value}-{n}", bundles, group, k_cutoff, n, strategy))
    scenario = SCENARIOS["realistic-17"]()
    bundles = scenario.bundle_map()
    for group in get_conflict_groups(bundles):
        if len(group) < 2:
            continue
        members = "-".join(map(str, group.members))
        cases.append(
            (f"realistic-17/{members}", bundles, group, scenario.k_cutoff,
             scenario.seed, Strategy.ENUMERATED)
        )
    return cases


@pytest.mark.parametrize(
    "bundles, group, k_cutoff, seed, strategy",
    [case[1:] for case in _walked_groups()],
    ids=[case[0] for case in _walked_groups()],
)
def test_walk_transcript_is_the_commuting_normal_forms(
    bundles, group, k_cutoff, seed, strategy
):
    assert _plan(group, bundles, k_cutoff, seed)[0] is strategy
    for label in (GATE, builder_label(1)):  # gate matches, gate does not
        transcript = []
        resolve_group(group, bundles, k_cutoff, seed, label, transcript)
        _assert_transcript_holds_normal_forms(
            group, bundles, k_cutoff, seed, label, transcript
        )


def _walk_bits(result) -> tuple:
    block, value, without = result
    return block, value.hex(), {i: (b, v.hex()) for i, (b, v) in without.items()}


def _assert_pruned_walk_is_unpruned(bundles, label):
    """The bound-pruned walk returns the unpruned walk's best block and
    value and every member's counterfactual block and value, bit for bit.
    A transcript turns pruning off."""
    for counterfactuals in (False, True):
        full = _walk(bundles, label, counterfactuals, [])
        assert _walk_bits(_walk(bundles, label, counterfactuals)) == _walk_bits(full)


@pytest.mark.parametrize(
    "profile, seed",
    [(ENUM_SHAPED, s) for s in range(2, 7)]
    + [(PROFILES["realistic"], s) for s in (1, 8, 17)]
    + [(PROFILES["stress-large-groups"], s) for s in (2, 4, 7)],
    ids=lambda x: x.name if isinstance(x, Profile) else str(x),
)
def test_pruned_walk_equals_unpruned_on_generated_groups(profile, seed):
    # Every pool the default pass walks, with the declared integer bids and
    # at 0.1 steps.
    scenario = generate_scenario(profile, seed)
    bundles = scenario.bundle_map()
    label = one_time_label(scenario.seed)
    for group in get_conflict_groups(bundles):
        _, pool, shortlist = _plan(group, bundles, scenario.k_cutoff, scenario.seed)
        if shortlist is None:
            walked = {i: bundles[i] for i in pool}
            _assert_pruned_walk_is_unpruned(walked, label)
            fractional = {i: b.bid.scaled(0.1) for i, b in walked.items()}
            _assert_pruned_walk_is_unpruned(with_bids(walked, fractional), label)


PRUNING_GROUPS = {
    "exclusive-7": lambda: _exclusive_bundles(EXCLUSIVE),
    "order-sensitive-6": lambda: _order_sensitive_bundles(random.Random(506), 6),
    "order-sensitive-7": lambda: _order_sensitive_bundles(random.Random(507), 7),
}


@pytest.mark.parametrize("name", sorted(PRUNING_GROUPS))
def test_pruned_walk_equals_unpruned_under_every_bid_profile(name):
    bundles = PRUNING_GROUPS[name]()
    assert _plan(ConflictGroup(frozenset(bundles)), bundles, 8, 0)[0] is (
        Strategy.ENUMERATED
    )
    ids = sorted(bundles)
    other = builder_label(1)
    profiles = _bid_profiles(bundles)
    # Nested gates: each pays only under a label both of its gates match.
    profiles["nested-gates"] = {
        ids[0]: GatedBid(GATE, GatedBid(GATE, ConstantBid(45.0))),
        ids[1]: GatedBid(GATE, GatedBid(other, TableBid({"": 80.0}, 3.0))),
        ids[2]: GatedBid(other, GatedBid(other, exclusive_bid(75.0))),
        ids[3]: GatedBid(other, GatedBid(GATE, ConstantBid(90.0))),
    }
    for label in (GATE, other):  # each gate matches under one of the two
        for bids in profiles.values():
            _assert_pruned_walk_is_unpruned(with_bids(bundles, bids or {}), label)


def test_pruned_walk_keeps_a_shorter_tie_where_the_slack_underflows():
    # Bundles 1-3 pay x each only among themselves; 5 pays 3x only right
    # after 4. Below the node (4,) the bound is exactly 3x, the incumbent
    # (1, 2, 3), and x is so small that the float slack rounds to nothing:
    # only the tie clause keeps the shorter (4, 5), which comes first in
    # canonical order.
    x = math.ulp(0.0)
    trio = (1, 2, 3)
    bundles = {
        i: make_bundle(
            i,
            bid=TableBid(
                {",".join(map(str, seq)): x
                 for size in range(3)
                 for seq in itertools.permutations([j for j in trio if j != i], size)},
                0.0,
            ),
            writes={KEYS[0]},
        )
        for i in trio
    }
    bundles[4] = make_bundle(4, 0.0, writes={KEYS[0]})
    bundles[5] = make_bundle(5, bid=TableBid({"4": 3 * x}, 0.0), reads={KEYS[0]})
    assert _walk(bundles, GATE, False)[:2] == ((4, 5), 3 * x)
    _assert_pruned_walk_is_unpruned(bundles, GATE)


def _assert_oracle_matches(bundles, label, bids):
    fast = vcg_outcome(with_bids(bundles, bids or {}), label)
    slow = _oracle_reference(bundles, label, bids)
    assert fast.winner == slow.winner
    for field in ("total_bid", "proposer_revenue"):
        assert repr(getattr(fast, field)) == repr(getattr(slow, field)), field
    for field in ("charges", "refunds"):
        fast_values, slow_values = getattr(fast, field), getattr(slow, field)
        assert {i: v.hex() for i, v in fast_values.items()} == {
            i: v.hex() for i, v in slow_values.items()
        }, field


def test_oracle_walk_equals_full_omega_loop():
    # Every profile under both labels on one bundle; three (label, profile)
    # pairs on seven, since the reference scores each of 13,700 blocks with
    # `block_bids`. All-zero bids check the empty winner's 0.0 total.
    lone = _order_sensitive_bundles(random.Random(301), 1)
    for label in (GATE, builder_label(1)):
        for bids in _bid_profiles(lone).values():
            _assert_oracle_matches(lone, label, bids)
    seven = _order_sensitive_bundles(random.Random(307), 7)
    profiles = _bid_profiles(seven)
    for label, name in (
        (GATE, "fractional"),
        (builder_label(1), "gated-override"),
        (builder_label(1), "tied"),
    ):
        _assert_oracle_matches(seven, label, profiles[name])


def test_oracle_walk_equals_full_omega_loop_on_eight_bundles():
    bundles = _order_sensitive_bundles(random.Random(308), 8)
    fractional = {i: b.bid.scaled(0.1) for i, b in bundles.items()}
    _assert_oracle_matches(bundles, builder_label(1), fractional)
