"""Mechanism invariants over hypothesis-generated scenarios.

The workload generator builds fixed topologies (chains, cliques); these
strategies draw arbitrary read/write sets, bid shapes, and gated bundles,
so the invariants are exercised on conflict structures the generator never
emits.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from blockmech.default_algo import block_building
from blockmech.mechanism import (
    BuilderAlgorithm,
    run_mechanism,
    searcher_utility,
)
from blockmech.model import (
    BuilderSpec,
    Bundle,
    ConstantBid,
    Scenario,
    StorageKey,
    TableBid,
    TxRef,
    block_total_bid,
    builder_label,
    exclusive_bid,
)

KEYS = [StorageKey("c", f"s{k}") for k in range(3)]

LINEUPS = ((), ("copy-default",), ("greedy-bid", "empty"), ("copy-default", "greedy-bid"))


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    bundles = []
    for i in range(n):
        writes = frozenset(draw(st.sets(st.sampled_from(KEYS), max_size=2)))
        reads = frozenset(draw(st.sets(st.sampled_from(KEYS), max_size=1)))
        base = float(draw(st.integers(min_value=0, max_value=50)))
        kind = draw(st.sampled_from(["const", "table", "exclusive"]))
        if kind == "const":
            bid = ConstantBid(base)
        elif kind == "exclusive":
            bid = exclusive_bid(base)
        else:
            entries = {
                str(j): float(draw(st.integers(min_value=0, max_value=50)))
                for j in range(n)
                if j != i and draw(st.booleans())
            }
            bid = TableBid(entries, base)
        gate = draw(st.sampled_from([None, None, None, builder_label(0)]))
        bundles.append(
            Bundle(
                id=i,
                txs=(TxRef(f"0x{i:02x}", f"t{i}"),),
                reads=reads,
                writes=writes,
                gate=gate,
                bid=bid,
                valuation=bid,
            )
        )
    lineup = draw(st.sampled_from(LINEUPS))
    return Scenario(
        bundles=tuple(bundles),
        builders=tuple(BuilderSpec(name) for name in lineup),
        k_cutoff=8,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


class _OverbidCopy(BuilderAlgorithm):
    def produce(self, bundles, env):
        block = block_building(bundles, env.k_cutoff, env.seed, env.label)
        return block, block_total_bid(block, bundles, env.label) + 3.0


@given(scenario=scenarios())
@settings(max_examples=100, deadline=None)
def test_refunds_nonnegative_and_budget_balanced(scenario):
    outcome = run_mechanism(scenario)
    for entry in outcome.searcher_ledger.values():
        assert entry.refund >= 0
    for entry in outcome.builder_ledger.values():
        assert entry.refund >= 0
    assert outcome.total_outflow <= outcome.total_inflow + 1e-9


@given(scenario=scenarios())
@settings(max_examples=100, deadline=None)
def test_truthful_searchers_are_never_worse_off(scenario):
    # every generated bundle bids its valuation, so utility reduces to the
    # refund and must be non-negative in either settlement case
    outcome = run_mechanism(scenario)
    bundles = scenario.bundle_map()
    for i in bundles:
        assert searcher_utility(i, outcome, bundles) >= -1e-9


@given(scenario=scenarios())
@settings(max_examples=100, deadline=None)
def test_conflict_free_bundles_settle_at_net_zero(scenario):
    outcome = run_mechanism(scenario)
    for i in outcome.conflict_free:
        assert outcome.searcher_ledger[i].net == 0
        assert i in outcome.final_block


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_core_refunds_do_not_depend_on_the_winner(scenario):
    base = run_mechanism(scenario)
    from blockmech.mechanism import instantiate_builders

    forced = run_mechanism(
        scenario,
        builders=list(instantiate_builders(scenario.builders)) + [_OverbidCopy()],
    )
    assert forced.winning_builder is not None  # the overbid guarantees case 4b
    for i in set(base.searcher_ledger) - base.conflict_free:
        assert (
            base.searcher_ledger[i].refund == forced.searcher_ledger[i].refund
        )


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_mechanism_is_reproducible(scenario):
    assert run_mechanism(scenario) == run_mechanism(scenario)
