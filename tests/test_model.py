"""Core model: contexts, bid evaluation, block totals, validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmech.model import (
    CoinbaseLabel,
    ConstantBid,
    ExecutionContext,
    GatedBid,
    ModelError,
    Scenario,
    TableBid,
    TxRef,
    block_bids,
    block_total_bid,
    builder_label,
    evaluate_bid,
    one_time_label,
    validate_builder_block,
    with_bids,
)

from conftest import canonical_context, key, make_bundle

LABEL = CoinbaseLabel("test")


def test_context_orders_conflicting_predecessors(example2):
    bundles = example2.bundle_map()
    ctx = canonical_context((2, 1), 1, bundles, LABEL)
    assert ctx.predecessors == (2,)
    assert ctx.signature == "2"


def test_context_empty_at_head(example2):
    bundles = example2.bundle_map()
    assert canonical_context((1,), 1, bundles, LABEL).predecessors == ()


def test_context_skips_nonconflicting_and_gated_predecessors():
    k1, k2, k3 = key("a"), key("b"), key("c")
    target = make_bundle(1, 5, reads={k3}, writes={k1})
    unrelated_gate = make_bundle(2, 5, writes={k1}, gate=CoinbaseLabel("other"))
    conflicting = make_bundle(3, 5, writes={k3})
    bundles = {1: target, 2: unrelated_gate, 3: conflicting}
    ctx = canonical_context((3, 2, 1), 1, bundles, LABEL)
    assert ctx.predecessors == (3,)


def test_context_requires_inclusion(example2):
    with pytest.raises(ModelError, match="not included"):
        canonical_context((2,), 1, example2.bundle_map(), LABEL)


def test_evaluate_bid_table(example2):
    b1 = example2.bundle_map()[1]
    assert evaluate_bid(b1, ExecutionContext((), LABEL)) == 40
    assert evaluate_bid(b1, ExecutionContext((2,), LABEL)) == 100


def test_evaluate_bid_gate_mismatch_is_noop():
    target = CoinbaseLabel("t")
    fn = GatedBid(target, ConstantBid(9.0))
    bundle = make_bundle(1, bid=fn)
    assert evaluate_bid(bundle, ExecutionContext((), CoinbaseLabel("u"))) == 0
    assert evaluate_bid(bundle, ExecutionContext((), target)) == 9


def test_bundle_level_gate_zeroes_any_bid_function():
    bundle = make_bundle(1, 7, gate=CoinbaseLabel("mine"))
    assert evaluate_bid(bundle, ExecutionContext((), LABEL)) == 0


def test_block_totals_match_table(example2):
    bundles = example2.bundle_map()
    assert block_total_bid((2, 1), bundles, LABEL) == 150
    assert block_total_bid((1, 2), bundles, LABEL) == 120
    assert block_total_bid((), bundles, LABEL) == 0


def test_block_bids_rejects_bad_blocks(example2):
    bundles = example2.bundle_map()
    with pytest.raises(ModelError):
        block_bids((1, 1), bundles, LABEL)


def test_with_bids_replaces_only_the_listed_bids():
    gate = CoinbaseLabel("g")
    bundles = {
        1: make_bundle(1, 7, reads={key("r")}, writes={key("w")}, gate=gate, valuation=9, weight=3),
        2: make_bundle(2, 5, writes={key("w")}),
    }
    new_bid = TableBid({"": 4.0}, 1.0)
    out = with_bids(bundles, {1: new_bid})
    assert list(out) == [1, 2]
    assert out[2] is bundles[2]
    assert out[1].bid == new_bid
    for field in ("id", "txs", "reads", "writes", "gate", "valuation", "footprint", "weight"):
        assert getattr(out[1], field) == getattr(bundles[1], field), field
    assert bundles[1].bid == ConstantBid(7.0)  # the input map is not changed
    assert with_bids(bundles, {})[1] is bundles[1]
    with pytest.raises(ModelError, match="no bundle 99"):
        with_bids(bundles, {99: ConstantBid(1.0)})


def test_validate_builder_block():
    bundles = {i: make_bundle(i, 1) for i in (1, 2, 3)}
    assert validate_builder_block((2, 1), bundles) is None
    assert validate_builder_block((1, 1), bundles) == "duplicate bundle id 1 in block"
    assert validate_builder_block((2, 7), bundles) == (
        "foreign bundle id 7 not in input set"
    )


def test_bid_functions_reject_negative_values():
    with pytest.raises(ModelError):
        ConstantBid(-1.0)
    with pytest.raises(ModelError):
        TableBid({"1": -2.0}, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bid_functions_reject_non_finite_values(bad):
    with pytest.raises(ModelError, match="non-finite|negative"):
        ConstantBid(bad)
    with pytest.raises(ModelError, match="non-finite|negative"):
        TableBid({"1": bad}, 0.0)
    with pytest.raises(ModelError, match="non-finite|negative"):
        TableBid({}, bad)


def test_table_bid_is_detached_from_the_callers_dict():
    source = {"1": 5.0}
    fn = TableBid(source, 2.0)
    source["1"] = 99.0
    source["2"] = 7.0
    assert dict(fn.entries) == {"1": 5.0}
    assert fn.evaluate(ExecutionContext((1,), LABEL)) == 5.0
    assert fn.evaluate(ExecutionContext((2,), LABEL)) == 2.0
    assert fn == TableBid({"1": 5.0}, 2.0)
    with pytest.raises(TypeError):
        fn.entries["1"] = 0.0


def test_bundle_rejects_empty_txs_and_negative_weight():
    with pytest.raises(ModelError, match=r"^bundle 3: txs must be non-empty$"):
        make_bundle(3, 10, txs=())
    with pytest.raises(ModelError, match=r"^bundle 3: negative weight$"):
        make_bundle(3, 10, weight=-1)


def test_scenario_rejects_duplicate_ids():
    with pytest.raises(ModelError, match="duplicate"):
        Scenario(bundles=(make_bundle(1, 1), make_bundle(1, 2)))


def test_scenario_rejects_inconsistent_tx_hashes():
    a = make_bundle(1, 1, txs=(TxRef("0xsame", "t1"),))
    b = make_bundle(2, 1, txs=(TxRef("0xsame", "t2"),))
    with pytest.raises(ModelError, match="conflicting targets"):
        Scenario(bundles=(a, b))


def test_labels_are_namespaced():
    assert builder_label(0) != builder_label(1)
    assert one_time_label(1) == one_time_label(1)
    assert one_time_label(1) != one_time_label(2)
    assert not one_time_label(5).value.startswith("builder-")


# Property-style invariants.

_values = st.integers(min_value=0, max_value=1000)


@st.composite
def _contexts(draw):
    preds = tuple(draw(st.lists(st.integers(1, 9), max_size=4, unique=True)))
    return ExecutionContext(preds, LABEL)


@given(
    ctx=_contexts(),
    default=_values,
    entries=st.dictionaries(st.sampled_from(["", "1", "2", "1,2"]), _values, max_size=4),
)
def test_bid_evaluation_is_never_negative(ctx, default, entries):
    fn = TableBid({k: float(v) for k, v in entries.items()}, float(default))
    bundle = make_bundle(1, bid=fn)
    assert evaluate_bid(bundle, ctx) >= 0


@given(data=st.data())
@settings(max_examples=60)
def test_context_is_prefix_monotone(data):
    ids = [1, 2, 3, 4]
    shared = key("hot")
    bundles = {
        i: make_bundle(i, 1, writes={shared, key(f"own{i}")}) for i in ids
    }
    order = data.draw(st.permutations(ids))
    cut = data.draw(st.integers(min_value=1, max_value=len(ids)))
    prefix = tuple(order[:cut])
    subject = prefix[-1]
    before = canonical_context(prefix, subject, bundles, LABEL)
    after = canonical_context(tuple(order), subject, bundles, LABEL)
    assert before == after


@given(data=st.data())
@settings(max_examples=60)
def test_conflict_free_total_is_order_invariant(data):
    ids = [1, 2, 3, 4, 5]
    bundles = {
        i: make_bundle(i, 10 * i, writes={key(f"own{i}")}) for i in ids
    }
    order_a = tuple(data.draw(st.permutations(ids)))
    order_b = tuple(data.draw(st.permutations(ids)))
    assert block_total_bid(order_a, bundles, LABEL) == block_total_bid(
        order_b, bundles, LABEL
    )


def test_gated_bundle_contributes_nothing_to_successors():
    shared = key("hot")
    gated = make_bundle(1, 50, writes={shared}, gate=CoinbaseLabel("elsewhere"))
    observer = make_bundle(2, bid=TableBid({"1": 99.0}, 7.0), writes={shared})
    bundles = {1: gated, 2: observer}
    values = block_bids((1, 2), bundles, LABEL)
    assert values[1] == 0  # no-op bids nothing
    assert values[2] == 7  # and leaves the successor's context empty
