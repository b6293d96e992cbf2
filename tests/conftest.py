"""Shared test helpers: terse bundle/scenario constructors, the
reference for a bundle's execution context within a block, and the
reference for restating bids."""

from __future__ import annotations

from dataclasses import replace

import pytest

from blockmech.model import (
    Bundle,
    ConstantBid,
    ExecutionContext,
    ModelError,
    Scenario,
    StorageKey,
    TxRef,
)


def key(address: str, slot: str = "s") -> StorageKey:
    return StorageKey(address, slot)


def make_bundle(
    bundle_id: int,
    bid=None,
    *,
    writes=(),
    reads=(),
    txs=None,
    gate=None,
    valuation=None,
    weight=1,
) -> Bundle:
    if isinstance(bid, (int, float)):
        bid = ConstantBid(float(bid))
    if bid is None:
        bid = ConstantBid(0.0)
    if valuation is None:
        valuation = bid
    elif isinstance(valuation, (int, float)):
        valuation = ConstantBid(float(valuation))
    if txs is None:
        txs = (TxRef(f"0x{bundle_id:02x}", f"0xtarget{bundle_id}"),)
    return Bundle(
        id=bundle_id,
        txs=tuple(txs),
        reads=frozenset(reads),
        writes=frozenset(writes),
        weight=weight,
        gate=gate,
        bid=bid,
        valuation=valuation,
    )


def make_scenario(*bundles, builders=(), k_cutoff=8, seed=0) -> Scenario:
    return Scenario(
        bundles=tuple(bundles), builders=tuple(builders), k_cutoff=k_cutoff, seed=seed
    )


def rebid(bundles: dict, bids) -> dict:
    """Reference for `model.with_bids`: the id -> Bundle map with each
    bundle named in `bids` rebuilt by `dataclasses.replace` to state that
    bid. Reference routes state misreports through this, so that the
    helper the fast routes use is checked, not trusted."""
    out = dict(bundles)
    for i, fn in (bids or {}).items():
        out[i] = replace(out[i], bid=fn)
    return out


def rebid_scenario(scenario: Scenario, bids) -> Scenario:
    """The scenario with `rebid` applied to its bundles."""
    return replace(
        scenario, bundles=tuple(rebid(scenario.bundle_map(), bids).values())
    )


def canonical_context(block, subject: int, bundles: dict, coinbase) -> ExecutionContext:
    """Context the subject bundle executes in within `block`.

    Predecessors are the ids placed before the subject whose effective write
    set intersects the subject's footprint, in block order. Appending bundles
    after the subject can never change the result.
    """
    if subject not in block:
        raise ModelError(f"bundle {subject} not included in block")
    subj = bundles[subject]
    footprint = subj.footprint
    preds = []
    for j in block:
        if j == subject:
            break
        if bundles[j].effective_writes(coinbase) & footprint:
            preds.append(j)
    return ExecutionContext(tuple(preds), coinbase)


@pytest.fixture
def example2():
    from blockmech.fixtures import load_fixture

    return load_fixture("example2")
