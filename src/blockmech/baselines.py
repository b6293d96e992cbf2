"""Greedy reference builders and the value-comparison harness.

The two greedies are declared stand-ins for production orderings whose exact
rules are not public: one keyed on raw bid, one on bid density (bid/weight).
Both append the best remaining bundle evaluated in the current partial
block's context and stop when nothing adds positive value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .default_algo import block_building
from .model import (
    Block,
    CoinbaseLabel,
    ExecutionContext,
    Scenario,
    as_bundle_map,
    block_total_bid,
    evaluate_bid,
    one_time_label,
)
from .oracle import DEFAULT_OMEGA_LIMIT, vcg_outcome


def _greedy(bundles, coinbase, bids, key_weight) -> Block:
    """Repeatedly append the remaining bundle with the largest value /
    key_weight in the partial block's context, the first in id order on
    ties, until that bundle's value is not positive.

    Values are cached between rounds. Placing a bundle changes the context
    only of the remaining bundles whose footprint meets its effective
    writes; only those get it appended to their predecessors and are
    evaluated again.
    """
    by_id = as_bundle_map(bundles)
    remaining = sorted(by_id)
    touching: dict = {}  # storage key -> ids whose footprint holds it
    for i in remaining:
        for k in by_id[i].footprint:
            touching.setdefault(k, []).append(i)
    preds = {i: [] for i in remaining}
    values: dict = {}
    keys: dict = {}

    def evaluate(i: int) -> None:
        fn = bids.get(i) if bids is not None else None
        ctx = ExecutionContext(tuple(preds[i]), coinbase)
        values[i] = evaluate_bid(by_id[i], ctx, fn)
        keys[i] = values[i] / key_weight(by_id[i])

    for i in remaining:
        evaluate(i)
    block = []
    while remaining:
        # max keeps the first of equal keys, so ties go to the lowest id
        best_id = max(remaining, key=keys.__getitem__)
        if values[best_id] <= 0.0:
            break
        block.append(best_id)
        remaining.remove(best_id)
        del keys[best_id]
        affected = {
            j
            for k in by_id[best_id].effective_writes(coinbase)
            for j in touching[k]
            if j in keys
        }
        for j in affected:
            preds[j].append(best_id)
            evaluate(j)
    return tuple(block)


def greedy_by_bid(
    bundles, coinbase: CoinbaseLabel, bids: Optional[Mapping] = None
) -> Block:
    """Append the highest-bidding remaining bundle (ties by id)."""
    return _greedy(bundles, coinbase, bids, lambda b: 1.0)


def greedy_by_density(
    bundles, coinbase: CoinbaseLabel, bids: Optional[Mapping] = None
) -> Block:
    """Append the remaining bundle with the highest bid per unit weight."""
    by_id = as_bundle_map(bundles)
    for b in by_id.values():
        if b.weight <= 0:
            raise ValueError(f"bundle {b.id}: density ordering needs weight > 0")
    return _greedy(bundles, coinbase, bids, lambda b: float(b.weight))


@dataclass(frozen=True)
class ComparisonReport:
    values: dict  # algorithm name -> block value
    default_is_best: bool
    gap_absolute: float
    gap_relative: float


def compare_algorithms(
    scenario: Scenario,
    oracle_limit: int = DEFAULT_OMEGA_LIMIT,
) -> ComparisonReport:
    """Run the default algorithm, both greedies, and (when the instance is
    small enough) the exact oracle, all valued under one common label."""
    bundles = scenario.bundle_map()
    coinbase = one_time_label(scenario.seed)

    blocks = {
        "default": block_building(bundles, scenario.k_cutoff, scenario.seed, coinbase),
        "greedy-bid": greedy_by_bid(bundles, coinbase),
        "greedy-density": greedy_by_density(bundles, coinbase),
    }
    values = {
        name: block_total_bid(block, bundles, coinbase)
        for name, block in blocks.items()
    }
    if len(bundles) <= oracle_limit:
        values["oracle"] = vcg_outcome(bundles, coinbase, limit=oracle_limit).total_bid

    best = max(values.values())
    default_value = values["default"]
    gap = best - default_value
    return ComparisonReport(
        values=values,
        default_is_best=default_value >= best,
        gap_absolute=gap,
        gap_relative=(gap / best) if best > 0 else 0.0,
    )
