"""Greedy reference builders and the value-comparison harness.

The two greedies are declared stand-ins for production orderings whose exact
rules are not public: one keyed on raw bid, one on bid density (bid/weight).
Both append the best remaining bundle evaluated in the current partial
block's context and stop when nothing adds positive value.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .default_algo import block_building
from .model import (
    Block,
    CoinbaseLabel,
    Scenario,
    _bid_lookup,
    block_total_bid,
    one_time_label,
)
from .oracle import DEFAULT_OMEGA_LIMIT, vcg_outcome


def _greedy(bundles: dict, coinbase, key_weight) -> Block:
    """Repeatedly append the remaining bundle with the largest value /
    key_weight in the partial block's context, the first in id order on
    ties, until that bundle's value is not positive.

    Each bundle's bid is resolved once (`model._bid_lookup`) and its value
    cached. Placing a bundle changes the context only of the remaining
    bundles whose footprint meets its effective writes; only those get it
    appended to their predecessors and are evaluated again. A heap on
    (-key, id) yields the largest key, lowest id first; each evaluation
    pushes a fresh entry, and an entry whose key is no longer the bundle's
    current one (or whose bundle is placed) is skipped when popped.
    """
    touching: dict = {}  # storage key -> ids whose footprint holds it
    lookups: dict = {}
    weights: dict = {}
    preds: dict = {}  # id -> placed predecessor ids, as strings, in order
    values: dict = {}
    keys: dict = {}  # remaining id -> current key
    heap: list = []

    def evaluate(i: int) -> None:
        constant, table, default = lookups[i]
        if constant is None:
            value = table.get(",".join(preds[i]), default)
        else:
            value = constant
        values[i] = value
        keys[i] = key = value / weights[i]
        heappush(heap, (-key, i))

    for i in sorted(bundles):
        b = bundles[i]
        for k in b.footprint:
            touching.setdefault(k, []).append(i)
        lookups[i] = _bid_lookup(b, coinbase)
        weights[i] = key_weight(b)
        preds[i] = []
        evaluate(i)
    block = []
    while heap:
        neg, best_id = heappop(heap)
        if keys.get(best_id) != -neg:
            continue  # stale: re-evaluated since, or already placed
        if values[best_id] <= 0.0:
            break
        block.append(best_id)
        del keys[best_id]
        affected = {
            j
            for k in bundles[best_id].effective_writes(coinbase)
            for j in touching[k]
            if j in keys
        }
        placed = str(best_id)
        for j in affected:
            preds[j].append(placed)
            evaluate(j)
    return tuple(block)


def greedy_by_bid(bundles: dict, coinbase: CoinbaseLabel) -> Block:
    """Append the highest-bidding remaining bundle (ties by id)."""
    return _greedy(bundles, coinbase, lambda b: 1.0)


def greedy_by_density(bundles: dict, coinbase: CoinbaseLabel) -> Block:
    """Append the remaining bundle with the highest bid per unit weight."""
    for b in bundles.values():
        if b.weight <= 0:
            raise ValueError(f"bundle {b.id}: density ordering needs weight > 0")
    return _greedy(bundles, coinbase, lambda b: float(b.weight))


@dataclass(frozen=True)
class ComparisonReport:
    values: dict  # algorithm name -> block value
    default_is_best: bool
    gap_absolute: float
    gap_relative: float


def compare_algorithms(scenario: Scenario) -> ComparisonReport:
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
    if len(bundles) <= DEFAULT_OMEGA_LIMIT:
        values["oracle"] = vcg_outcome(bundles, coinbase).total_bid

    best = max(values.values())
    default_value = values["default"]
    gap = best - default_value
    return ComparisonReport(
        values=values,
        default_is_best=default_value >= best,
        gap_absolute=gap,
        gap_relative=(gap / best) if best > 0 else 0.0,
    )
