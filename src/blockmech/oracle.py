"""Exact VCG over the full block space.

Exponential-time ground truth for small instances: every ordered subset of
the bundles is a candidate block, the total-bid maximizer wins, and each
bundle is charged its externality via the refund rule. One walk of the
default algorithm's prefix tree (`default_algo._walk`), with all bundles as
one pool, scores every block once: a node adds one contribution to its
parent's total, so totals equal a left-to-right `block_bids` sum bit for
bit; a node displaces the incumbent when its value is higher, or equal and
the node shorter, which keeps the canonical first maximizer; and a bundle's
counterfactual value at a node is the node's total minus its contribution
on the path (0.0 when absent). Used to cross-check the default algorithm
and the mechanism's refund logic; refuses instances past the size cap
rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Mapping, Optional

from .default_algo import _GroupEvaluator, _walk
from .model import Block, CoinbaseLabel, as_bundle_map, block_bids

DEFAULT_OMEGA_LIMIT = 8


class OracleSizeError(ValueError):
    """The instance is too large for exact enumeration."""


@dataclass(frozen=True)
class VcgOutcome:
    winner: Block
    total_bid: float
    charges: dict
    refunds: dict
    proposer_revenue: float


def _check_size(count: int, limit: int) -> None:
    if count > limit:
        raise OracleSizeError(
            f"refusing exact enumeration of {count} bundles (limit {limit}); "
            "the oracle never approximates"
        )


def full_omega(bundles, limit: int = DEFAULT_OMEGA_LIMIT) -> Iterator[Block]:
    """Every ordered subset of the bundle set, exactly once, in canonical
    order (sizes ascending, ids ascending, permutations lexicographic)."""
    ids = sorted(as_bundle_map(bundles))
    _check_size(len(ids), limit)
    for size in range(len(ids) + 1):
        yield from permutations(ids, size)


def vcg_outcome(
    bundles,
    coinbase: CoinbaseLabel,
    bids: Optional[Mapping] = None,
    limit: int = DEFAULT_OMEGA_LIMIT,
) -> VcgOutcome:
    """Run the exact mechanism: winner, per-bundle charges and refunds, and
    the residual transferred to the proposer.

    The refund to bundle i is the block's total bid minus the best total the
    others could reach with i's bid zeroed, maximized over the same full
    block space. One walk over that space computes the winner and every
    counterfactual maximum simultaneously.
    """
    by_id = as_bundle_map(bundles)
    ids = sorted(by_id)
    _check_size(len(ids), limit)
    evaluator = _GroupEvaluator(by_id, coinbase, bids)
    best_block, best_total, without = _walk(evaluator, True)

    winner_values = block_bids(best_block, by_id, coinbase, bids)
    charges = {i: winner_values.get(i, 0.0) for i in ids}
    refunds = {i: best_total - without[i][1] for i in ids}
    proposer = sum(charges[i] - refunds[i] for i in ids)
    return VcgOutcome(best_block, best_total, charges, refunds, proposer)
