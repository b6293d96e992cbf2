"""Exact VCG over the full block space.

Exponential-time ground truth for small instances: every ordered subset of
the bundles is a candidate block, the total-bid maximizer wins, and each
bundle is charged its externality via the refund rule. One walk of the
default algorithm's prefix tree (`default_algo._walk`), with all bundles as
one pool, scores every block that holds no commuting pair out of order: a
node adds one contribution to its parent's total, so a node's total is the
left-to-right `block_bids` sum of its block; a node displaces the incumbent
when its value is higher, or equal and the node shorter, which keeps the
canonical first maximizer; and a bundle's counterfactual value at a node
is the node's total minus its contribution on the path (0.0 when absent).
Bundles in different conflict groups always commute, so a multi-group
instance costs about the product of its groups' walks, not the full block
space; the default cap still applies unless a caller passes a larger
`limit`.
Used to cross-check the default algorithm and the mechanism's refund logic;
refuses instances past the size cap rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .default_algo import _ordered_subsets, _walk
from .model import Block, CoinbaseLabel, add_up, block_bids

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


def full_omega(bundles: dict, limit: int = DEFAULT_OMEGA_LIMIT) -> Iterator[Block]:
    """Every ordered subset of the bundle set, exactly once, in canonical
    order (sizes ascending, ids ascending, permutations lexicographic)."""
    ids = sorted(bundles)
    _check_size(len(ids), limit)
    yield from _ordered_subsets(ids)


def vcg_outcome(
    bundles: dict,
    coinbase: CoinbaseLabel,
    limit: int = DEFAULT_OMEGA_LIMIT,
) -> VcgOutcome:
    """Run the exact mechanism: winner, per-bundle charges and refunds, and
    the residual transferred to the proposer.

    The refund to bundle i is the block's total bid minus the best total the
    others could reach with i's bid zeroed, maximized over the same full
    block space. One walk over that space computes the winner and every
    counterfactual maximum simultaneously.
    """
    ids = sorted(bundles)
    _check_size(len(ids), limit)
    best_block, best_total, without = _walk(bundles, coinbase, True)

    winner_values = block_bids(best_block, bundles, coinbase)
    charges = {i: winner_values.get(i, 0.0) for i in ids}
    refunds = {i: best_total - without[i][1] for i in ids}
    proposer = add_up(charges[i] - refunds[i] for i in ids)
    return VcgOutcome(best_block, best_total, charges, refunds, proposer)
