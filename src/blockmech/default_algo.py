"""Default block-building algorithm.

Bundles are partitioned into conflict groups and each group is resolved
independently: small groups by exhaustive search over every ordered subset,
large groups by structural shortcuts (a shared pivot transaction, or a
single common target contract) and, as a last resort, by deterministic
truncation to a subset small enough to enumerate. One seeded member order
serves both the same-target candidate and the truncation ranking. Groups
are resolved one after another in the calling thread; the only worker pool
in the package runs whole scenarios, in `harness`.

The candidate sub-blocks considered for a group depend only on the group's
membership, the cutoff, the seed, and the declared transaction structure,
never on bids. That bid independence is what makes the surrounding refund
mechanism truthful, and it is asserted by the test suite via enumeration
transcripts.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Mapping, Optional

from .conflict import ConflictGroup, get_conflict_groups
from .model import (
    Block,
    CoinbaseLabel,
    ConstantBid,
    GatedBid,
    ZERO_BID,
    as_bundle_map,
    one_time_label,
)

DEFAULT_K_CUTOFF = 8


class Strategy(enum.Enum):
    ENUMERATED = "enumerated"
    SHARED_PIVOT = "shared-pivot"
    SAME_TARGET = "same-target"
    TRUNCATED = "truncated-enumeration"


@dataclass(frozen=True)
class GroupResolution:
    """Audit record of how one group was resolved."""

    group: ConflictGroup
    strategy: Strategy
    sub_block: Block
    value: float


def is_feasible(group: ConflictGroup, bundles) -> Optional[Strategy]:
    """Shortcut classification for a large group.

    SHARED_PIVOT when one tx hash appears in every member (sandwiches of a
    common victim: at most one bundle can land, so singletons suffice).
    SAME_TARGET when every tx of every member hits one contract address
    (relative order is value-irrelevant, one seeded ordering suffices).
    None when no shortcut applies.
    """
    by_id = as_bundle_map(bundles)
    members = group.sorted_members()
    shared = set(tx.tx_hash for tx in by_id[members[0]].txs)
    for i in members[1:]:
        shared &= {tx.tx_hash for tx in by_id[i].txs}
        if not shared:
            break
    if shared:
        return Strategy.SHARED_PIVOT
    targets = {tx.target for i in members for tx in by_id[i].txs}
    if len(targets) == 1:
        return Strategy.SAME_TARGET
    return None


def _order_hash(seed: int, tx_hash: str) -> str:
    return hashlib.blake2b(
        f"{seed}:{tx_hash}".encode(), digest_size=16
    ).hexdigest()


def _seeded_order(members, bundles, seed: int) -> list:
    """Members ordered by the seeded hash of their first tx hash, ties by id.
    Used both as the SAME_TARGET candidate and as the truncation ranking."""
    by_id = as_bundle_map(bundles)
    return sorted(
        members, key=lambda i: (_order_hash(seed, by_id[i].txs[0].tx_hash), i)
    )


def select_subset(group: ConflictGroup, bundles, k: int, seed: int) -> list:
    """Deterministic top-k of a group in the seeded order."""
    members = group.sorted_members()
    if k >= len(members):
        return members
    return _seeded_order(members, bundles, seed)[:k]


def _ordered_subsets(members: list) -> Iterator[Block]:
    for size in range(len(members) + 1):
        yield from permutations(members, size)


def classify_group(group: ConflictGroup, bundles, k_cutoff: int) -> Strategy:
    if len(group) < k_cutoff:
        return Strategy.ENUMERATED
    shortcut = is_feasible(group, bundles)
    return shortcut if shortcut is not None else Strategy.TRUNCATED


def candidate_set(
    group: ConflictGroup, bundles, k_cutoff: int, seed: int
) -> Iterator[Block]:
    """Candidate sub-blocks for one group, in canonical enumeration order.

    The canonical order (sizes ascending, members in id order, permutations
    lexicographic) doubles as the tie-breaking rule: the first maximizer
    wins. Bids are deliberately absent from the signature.
    """
    strategy = classify_group(group, bundles, k_cutoff)
    members = group.sorted_members()
    if strategy is Strategy.ENUMERATED:
        yield from _ordered_subsets(members)
    elif strategy is Strategy.SHARED_PIVOT:
        yield from ((i,) for i in members)
    elif strategy is Strategy.SAME_TARGET:
        yield tuple(_seeded_order(members, bundles, seed))
    else:
        selected = sorted(select_subset(group, bundles, k_cutoff - 1, seed))
        yield from _ordered_subsets(selected)


class _GroupEvaluator:
    """Bid evaluation specialized for one bundle set under a fixed label and
    bid profile.

    Gate checks and gated-bid unwrapping happen once up front, predecessor
    filtering works on precomputed bitmasks, and table lookups reuse interned
    id strings. Semantics are identical to model.block_bids under the same
    label and profile; the test suite asserts the two routes agree.
    """

    def __init__(self, bundles: dict, coinbase: CoinbaseLabel, bids=None):
        ids = sorted(bundles)
        self.index = {i: n for n, i in enumerate(ids)}
        self.idstr = [str(i) for i in ids]
        count = len(ids)
        self.const = [None] * count
        self.entries = [None] * count
        self.default = [0.0] * count
        eff = [bundles[i].effective_writes(coinbase) for i in ids]
        self.affects = [
            sum(
                1 << s
                for s in range(count)
                if s != t and eff[s] & bundles[i].footprint
            )
            for t, i in enumerate(ids)
        ]
        for t, i in enumerate(ids):
            b = bundles[i]
            fn = bids.get(i) if bids else None
            if fn is None:
                fn = b.bid
            if b.gate is not None and b.gate != coinbase:
                fn = None  # no-op bundle: bids nothing under this label
            while isinstance(fn, GatedBid):
                fn = fn.inner if fn.target == coinbase else None
            if fn is None:
                self.const[t] = 0.0
            elif isinstance(fn, ConstantBid):
                self.const[t] = fn.value
            else:
                self.entries[t] = dict(fn.entries)  # plain dict: faster .get
                self.default[t] = fn.default

    def values(self, block: Block) -> tuple:
        """(total bid, per-element contributions aligned with the block)."""
        total = 0.0
        contribs = []
        placed: list = []
        index = self.index
        idstr = self.idstr
        for i in block:
            t = index[i]
            value = self.const[t]
            if value is None:
                mask = self.affects[t]
                sig = ",".join(idstr[s] for s in placed if mask >> s & 1)
                value = self.entries[t].get(sig, self.default[t])
            total += value
            contribs.append(value)
            placed.append(t)
        return total, contribs


def resolve_group(
    group: ConflictGroup,
    bundles,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    bids: Optional[Mapping] = None,
    transcript: Optional[list] = None,
) -> GroupResolution:
    """Exact argmax of the total bid over the group's candidate set.

    A `transcript` list, when supplied, receives every candidate actually
    scanned; comparing transcripts across bid profiles is how the candidate
    set's bid independence is audited.
    """
    by_id = as_bundle_map(bundles)
    group_bundles = {i: by_id[i] for i in group.members}
    evaluator = _GroupEvaluator(group_bundles, coinbase, bids)
    best: Optional[Block] = None
    best_value = 0.0
    for block in candidate_set(group, group_bundles, k_cutoff, seed):
        if transcript is not None:
            transcript.append(block)
        value, _ = evaluator.values(block)
        if best is None or value > best_value:
            best, best_value = block, value
    return GroupResolution(
        group, classify_group(group, bundles, k_cutoff), best, best_value
    )


def resolve_group_with_counterfactuals(
    group: ConflictGroup,
    bundles,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    bids: Optional[Mapping] = None,
) -> tuple:
    """Base resolution plus, per member, the argmax with that member's bid
    zeroed, all from one enumeration pass.

    Zeroing a bid changes a candidate's value by exactly that bundle's own
    contribution in it (no other bundle's bid reads bid values), so every
    counterfactual objective is scanned in the same canonical order with the
    same first-maximizer tie-breaking as a literal rerun. Returns
    (GroupResolution, {member id: (sub_block, value of others)}).
    """
    by_id = as_bundle_map(bundles)
    group_bundles = {i: by_id[i] for i in group.members}
    evaluator = _GroupEvaluator(group_bundles, coinbase, bids)
    members = group.sorted_members()
    best: Optional[Block] = None
    best_value = 0.0
    without_block = {i: None for i in members}
    without_value = {i: 0.0 for i in members}
    for block in candidate_set(group, group_bundles, k_cutoff, seed):
        total, contribs = evaluator.values(block)
        if best is None or total > best_value:
            best, best_value = block, total
        contrib_of = dict(zip(block, contribs))
        for i in members:
            value = total - contrib_of.get(i, 0.0)
            if without_block[i] is None or value > without_value[i]:
                without_block[i], without_value[i] = block, value
    resolution = GroupResolution(
        group, classify_group(group, bundles, k_cutoff), best or (), best_value
    )
    counterfactuals = {
        i: (without_block[i] or (), without_value[i]) for i in members
    }
    return resolution, counterfactuals


def build_with_resolutions(
    bundles,
    k_cutoff: int = DEFAULT_K_CUTOFF,
    seed: int = 0,
    coinbase: Optional[CoinbaseLabel] = None,
    bids: Optional[Mapping] = None,
) -> tuple:
    """Resolve every group and concatenate the sub-blocks.

    Groups are mutually conflict-free, so the concatenation order cannot
    change the value; ascending smallest-member-id keeps it reproducible.
    Returns (block, [GroupResolution]).
    """
    by_id = as_bundle_map(bundles)
    if coinbase is None:
        coinbase = one_time_label(seed)
    resolutions = [
        resolve_group(g, by_id, k_cutoff, seed, coinbase, bids)
        for g in get_conflict_groups(by_id)
    ]
    block = tuple(i for res in resolutions for i in res.sub_block)
    return block, resolutions


def block_building(
    bundles,
    k_cutoff: int = DEFAULT_K_CUTOFF,
    seed: int = 0,
    coinbase: Optional[CoinbaseLabel] = None,
    bids: Optional[Mapping] = None,
) -> Block:
    block, _ = build_with_resolutions(bundles, k_cutoff, seed, coinbase, bids)
    return block


def default_pass(
    groups,
    bundles,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    bids: Optional[Mapping] = None,
) -> list:
    """One default-algorithm pass over the given conflict groups of
    `bundles`: per group, in order, the pair (GroupResolution,
    {member id: (sub_block, value of others)}) from one enumeration.

    Concatenating the base sub-blocks gives the default block; zeroing
    member i's bid swaps in i's sub-block for its own group only.
    """
    by_id = as_bundle_map(bundles)
    return [
        resolve_group_with_counterfactuals(g, by_id, k_cutoff, seed, coinbase, bids)
        for g in groups
    ]


def counterfactual_blocks(
    bundles,
    k_cutoff: int = DEFAULT_K_CUTOFF,
    seed: int = 0,
    coinbase: Optional[CoinbaseLabel] = None,
    bids: Optional[Mapping] = None,
) -> dict:
    """For each bundle i, the block built with i's bid forced to zero.

    Zeroing one bid can only change the resolution of that bundle's own
    group, so the other groups' sub-blocks are spliced in unchanged from
    `default_pass` (asserted equal to the full rerun by the test suite).
    The bundle stays in the input and may still be included at zero bid;
    the seed (and therefore every candidate set) is unchanged.
    """
    by_id = as_bundle_map(bundles)
    if coinbase is None:
        coinbase = one_time_label(seed)
    resolved = default_pass(
        get_conflict_groups(by_id), by_id, k_cutoff, seed, coinbase, bids
    )
    out = {}
    for slot, (_, counterfactuals) in enumerate(resolved):
        for i, (sub_block, _) in counterfactuals.items():
            parts = [
                sub_block if s == slot else res.sub_block
                for s, (res, _) in enumerate(resolved)
            ]
            out[i] = tuple(x for part in parts for x in part)
    return {i: out[i] for i in sorted(out)}


def _counterfactual_blocks_naive(
    bundles,
    k_cutoff: int = DEFAULT_K_CUTOFF,
    seed: int = 0,
    coinbase: Optional[CoinbaseLabel] = None,
    bids: Optional[Mapping] = None,
) -> dict:
    """Test reference for `counterfactual_blocks`: a full rebuild per zeroed
    bundle. Nothing in the package calls it."""
    by_id = as_bundle_map(bundles)
    if coinbase is None:
        coinbase = one_time_label(seed)
    out = {}
    for i in sorted(by_id):
        override = dict(bids) if bids else {}
        override[i] = ZERO_BID
        out[i] = block_building(by_id, k_cutoff, seed, coinbase, override)
    return out
