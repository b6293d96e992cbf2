"""Default block-building algorithm.

Bundles are partitioned into conflict groups and each group is resolved
independently: small groups by exhaustive search over every ordered subset,
large groups by structural shortcuts (a shared pivot transaction, or a
single common target contract) and, as a last resort, by deterministic
truncation to a subset small enough to enumerate. One seeded member order
serves both the same-target candidate and the truncation ranking. Groups
are resolved one after another in the calling thread; the only worker pool
in the package runs whole scenarios, in `harness`.

Enumerated and truncated groups are scored by one depth-first walk over the
prefix tree of ordered subsets (`_walk`), which the exact oracle shares.
Each node adds one contribution to its parent's total, so totals add left
to right exactly as a from-scratch evaluation does. A node displaces the
incumbent when its value is higher, or equal and the node shorter; since
same-length nodes come out in lexicographic order, that is the first
maximizer of the canonical order. A member's counterfactual value at a node
is the node's total minus that member's contribution on the path (0.0 when
absent), the same float subtraction as on a rescored candidate, so zeroed-
bid resolutions are exact too. The two shortcuts score their short explicit
candidate lists directly.

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


def _plan(group: ConflictGroup, bundles, k_cutoff: int, seed: int) -> tuple:
    """(strategy, pool, shortlist) for one group. `pool` holds the sorted ids
    the candidates draw from. An ENUMERATED or TRUNCATED group has no
    `shortlist`: every ordered subset of its pool is a candidate. A shortcut
    lists its candidates explicitly."""
    strategy = classify_group(group, bundles, k_cutoff)
    members = group.sorted_members()
    if strategy is Strategy.ENUMERATED:
        return strategy, members, None
    if strategy is Strategy.TRUNCATED:
        selected = select_subset(group, bundles, k_cutoff - 1, seed)
        return strategy, sorted(selected), None
    if strategy is Strategy.SHARED_PIVOT:
        return strategy, members, [(i,) for i in members]
    return strategy, members, [tuple(_seeded_order(members, bundles, seed))]


def candidate_set(
    group: ConflictGroup, bundles, k_cutoff: int, seed: int
) -> Iterator[Block]:
    """Candidate sub-blocks for one group, in canonical enumeration order.

    The canonical order (sizes ascending, members in id order, permutations
    lexicographic) defines the tie-breaking rule: the first maximizer wins.
    Bids are deliberately absent from the signature.
    """
    _, pool, shortlist = _plan(group, bundles, k_cutoff, seed)
    yield from _ordered_subsets(pool) if shortlist is None else shortlist


class _GroupEvaluator:
    """Bid evaluation specialized for one bundle set under a fixed label and
    bid profile.

    Gate checks and gated-bid unwrapping happen once up front, predecessor
    filtering works on precomputed bitmasks, and table lookups reuse interned
    id strings. Semantics are identical to model.block_bids under the same
    label and profile; the test suite asserts the two routes agree.
    """

    def __init__(self, bundles: dict, coinbase: CoinbaseLabel, bids=None):
        self.ids = ids = sorted(bundles)
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


def _walk(
    evaluator: _GroupEvaluator,
    counterfactuals: bool,
    transcript: Optional[list] = None,
) -> tuple:
    """Score every ordered subset of the evaluator's bundles once, by a
    depth-first walk over their prefix tree in id order (see the module
    docstring for why the result equals a scan in canonical order).

    Each node's table signatures come from the placed path, built once per
    node. `cur[q]` holds bundle q's contribution on the current path, 0.0
    when q is absent. A `transcript` receives the nodes in walk order.
    Returns (block, value, {id: (block, value with its bid zeroed)}), the
    dict empty without `counterfactuals`.
    """
    ids, const, entries = evaluator.ids, evaluator.const, evaluator.entries
    default, affects, idstr = evaluator.default, evaluator.affects, evaluator.idstr
    n = len(ids)
    path: list = []  # evaluator slots of the current node, in order
    cur = [0.0] * n
    w_block = [()] * n
    w_value = [0.0] * n
    w_len = [0] * n
    best_block: Block = ()
    best_value = 0.0
    if transcript is not None:
        transcript.append(())

    def visit(block: Block, total: float, free: tuple, depth: int) -> None:
        nonlocal best_block, best_value
        for k, p in enumerate(free):
            c = const[p]
            if c is None:
                mask = affects[p]
                sig = ",".join([idstr[s] for s in path if mask >> s & 1])
                c = entries[p].get(sig, default[p])
            node = block + (ids[p],)
            value = total + c
            if transcript is not None:
                transcript.append(node)
            if value > best_value or (
                value == best_value and depth < len(best_block)
            ):
                best_block, best_value = node, value
            cur[p] = c
            if counterfactuals:
                for q in range(n):
                    w = value - cur[q]
                    if w > w_value[q] or (w == w_value[q] and depth < w_len[q]):
                        w_block[q], w_value[q], w_len[q] = node, w, depth
            if depth < n:
                path.append(p)
                visit(node, value, free[:k] + free[k + 1:], depth + 1)
                path.pop()
            cur[p] = 0.0

    visit((), 0.0, tuple(range(n)), 1)
    without = {ids[q]: (w_block[q], w_value[q]) for q in range(n)}
    return best_block, best_value, without if counterfactuals else {}


def _scan(
    evaluator: _GroupEvaluator,
    shortlist: list,
    counterfactuals: bool,
    transcript: Optional[list] = None,
) -> tuple:
    """`_walk`'s result for an explicit candidate list, which is not
    prefix-closed: each candidate scored from scratch, first maximizer in
    list order."""
    best: Optional[Block] = None
    best_value = 0.0
    without: dict = {}
    for block in shortlist:
        if transcript is not None:
            transcript.append(block)
        total, contribs = evaluator.values(block)
        if best is None or total > best_value:
            best, best_value = block, total
        if counterfactuals:
            contrib_of = dict(zip(block, contribs))
            for i in evaluator.ids:
                value = total - contrib_of.get(i, 0.0)
                if i not in without or value > without[i][1]:
                    without[i] = (block, value)
    return best, best_value, without


def _resolve(
    group: ConflictGroup,
    bundles,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    bids: Optional[Mapping],
    counterfactuals: bool,
    transcript: Optional[list] = None,
) -> tuple:
    by_id = as_bundle_map(bundles)
    strategy, pool, shortlist = _plan(group, by_id, k_cutoff, seed)
    evaluator = _GroupEvaluator({i: by_id[i] for i in pool}, coinbase, bids)
    if shortlist is None:
        best, value, without = _walk(evaluator, counterfactuals, transcript)
    else:
        best, value, without = _scan(
            evaluator, shortlist, counterfactuals, transcript
        )
    resolution = GroupResolution(group, strategy, best, value)
    if not counterfactuals:
        return resolution, {}
    # A member outside a truncated pool adds 0.0 to every candidate, so its
    # counterfactual is the base resolution.
    members = group.sorted_members()
    return resolution, {i: without.get(i, (best, value)) for i in members}


def resolve_group(
    group: ConflictGroup,
    bundles,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    bids: Optional[Mapping] = None,
    transcript: Optional[list] = None,
) -> GroupResolution:
    """Exact argmax of the total bid over the group's candidate set, the
    first maximizer in canonical order.

    A `transcript` list, when supplied, receives every candidate scored, in
    walk order; comparing transcripts across bid profiles is how the
    candidate set's bid independence is audited.
    """
    resolution, _ = _resolve(
        group, bundles, k_cutoff, seed, coinbase, bids, False, transcript
    )
    return resolution


def resolve_group_with_counterfactuals(
    group: ConflictGroup,
    bundles,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    bids: Optional[Mapping] = None,
) -> tuple:
    """Base resolution plus, per member, the argmax with that member's bid
    zeroed, all from one walk over the candidate set.

    Zeroing a bid changes a candidate's value by exactly that bundle's own
    contribution in it (no other bundle's bid reads bid values). So at each
    node of the prefix-tree walk (see `_walk`) member i's counterfactual
    value is the node's total minus i's contribution on the path, 0.0 when i
    is absent; a node displaces i's incumbent when that value is higher, or
    equal and the node shorter, the same first maximizer as a literal rerun
    in canonical order. Shortcut groups score their explicit candidates in
    list order. Returns (GroupResolution, {member id: (sub_block, value of
    others)}).
    """
    return _resolve(group, bundles, k_cutoff, seed, coinbase, bids, True)


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

