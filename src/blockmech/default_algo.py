"""Default block-building algorithm.

Bundles are partitioned into conflict groups and each group is resolved
independently. One plan per group (`_plan`) picks the search: exhaustive
over every ordered subset below the cutoff; above it, a structural shortcut
(a shared pivot transaction, or a single common target contract) or, as a
last resort, deterministic truncation to a subset small enough to
enumerate. One seeded member order serves both the same-target candidate
and the truncation ranking. Groups are resolved one after another in the
calling thread; the only worker pool in the package runs whole scenarios,
in `harness`.

Enumerated and truncated groups are scored by one depth-first walk over the
prefix tree of ordered subsets (`_walk`), which the exact oracle shares.
Each node adds one contribution to its parent's total, left to right. A
node displaces the incumbent when its value is higher, or equal and the
node shorter; since same-length nodes come out in lexicographic order, that
is the first maximizer of the canonical order. A member's counterfactual
value at a node is the node's total minus that member's contribution on the
path (0.0 when absent). The two shortcuts score each candidate of their
short explicit lists with `model.block_bids` (`_scan`).

The walk skips orderings that hold a commuting pair out of order
(partial-order reduction over Mazurkiewicz traces). Two bundles commute
when neither one's effective writes meet the other's footprint and no third
pool member's footprint meets the effective writes of both: swapping them
where they stand next to each other changes no bundle's predecessor
sequence, so it changes no contribution, with or without any bid zeroed.
The walk never places a bundle directly after a higher-id bundle it
commutes with; the orderings it keeps are in commuting normal form. Every
skipped ordering can be bubbled, by such swaps, into a kept one that has
the same length and contributions and is lexicographically smaller. So
every class of orderings equal up to such swaps keeps its lexicographic
minimum, and the canonical first maximizer of every objective is kept. A
class can keep more than one ordering: with x < a < b, a commuting with b
and x, and b and x not commuting, both (a, b, x) and (b, x, a) are kept.
Which orderings are skipped depends on the declared read and write sets
and the label alone, never on bids.

Float caveat: a kept ordering adds the same contributions as the orderings
it stands for, but in its own order. For integer and dyadic bids that is
exact; for others (0.1-step bids, say) the skipped orderings' float totals
may differ in the last place, so the maximizer returned can differ from a
full scan's by a rounding artefact. The value reported is always the left-
to-right float total of the block returned.

The walk is also bound-pruned: it skips every subtree none of whose nodes
could displace the best block or any member's counterfactual incumbent,
so it returns what the full walk returns, bit for bit. Each unplaced
member's bound is the most its bid can still pay below the node: a
constant (or gated-off) bid's value; for a table bid, the largest of its
default and every entry whose key its current signature can still grow
into (the signature itself, or the signature followed by more ids). With
`top` the node's total plus those bounds, every descendant is worth at most
`top`; with member q's bid zeroed, at most `top` less q's contribution on
the path, or less q's bound when q is unplaced. A subtree is walked when
one of these could displace its incumbent by the walk's own rule: higher,
or equal and the descendant shorter. So an equal bound prunes unless a
descendant could be shorter than the incumbent; that is what stops a
winner-take-all group after each head, where every later bid pays 0.
Floats: the bounds sum in another order than any path, so when they sum
to more than 0 `top` is raised by `top * 1e-9`, far above the rounding of
a few non-negative additions (`model` keeps every bid finite and
non-negative); when they sum to 0, every descendant adds exact zeros and
the test stays exact. Since the node itself is scored first, the tie
clause changes the outcome only where that slack underflows (totals below
about 2.5e-315); a test pins that case. A subtree with at most two
unplaced members is walked without a test, which would cost more than it
saves.

The candidate sub-blocks considered for a group depend only on the group's
membership, the cutoff, the seed, and the declared transaction structure,
never on bids. That bid independence is what makes the surrounding refund
mechanism truthful, and it is asserted by the test suite via enumeration
transcripts. The nodes the pruned walk visits do depend on bids, so a call
that asks for a transcript walks unpruned: its transcript is the candidate
range in commuting normal form, whatever the bids.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional

from .conflict import ConflictGroup, get_conflict_groups
from .model import (
    Block,
    CoinbaseLabel,
    _bid_lookup,
    add_up,
    block_bids,
)


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


def _ordered_subsets(members: tuple) -> Iterator[Block]:
    for size in range(len(members) + 1):
        yield from permutations(members, size)


def _plan(group: ConflictGroup, bundles: dict, k_cutoff: int, seed: int) -> tuple:
    """(strategy, pool, shortlist) for one group. `pool` is the tuple of ids
    the candidates draw from. An ENUMERATED or TRUNCATED group has no
    `shortlist`: every ordered subset of its pool is a candidate. A shortcut
    lists its candidates explicitly.

    A group smaller than `k_cutoff` is ENUMERATED. Any other group is
    SHARED_PIVOT when one tx hash appears in every member (sandwiches of a
    common victim: at most one bundle can land, so singletons suffice);
    SAME_TARGET when every tx of every member hits one contract address
    (relative order is value-irrelevant, one seeded ordering suffices); and
    otherwise TRUNCATED to its first `k_cutoff - 1` members in the seeded
    order. The seeded order ranks members by a seeded hash of their first
    tx hash, ties by id; it is both the SAME_TARGET candidate and the
    truncation ranking.
    """
    members = group.members
    if len(members) < k_cutoff:
        return Strategy.ENUMERATED, members, None
    if set.intersection(*({tx.tx_hash for tx in bundles[i].txs} for i in members)):
        return Strategy.SHARED_PIVOT, members, [(i,) for i in members]

    def rank(i):
        tx_hash = bundles[i].txs[0].tx_hash
        digest = hashlib.blake2b(f"{seed}:{tx_hash}".encode(), digest_size=16)
        return digest.hexdigest(), i

    seeded = sorted(members, key=rank)
    if len({tx.target for i in members for tx in bundles[i].txs}) == 1:
        return Strategy.SAME_TARGET, members, [tuple(seeded)]
    return Strategy.TRUNCATED, tuple(sorted(seeded[: k_cutoff - 1])), None


def candidate_set(
    group: ConflictGroup, bundles: dict, k_cutoff: int, seed: int
) -> Iterator[Block]:
    """Candidate sub-blocks for one group, in canonical enumeration order:
    the range the group's optimum is taken over.

    The canonical order (sizes ascending, members in id order, permutations
    lexicographic) defines the tie-breaking rule: the first maximizer wins.
    An enumerated or truncated group's walk scores only the candidates in
    commuting normal form (see the module docstring), which reach the same
    optimum; the bound-pruned walk skips those that cannot displace an
    incumbent, and which those are depends on bids, but the range does not.
    Bids are deliberately absent from the signature.
    """
    _, pool, shortlist = _plan(group, bundles, k_cutoff, seed)
    yield from _ordered_subsets(pool) if shortlist is None else shortlist


def _walk(
    bundles: dict,
    coinbase: CoinbaseLabel,
    counterfactuals: bool,
    transcript: Optional[list] = None,
) -> tuple:
    """Score the ordered subsets of `bundles` that hold no commuting pair
    out of order, by a depth-first walk over their prefix tree in id order.
    The module docstring says which orderings are skipped and why the result
    is still the first maximizer in canonical order.

    The tables are built once up front: gates and gated bids are resolved by
    `model._bid_lookup` and predecessor filtering works on bitmasks
    (`affects`). Every contribution equals `model.block_bids`'s under
    `coinbase`; the test suite pins the walk to a `block_bids` scan. The
    skip masks come from `affects` alone; a skipped child prunes its whole
    subtree. Placing a slot appends its id to the signature of each table
    bid it affects (`readers`), and removing it cuts the id off again.
    `cur[q]` holds bundle q's contribution on the current path, 0.0 when q
    is absent. Below a node with at least three unplaced slots, `promising`
    applies the module docstring's bound test; its bound tables (`_reach`)
    are built on its first call. A `transcript` turns the test off and
    receives every node in walk order, so the nodes it lists never depend
    on bids. Returns (block, value, {id: (block, value with its bid
    zeroed)}), the dict empty without `counterfactuals`. The best value is
    the left-to-right float total of its block; a counterfactual value is
    the node total less the member's contribution, which can differ in the
    last place from its block's left-to-right total with that bid zeroed.
    """
    ids = sorted(bundles)
    n = len(ids)
    # Signatures and table keys carry a leading comma per id (",3,5"), so
    # placing slot s appends tails[s] to the signature of each of its
    # readers.
    tails = ["," + str(i) for i in ids]
    const, entries, default = [None] * n, [None] * n, [0.0] * n
    for t, i in enumerate(ids):
        const[t], table, default[t] = _bid_lookup(bundles[i], coinbase)
        if table is not None:
            entries[t] = {"," + k if k else k: v for k, v in table.items()}
    eff = [bundles[i].effective_writes(coinbase) for i in ids]
    affects = [
        sum(
            1 << s
            for s in range(n)
            if s != t and eff[s] & bundles[i].footprint
        )
        for t, i in enumerate(ids)
    ]
    # indep[a]: the lower slots that commute with a, never placed directly
    # after it. `dep` holds the slots whose swap with a can change a
    # contribution, because one reads the other or a third slot reads both.
    # readers[a]: the table-bid slots whose signature grows when a is placed.
    indep = [0] * n
    readers: list = [[] for _ in ids]
    for a in range(n):
        dep = affects[a]
        for r, mask in enumerate(affects):
            if mask >> a & 1:
                dep |= mask | 1 << r
                if entries[r] is not None:
                    readers[a].append(r)
        indep[a] = ~dep & ((1 << a) - 1)
    # sigs[q]: slot q's signature on the current path.
    sigs = [""] * n
    reach: list = []  # per slot, signature -> bound; built on first use
    cur = [0.0] * n
    w_block = [()] * n
    w_value = [0.0] * n
    w_len = [0] * n
    best_block: Block = ()
    best_value = 0.0
    if transcript is not None:
        transcript.append(())

    def promising(value: float, rest: tuple, shortest: int) -> bool:
        """Whether a descendant of the current node (total `value`, slots
        `rest` unplaced, every descendant at least `shortest` long) could
        displace the best block or a counterfactual incumbent."""
        if not reach:
            reach.extend(
                {"": const[t]} if table is None else _reach(table, default[t])
                for t, table in enumerate(entries)
            )
        bounds = [reach[q].get(sigs[q], default[q]) for q in rest]
        # Builtin `sum`: never reported, and the 1e-9 slack covers its rounding.
        extra = sum(bounds)
        top = value + extra
        if extra > 0:
            top += top * 1e-9
        if top > best_value or (top == best_value and shortest < len(best_block)):
            return True
        if counterfactuals:
            off = cur[:]  # top - off[q] bounds the subtree with q's bid zeroed
            for q, bound in zip(rest, bounds):
                off[q] = bound
            for q in range(n):
                w = top - off[q]
                if w > w_value[q] or (w == w_value[q] and shortest < w_len[q]):
                    return True
        return False

    def visit(
        block: Block, total: float, free: tuple, depth: int, skip: int
    ) -> None:
        nonlocal best_block, best_value
        for k, p in enumerate(free):
            if skip >> p & 1:
                continue
            c = const[p]
            if c is None:
                c = entries[p].get(sigs[p], default[p])
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
                tail = tails[p]
                for q in readers[p]:
                    sigs[q] += tail
                # A subtree of at most two slots is walked without a test.
                rest = free[:k] + free[k + 1:]
                if (
                    depth > n - 3
                    or transcript is not None
                    or promising(value, rest, depth + 1)
                ):
                    visit(node, value, rest, depth + 1, indep[p])
                cut = -len(tail)
                for q in readers[p]:
                    sigs[q] = sigs[q][:cut]
            cur[p] = 0.0

    visit((), 0.0, tuple(range(n)), 1, 0)
    without = {ids[q]: (w_block[q], w_value[q]) for q in range(n)}
    return best_block, best_value, without if counterfactuals else {}


def _reach(entries: dict, default: float) -> dict:
    """Signature -> the most a table bid can still pay once its signature
    is that: the largest of its default and every entry whose key extends
    the signature by whole ids. The keys carry `_walk`'s leading commas; a
    signature that no key extends pays the default."""
    reach: dict = {}
    for key, value in entries.items():
        for end in [k for k, ch in enumerate(key) if ch == ","] + [len(key)]:
            prefix = key[:end]
            reach[prefix] = max(reach.get(prefix, default), value)
    return reach


def _scan(
    pool: tuple,
    bundles: dict,
    shortlist: list,
    coinbase: CoinbaseLabel,
    counterfactuals: bool,
    transcript: Optional[list] = None,
) -> tuple:
    """`_walk`'s result for an explicit candidate list, which is not
    prefix-closed: each candidate scored by `model.block_bids`, summed left
    to right, first maximizer in list order."""
    best: Optional[Block] = None
    best_value = 0.0
    without: dict = {}
    for block in shortlist:
        if transcript is not None:
            transcript.append(block)
        values = block_bids(block, bundles, coinbase)
        total = add_up(values.values())
        if best is None or total > best_value:
            best, best_value = block, total
        if counterfactuals:
            for i in pool:
                value = total - values.get(i, 0.0)
                if i not in without or value > without[i][1]:
                    without[i] = (block, value)
    return best, best_value, without


def _resolve(
    group: ConflictGroup,
    bundles: dict,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    counterfactuals: bool,
    transcript: Optional[list] = None,
) -> tuple:
    strategy, pool, shortlist = _plan(group, bundles, k_cutoff, seed)
    if shortlist is None:
        best, value, without = _walk(
            {i: bundles[i] for i in pool}, coinbase, counterfactuals, transcript
        )
    else:
        best, value, without = _scan(
            pool, bundles, shortlist, coinbase, counterfactuals, transcript
        )
    resolution = GroupResolution(group, strategy, best, value)
    if not counterfactuals:
        return resolution, {}
    # A member outside a truncated pool adds 0.0 to every candidate, so its
    # counterfactual is the base resolution.
    return resolution, {i: without.get(i, (best, value)) for i in group.members}


def resolve_group(
    group: ConflictGroup,
    bundles: dict,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
    transcript: Optional[list] = None,
) -> GroupResolution:
    """Exact argmax of the total bid over the group's candidate set, the
    first maximizer in canonical order.

    A `transcript` list, when supplied, receives every candidate scored, in
    walk order: for an enumerated or truncated group, the members of
    `candidate_set` in commuting normal form (no adjacent pair with the
    higher id first that commutes), walked unpruned; for a shortcut, the
    whole list. Without a transcript the walk prunes by bids, with the same
    result. Comparing transcripts across bid profiles is how the candidate
    set's bid independence is audited.
    """
    resolution, _ = _resolve(
        group, bundles, k_cutoff, seed, coinbase, False, transcript
    )
    return resolution


def resolve_group_with_counterfactuals(
    group: ConflictGroup,
    bundles: dict,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
) -> tuple:
    """Base resolution plus, per member, the argmax with that member's bid
    zeroed, all from one walk over the candidate set.

    Zeroing a bid changes a candidate's value by exactly that bundle's own
    contribution in it (no other bundle's bid reads bid values). So at each
    node of the prefix-tree walk (see `_walk`) member i's counterfactual
    value is the node's total minus i's contribution on the path, 0.0 when i
    is absent; a node displaces i's incumbent when that value is higher, or
    equal and the node shorter, the same first maximizer as a literal rerun
    in canonical order, up to the module docstring's float caveat. Shortcut
    groups score their explicit candidates in list order. Returns
    (GroupResolution, {member id: (sub_block, value of others)}).
    """
    return _resolve(group, bundles, k_cutoff, seed, coinbase, True)


def block_building(
    bundles: dict,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
) -> Block:
    """Resolve every group and concatenate the sub-blocks.

    Groups are mutually conflict-free, so the concatenation order cannot
    change the value; ascending smallest-member-id keeps it reproducible.
    """
    groups = get_conflict_groups(bundles)
    resolved = [resolve_group(g, bundles, k_cutoff, seed, coinbase) for g in groups]
    return tuple(i for res in resolved for i in res.sub_block)


def counterfactual_blocks(
    bundles: dict,
    k_cutoff: int,
    seed: int,
    coinbase: CoinbaseLabel,
) -> dict:
    """For each bundle i, the block built with i's bid forced to zero,
    spliced from one pass (asserted equal to the full rerun by the test
    suite). The bundle stays in the input, maybe included at zero bid; the
    seed, and so every candidate set, is unchanged."""
    resolved = [
        resolve_group_with_counterfactuals(g, bundles, k_cutoff, seed, coinbase)
        for g in get_conflict_groups(bundles)
    ]
    return splice_counterfactuals(resolved)


def splice_counterfactuals(resolved: list) -> dict:
    """{member id: block} from one pass, a (GroupResolution, counterfactuals)
    pair per group in order. Zeroing i's bid changes only its own group's
    resolution, so i's block swaps that sub-block for i's counterfactual."""
    out = {}
    for slot, (_, counterfactuals) in enumerate(resolved):
        head = tuple(i for res, _ in resolved[:slot] for i in res.sub_block)
        tail = tuple(i for res, _ in resolved[slot + 1:] for i in res.sub_block)
        for i, (sub_block, _) in counterfactuals.items():
            out[i] = head + sub_block + tail
    return dict(sorted(out.items()))
