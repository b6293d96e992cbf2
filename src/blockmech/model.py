"""Domain model: bundles, bid functions, blocks, execution contexts.

Real chain execution is abstracted away. What a bundle "sees" when a block
runs is reduced to the ordered sequence of conflicting bundles placed before
it plus the coinbase label of the run; a bid function maps that context to a
non-negative payment. All types are immutable after construction, so every
operation in the package is a pure function and safe to share across threads.

Every `bundles` argument in the package is the id -> Bundle map that
`Scenario.bundle_map()` returns; callees only read it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Union

# Account-balance conflicts share the key space with contract storage via a
# reserved slot value.
BALANCE_SLOT = "__balance__"

# A block is an ordered sequence of distinct bundle ids.
Block = tuple

# Conflict groups at least this large skip exhaustive enumeration.
DEFAULT_K_CUTOFF = 8


class ModelError(ValueError):
    """Malformed domain object or misuse of a model operation."""


def _check_bid_value(value, what: str) -> None:
    if not math.isfinite(value):
        raise ModelError(f"non-finite {what} {value}")
    if value < 0:
        raise ModelError(f"negative {what} {value}")


class StorageKey(NamedTuple):
    """One storage location: a contract address plus a slot identifier.

    A named tuple, so the set operations on footprints hash and compare keys
    in C."""

    address: str
    slot: str

    @classmethod
    def balance(cls, address: str) -> "StorageKey":
        return cls(address, BALANCE_SLOT)


@dataclass(frozen=True, order=True)
class TxRef:
    tx_hash: str
    target: str


@dataclass(frozen=True)
class CoinbaseLabel:
    """Fee-recipient identifier visible to executing bundles.

    Builder algorithms run under fixed labels; a default-algorithm run draws
    a one-time label derived from the scenario seed, which lives outside the
    builder namespace so no gated bundle can match it.
    """

    value: str


def builder_label(index: int) -> CoinbaseLabel:
    return CoinbaseLabel(f"builder-{index}")


def one_time_label(seed: int) -> CoinbaseLabel:
    digest = hashlib.blake2b(f"one-time:{seed}".encode(), digest_size=8).hexdigest()
    return CoinbaseLabel(f"onetime-{digest}")


@dataclass(frozen=True)
class ExecutionContext:
    """What a bundle observes: conflicting predecessors, in order, and the
    coinbase label of the run."""

    predecessors: tuple
    coinbase: CoinbaseLabel

    @property
    def signature(self) -> str:
        """Canonical encoding of the predecessor sequence ("" when empty)."""
        return ",".join(str(i) for i in self.predecessors)


@dataclass(frozen=True)
class ConstantBid:
    """Fixed tip: the same payment in every execution context."""

    value: float

    def __post_init__(self):
        _check_bid_value(self.value, "bid value")

    def evaluate(self, ctx: ExecutionContext) -> float:
        return self.value

    def scaled(self, factor: float) -> "ConstantBid":
        return ConstantBid(self.value * factor)


@dataclass(frozen=True, eq=True)
class TableBid:
    """Context-dependent payment: exact-match lookup on the canonical
    predecessor-sequence signature, falling back to a default.

    `entries` is copied into a read-only mapping, so later changes to the
    caller's dict cannot reach the bid."""

    entries: Mapping[str, float]
    default: float

    def __post_init__(self):
        entries = MappingProxyType(dict(self.entries))
        object.__setattr__(self, "entries", entries)
        _check_bid_value(self.default, "table default")
        for signature, value in entries.items():
            _check_bid_value(value, f"table entry '{signature}'")

    def evaluate(self, ctx: ExecutionContext) -> float:
        return self.entries.get(ctx.signature, self.default)

    def scaled(self, factor: float) -> "TableBid":
        return TableBid(
            {k: v * factor for k, v in self.entries.items()}, self.default * factor
        )


@dataclass(frozen=True)
class GatedBid:
    """Pays only when the run's coinbase matches the target label."""

    target: CoinbaseLabel
    inner: "BidFunction"

    def evaluate(self, ctx: ExecutionContext) -> float:
        if ctx.coinbase != self.target:
            return 0.0
        return self.inner.evaluate(ctx)

    def scaled(self, factor: float) -> "GatedBid":
        return GatedBid(self.target, self.inner.scaled(factor))


BidFunction = Union[ConstantBid, TableBid, GatedBid]

ZERO_BID = ConstantBid(0.0)


def exclusive_bid(value: float) -> TableBid:
    """Winner-take-all shape: pays `value` at the head of the block and
    nothing once any conflicting bundle precedes it."""
    return TableBid({"": float(value)}, 0.0)


@dataclass(frozen=True)
class Bundle:
    """A searcher's atomic order.

    `reads`/`writes` are the declared storage footprint; `weight` is abstract
    gas. A set `gate` makes the bundle a no-op (bids zero, performs no
    writes) under any coinbase label other than the gate.
    """

    id: int
    txs: tuple
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    weight: int = 1
    gate: Optional[CoinbaseLabel] = None
    bid: BidFunction = ZERO_BID
    valuation: BidFunction = ZERO_BID
    footprint: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.txs:
            raise ModelError(f"bundle {self.id}: txs must be non-empty")
        if self.weight < 0:
            raise ModelError(f"bundle {self.id}: negative weight")
        object.__setattr__(self, "footprint", self.reads | self.writes)

    def effective_writes(self, coinbase: CoinbaseLabel) -> frozenset:
        if self.gate is not None and self.gate != coinbase:
            return frozenset()
        return self.writes


@dataclass(frozen=True)
class BuilderSpec:
    """Scenario-file descriptor: a registry name plus optional parameters."""

    name: str
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    bundles: tuple
    builders: tuple = ()
    k_cutoff: int = DEFAULT_K_CUTOFF
    seed: int = 0

    def __post_init__(self):
        if self.k_cutoff < 1:
            raise ModelError(f"k_cutoff must be >= 1, got {self.k_cutoff}")
        # Checked in input order, before sorting, so that a refusal names the
        # offending record's position. The same tx hash may appear in several
        # bundles (a shared victim tx), but it must always denote the same
        # transaction.
        ids: set = set()
        seen: dict = {}
        for n, b in enumerate(self.bundles):
            if b.id in ids:
                raise ModelError(f"bundles[{n}].id: duplicate bundle id {b.id}")
            ids.add(b.id)
            for t, tx in enumerate(b.txs):
                if seen.setdefault(tx.tx_hash, tx.target) != tx.target:
                    raise ModelError(
                        f"bundles[{n}].txs[{t}].target: tx hash {tx.tx_hash} "
                        "maps to conflicting targets"
                    )
        object.__setattr__(
            self, "bundles", tuple(sorted(self.bundles, key=lambda b: b.id))
        )

    def bundle_map(self) -> dict:
        return {b.id: b for b in self.bundles}


def with_bids(bundles: dict, bids: Mapping[int, BidFunction]) -> dict:
    """An id -> Bundle map in which each bundle named in `bids` states that
    bid: how a misreport or a zeroed bid is stated. Every other field, and
    every unlisted bundle object, is kept; an unknown id is refused."""
    out = dict(bundles)
    for i, fn in bids.items():
        if i not in out:
            raise ModelError(f"no bundle {i} to give a bid")
        out[i] = replace(out[i], bid=fn)
    return out


def evaluate_bid(bundle: Bundle, ctx: ExecutionContext) -> float:
    """Bundle's payment in the given context (0 when it no-ops)."""
    if bundle.gate is not None and bundle.gate != ctx.coinbase:
        return 0.0
    return bundle.bid.evaluate(ctx)


def _bid_lookup(bundle: Bundle, coinbase: CoinbaseLabel) -> tuple:
    """The bundle's bid under `coinbase` as (constant, table, default).

    The bundle gate and any `GatedBid` wrappers are resolved here, once. A
    constant payment (0.0 when a gate does not match) comes back as
    (value, None, 0.0); a table bid as (None, entries, default), to be read
    with `table.get(signature, default)`, which is what `evaluate_bid` pays
    in a context with that predecessor signature.
    """
    if bundle.gate is not None and bundle.gate != coinbase:
        return 0.0, None, 0.0
    fn = bundle.bid
    while isinstance(fn, GatedBid):
        if fn.target != coinbase:
            return 0.0, None, 0.0
        fn = fn.inner
    if isinstance(fn, ConstantBid):
        return fn.value, None, 0.0
    return None, fn.entries, fn.default


def block_bids(
    block: Block,
    bundles: dict,
    coinbase: CoinbaseLabel,
) -> dict:
    """Per-included-bundle bid values, evaluated in one pass over the block.

    A constant bid is read without looking at predecessors. A table bid's
    predecessors come from a per-key index of the effective writers placed
    so far, so the cost follows the conflicts an entry has, not the block
    length. Each bundle pays by its own `bid`; a misreport is a bundle map
    built by `with_bids`.
    """
    refusal = validate_builder_block(block, bundles)
    if refusal is not None:
        raise ModelError(refusal)
    values: dict = {}
    writers: dict = {}  # storage key -> positions of placed bundles writing it
    for position, i in enumerate(block):
        b = bundles[i]
        constant, table, default = _bid_lookup(b, coinbase)
        if constant is None:
            hits: set = set()
            for key in b.footprint:
                hits.update(writers.get(key, ()))
            # A list, not a generator: repeated generator frames ratchet
            # peak RSS.
            signature = ",".join([str(block[p]) for p in sorted(hits)])
            values[i] = table.get(signature, default)
        else:
            values[i] = constant
        for key in b.effective_writes(coinbase):
            writers.setdefault(key, []).append(position)
    return values


def add_up(amounts: Iterable) -> float:
    """Left-to-right float total from 0.0, the walk's order: the one rule
    for every reported amount. Builtin `sum` rounds floats otherwise from
    CPython 3.12 on (compensated), so reports would vary by interpreter."""
    total = 0.0
    for amount in amounts:
        total += amount
    return total


def block_total_bid(
    block: Block,
    bundles: dict,
    coinbase: CoinbaseLabel,
) -> float:
    """Total bid of a block, 0.0 when empty; bundles outside it contribute 0."""
    return add_up(block_bids(block, bundles, coinbase).values())


def validate_builder_block(block: Block, bundles: dict) -> Optional[str]:
    """A valid block is a duplicate-free subset of the input ids; otherwise
    the refusal, which names the first offending id."""
    seen = set()
    for i in block:
        if i in seen:
            return f"duplicate bundle id {i} in block"
        if i not in bundles:
            return f"foreign bundle id {i} not in input set"
        seen.add(i)
    return None


def ordered_map(fn, items: Iterable, threads: int = 1) -> list:
    """Map preserving input order; `threads > 1` uses a worker pool.

    Collection order is the submission order, never completion order, so the
    result is identical for any thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
