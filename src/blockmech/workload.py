"""Seeded synthetic scenario generation.

Group sizes are sampled from a profile distribution whose default shape puts
most mass on sizes 1-3 with a thin tail, matching the empirical pattern that
conflicts are rare and large conflict groups rarer. Each group gets its own
storage namespace, so the realized conflict partition is exactly the planned
one (cross-checked against the conflict module on every generation).

Special-case structure is stamped per group: a shared-pivot group gets one
common written key plus a shared victim tx and winner-take-all bids (only
one bundle can land); a same-target group gets a shared balance key, one
contract address, and constant bids (order is value-irrelevant).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from .conflict import get_conflict_groups
from .model import (
    Bundle,
    BuilderSpec,
    ConstantBid,
    Scenario,
    StorageKey,
    TableBid,
    TxRef,
    exclusive_bid,
)
from .scenario_io import (
    ScenarioParseError,
    _int,
    _list,
    _number,
    _object,
    _require,
    _str,
    read_json,
)


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class Profile:
    name: str
    n_bundles: int
    group_sizes: Mapping[int, float]  # size -> sampling weight
    shared_pivot_rate: float = 0.0
    same_target_rate: float = 0.0
    bid_model: str = "table"  # one of BID_MODELS
    builders: tuple = ()
    value_range: tuple = (1, 100)


BID_MODELS = ("constant", "table", "exclusive")

PROFILES = {
    "no-conflict": Profile(
        name="no-conflict",
        n_bundles=20,
        group_sizes={1: 1.0},
        bid_model="constant",
    ),
    "full-conflict": Profile(
        name="full-conflict",
        n_bundles=5,
        group_sizes={},  # one group spanning every bundle
        bid_model="exclusive",
    ),
    "realistic": Profile(
        name="realistic",
        n_bundles=14,
        group_sizes={1: 0.52, 2: 0.2, 3: 0.12, 4: 0.07, 5: 0.05, 8: 0.03, 12: 0.01},
        shared_pivot_rate=0.25,
        same_target_rate=0.25,
        bid_model="table",
    ),
    "stress-large-groups": Profile(
        name="stress-large-groups",
        n_bundles=26,
        group_sizes={1: 0.3, 2: 0.1, 9: 0.3, 10: 0.2, 12: 0.1},
        shared_pivot_rate=0.2,
        same_target_rate=0.2,
        bid_model="constant",
    ),
}


def load_profile(name_or_path: str) -> Profile:
    """Resolve a builtin profile name, or read a profile JSON file. A
    malformed file is a ScenarioParseError that names the field."""
    if name_or_path in PROFILES:
        return PROFILES[name_or_path]
    if not Path(name_or_path).is_file():
        raise GenerationError(
            f"unknown profile '{name_or_path}' (builtins: {', '.join(sorted(PROFILES))})"
        )
    record = _object(read_json(name_or_path), "$")
    sizes = {}
    for key, weight in _object(
        _require(record, "group_sizes", "$"), "group_sizes"
    ).items():
        where = f"group_sizes[{json.dumps(key)}]"
        if not key.isdecimal() or int(key) < 1:
            raise ScenarioParseError(where, "sizes must be integers >= 1")
        sizes[int(key)] = _number(weight, where)
    bid_model = _str(record.get("bid_model", "table"), "bid_model")
    if bid_model not in BID_MODELS:
        raise ScenarioParseError(
            "bid_model", f"expected one of {', '.join(BID_MODELS)}, got {bid_model!r}"
        )
    rates = {
        key: _number(record.get(key, 0.0), key)
        for key in ("shared_pivot_rate", "same_target_rate")
    }
    value_range = _list(record.get("value_range", [1, 100]), "value_range")
    if len(value_range) != 2:
        raise ScenarioParseError("value_range", "expected [low, high]")
    low = _int(value_range[0], "value_range[0]", minimum=0)
    high = _int(value_range[1], "value_range[1]", minimum=low)
    return Profile(
        name=_str(record.get("name", name_or_path), "name"),
        n_bundles=_int(_require(record, "n_bundles", "$"), "n_bundles", minimum=1),
        group_sizes=sizes,
        **rates,
        bid_model=bid_model,
        builders=tuple(
            _str(name, f"builders[{n}]")
            for n, name in enumerate(_list(record.get("builders", []), "builders"))
        ),
        value_range=(low, high),
    )


def _plan_group_sizes(profile: Profile, rng: random.Random) -> list:
    if not profile.group_sizes:  # full-conflict style: one group of everything
        return [profile.n_bundles]
    sizes = sorted(profile.group_sizes)
    weights = [profile.group_sizes[s] for s in sizes]
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise GenerationError("group size weights must be non-negative, sum > 0")
    if min(sizes) < 1:
        raise GenerationError(f"group size {min(sizes)} is below 1")
    if max(sizes) > profile.n_bundles:
        raise GenerationError(
            f"group size {max(sizes)} exceeds n_bundles {profile.n_bundles}"
        )
    plan = []
    remaining = profile.n_bundles
    while remaining > 0:
        feasible = [(s, w) for s, w in zip(sizes, weights) if s <= remaining]
        if not feasible:
            plan.append(remaining)
            break
        pick = rng.choices([s for s, _ in feasible], [w for _, w in feasible])[0]
        plan.append(pick)
        remaining -= pick
    return plan


def _fresh_hash(rng: random.Random) -> str:
    return f"0x{rng.getrandbits(256):064x}"


def _draw_value(profile: Profile, rng: random.Random) -> float:
    lo, hi = profile.value_range
    return float(rng.randint(lo, hi))


def _table_bid(member_ids, own: int, profile: Profile, rng: random.Random):
    """Order-dependent bid: a base value plus per-predecessor overrides for
    single-predecessor contexts; deeper contexts fall back to the base.
    Bundles with no group mates just get the base as a constant."""
    base = _draw_value(profile, rng)
    others = [i for i in member_ids if i != own]
    if not others:
        return ConstantBid(base)
    entries = {}
    for j in sorted(rng.sample(others, min(len(others), 4))):
        entries[str(j)] = _draw_value(profile, rng)
    return TableBid(entries, base)


def generate_scenario(profile: Profile, seed: int, k_cutoff: int = 8) -> Scenario:
    """Pure function of (profile, seed): the same pair always yields a
    structurally identical scenario."""
    rng = random.Random(seed)
    plan = _plan_group_sizes(profile, rng)
    bundles = []
    next_id = 0
    planned_partition = []
    for g, size in enumerate(plan):
        member_ids = list(range(next_id, next_id + size))
        next_id += size
        planned_partition.append(frozenset(member_ids))

        stamp = None
        if size >= 2:
            roll = rng.random()
            if roll < profile.shared_pivot_rate:
                stamp = "pivot"
            elif roll < profile.shared_pivot_rate + profile.same_target_rate:
                stamp = "target"

        if stamp == "pivot":
            # Sandwiches of one victim: everyone writes the contested pool
            # key and carries the victim tx; at most one bundle pays.
            pool = StorageKey(f"c{g}", "pool")
            victim = TxRef(_fresh_hash(rng), f"c{g}")
            for t, i in enumerate(member_ids):
                value = _draw_value(profile, rng)
                bid = exclusive_bid(value)
                bundles.append(
                    Bundle(
                        id=i,
                        txs=(TxRef(_fresh_hash(rng), f"c{g}s{t}"), victim),
                        writes=frozenset({pool}),
                        weight=rng.randint(1, 5),
                        bid=bid,
                        valuation=bid,
                    )
                )
            continue

        if stamp == "target":
            # Transfers on one token contract: everyone touches the same
            # balance key, order never changes the payment.
            balance = StorageKey.balance(f"c{g}")
            for i in member_ids:
                bid = ConstantBid(_draw_value(profile, rng))
                bundles.append(
                    Bundle(
                        id=i,
                        txs=(TxRef(_fresh_hash(rng), f"c{g}"),),
                        writes=frozenset({balance}),
                        weight=rng.randint(1, 5),
                        bid=bid,
                        valuation=bid,
                    )
                )
            continue

        # Plain group. Winner-take-all bids need every pair to conflict, so
        # the whole group writes one contested key; otherwise a write chain
        # keeps the group connected and later members read or write their
        # neighbor's key.
        exclusive = profile.bid_model == "exclusive"
        for t, i in enumerate(member_ids):
            if exclusive:
                writes = {StorageKey(f"c{g}", "contested")}
                reads = set()
            else:
                writes = {StorageKey(f"c{g}", f"s{t}")}
                reads = set()
                if t > 0:
                    neighbor = StorageKey(f"c{g}", f"s{t - 1}")
                    if rng.random() < 0.5:
                        writes.add(neighbor)
                    else:
                        reads.add(neighbor)
            if exclusive:
                bid = exclusive_bid(_draw_value(profile, rng))
            elif profile.bid_model == "constant":
                bid = ConstantBid(_draw_value(profile, rng))
            else:
                bid = _table_bid(member_ids, i, profile, rng)
            bundles.append(
                Bundle(
                    id=i,
                    txs=(TxRef(_fresh_hash(rng), f"c{g}n{t}"),),
                    reads=frozenset(reads),
                    writes=frozenset(writes),
                    weight=rng.randint(1, 5),
                    bid=bid,
                    valuation=bid,
                )
            )

    scenario = Scenario(
        bundles=tuple(bundles),
        builders=tuple(BuilderSpec(name) for name in profile.builders),
        k_cutoff=k_cutoff,
        seed=seed,
    )
    realized = {g.members for g in get_conflict_groups(scenario.bundles)}
    if realized != set(planned_partition):
        raise GenerationError(
            f"planned conflict partition does not match realized one "
            f"(profile {profile.name}, seed {seed})"
        )
    return scenario


def with_builders(scenario: Scenario, names) -> Scenario:
    return replace(
        scenario, builders=tuple(BuilderSpec(str(n)) for n in names)
    )
