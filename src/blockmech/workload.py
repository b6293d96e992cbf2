"""Seeded synthetic scenario generation.

Group sizes are sampled from a profile distribution whose default shape puts
most mass on sizes 1-3 with a thin tail, matching the empirical pattern that
conflicts are rare and large conflict groups rarer. Each group gets its own
storage namespace, so the realized conflict partition is exactly the planned
one (cross-checked against the conflict module on every generation).

Each group rolls its stamp once, and one member loop builds every bundle;
the stamp decides the keys, the tx target and the bid kind. A shared-pivot
group gets one common written key plus a shared victim tx and winner-take-all
bids (only one bundle can land); a same-target group gets a shared balance
key, one contract address, and constant bids (order is value-irrelevant); a
plain group chains its keys (or shares one contested key under winner-take-all
bids) and bids by the profile's model.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from .conflict import get_conflict_groups
from .model import (
    DEFAULT_K_CUTOFF,
    Bundle,
    BuilderSpec,
    ConstantBid,
    Scenario,
    StorageKey,
    TableBid,
    TxRef,
    add_up,
    exclusive_bid,
)
from .scenario_io import (
    ScenarioParseError,
    _fields,
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
    malformed file, or one with a field this does not read, is a
    ScenarioParseError that names the field; an unknown builder name is a
    MechanismError that names its position."""
    from .mechanism import instantiate_builders  # a layer above; see scenario_io

    if name_or_path in PROFILES:
        return PROFILES[name_or_path]
    if not Path(name_or_path).is_file():
        raise GenerationError(
            f"unknown profile '{name_or_path}' (builtins: {', '.join(sorted(PROFILES))})"
        )
    record = _fields(
        read_json(name_or_path), "$", "name", "n_bundles", "group_sizes",
        "shared_pivot_rate", "same_target_rate", "bid_model", "builders", "value_range",
    )
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
    rates = {}
    for key in ("shared_pivot_rate", "same_target_rate"):
        rates[key] = rate = _number(record.get(key, 0.0), key)
        if not 0.0 <= rate <= 1.0:
            raise ScenarioParseError(key, f"must be in [0, 1], got {rate}")
    total = rates["shared_pivot_rate"] + rates["same_target_rate"]
    if total > 1.0:
        raise ScenarioParseError(
            "$", f"shared_pivot_rate + same_target_rate must be <= 1, got {total}"
        )
    value_range = _list(record.get("value_range", [1, 100]), "value_range")
    if len(value_range) != 2:
        raise ScenarioParseError("value_range", "expected [low, high]")
    low = _int(value_range[0], "value_range[0]", minimum=0)
    high = _int(value_range[1], "value_range[1]", minimum=low)
    profile = Profile(
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
    instantiate_builders([BuilderSpec(name) for name in profile.builders])
    return profile


def _plan_group_sizes(profile: Profile, rng: random.Random) -> list:
    if not profile.group_sizes:  # full-conflict style: one group of everything
        return [profile.n_bundles]
    sizes = sorted(profile.group_sizes)
    weights = [profile.group_sizes[s] for s in sizes]
    # Each refusal names the profile field, as the profile loader's do.
    negative = [s for s, w in zip(sizes, weights) if w < 0]
    if negative or add_up(weights) <= 0:
        where = f'group_sizes["{negative[0]}"]' if negative else "group_sizes"
        raise GenerationError(
            f"{where}: group size weights must be non-negative, sum > 0"
        )
    if min(sizes) < 1:
        raise GenerationError(
            f'group_sizes["{min(sizes)}"]: group size {min(sizes)} is below 1'
        )
    if max(sizes) > profile.n_bundles:
        raise GenerationError(
            f'group_sizes["{max(sizes)}"]: group size {max(sizes)} exceeds '
            f"n_bundles {profile.n_bundles}"
        )
    plan = []
    remaining = profile.n_bundles
    while remaining > 0:
        # A zero-weight size is never drawn, so it counts as infeasible.
        feasible = [
            (s, w) for s, w in zip(sizes, weights) if s <= remaining and w > 0
        ]
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


def _draw_bid(bid_model: str, member_ids, own: int, profile: Profile, rng):
    """A bid of `bid_model`, its base value drawn first. A table bid adds
    per-predecessor overrides for single-predecessor contexts; deeper
    contexts fall back to the base. Bundles with no group mates just get
    the base as a constant."""
    base = _draw_value(profile, rng)
    if bid_model == "exclusive":
        return exclusive_bid(base)
    others = [i for i in member_ids if i != own]
    if bid_model == "constant" or not others:
        return ConstantBid(base)
    entries = {}
    for j in sorted(rng.sample(others, min(len(others), 4))):
        entries[str(j)] = _draw_value(profile, rng)
    return TableBid(entries, base)


def generate_scenario(
    profile: Profile, seed: int, k_cutoff: int = DEFAULT_K_CUTOFF
) -> Scenario:
    """Pure function of (profile, seed): the same pair always yields a
    structurally identical scenario. Draw order, which every generated file
    depends on: the plan; per group the stamp roll, then a pivot's victim
    hash; per member the neighbor roll, the bid, the tx hash, the weight."""
    rng = random.Random(seed)
    plan = _plan_group_sizes(profile, rng)
    bundles = []
    next_id = 0
    planned_partition = []
    for g, size in enumerate(plan):
        member_ids = list(range(next_id, next_id + size))
        next_id += size
        planned_partition.append(tuple(member_ids))

        # A singleton is never stamped. The stamp fixes the key every member
        # writes (`shared`; None means a write chain), each member's tx
        # target (`tag`; None means the contract itself), the bid model and
        # the `victim` txs all carry.
        space = f"c{g}"
        roll = rng.random() if size >= 2 else math.inf
        victim = ()
        if roll < profile.shared_pivot_rate:
            # Sandwiches of one victim: everyone writes the contested pool
            # key and carries the victim tx; at most one bundle pays.
            shared, tag, bid_model = StorageKey(space, "pool"), "s", "exclusive"
            victim = (TxRef(_fresh_hash(rng), space),)
        elif roll < profile.shared_pivot_rate + profile.same_target_rate:
            # Transfers on one token contract: everyone touches the same
            # balance key, order never changes the payment.
            shared, tag, bid_model = StorageKey.balance(space), None, "constant"
        else:
            # Plain group. Winner-take-all bids need every pair to conflict,
            # so the whole group writes one contested key; otherwise a write
            # chain keeps the group connected and later members read or
            # write their neighbor's key.
            shared, tag, bid_model = None, "n", profile.bid_model
            if bid_model == "exclusive":
                shared = StorageKey(space, "contested")

        for t, i in enumerate(member_ids):
            reads = set()
            writes = {StorageKey(space, f"s{t}") if shared is None else shared}
            if shared is None and t > 0:
                neighbor = StorageKey(space, f"s{t - 1}")
                if rng.random() < 0.5:
                    writes.add(neighbor)
                else:
                    reads.add(neighbor)
            bid = _draw_bid(bid_model, member_ids, i, profile, rng)
            target = space if tag is None else f"{space}{tag}{t}"
            bundles.append(
                Bundle(
                    id=i,
                    txs=(TxRef(_fresh_hash(rng), target),) + victim,
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
    realized = {g.members for g in get_conflict_groups(scenario.bundle_map())}
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
