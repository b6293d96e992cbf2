"""Scenario file load/save.

The on-disk format is JSON with top-level fields `bundles`, `builders`,
`k_cutoff`, `seed`; see docs/scenario_format.md for the field reference.
Saving is canonical (sorted keys, fixed indentation) so identical scenarios
produce byte-identical files, and load(save(s)) is structurally equal to s.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

from .model import (
    BuilderSpec,
    Bundle,
    CoinbaseLabel,
    ConstantBid,
    GatedBid,
    Scenario,
    StorageKey,
    TableBid,
    TxRef,
)


class ScenarioParseError(ValueError):
    """Malformed scenario file; the message carries the offending location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(where, f"expected an object, got {type(value).__name__}")
    return value


def _require(record, key: str, where: str):
    if key not in _object(record, where):
        raise ScenarioParseError(where, f"missing required field '{key}'")
    return record[key]


def _fields(record, where: str, *known: str) -> dict:
    """`record` as an object; a field outside `known` is refused, since
    nothing would read it."""
    for key in _object(record, where):
        if key not in known:
            raise ScenarioParseError(where, f"unknown field '{key}'")
    return record


def _int(value, where: str, minimum: Optional[int] = None) -> int:
    """A JSON integer. Bools, floats and strings are refused, never
    truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioParseError(where, f"must be >= {minimum}, got {value}")
    return value


def _str(value, where: str) -> str:
    """A JSON string. Other values are refused, never coerced with `str()`."""
    if not isinstance(value, str):
        raise ScenarioParseError(where, f"expected a string, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(where, f"expected a list, got {type(value).__name__}")
    return value


def _bid_to_dict(fn) -> dict:
    if isinstance(fn, ConstantBid):
        return {"variant": "constant", "value": fn.value}
    if isinstance(fn, TableBid):
        return {
            "variant": "table",
            "entries": dict(fn.entries),
            "default": fn.default,
        }
    if isinstance(fn, GatedBid):
        return {
            "variant": "gated",
            "target": fn.target.value,
            "inner": _bid_to_dict(fn.inner),
        }
    raise TypeError(f"unknown bid function type {type(fn).__name__}")


def _number(value, where: str) -> float:
    """A finite number; NaN and infinities would poison every sum they
    enter, so they are refused where the file states them."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(where, f"expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ScenarioParseError(where, f"values must be finite, got {value}")
    return float(value)


def _bid_value(value, where: str) -> float:
    """A finite, non-negative bid amount."""
    number = _number(value, where)
    if number < 0:
        raise ScenarioParseError(where, f"must be >= 0, got {number}")
    return number


def _bid_from_dict(record, where: str):
    variant = _require(record, "variant", where)
    if variant == "constant":
        _fields(record, where, "variant", "value")
        value = _require(record, "value", where)
        return ConstantBid(_bid_value(value, f"{where}.value"))
    if variant == "table":
        _fields(record, where, "variant", "entries", "default")
        entries = _object(_require(record, "entries", where), f"{where}.entries")
        return TableBid(
            {
                str(k): _bid_value(v, f"{where}.entries[{json.dumps(k)}]")
                for k, v in entries.items()
            },
            _bid_value(_require(record, "default", where), f"{where}.default"),
        )
    if variant == "gated":
        _fields(record, where, "variant", "target", "inner")
        return GatedBid(
            CoinbaseLabel(_str(_require(record, "target", where), f"{where}.target")),
            _bid_from_dict(_require(record, "inner", where), f"{where}.inner"),
        )
    raise ScenarioParseError(where, f"unknown bid variant '{variant}'")


def _keys_to_list(keys) -> list:
    return [{"address": k.address, "slot": k.slot} for k in sorted(keys)]


def _keys_from_list(records, where: str) -> frozenset:
    keys = []
    for n, rec in enumerate(_list(records, where)):
        loc = f"{where}[{n}]"
        _fields(rec, loc, "address", "slot")
        keys.append(
            StorageKey(
                _str(_require(rec, "address", loc), f"{loc}.address"),
                _str(_require(rec, "slot", loc), f"{loc}.slot"),
            )
        )
    return frozenset(keys)


def bundle_to_dict(b: Bundle) -> dict:
    return {
        "id": b.id,
        "txs": [{"hash": tx.tx_hash, "target": tx.target} for tx in b.txs],
        "reads": _keys_to_list(b.reads),
        "writes": _keys_to_list(b.writes),
        "weight": b.weight,
        "gate": None if b.gate is None else b.gate.value,
        "bid": _bid_to_dict(b.bid),
        "valuation": _bid_to_dict(b.valuation),
    }


def bundle_from_dict(record, where: str) -> Bundle:
    _fields(
        record, where, "id", "txs", "reads", "writes", "weight", "gate", "bid", "valuation"
    )
    txs = []
    for n, rec in enumerate(_list(_require(record, "txs", where), f"{where}.txs")):
        loc = f"{where}.txs[{n}]"
        _fields(rec, loc, "hash", "target")
        txs.append(
            TxRef(
                _str(_require(rec, "hash", loc), f"{loc}.hash"),
                _str(_require(rec, "target", loc), f"{loc}.target"),
            )
        )
    if not txs:
        raise ScenarioParseError(f"{where}.txs", "must be non-empty")
    gate = record.get("gate")
    weight = _int(record.get("weight", 1), f"{where}.weight", minimum=1)
    _number(weight, f"{where}.weight")  # density ordering divides by it as a float
    return Bundle(
        id=_int(_require(record, "id", where), f"{where}.id"),
        txs=tuple(txs),
        reads=_keys_from_list(record.get("reads", []), f"{where}.reads"),
        writes=_keys_from_list(record.get("writes", []), f"{where}.writes"),
        weight=weight,
        gate=None if gate is None else CoinbaseLabel(_str(gate, f"{where}.gate")),
        bid=_bid_from_dict(_require(record, "bid", where), f"{where}.bid"),
        valuation=_bid_from_dict(
            _require(record, "valuation", where), f"{where}.valuation"
        ),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "bundles": [bundle_to_dict(b) for b in scenario.bundles],
        "builders": [
            {"name": spec.name, "params": dict(spec.params)}
            for spec in scenario.builders
        ],
        "k_cutoff": scenario.k_cutoff,
        "seed": scenario.seed,
    }


def scenario_from_dict(record) -> Scenario:
    # The builder registry lives in `mechanism`, a layer above scenario
    # files; it is imported at call time so this module's imports stay `model`.
    from .mechanism import instantiate_builders

    _fields(record, "$", "bundles", "builders", "k_cutoff", "seed")
    bundles = [
        bundle_from_dict(rec, f"bundles[{n}]")
        for n, rec in enumerate(_list(_require(record, "bundles", "$"), "bundles"))
    ]
    builders = []
    for n, rec in enumerate(_list(record.get("builders", []), "builders")):
        loc = f"builders[{n}]"
        _fields(rec, loc, "name", "params")
        name = _str(_require(rec, "name", loc), f"{loc}.name")
        params = _object(rec.get("params", {}), f"{loc}.params")
        for key, value in params.items():
            _number(value, f"{loc}.params.{key}")
        builders.append(BuilderSpec(name, dict(params)))
    instantiate_builders(builders)
    return Scenario(
        bundles=tuple(bundles),
        builders=tuple(builders),
        k_cutoff=_int(_require(record, "k_cutoff", "$"), "k_cutoff", minimum=1),
        seed=_int(_require(record, "seed", "$"), "seed"),
    )


def dumps_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), sort_keys=True, indent=2) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(dumps_scenario(scenario))


def read_json(path):
    """The JSON document in a file; anything unreadable is a located
    ScenarioParseError, never a traceback."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except (ValueError, RecursionError) as exc:  # bad bytes, huge ints, deep nesting
        raise ScenarioParseError(str(path), str(exc)) from exc
    except OSError as exc:  # a directory, no permission
        raise ScenarioParseError(str(path), exc.strerror or str(exc)) from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path))
