"""Scenario file round-trips and parse errors."""

from __future__ import annotations

import json

import pytest

from blockmech.fixtures import load_fixture
from blockmech.model import CoinbaseLabel, GatedBid, ConstantBid
from blockmech.scenario_io import (
    ScenarioParseError,
    dumps_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from blockmech.workload import PROFILES, generate_scenario

from conftest import make_bundle, make_scenario


@pytest.mark.parametrize(
    "scenario",
    [
        load_fixture("example2"),
        load_fixture("deficit"),
        load_fixture("collusion"),
        load_fixture("integration"),
        generate_scenario(PROFILES["realistic"], 5),
        generate_scenario(PROFILES["stress-large-groups"], 5),
    ],
    ids=["example2", "deficit", "collusion", "integration", "realistic", "stress"],
)
def test_round_trip_identity(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_round_trip_preserves_gates(tmp_path):
    gated = make_bundle(
        1,
        bid=GatedBid(CoinbaseLabel("builder-0"), ConstantBid(5.0)),
        gate=CoinbaseLabel("builder-0"),
    )
    scenario = make_scenario(gated)
    path = tmp_path / "gated.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_save_is_canonical(tmp_path):
    scenario = load_fixture("example2")
    assert dumps_scenario(scenario) == dumps_scenario(load_scenario_roundtrip(scenario))


def load_scenario_roundtrip(scenario):
    return scenario_from_dict(json.loads(dumps_scenario(scenario)))


def test_missing_k_cutoff_names_the_field(tmp_path):
    record = scenario_to_dict(load_fixture("example2"))
    del record["k_cutoff"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ScenarioParseError, match="k_cutoff"):
        load_scenario(path)


def test_unknown_bid_variant_named(tmp_path):
    record = scenario_to_dict(load_fixture("example2"))
    record["bundles"][0]["bid"] = {"variant": "mystery"}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ScenarioParseError, match="unknown bid variant 'mystery'"):
        load_scenario(path)


_CONSTANT = {"variant": "constant", "value": 1.0}


@pytest.mark.parametrize(
    "path, extra, location",
    [
        ((), "builder", "$"),
        (("bundles", 1), "wieght", "bundles[1]"),
        (("bundles", 1, "txs", 0), "nonce", "bundles[1].txs[0]"),
        (("bundles", 1, "writes", 0), "kind", "bundles[1].writes[0]"),
        (("bundles", 0, "bid"), "cap", "bundles[0].bid"),
        (("bundles", 0, "valuation"), "amount", "bundles[0].valuation"),
        (("bundles", 0, "valuation"), "target", "bundles[0].valuation"),
        (("bundles", 1, "bid"), "gate", "bundles[1].bid"),
        (("bundles", 1, "bid", "inner"), "amount", "bundles[1].bid.inner"),
        (("builders", 0), "label", "builders[0]"),
    ],
    ids=[
        "top-level", "bundle", "tx", "storage-key", "table-bid", "constant-bid",
        "constant-bid-with-gated-field", "gated-bid", "gated-inner", "builder",
    ],
)
def test_unknown_field_is_refused_where_it_stands(tmp_path, path, extra, location):
    record = scenario_to_dict(load_fixture("example2"))
    record["builders"] = [{"name": "copy-default", "params": {}}]
    record["bundles"][0]["valuation"] = dict(_CONSTANT)
    record["bundles"][1]["bid"] = {
        "variant": "gated", "target": "builder-0", "inner": dict(_CONSTANT)
    }
    scenario_from_dict(json.loads(json.dumps(record)))  # valid before the edit
    node = record
    for step in path:
        node = node[step]
    node[extra] = 1
    file = tmp_path / "extra.json"
    file.write_text(json.dumps(record))
    with pytest.raises(ScenarioParseError) as info:
        load_scenario(file)
    assert str(info.value) == f"{location}: unknown field '{extra}'"


def test_error_location_points_at_bundle(tmp_path):
    record = scenario_to_dict(load_fixture("example2"))
    del record["bundles"][1]["txs"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ScenarioParseError, match=r"bundles\[1\]"):
        load_scenario(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"bundles": [,]}')
    with pytest.raises(ScenarioParseError, match=":1:"):
        load_scenario(path)


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{}", b'{"seed": ' + b"7" * 5000 + b"}", b"[" * 10**5 + b"]" * 10**5],
    ids=["not-utf8", "integer-past-digit-limit", "nested-past-recursion-limit"],
)
def test_undecodable_file_is_a_parse_error(tmp_path, raw):
    path = tmp_path / "broken.json"
    path.write_bytes(raw)
    with pytest.raises(ScenarioParseError, match="broken.json"):
        load_scenario(path)
