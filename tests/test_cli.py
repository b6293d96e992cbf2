"""CLI surface: exit codes, outputs, report files, determinism."""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmech import default_algo
from blockmech.cli import main
from blockmech.conflict import get_conflict_groups
from blockmech.fixtures import FIXTURE_DIR
from blockmech.reports import _RENDERERS, render
from blockmech.scenario_io import dumps_scenario, load_scenario

REPO = Path(__file__).resolve().parent.parent
EXAMPLE2 = str(FIXTURE_DIR / "example2.json")
FIXTURES = sorted(str(p) for p in FIXTURE_DIR.glob("*.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_reproduces_reference_table(capsys):
    code, out, _ = run_cli(capsys, "oracle", EXAMPLE2)
    assert code == 0
    assert "winner: [2, 1]" in out
    assert "total bid: 150" in out
    assert "proposer revenue: 30" in out
    assert "70" in out and "50" in out


def test_oracle_accepts_path_without_extension(capsys):
    code, out, _ = run_cli(capsys, "oracle", EXAMPLE2[: -len(".json")])
    assert code == 0
    assert "winner: [2, 1]" in out


def test_build_prints_block_and_strategies(capsys):
    code, out, _ = run_cli(capsys, "build", EXAMPLE2, "--counterfactuals")
    assert code == 0
    assert "block: [2, 1]" in out
    assert "enumerated" in out
    assert "others' value" in out


@pytest.mark.parametrize("flags", [(), ("--counterfactuals",)], ids=["plain", "cf"])
def test_build_resolves_each_group_once(capsys, monkeypatch, flags):
    # Every group resolution, with counterfactuals or without, is a `_resolve`.
    calls = []
    resolve = default_algo._resolve

    def counted(group, *args, **kwargs):
        calls.append(group.members)
        return resolve(group, *args, **kwargs)

    monkeypatch.setattr(default_algo, "_resolve", counted)
    path = str(REPO / "tests" / "golden" / "inputs" / "stress-7.json")
    code, _, _ = run_cli(capsys, "build", path, *flags)
    groups = get_conflict_groups(load_scenario(path).bundle_map())
    assert code == 0 and sorted(calls) == sorted(g.members for g in groups)


def test_missing_scenario_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "build", "missing.file")
    assert code == 2
    assert "not found" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_mechanism_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "mechanism", EXAMPLE2, "--out", str(out_path)
    )
    assert code == 0
    assert "winner: default" in out
    assert "proposer revenue: 30" in out
    payload = json.loads(out_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["kind"] == "mechanism"
    assert payload["proposer_revenue"] == 30


def test_json_format_prints_payload(capsys):
    code, out, _ = run_cli(capsys, "mechanism", EXAMPLE2, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta0"] == 150
    assert payload["searchers"]["1"]["refund"] == 70


def test_groups_histogram(capsys, tmp_path):
    scenario_path = tmp_path / "many.json"
    run_cli(
        capsys, "gen", "--profile", "realistic", "--seed", "3",
        "--out", str(scenario_path),
    )
    code, out, _ = run_cli(capsys, "groups", str(scenario_path))
    assert code == 0
    assert "group size" in out
    assert "groups with size >= k_cutoff:" in out


def test_groups_count_uses_the_scenario_cutoff(capsys, tmp_path):
    scenario_path = tmp_path / "cut4.json"
    run_cli(
        capsys, "gen", "--profile", "realistic", "--seed", "1", "--k-cutoff", "4",
        "--out", str(scenario_path),
    )
    code, out, _ = run_cli(capsys, "groups", str(scenario_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k_cutoff"] == 4
    # the one 4-member group, which `build` resolves by truncated enumeration
    assert payload["size_histogram"]["4"] == 1
    assert payload["groups_at_least_k_cutoff"] == 1


def test_gen_roundtrip(capsys, tmp_path):
    path = tmp_path / "generated.json"
    code, out, _ = run_cli(
        capsys, "gen", "--profile", "no-conflict", "--seed", "9", "--out", str(path)
    )
    assert code == 0
    scenario = load_scenario(path)
    assert len(scenario.bundles) == 20
    # regenerating with the same seed is byte-identical
    path2 = tmp_path / "generated2.json"
    run_cli(capsys, "gen", "--profile", "no-conflict", "--seed", "9", "--out", str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_compare_single_scenario(capsys):
    code, out, _ = run_cli(capsys, "compare", EXAMPLE2)
    assert code == 0
    assert "default is best: yes" in out


def test_compare_sweep_mode(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--gen", "realistic", "--n", "5", "--seed", "2"
    )
    assert code == 0
    assert "default-is-best fraction" in out


def test_verify_subcommands_pass(capsys, tmp_path):
    for prop in ("dsic-searcher", "dsic-builder", "integration"):
        out_path = tmp_path / f"{prop}.json"
        code, out, _ = run_cli(
            capsys, "verify", prop, "--n", "5", "--seed", "3", "--out", str(out_path)
        )
        assert code == 0, prop
        assert out.startswith(f"PASS {prop}")
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True


def test_demo_subcommands_exhibit_expected_results(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demos write a default report file
    for demo, marker in (
        ("collusion", "exploit holds: yes"),
        ("deficit", "deficit: 98"),
        ("sybil", "inflation demonstrated: yes"),
    ):
        code, out, _ = run_cli(capsys, "demo", demo)
        assert code == 0, demo
        assert marker in out
        assert (tmp_path / f"demo-{demo}-report.json").exists()


def test_game_adoption_on_scenario(capsys, tmp_path, monkeypatch):
    path = tmp_path / "fc.json"
    run_cli(capsys, "gen", "--profile", "full-conflict", "--seed", "4", "--out", str(path))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "game", "adoption", str(path))
    assert code == 0
    assert "structure: full-conflict" in out
    assert "commit weakly optimal: yes" in out


def test_game_adoption_rejects_mixed_scenarios(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    run_cli(capsys, "gen", "--profile", "realistic", "--seed", "1", "--out", str(path))
    code, _, err = run_cli(capsys, "game", "adoption", str(path))
    assert code == 2
    assert "no-conflict or full-conflict" in err


def test_game_adoption_refuses_more_bundles_than_the_partition_cap(capsys, tmp_path):
    profile = tmp_path / "fc7.json"
    profile.write_text('{"n_bundles": 7, "group_sizes": {}, "bid_model": "exclusive"}')
    path = tmp_path / "fc7-scenario.json"
    run_cli(capsys, "gen", "--profile", str(profile), "--seed", "1", "--out", str(path))
    code, out, err = run_cli(capsys, "game", "adoption", str(path))
    assert (code, out) == (2, "")
    assert err == "error: exhaustive partition search capped at 6 bundles\n"


def test_game_adoption_sweep(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "game", "adoption", "--n", "6", "--seed", "1")
    assert code == 0
    assert out.startswith("PASS adoption")
    assert (tmp_path / "game-adoption-report.json").exists()


def test_oracle_total_is_a_float_for_an_empty_winner(capsys, tmp_path):
    record = json.loads(Path(EXAMPLE2).read_text())
    for bundle in record["bundles"]:
        bundle["bid"] = {"variant": "constant", "value": 0.0}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(record))
    code, out, _ = run_cli(capsys, "oracle", str(path), "--format", "json")
    assert code == 0
    assert '"total_bid": 0.0' in out
    assert json.loads(out)["winner"] == []


def test_oracle_report_carries_the_block_space_of_small_instances(capsys):
    code, out, _ = run_cli(capsys, "oracle", EXAMPLE2, "--format", "json")
    assert code == 0
    space = json.loads(out)["block_space"]
    assert len(space) == 5  # (), (1,), (2,), (1, 2), (2, 1)
    assert {"block": [2, 1], "bids": {"1": 100.0, "2": 50.0}, "total": 150.0} in space


def test_oracle_refuses_oversized(capsys, tmp_path):
    path = tmp_path / "big.json"
    run_cli(capsys, "gen", "--profile", "no-conflict", "--seed", "2", "--out", str(path))
    code, _, err = run_cli(capsys, "oracle", str(path))
    assert code == 2
    assert "refusing" in err


def test_threads_flag_never_changes_output(capsys, tmp_path):
    outputs = []
    for threads in ("1", "8"):
        report = tmp_path / f"v{threads}.json"
        code, out, _ = run_cli(
            capsys, "verify", "integration", "--n", "6", "--seed", "6",
            "--threads", threads, "--out", str(report),
        )
        assert code == 0
        outputs.append((out, report.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", EXAMPLE2, "--threads", "2"],
        ["build", EXAMPLE2, "--weight-cap", "1"],
        ["mechanism", EXAMPLE2, "--threads", "2"],
        ["oracle", EXAMPLE2, "--threads", "2"],
        ["groups", EXAMPLE2, "--threads", "2"],
        ["groups", EXAMPLE2, "--seed", "3"],
        ["groups", EXAMPLE2, "--k-cutoff", "2"],
        ["oracle", EXAMPLE2, "--k-cutoff", "2"],
    ],
    ids=lambda argv: " ".join([argv[0]] + argv[2:]),
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err and out == ""


def test_compare_gen_refuses_k_cutoff(capsys):
    code, out, err = run_cli(
        capsys, "compare", "--gen", "realistic", "--n", "5", "--seed", "1",
        "--k-cutoff", "2",
    )
    assert code == 2
    assert "--k-cutoff" in err and out == ""


def test_compare_needs_a_scenario_or_gen(capsys):
    code, out, err = run_cli(capsys, "compare")
    assert code == 2
    assert err == "error: compare needs a scenario path or --gen <profile> --n <count>\n"
    assert out == ""


def test_compare_gen_refuses_a_scenario_path(capsys, tmp_path):
    # The path is never read under --gen, so it must not be silently dropped.
    missing = str(tmp_path / "nonexistent.json")
    for scenario in (missing, EXAMPLE2):
        code, out, err = run_cli(
            capsys, "compare", scenario, "--gen", "realistic", "--n", "1"
        )
        assert code == 2
        assert err.startswith("error: compare takes a scenario path or --gen")
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--profile", "realistic", "--k-cutoff", "0"],
        ["gen", "--profile", "realistic", "--k-cutoff", "-3"],
        ["build", EXAMPLE2, "--k-cutoff", "0"],
    ],
    ids=["gen-0", "gen-negative", "build-0"],
)
def test_nonpositive_k_cutoff_is_a_usage_error(capsys, tmp_path, argv):
    out_path = tmp_path / "s.json"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: k_cutoff must be >= 1") and out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "dsic-searcher", "--n", "-3"], "--n must be >= 1, got -3"),
        (["verify", "integration", "--n", "0"], "--n must be >= 1, got 0"),
        (["compare", "--gen", "realistic", "--n", "-2"], "--n must be >= 1, got -2"),
        (["game", "adoption", "--n", "-1"], "--n must be >= 1, got -1"),
        (["verify", "dsic-builder", "--n", "2", "--threads", "0"],
         "--threads must be >= 1, got 0"),
        (["compare", "--gen", "realistic", "--n", "2", "--threads", "-4"],
         "--threads must be >= 1, got -4"),
        # a scenario file runs no sweep, so the flag is refused before its value
        (["compare", EXAMPLE2, "--threads", "0"],
         "--threads applies to --gen, not to a scenario file"),
    ],
    ids=[
        "verify-n-negative", "verify-n-0", "compare-gen-n", "game-n",
        "verify-threads-0", "compare-gen-threads-negative", "compare-threads-0",
    ],
)
def test_counts_and_threads_below_one_are_usage_errors(capsys, tmp_path, argv, message):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(report))
    assert code == 2
    assert err == f"error: {message}\n" and out == ""
    assert not report.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", EXAMPLE2, "--n", "7"], "--n applies to --gen, not to a scenario file"),
        (["compare", EXAMPLE2, "--threads", "2"],
         "--threads applies to --gen, not to a scenario file"),
        (["game", "adoption", EXAMPLE2, "--n", "7"],
         "--n applies to the adoption sweep, not to a scenario file"),
        (["game", "adoption", EXAMPLE2, "--seed", "3"],
         "--seed applies to the adoption sweep, not to a scenario file"),
    ],
    ids=["compare-n", "compare-threads", "game-n", "game-seed"],
)
def test_sweep_flags_on_a_scenario_file_are_usage_errors(capsys, tmp_path, argv, message):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(report))
    assert code == 2
    assert err == f"error: {message}\n" and out == ""
    assert not report.exists()


def test_fixture_files_are_canonical():
    assert len(FIXTURES) == 6
    for path in FIXTURES:
        text = Path(path).read_text(encoding="utf-8")
        assert text == dumps_scenario(load_scenario(path)), path


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("field", ["value", "default", "entries"])
def test_non_finite_bid_is_a_located_usage_error(capsys, tmp_path, field, bad):
    record = json.loads(Path(EXAMPLE2).read_text())
    bid = record["bundles"][0]["bid"]
    if field == "value":
        record["bundles"][0]["bid"] = {"variant": "constant", "value": bad}
    elif field == "default":
        bid["default"] = bad
    else:
        bid["entries"]["2"] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))  # writes the NaN / Infinity literals
    for command in ("mechanism", "build", "oracle"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2, command
        assert "bundles[0].bid" in err and "finite" in err
        assert out == ""


def _set(path, value):
    """Mutation of the example2 record: replace the field at `path`."""

    def mutate(record):
        *parents, last = path
        for step in parents:
            record = record[step]
        record[last] = value

    return mutate


def _constant_bid_builder(params):
    return _set(("builders",), [{"name": "constant-bid", "params": params}])


@pytest.mark.parametrize(
    "mutate, command, location",
    [
        (_set(("bundles", 0, "weight"), 0), "compare", "bundles[0].weight"),
        (_set(("bundles", 0, "weight"), float("nan")), "mechanism", "bundles[0].weight"),
        (_set(("bundles", 0, "weight"), 10**400), "compare", "bundles[0].weight"),
        (_set(("bundles", 0, "id"), "one"), "mechanism", "bundles[0].id"),
        (_set(("seed",), "7"), "mechanism", "seed"),
        (_set(("bundles", 0, "txs"), {"hash": "0xa1"}), "mechanism", "bundles[0].txs"),
        (_constant_bid_builder([5.0]), "mechanism", "builders[0].params"),
        (_constant_bid_builder({"bid": "lots"}), "mechanism", "builders[0].params.bid"),
        (_set(("bundles", 0, "id"), 1.7), "mechanism", "bundles[0].id"),
        (_set(("bundles", 0, "id"), True), "mechanism", "bundles[0].id"),
        (_set(("k_cutoff",), 2.5), "mechanism", "k_cutoff"),
        (_set(("bundles",), {"0": {}}), "mechanism", "bundles:"),
        (_set(("bundles", 0, "txs", 0, "hash"), ["x"]), "mechanism", "bundles[0].txs[0].hash"),
        (_set(("bundles", 0, "txs", 0, "target"), 7), "build", "bundles[0].txs[0].target"),
        (_set(("bundles", 0, "writes", 0, "address"), None), "mechanism", "bundles[0].writes[0].address"),
        (_set(("bundles", 0, "writes", 0, "slot"), {"s": 1}), "oracle", "bundles[0].writes[0].slot"),
        (_set(("bundles", 0, "gate"), 5), "mechanism", "bundles[0].gate"),
        (
            _set(
                ("bundles", 0, "bid"),
                {"variant": "gated", "target": ["builder-0"], "inner": {"variant": "constant", "value": 1.0}},
            ),
            "mechanism",
            "bundles[0].bid.target",
        ),
        (_set(("builders",), [{"name": 3, "params": {}}]), "mechanism", "builders[0].name"),
        (_set(("bundles", 0, "bid", "default"), -5), "mechanism", "bundles[0].bid.default"),
        (_set(("bundles", 0, "valuation", "entries", "2"), -1.5), "build", 'bundles[0].valuation.entries["2"]'),
        (
            _set(("bundles", 0, "bid"), {"variant": "constant", "value": -0.5}),
            "oracle",
            "bundles[0].bid.value",
        ),
        (_set(("bundles", 0, "txs"), []), "mechanism", "bundles[0].txs"),
        (_set(("bundles", 0, "wieght"), 3), "build", "bundles[0]: unknown field 'wieght'"),
        (
            _constant_bid_builder({"bidd": 500}),
            "mechanism",
            "builders[0].params: constant-bid takes no param 'bidd'",
        ),
        (
            _set(("builders",), [{"name": "greedy-bid", "params": {"bid": 3}}]),
            "mechanism",
            "builders[0].params: greedy-bid takes no param 'bid'",
        ),
        (_set(("bundles", 1, "id"), 1), "mechanism", "bundles[1].id: duplicate bundle id 1"),
        (
            _set(("bundles", 1, "txs"), [{"hash": "0xa1", "target": "0xother"}]),
            "build",
            "bundles[1].txs[0].target: tx hash 0xa1 maps to conflicting targets",
        ),
    ]
    # Builder records are checked at load, so every command refuses them,
    # not only the one that runs the builders.
    + [
        (
            _set(("builders",), [{"name": "no-such-builder", "params": {"bidd": 1}}]),
            command,
            "builders[0].name: unknown builder algorithm 'no-such-builder'",
        )
        for command in ("build", "groups", "oracle", "compare", "mechanism")
    ]
    + [
        (
            _set(("builders",), [{"name": "greedy-bid", "params": {"bid": 1}}]),
            command,
            "builders[0].params: greedy-bid takes no param 'bid'",
        )
        for command in ("build", "groups", "oracle", "compare")
    ],
    ids=[
        "weight-0", "weight-NaN", "weight-past-float-range", "string-id", "string-seed", "txs-object",
        "params-list", "string-builder-bid", "float-id", "bool-id",
        "float-k_cutoff", "bundles-object", "list-hash", "int-target", "null-address",
        "object-slot", "int-gate", "list-gated-target", "int-builder-name",
        "negative-default", "negative-entry", "negative-value", "empty-txs",
        "unknown-bundle-field", "unread-constant-bid-param", "unread-greedy-bid-param",
        "duplicate-id", "conflicting-tx-target",
    ]
    + [f"unknown-builder-{c}" for c in ("build", "groups", "oracle", "compare", "mechanism")]
    + [f"unread-greedy-bid-param-{c}" for c in ("build", "groups", "oracle", "compare")],
)
def test_malformed_scenario_field_is_a_located_usage_error(
    capsys, tmp_path, mutate, command, location
):
    record = json.loads(Path(EXAMPLE2).read_text())
    mutate(record)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert err.startswith(f"error: {location}")
    assert "Traceback" not in err and out == ""


def test_misspelled_builders_field_is_refused(capsys, tmp_path):
    # Read as a scenario with no builders, this would settle an empty auction.
    record = json.loads((FIXTURE_DIR / "deficit.json").read_text())
    record["builder"] = record.pop("builders")
    path = tmp_path / "deficit.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, "mechanism", str(path))
    assert (code, out, err) == (2, "", "error: $: unknown field 'builder'\n")


def _field_paths(node, prefix=()):
    """Every key or index path in a JSON document, parents first."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for step, child in children:
        yield prefix + (step,)
        yield from _field_paths(child, prefix + (step,))


def _json_kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


_JSON_VALUES = {
    "None": st.none(),
    "True": st.just(True),
    "False": st.just(False),
    "number": st.one_of(st.integers(), st.floats()),
    "str": st.text(max_size=4),
    "list": st.lists(st.one_of(st.integers(), st.text(max_size=2)), max_size=2),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
_EXAMPLE2_RECORD = json.loads(Path(EXAMPLE2).read_text())
_EXAMPLE2_PATHS = list(_field_paths(_EXAMPLE2_RECORD))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_retyped_field_never_ends_in_a_traceback(data):
    """One field of example2 replaced by a value of another JSON type:
    either the run still succeeds or the loader refuses it (exit 2)."""
    path = data.draw(st.sampled_from(_EXAMPLE2_PATHS), label="path")
    record = json.loads(json.dumps(_EXAMPLE2_RECORD))
    target = record
    for step in path[:-1]:
        target = target[step]
    kinds = sorted(set(_JSON_VALUES) - {_json_kind(target[path[-1]])})
    kind = data.draw(st.sampled_from(kinds), label="kind")
    target[path[-1]] = data.draw(_JSON_VALUES[kind], label="value")
    command = data.draw(
        st.sampled_from(["mechanism", "build", "oracle", "groups", "compare"]),
        label="command",
    )
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp) / "mutated.json"
        scenario_path.write_text(json.dumps(record))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(scenario_path)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# Runs each CLI command in one fresh interpreter and prints its stdout,
# so hash-seeded set and dict order anywhere in a run would show.
_DETERMINISM_SCRIPT = """
import sys
from blockmech.cli import main
fixtures = sys.argv[1:]
commands = []
for path in fixtures:
    commands += [
        ["build", path, "--counterfactuals"],
        ["build", path, "--format", "json"],
        ["mechanism", path],
        ["mechanism", path, "--format", "json"],
        ["oracle", path],
        ["oracle", path, "--format", "json"],
        ["groups", path, "--format", "json"],
        ["compare", path, "--format", "json"],
    ]
for prop in ("dsic-searcher", "dsic-builder", "integration"):
    commands.append(["verify", prop, "--n", "2", "--seed", "4", "--format", "json"])
for demo in ("collusion", "deficit", "sybil"):
    commands.append(["demo", demo, "--format", "json"])
commands += [
    ["game", "adoption", "--n", "4", "--seed", "2", "--format", "json"],
    ["compare", "--gen", "realistic", "--n", "4", "--seed", "1", "--format", "json"],
]
for argv in commands:
    print("$", *argv[:1], flush=True)
    code = main(argv)
    print("exit", code, flush=True)
"""


def test_output_bytes_do_not_depend_on_hash_seed(tmp_path):
    hash_seeds = ["0", "1", str(random.randrange(2, 2**32))]
    outputs = {}
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        run = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, *FIXTURES],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            timeout=300,
            check=True,
        )
        assert b"exit 0" in run.stdout
        outputs[hash_seed] = run.stdout
    first = outputs[hash_seeds[0]]
    for hash_seed, out in outputs.items():
        assert out == first, f"PYTHONHASHSEED={hash_seed} changed the output"


_FULL_CONFLICT = "<full-conflict scenario>"

# (argv without --format, report kind): every kind of report, most of them
# on each fixture.
_REPORT_COMMANDS = (
    [
        (argv, kind)
        for path in FIXTURES
        for argv, kind in (
            (["build", path], "build"),
            (["build", path, "--counterfactuals"], "build"),
            (["oracle", path], "oracle"),
            (["mechanism", path], "mechanism"),
            (["groups", path], "groups"),
            (["compare", path], "compare"),
        )
    ]
    + [
        (["verify", prop, "--n", "3", "--seed", "2"], "verify")
        for prop in ("dsic-searcher", "dsic-builder", "integration")
    ]
    + [(["demo", demo], f"demo-{demo}") for demo in ("collusion", "deficit", "sybil")]
    + [
        (["game", "adoption", _FULL_CONFLICT], "game-adoption"),
        (["game", "adoption", "--n", "4", "--seed", "1"], "game-adoption-sweep"),
        (["compare", "--gen", "realistic", "--n", "4", "--seed", "1"], "compare-sweep"),
    ]
)


def test_report_commands_cover_every_report_kind():
    assert {kind for _, kind in _REPORT_COMMANDS} == set(_RENDERERS)


@pytest.mark.parametrize(
    "argv, kind",
    _REPORT_COMMANDS,
    ids=[" ".join(Path(a).stem for a in argv) for argv, _ in _REPORT_COMMANDS],
)
def test_table_is_rendered_from_the_json_payload(
    capsys, tmp_path, monkeypatch, argv, kind
):
    monkeypatch.chdir(tmp_path)  # verify, demo and game write a default report
    if _FULL_CONFLICT in argv:
        scenario = tmp_path / "fc.json"
        run_cli(capsys, "gen", "--profile", "full-conflict", "--seed", "4", "--out", str(scenario))
        argv = [str(scenario) if a == _FULL_CONFLICT else a for a in argv]
    json_code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    table_code, table_out, _ = run_cli(capsys, *argv)
    payload = json.loads(json_out)
    assert payload["kind"] == kind
    assert json_code == table_code
    assert table_out == render(payload) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", EXAMPLE2],
        ["compare", "--gen", "realistic", "--n", "10", "--seed", "1"],
        ["compare", "--gen", "realistic", "--n", "10", "--seed", "1", "--format", "json"],
    ],
    ids=["scenario", "gen", "gen-json"],
)
def test_compare_reruns_are_byte_identical(capsys, tmp_path, argv):
    runs = []
    for n in range(2):
        report = tmp_path / f"compare{n}.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(report))
        assert code == 0
        runs.append((out, err, report.read_bytes()))
    assert runs[0] == runs[1]
    assert b"runtime" not in runs[0][2]


@pytest.mark.parametrize(
    "content, command, location",
    [
        ('{"n_bundles": 4}', "gen", "$: missing required field 'group_sizes'"),
        ('{"n_bundles": 4}', "compare", "$: missing required field 'group_sizes'"),
        ('{"n_bundles": 4, "group_sizes": ', "gen", "{path}:1:"),
        ('{"n_bundles": "x", "group_sizes": {}}', "gen", "n_bundles"),
        ('[{"n_bundles": 4, "group_sizes": {}}]', "gen", "$: expected an object"),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "bid_model": "weird"}',
            "gen",
            "bid_model",
        ),
        ('{"n_bundles": 4, "group_sizes": {"two": 1}}', "gen", 'group_sizes["two"]'),
        ('{"n_bundles": 4, "group_sizes": {"0": 1}}', "gen", 'group_sizes["0"]'),
        ('{"n_bundles": 4, "group_sizes": {"2": "1"}}', "gen", 'group_sizes["2"]'),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "shared_pivot_rate": null}',
            "gen",
            "shared_pivot_rate",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "shared_pivot_rate": -1}',
            "gen",
            "shared_pivot_rate: must be in [0, 1]",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "same_target_rate": 1.5}',
            "compare",
            "same_target_rate: must be in [0, 1]",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, '
            '"shared_pivot_rate": 0.6, "same_target_rate": 0.5}',
            "gen",
            "$: shared_pivot_rate + same_target_rate must be <= 1",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "builders": ["copy-default", 3]}',
            "gen",
            "builders[1]",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "value_range": [1.5, 9]}',
            "gen",
            "value_range[0]",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "value_range": [9, 1]}',
            "gen",
            "value_range[1]",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "shared_pivot_rat": 1.0}',
            "gen",
            "$: unknown field 'shared_pivot_rat'",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "bid-model": "constant"}',
            "compare",
            "$: unknown field 'bid-model'",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "builders": ["copy-default", "nope"]}',
            "gen",
            "builders[1].name: unknown builder algorithm 'nope'",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 1}, "builders": ["nope"]}',
            "compare",
            "builders[0].name: unknown builder algorithm 'nope'",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": -1, "1": 2}}',
            "gen",
            'group_sizes["2"]: group size weights must be non-negative, sum > 0',
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"2": 0}}',
            "compare",
            "group_sizes: group size weights must be non-negative, sum > 0",
        ),
        (
            '{"n_bundles": 4, "group_sizes": {"8": 1}}',
            "gen",
            'group_sizes["8"]: group size 8 exceeds n_bundles 4',
        ),
    ],
    ids=[
        "missing-group_sizes", "compare-missing-group_sizes", "invalid-json",
        "string-n_bundles", "top-level-list", "unknown-bid_model", "string-size",
        "zero-size", "string-weight", "null-rate", "negative-rate",
        "compare-rate-above-1", "rates-sum-above-1", "int-builder", "float-range",
        "inverted-range", "unknown-field", "compare-unknown-field",
        "unknown-builder", "compare-unknown-builder", "negative-weight",
        "compare-zero-weights", "size-above-n_bundles",
    ],
)
def test_malformed_profile_is_a_located_usage_error(
    capsys, tmp_path, content, command, location
):
    profile = tmp_path / "p.json"
    profile.write_text(content)
    if command == "gen":
        argv = ["gen", "--profile", str(profile), "--out", str(tmp_path / "s.json")]
    else:
        argv = ["compare", "--gen", str(profile), "--n", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: " + location.format(path=profile))
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "s.json").exists()


def test_profile_value_range_needs_two_bounds(capsys, tmp_path):
    profile = tmp_path / "p.json"
    profile.write_text('{"n_bundles": 4, "group_sizes": {"2": 1}, "value_range": [1]}')
    argv = ["gen", "--profile", str(profile), "--out", str(tmp_path / "s.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: value_range: expected [low, high]\n"


def test_scenario_path_that_is_a_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "mechanism", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path}: Is a directory\n"


@pytest.mark.parametrize(
    "argv",
    [("mechanism", EXAMPLE2), ("gen", "--profile", "no-conflict"), ("demo", "sybil")],
    ids=["mechanism", "gen", "demo"],
)
def test_out_at_a_directory_is_a_usage_error(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {tmp_path}: Is a directory\n")


def test_default_report_name_taken_by_a_directory_is_a_usage_error(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo-deficit-report.json").mkdir()
    code, out, err = run_cli(capsys, "demo", "deficit")
    assert (code, out) == (2, "")
    assert err == "error: demo-deficit-report.json: Is a directory\n"


def test_profile_with_only_zero_weight_sizes_left_generates(capsys, tmp_path):
    # After a group of 5, only size 1 fits the remaining 2 bundles, and its
    # weight is 0: the remainder becomes one group.
    profile = tmp_path / "p.json"
    profile.write_text('{"n_bundles": 7, "group_sizes": {"1": 0, "5": 1}}')
    path = tmp_path / "s.json"
    code, out, err = run_cli(
        capsys, "gen", "--profile", str(profile), "--out", str(path)
    )
    assert code == 0 and err == ""
    assert out == f"wrote {path}: 7 bundles, 2 conflict groups, seed 0\n"


def _cli_process(argv, cwd, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "blockmech.cli", *argv], cwd=cwd, env=env, **kwargs
    )


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_reader_closing_the_pipe_early_is_quiet(capsys, tmp_path, fmt):
    # 3,000 bundles print about 100 KB of table and 280 KB of JSON, more
    # than a pipe buffers, so the writer meets the closed pipe.
    profile = tmp_path / "big-profile.json"
    profile.write_text('{"n_bundles": 3000, "group_sizes": {"1": 6, "2": 3, "3": 1}}')
    scenario = tmp_path / "big.json"
    run_cli(capsys, "gen", "--profile", str(profile), "--seed", "1", "--out", str(scenario))
    argv = ["mechanism", str(scenario), "--format", fmt]

    unpiped = _cli_process(
        [*argv, "--out", "unpiped.json"], tmp_path, stdout=subprocess.DEVNULL
    )
    assert unpiped.wait(timeout=120) == 0

    piped = _cli_process(
        [*argv, "--out", "piped.json"],
        tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )
    assert piped.stdout.read(16)
    piped.stdout.close()
    err = piped.stderr.read()
    piped.stderr.close()
    assert piped.wait(timeout=120) == 0
    assert err == b""
    assert (tmp_path / "piped.json").read_bytes() == (
        tmp_path / "unpiped.json"
    ).read_bytes()
