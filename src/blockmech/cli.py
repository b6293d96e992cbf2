"""Command-line interface.

Every subcommand is a pure function of its arguments and input files: no
wall-clock or environment entropy reaches any reported value, so reruns are
byte-identical. Each command computes one report body; `_emit` prints its
JSON payload or the table that `reports.render` draws from that payload.
Exit codes: 0 success or property pass, 1 property failure or an expected
exploit failing to materialize, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

from .baselines import compare_algorithms
from .conflict import get_conflict_groups
from .default_algo import resolve_group_with_counterfactuals, splice_counterfactuals
from .harness import (
    adoption_sweep,
    compare_sweep,
    verify_builder_dsic,
    verify_integration,
    verify_searcher_dsic,
)
from .mechanism import MechanismError, run_mechanism
from .model import (
    DEFAULT_K_CUTOFF, ModelError, add_up, block_bids, block_total_bid, one_time_label,
)
from .oracle import DEFAULT_OMEGA_LIMIT, OracleSizeError, full_omega, vcg_outcome
from .reports import dumps_report, render, report_payload
from .scenario_io import ScenarioParseError, load_scenario, save_scenario
from .strategies import (
    AdoptionScopeError,
    adoption_game,
    budget_deficit_demo,
    collusion_demo,
    sybil_demo,
)
from .workload import GenerationError, generate_scenario, load_profile


class UsageError(ValueError):
    pass


def _resolve_scenario(path: str):
    candidate = Path(path)
    if not candidate.exists() and candidate.suffix != ".json":
        with_ext = candidate.with_name(candidate.name + ".json")
        if with_ext.exists():
            candidate = with_ext
    if not candidate.exists():
        raise UsageError(f"scenario file not found: {path}")
    return load_scenario(candidate)


def _load_with_overrides(args):
    """The scenario file, with the `--seed`/`--k-cutoff` values the command
    takes and the user gave."""
    overrides = {
        field: getattr(args, field)
        for field in ("seed", "k_cutoff")
        if getattr(args, field, None) is not None
    }
    return replace(_resolve_scenario(args.scenario), **overrides)


def _sweep_size(args, field: str, default: int) -> int:
    """A sweep's count (`--n`) or pool size (`--threads`), `default` when not
    given; below 1 it means nothing."""
    value = default if getattr(args, field) is None else getattr(args, field)
    if value < 1:
        raise UsageError(f"--{field} must be >= 1, got {value}")
    return value


def _refuse_sweep_flags(args, sweep: str, *fields) -> None:
    """A scenario file runs no sweep, so the sweep's flags would be ignored."""
    for field in fields:
        if getattr(args, field) is not None:
            raise UsageError(f"--{field} applies to {sweep}, not to a scenario file")


def _emit(args, kind: str, body: dict, default_out: str = None) -> None:
    payload = report_payload(kind, body)
    text = dumps_report(payload) if args.format == "json" else render(payload) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early. Point stdout at /dev/null so the
        # interpreter's final flush of the unwritten rest stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    out = args.out or default_out
    if out:
        Path(out).write_text(dumps_report(payload))


def _cmd_build(args) -> int:
    scenario = _load_with_overrides(args)
    bundles = scenario.bundle_map()
    coinbase = one_time_label(scenario.seed)
    resolved = [  # one default pass: the block, the rows, the counterfactuals
        resolve_group_with_counterfactuals(
            g, bundles, scenario.k_cutoff, scenario.seed, coinbase
        )
        for g in get_conflict_groups(bundles)
    ]
    block = tuple(i for res, _ in resolved for i in res.sub_block)
    body = {
        "block": list(block),
        "total_bid": block_total_bid(block, bundles, coinbase),
        "k_cutoff": scenario.k_cutoff,
        "seed": scenario.seed,
        "groups": [
            {
                "members": list(res.group.members),
                "strategy": res.strategy.value,
                "sub_block": list(res.sub_block),
                "value": res.value,
            }
            for res, _ in resolved
        ],
    }
    if args.counterfactuals:
        body["counterfactuals"] = {}
        for i, cblock in splice_counterfactuals(resolved).items():
            values = block_bids(cblock, bundles, coinbase)
            body["counterfactuals"][str(i)] = {
                "block": list(cblock),
                "others_value": add_up(v for j, v in values.items() if j != i),
            }
    _emit(args, "build", body)
    return 0


def _cmd_oracle(args) -> int:
    scenario = _load_with_overrides(args)
    bundles = scenario.bundle_map()
    coinbase = one_time_label(scenario.seed)
    outcome = vcg_outcome(bundles, coinbase, limit=args.limit)
    ids = sorted(bundles)
    body = {
        "winner": list(outcome.winner),
        "total_bid": outcome.total_bid,
        "charges": {str(i): outcome.charges[i] for i in ids},
        "refunds": {str(i): outcome.refunds[i] for i in ids},
        "proposer_revenue": outcome.proposer_revenue,
    }
    if len(ids) <= 3:  # small instances: show the whole block space
        body["block_space"] = []
        for block in full_omega(bundles, args.limit):
            values = block_bids(block, bundles, coinbase)
            body["block_space"].append(
                {
                    "block": list(block),
                    "bids": {str(i): values.get(i, 0.0) for i in ids},
                    "total": add_up(values.values()),
                }
            )
    _emit(args, "oracle", body)
    return 0


def _cmd_mechanism(args) -> int:
    scenario = _load_with_overrides(args)
    outcome = run_mechanism(scenario)
    winner = outcome.winning_builder
    body = {
        "final_block": list(outcome.final_block),
        "winner": "default" if winner is None else f"builder {winner}",
        "beta0": outcome.beta0,
        "beta_star": outcome.beta_star,
        "beta_prime": outcome.beta_prime,
        "conflict_free": sorted(outcome.conflict_free),
        "searchers": {
            str(i): {"charge": e.charge, "refund": e.refund, "net": e.net}
            for i, e in outcome.searcher_ledger.items()
        },
        "builders": {
            str(j): {
                k: getattr(e, k) for k in ("payment", "refund", "bid", "disqualified")
            }
            for j, e in outcome.builder_ledger.items()
        },
        "proposer_revenue": outcome.proposer_revenue,
    }
    _emit(args, "mechanism", body)
    return 0


def _cmd_groups(args) -> int:
    scenario = _load_with_overrides(args)
    groups = get_conflict_groups(scenario.bundle_map())
    histogram = Counter(len(g) for g in groups)
    cutoff = scenario.k_cutoff
    body = {
        "group_count": len(groups),
        "size_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "k_cutoff": cutoff,
        "groups_at_least_k_cutoff": sum(1 for g in groups if len(g) >= cutoff),
        "groups": [list(g.members) for g in groups],
    }
    _emit(args, "groups", body)
    return 0


def _cmd_compare(args) -> int:
    if args.gen:
        if args.scenario:
            raise UsageError("compare takes a scenario path or --gen, not both")
        if args.k_cutoff is not None:
            raise UsageError("--k-cutoff applies to a scenario file, not to --gen")
        n, threads = _sweep_size(args, "n", 100), _sweep_size(args, "threads", 1)
        profile = load_profile(args.gen)
        result = compare_sweep(profile, n, args.seed or 0, threads)
        body = {"sweep": result.details, "scenarios": result.checked}
        _emit(args, "compare-sweep", body)
        return 0
    if not args.scenario:
        raise UsageError("compare needs a scenario path or --gen <profile> --n <count>")
    _refuse_sweep_flags(args, "--gen", "n", "threads")
    report = compare_algorithms(_load_with_overrides(args))
    _emit(args, "compare", asdict(report))
    return 0


def _cmd_verify(args) -> int:
    n, threads = _sweep_size(args, "n", 100), _sweep_size(args, "threads", 1)
    runners = {
        "dsic-searcher": verify_searcher_dsic,
        "dsic-builder": verify_builder_dsic,
        "integration": verify_integration,
    }
    result = runners[args.property](n, args.seed or 0, threads)
    body = {
        "property": args.property,
        "scenarios": result.checked,
        "witnesses": list(result.failures),
        "passed": result.passed,
        "note": "grid-based empirical check, not a proof over the continuum",
    }
    _emit(args, "verify", body, default_out=f"verify-{args.property}-report.json")
    return 0 if result.passed else 1


def _cmd_demo(args) -> int:
    if args.demo == "collusion":
        report = collusion_demo()
        ok = report.exploit_holds and report.deployed_rule_unaffected
    elif args.demo == "deficit":
        report = budget_deficit_demo()
        ok = report.hypothetical_deficit > 0 and report.actual_balanced
    else:
        report = sybil_demo()
        ok = report.inflated
    kind = f"demo-{args.demo}"
    _emit(args, kind, asdict(report), default_out=f"{kind}-report.json")
    return 0 if ok else 1


def _cmd_game(args) -> int:
    if args.scenario:
        _refuse_sweep_flags(args, "the adoption sweep", "n", "seed")
        report = adoption_game(_resolve_scenario(args.scenario))
        body = asdict(report)
        del body["witness_partition"]
        _emit(args, "game-adoption", body, default_out="game-adoption-report.json")
        return 0 if report.commit_weakly_optimal else 1
    result = adoption_sweep(_sweep_size(args, "n", 50), args.seed or 0)
    body = {
        "scenarios": result.checked,
        "failures": list(result.failures),
        "passed": result.passed,
    }
    _emit(args, "game-adoption-sweep", body, default_out="game-adoption-report.json")
    return 0 if result.passed else 1


def _cmd_gen(args) -> int:
    profile = load_profile(args.profile)
    scenario = generate_scenario(profile, args.seed, args.k_cutoff)
    save_scenario(scenario, args.out)
    groups = get_conflict_groups(scenario.bundle_map())
    print(
        f"wrote {args.out}: {len(scenario.bundles)} bundles, "
        f"{len(groups)} conflict groups, seed {scenario.seed}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmech",
        description="Deterministic block-building auction simulator and "
        "incentive-property harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, report=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if report:
            p.add_argument("--format", choices=("table", "json"), default="table")
            p.add_argument("--out", default=None, help="write a JSON report here")
        return p

    def on_scenario(name, fn, help, overrides=("seed", "k-cutoff")):
        p = command(name, fn, help)
        p.add_argument("scenario", help="scenario file (JSON)")
        for flag in overrides:
            field = flag.replace("-", "_")
            p.add_argument(f"--{flag}", type=int, default=None, help=f"override {field}")
        return p

    p = on_scenario("build", _cmd_build, "run the default block-building algorithm")
    p.add_argument("--counterfactuals", action="store_true")
    p = on_scenario(
        "oracle", _cmd_oracle, "exact enumeration outcome (small instances)", ("seed",)
    )
    p.add_argument("--limit", type=int, default=DEFAULT_OMEGA_LIMIT)
    on_scenario("mechanism", _cmd_mechanism, "run the full mechanism and print ledgers")
    on_scenario("groups", _cmd_groups, "conflict-group histogram", ())

    p = command("compare", _cmd_compare, "default vs greedy baselines (and oracle)")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--gen", default=None, help="generate workloads from a profile")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k-cutoff", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)

    p = command("verify", _cmd_verify, "randomized incentive-property sweeps")
    p.add_argument("property", choices=("dsic-searcher", "dsic-builder", "integration"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)

    p = command("demo", _cmd_demo, "known-failure demonstrations")
    p.add_argument("demo", choices=("collusion", "deficit", "sybil"))

    p = command("game", _cmd_game, "proposer adoption game")
    p.add_argument("game", choices=("adoption",))
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = command("gen", _cmd_gen, "generate a scenario file from a profile", False)
    p.add_argument("--profile", required=True, help="builtin name or profile JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-cutoff", type=int, default=DEFAULT_K_CUTOFF)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (
        UsageError, ScenarioParseError, GenerationError, MechanismError,
        AdoptionScopeError, OracleSizeError, ModelError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a report or scenario write: a directory, no folder
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
