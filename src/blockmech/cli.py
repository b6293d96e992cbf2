"""Command-line interface.

Every subcommand is a pure function of its arguments and input files: no
wall-clock or environment entropy reaches any reported value (compare's
informational runtime column is the one measured quantity, and it never
feeds back into results). Exit codes: 0 success or property pass, 1 property
failure or an expected exploit failing to materialize, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import compare_algorithms
from .conflict import get_conflict_groups
from .default_algo import build_with_resolutions, counterfactual_blocks
from .harness import (
    adoption_sweep,
    compare_sweep,
    verify_builder_dsic,
    verify_integration,
    verify_searcher_dsic,
)
from .mechanism import MechanismError, run_mechanism
from .model import ModelError, block_bids, block_total_bid, one_time_label
from .oracle import OracleSizeError, full_omega, vcg_outcome
from .reports import (
    dumps_report,
    fmt,
    fmt_block,
    render_table,
    report_payload,
    write_report,
)
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
    scenario = _resolve_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "k_cutoff", None) is not None:
        scenario = replace(scenario, k_cutoff=args.k_cutoff)
    return scenario


def _emit(args, payload: dict, text: str, default_out: str = None) -> None:
    if getattr(args, "format", "table") == "json":
        sys.stdout.write(dumps_report(payload))
    else:
        print(text)
    out = getattr(args, "out", None) or default_out
    if out:
        write_report(out, payload)


def _cmd_build(args) -> int:
    scenario = _load_with_overrides(args)
    bundles = scenario.bundle_map()
    coinbase = one_time_label(scenario.seed)
    block, resolutions = build_with_resolutions(
        bundles, scenario.k_cutoff, scenario.seed, coinbase
    )
    total = block_total_bid(block, bundles, coinbase)
    body = {
        "block": list(block),
        "total_bid": total,
        "k_cutoff": scenario.k_cutoff,
        "seed": scenario.seed,
        "groups": [
            {
                "members": res.group.sorted_members(),
                "strategy": res.strategy.value,
                "sub_block": list(res.sub_block),
                "value": res.value,
            }
            for res in resolutions
        ],
    }
    lines = [
        f"block: {fmt_block(block)}",
        f"total bid: {fmt(total)}",
        render_table(
            ["group", "strategy", "sub-block", "value"],
            [
                [
                    fmt_block(res.group.sorted_members()),
                    res.strategy.value,
                    fmt_block(res.sub_block),
                    fmt(res.value),
                ]
                for res in resolutions
            ],
        ),
    ]
    if args.counterfactuals:
        counter = counterfactual_blocks(
            bundles, scenario.k_cutoff, scenario.seed, coinbase
        )
        rows = []
        body["counterfactuals"] = {}
        for i, cblock in counter.items():
            values = block_bids(cblock, bundles, coinbase)
            others = sum(v for j, v in values.items() if j != i)
            body["counterfactuals"][str(i)] = {
                "block": list(cblock),
                "others_value": others,
            }
            rows.append([i, fmt_block(cblock), fmt(others)])
        lines.append(render_table(["without bid of", "block", "others' value"], rows))
    _emit(args, report_payload("build", body), "\n".join(lines))
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
    lines = []
    if len(ids) <= 3:  # small instances: show the whole block space
        rows = []
        for block in full_omega(bundles, args.limit):
            values = block_bids(block, bundles, coinbase)
            rows.append(
                [fmt_block(block)]
                + [fmt(values.get(i, 0.0)) for i in ids]
                + [fmt(sum(values.values()))]
            )
        lines.append(
            render_table(["block"] + [f"bid {i}" for i in ids] + ["total"], rows)
        )
    lines.append(f"winner: {fmt_block(outcome.winner)}")
    lines.append(f"total bid: {fmt(outcome.total_bid)}")
    lines.append(
        render_table(
            ["bundle", "charge", "refund", "net"],
            [
                [
                    i,
                    fmt(outcome.charges[i]),
                    fmt(outcome.refunds[i]),
                    fmt(outcome.charges[i] - outcome.refunds[i]),
                ]
                for i in ids
            ],
        )
    )
    lines.append(f"proposer revenue: {fmt(outcome.proposer_revenue)}")
    _emit(args, report_payload("oracle", body), "\n".join(lines))
    return 0


def _cmd_mechanism(args) -> int:
    scenario = _load_with_overrides(args)
    outcome = run_mechanism(scenario)
    winner = (
        "default"
        if outcome.winning_builder is None
        else f"builder {outcome.winning_builder}"
    )
    ids = sorted(scenario.bundle_map())
    body = {
        "final_block": list(outcome.final_block),
        "winner": winner,
        "beta0": outcome.beta0,
        "beta_star": outcome.beta_star,
        "beta_prime": outcome.beta_prime,
        "conflict_free": sorted(outcome.conflict_free),
        "searchers": {
            str(i): {
                "charge": e.charge,
                "refund": e.refund,
                "net": e.net,
            }
            for i, e in outcome.searcher_ledger.items()
        },
        "builders": {
            str(j): {
                "payment": e.payment,
                "refund": e.refund,
                "bid": e.bid,
                "disqualified": e.disqualified,
            }
            for j, e in outcome.builder_ledger.items()
        },
        "proposer_revenue": outcome.proposer_revenue,
    }
    lines = [
        f"winner: {winner}",
        f"beta0: {fmt(outcome.beta0)}  beta*: {fmt(outcome.beta_star)}  "
        f"beta': {fmt(outcome.beta_prime)}",
        f"final block: {fmt_block(outcome.final_block)}",
        f"conflict-free: {fmt_block(sorted(outcome.conflict_free))}",
        render_table(
            ["bundle", "charge", "refund", "net"],
            [
                [
                    i,
                    fmt(outcome.searcher_ledger[i].charge),
                    fmt(outcome.searcher_ledger[i].refund),
                    fmt(outcome.searcher_ledger[i].net),
                ]
                for i in ids
            ],
        ),
    ]
    if outcome.builder_ledger:
        lines.append(
            render_table(
                ["builder", "bid", "payment", "refund", "disqualified"],
                [
                    [
                        j,
                        fmt(e.bid),
                        fmt(e.payment),
                        fmt(e.refund),
                        "yes" if e.disqualified else "no",
                    ]
                    for j, e in sorted(outcome.builder_ledger.items())
                ],
            )
        )
    lines.append(f"proposer revenue: {fmt(outcome.proposer_revenue)}")
    _emit(args, report_payload("mechanism", body), "\n".join(lines))
    return 0


def _cmd_groups(args) -> int:
    scenario = _load_with_overrides(args)
    groups = get_conflict_groups(scenario.bundle_map())
    histogram: dict = {}
    for g in groups:
        histogram[len(g)] = histogram.get(len(g), 0) + 1
    large = sum(1 for g in groups if len(g) >= 8)
    body = {
        "group_count": len(groups),
        "size_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "groups_at_least_8": large,
        "groups": [g.sorted_members() for g in groups],
    }
    text = "\n".join(
        [
            render_table(
                ["group size", "count"],
                [[size, count] for size, count in sorted(histogram.items())],
            ),
            f"groups: {len(groups)}",
            f"groups with size >= 8: {large}",
        ]
    )
    _emit(args, report_payload("groups", body), text)
    return 0


def _cmd_compare(args) -> int:
    if args.gen:
        profile = load_profile(args.gen)
        result = compare_sweep(profile, args.n, args.seed or 0, args.threads)
        body = {"sweep": result.details, "scenarios": result.checked}
        d = result.details
        text = "\n".join(
            [
                f"profile: {d['profile']}  scenarios: {result.checked}",
                f"default-is-best fraction: {d['default_best_fraction']:.3f}",
                f"scenarios where another algorithm won: {d['witness_count']}",
                render_table(
                    ["algorithm", "mean runtime (s)"],
                    [
                        [name, f"{t:.6f}"]
                        for name, t in sorted(d["mean_runtime_seconds"].items())
                    ],
                ),
            ]
        )
        _emit(args, report_payload("compare-sweep", body), text)
        return 0
    if not args.scenario:
        raise UsageError("compare needs a scenario path or --gen <profile> --n <count>")
    scenario = _resolve_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.k_cutoff is not None:
        scenario = replace(scenario, k_cutoff=args.k_cutoff)
    report = compare_algorithms(scenario)
    body = {
        "values": report.values,
        "runtime_seconds": report.runtimes,
        "default_is_best": report.default_is_best,
        "gap_absolute": report.gap_absolute,
        "gap_relative": report.gap_relative,
    }
    text = "\n".join(
        [
            render_table(
                ["algorithm", "value", "runtime (s)"],
                [
                    [name, fmt(value), f"{report.runtimes[name]:.6f}"]
                    for name, value in report.values.items()
                ],
            ),
            f"default is best: {'yes' if report.default_is_best else 'no'}",
            f"gap to best: {fmt(report.gap_absolute)} "
            f"({report.gap_relative:.4f} relative)",
        ]
    )
    _emit(args, report_payload("compare", body), text)
    return 0


def _cmd_verify(args) -> int:
    runners = {
        "dsic-searcher": verify_searcher_dsic,
        "dsic-builder": verify_builder_dsic,
        "integration": verify_integration,
    }
    result = runners[args.property](args.n, args.seed or 0, args.threads)
    body = {
        "property": args.property,
        "scenarios": result.checked,
        "witnesses": list(result.failures),
        "passed": result.passed,
        "note": "grid-based empirical check, not a proof over the continuum",
    }
    status = "PASS" if result.passed else "FAIL"
    text = (
        f"{status} {args.property}: {result.checked} scenarios, "
        f"{len(result.failures)} witnesses"
    )
    if result.failures:
        text += "\n" + "\n".join(f"  {f}" for f in result.failures)
    _emit(
        args,
        report_payload("verify", body),
        text,
        default_out=f"verify-{args.property}-report.json",
    )
    return 0 if result.passed else 1


def _cmd_demo(args) -> int:
    if args.demo == "collusion":
        report = collusion_demo()
        ok = report.exploit_holds and report.eq1_unaffected
        body = {
            "subject": report.subject,
            "beta0": report.beta0,
            "honest_refund": report.honest_refund,
            "honest_utility": report.honest_utility,
            "honest_proposer": report.honest_proposer,
            "per_epsilon": list(report.rows),
            "exploit_holds": report.exploit_holds,
            "deployed_rule_unaffected": report.eq1_unaffected,
        }
        rows = [
            [
                r["epsilon"],
                fmt(r["eq1_refund"]),
                fmt(r["eq2_refund"]),
                fmt(r["exploit_utility"]),
                fmt(r["utility_gain"]),
            ]
            for r in report.rows
        ]
        text = "\n".join(
            [
                f"colluding bundle: {report.subject}  default-block value: "
                f"{fmt(report.beta0)}",
                f"honest refund: {fmt(report.honest_refund)}  honest utility: "
                f"{fmt(report.honest_utility)}",
                render_table(
                    [
                        "epsilon",
                        "refund (deployed)",
                        "refund (alternative)",
                        "utility (alternative)",
                        "gain",
                    ],
                    rows,
                ),
                "deployed refund rule unaffected: "
                + ("yes" if report.eq1_unaffected else "NO"),
                "alternative-rule exploit holds: "
                + ("yes" if report.exploit_holds else "NO"),
            ]
        )
        _emit(
            args,
            report_payload("demo-collusion", body),
            text,
            default_out="demo-collusion-report.json",
        )
        return 0 if ok else 1
    if args.demo == "deficit":
        report = budget_deficit_demo()
        demonstrated = report.hypothetical_deficit > 0 and report.actual_balanced
        body = {
            "hypothetical_refunds": {
                str(k): v for k, v in report.hypothetical_refunds.items()
            },
            "hypothetical_collected": report.hypothetical_collected,
            "hypothetical_deficit": report.hypothetical_deficit,
            "actual_inflow": report.actual_inflow,
            "actual_outflow": report.actual_outflow,
            "actual_proposer": report.actual_proposer,
            "actual_balanced": report.actual_balanced,
        }
        text = "\n".join(
            [
                "hypothetical (exact refunds + second-price builder charge):",
                render_table(
                    ["bundle", "refund"],
                    [
                        [k, fmt(v)]
                        for k, v in sorted(report.hypothetical_refunds.items())
                    ],
                ),
                f"collected: {fmt(report.hypothetical_collected)}  "
                f"deficit: {fmt(report.hypothetical_deficit)}",
                f"deployed mechanism on the same fixture: inflow "
                f"{fmt(report.actual_inflow)}, outflow {fmt(report.actual_outflow)}, "
                f"balanced: {'yes' if report.actual_balanced else 'NO'}",
            ]
        )
        _emit(
            args,
            report_payload("demo-deficit", body),
            text,
            default_out="demo-deficit-report.json",
        )
        return 0 if demonstrated else 1
    report = sybil_demo()
    body = {
        "subject": report.subject,
        "refund_before": report.refund_before,
        "refund_after": report.refund_after,
        "net_before": report.net_before,
        "net_after": report.net_after,
        "proposer_before": report.proposer_before,
        "proposer_after": report.proposer_after,
        "inflated": report.inflated,
    }
    text = "\n".join(
        [
            f"refund before split: {fmt(report.refund_before)}",
            f"refund after split:  {fmt(report.refund_after)}",
            f"net payment before/after: {fmt(report.net_before)} / "
            f"{fmt(report.net_after)}",
            f"proposer before/after: {fmt(report.proposer_before)} / "
            f"{fmt(report.proposer_after)}",
            "refund inflation demonstrated: " + ("yes" if report.inflated else "NO"),
        ]
    )
    _emit(
        args,
        report_payload("demo-sybil", body),
        text,
        default_out="demo-sybil-report.json",
    )
    return 0 if report.inflated else 1


def _cmd_game(args) -> int:
    if args.scenario:
        scenario = _resolve_scenario(args.scenario)
        report = adoption_game(scenario)
        body = {
            "mode": report.mode,
            "commit_proposer": report.commit_proposer,
            "best_alternative_proposer": report.best_alternative_proposer,
            "second_highest_valuation": report.second_highest_valuation,
            "partitions_checked": report.partitions_checked,
            "commit_weakly_optimal": report.commit_weakly_optimal,
        }
        text = "\n".join(
            [
                f"structure: {report.mode}",
                f"proposer under commit: {fmt(report.commit_proposer)}",
                f"best build-and-choose alternative: "
                f"{fmt(report.best_alternative_proposer)} "
                f"({report.partitions_checked} partitions checked)",
                "commit weakly optimal: "
                + ("yes" if report.commit_weakly_optimal else "NO"),
            ]
        )
        _emit(
            args,
            report_payload("game-adoption", body),
            text,
            default_out="game-adoption-report.json",
        )
        return 0 if report.commit_weakly_optimal else 1
    result = adoption_sweep(args.n, args.seed or 0)
    body = {
        "scenarios": result.checked,
        "failures": list(result.failures),
        "passed": result.passed,
    }
    status = "PASS" if result.passed else "FAIL"
    text = (
        f"{status} adoption: {result.checked} scenarios, "
        f"{len(result.failures)} failures"
    )
    if result.failures:
        text += "\n" + "\n".join(f"  {f}" for f in result.failures)
    _emit(
        args,
        report_payload("game-adoption-sweep", body),
        text,
        default_out="game-adoption-report.json",
    )
    return 0 if result.passed else 1


def _cmd_gen(args) -> int:
    profile = load_profile(args.profile)
    scenario = generate_scenario(profile, args.seed or 0, args.k_cutoff or 8)
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

    def common(p):
        p.add_argument("scenario", help="scenario file (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--k-cutoff", type=int, default=None, help="override k_cutoff")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", default=None, help="write a JSON report here")

    p = sub.add_parser("build", help="run the default block-building algorithm")
    common(p)
    p.add_argument("--counterfactuals", action="store_true")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("oracle", help="exact enumeration outcome (small instances)")
    common(p)
    p.add_argument("--limit", type=int, default=8)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("mechanism", help="run the full mechanism and print ledgers")
    common(p)
    p.set_defaults(fn=_cmd_mechanism)

    p = sub.add_parser("groups", help="conflict-group histogram")
    common(p)
    p.set_defaults(fn=_cmd_groups)

    p = sub.add_parser("compare", help="default vs greedy baselines (and oracle)")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--gen", default=None, help="generate workloads from a profile")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k-cutoff", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("verify", help="randomized incentive-property sweeps")
    p.add_argument(
        "property", choices=("dsic-searcher", "dsic-builder", "integration")
    )
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("demo", help="known-failure demonstrations")
    p.add_argument("demo", choices=("collusion", "deficit", "sybil"))
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("game", help="proposer adoption game")
    p.add_argument("game", choices=("adoption",))
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("gen", help="generate a scenario file from a profile")
    p.add_argument("--profile", required=True, help="builtin name or profile JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-cutoff", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

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
        UsageError,
        ScenarioParseError,
        GenerationError,
        MechanismError,
        AdoptionScopeError,
        OracleSizeError,
        ModelError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
