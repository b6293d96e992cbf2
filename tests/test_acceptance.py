"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance (exact equality unless noted) and
its stated time budget, and prints one pass/fail line. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction

from blockmech.cli import main
from blockmech.fixtures import FIXTURE_DIR, example2_scenario
from blockmech.harness import (
    adoption_sweep,
    compare_sweep,
    verify_budget_and_refunds,
    verify_builder_dsic,
    verify_candidate_independence,
    verify_integration,
    verify_oracle_equivalence,
    verify_searcher_dsic,
)
from blockmech.model import one_time_label
from blockmech.oracle import vcg_outcome
from blockmech.strategies import (
    BUILDER_OFFSET_GRID,
    budget_deficit_demo,
    collusion_demo,
)
from blockmech.workload import Profile

EXAMPLE2 = str(FIXTURE_DIR / "example2.json")

# All groups strictly below the cutoff: per-group search is exhaustive, so
# the default block must dominate every compared algorithm.
SMALL_GROUPS = Profile(
    name="small-groups",
    n_bundles=12,
    group_sizes={1: 0.4, 2: 0.25, 3: 0.2, 4: 0.1, 5: 0.05},
    shared_pivot_rate=0.2,
    same_target_rate=0.2,
    bid_model="table",
)


def _line(num: int, name: str, ok: bool, elapsed: float, bound: float, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} ({elapsed:.2f}s / {bound:.0f}s) {detail}")
    assert ok, f"criterion {num}: {name} {detail}"
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.2f}s)"


def test_criterion_01_reference_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["oracle", EXAMPLE2])
    out = capsys.readouterr().out
    scenario = example2_scenario()
    outcome = vcg_outcome(scenario.bundle_map(), one_time_label(scenario.seed))
    ok = (
        code == 0
        and "winner: [2, 1]" in out
        and "total bid: 150" in out
        and "proposer revenue: 30" in out
        and outcome.winner == (2, 1)
        and outcome.total_bid == 150
        and outcome.refunds == {1: 70, 2: 50}
        and outcome.proposer_revenue == 30
    )
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _line(1, "reference-table reproduction (exact integers)", ok, elapsed, 1.0)


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    result = verify_oracle_equivalence(500, seed=20)
    elapsed = time.perf_counter() - t0
    _line(
        2,
        "default equals exact optimum on 500 single-group instances",
        result.passed and result.checked == 500,
        elapsed,
        30.0,
        f"failures={len(result.failures)}",
    )


def test_criterion_03_nonnegative_refunds_and_budget_balance():
    t0 = time.perf_counter()
    result = verify_budget_and_refunds(1000, seed=30)
    elapsed = time.perf_counter() - t0
    _line(
        3,
        "refunds >= 0 and outflows <= inflows on 1000 mixed scenarios",
        result.passed and result.checked == 1000,
        elapsed,
        120.0,
        f"violations={len(result.failures)}",
    )


def test_criterion_04_builder_truthfulness():
    assert len(BUILDER_OFFSET_GRID) == 9
    t0 = time.perf_counter()
    result = verify_builder_dsic(300, seed=40)
    elapsed = time.perf_counter() - t0
    _line(
        4,
        "no builder gains on the 9-point offset grid (300 scenarios)",
        result.passed and result.checked == 300,
        elapsed,
        60.0,
        f"witnesses={len(result.failures)}",
    )


def test_criterion_05_searcher_truthfulness_default_dominating():
    t0 = time.perf_counter()
    result = verify_searcher_dsic(300, seed=50)
    elapsed = time.perf_counter() - t0
    _line(
        5,
        "no searcher gains under dominated builder stubs (300 scenarios)",
        result.passed and result.checked == 300,
        elapsed,
        120.0,
        f"witnesses={len(result.failures)}",
    )


def test_criterion_06_conflict_free_joint_dominance():
    t0 = time.perf_counter()
    result = verify_integration(300, seed=60)
    elapsed = time.perf_counter() - t0
    _line(
        6,
        "participate+truthful joint-dominant for conflict-free bundles (300)",
        result.passed and result.checked == 300,
        elapsed,
        120.0,
        f"witnesses={len(result.failures)}",
    )


def test_criterion_07_collusion_exploit_exact():
    t0 = time.perf_counter()
    report = collusion_demo()
    epsilons = [Fraction(1, 10**6), Fraction(1, 10**3), Fraction(1)]
    ok = (
        report.eq1_unaffected
        and report.exploit_holds
        and [Fraction(r["epsilon"]) for r in report.rows] == epsilons
        and all(
            r["eq2_refund"] == report.beta0
            and r["exploit_utility"] == 100 - 100 + report.beta0
            and r["utility_gain"] > 0
            and r["eq1_refund"] == report.honest_refund
            for r in report.rows
        )
    )
    elapsed = time.perf_counter() - t0
    _line(7, "collusion exploit exact under the alternative rule only", ok, elapsed, 10.0)


def test_criterion_08_budget_deficit_example():
    t0 = time.perf_counter()
    report = budget_deficit_demo()
    ok = (
        report.hypothetical_refunds == {1: 99, 2: 0}
        and report.hypothetical_collected == 1
        and report.hypothetical_deficit == 98
        and report.actual_balanced
    )
    elapsed = time.perf_counter() - t0
    _line(8, "deficit example (99 paid, 1 collected) vs balanced mechanism", ok, elapsed, 10.0)


def test_criterion_09_adoption_equilibrium():
    t0 = time.perf_counter()
    result = adoption_sweep(100, seed=90)
    elapsed = time.perf_counter() - t0
    _line(
        9,
        "commit weakly optimal on both conflict extremes (100 seeds)",
        result.passed and result.checked == 100,
        elapsed,
        60.0,
        f"counterexamples={len(result.failures)}",
    )


def test_criterion_10_candidate_set_bid_independence():
    t0 = time.perf_counter()
    result = verify_candidate_independence(200, seed=100)
    elapsed = time.perf_counter() - t0
    _line(
        10,
        "identical enumeration transcripts across bid profiles (200)",
        result.passed and result.checked == 200,
        elapsed,
        60.0,
        f"mismatches={len(result.failures)}",
    )


def test_criterion_11_thread_count_never_changes_output(tmp_path):
    t0 = time.perf_counter()
    identical = True
    for prop in ("dsic-searcher", "dsic-builder", "integration"):
        captures = []
        for threads in ("1", "8"):
            report = tmp_path / f"{prop}-{threads}.json"
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(
                    [
                        "verify", prop, "--n", "50", "--seed", "1100",
                        "--threads", threads, "--out", str(report),
                    ]
                )
            assert code == 0
            captures.append((buf.getvalue(), report.read_bytes()))
        identical &= captures[0] == captures[1]
    elapsed = time.perf_counter() - t0
    _line(
        11,
        "verify byte-identical across --threads 1 and 8 (3 sweeps x 50 scenarios)",
        identical,
        elapsed,
        120.0,
    )


def test_criterion_12_value_comparison_substitute():
    """Full-scale optimal-block rates from the real order-flow study are out
    of reach at desk scale; the substitute checks the claim's mechanics: the
    default is always best when every group is exhaustively searched, and
    the truncation failure mode is reproducibly exhibited on large groups.
    """
    t0 = time.perf_counter()
    small = compare_sweep(SMALL_GROUPS, 500, seed=120)
    stress_a = compare_sweep("stress-large-groups", 40, seed=121)
    stress_b = compare_sweep("stress-large-groups", 40, seed=121)

    ok = (
        small.details["default_best_fraction"] == 1.0
        and stress_a.details == stress_b.details
        and stress_a.details["witness_count"] >= 1
    )
    elapsed = time.perf_counter() - t0
    _line(
        12,
        "default always best under exhaustive groups; truncation loss witnessed",
        ok,
        elapsed,
        120.0,
        f"stress default-best fraction={stress_a.details['default_best_fraction']:.2f}",
    )
