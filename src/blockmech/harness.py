"""Randomized sweeps behind the `verify`, `compare`, and `game` commands.

Every sweep is a pure function of (count, base seed): case i is drawn from a
seed derived arithmetically from the base, profiles and line-ups rotate by
index, and subjects come from a per-case RNG. A sweep draws all its cases
first, in index order, then checks them; a failure line names its case as
`scenario i`, which the same (count, seed) redraws.

`_sweep` and `compare_sweep` are the package's only `model.ordered_map` call
sites. Both check the drawn cases in case order in the calling process;
they take `threads` and hand it on, and it never changes a result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .baselines import compare_algorithms
from .conflict import conflict_free_set, get_conflict_groups
from .default_algo import block_building
from .model import Scenario, block_total_bid, one_time_label, ordered_map
from .mechanism import run_mechanism
from .oracle import vcg_outcome
from .strategies import (
    ABS_TOLERANCE,
    adoption_game,
    builder_deviation_sweep,
    integration_game,
    searcher_deviation_sweep,
)
from .workload import PROFILES, Profile, generate_scenario, with_builders

# Builder line-ups used when rotating through 0-3 registered builders.
_BUILDER_ROTATION = (
    (),
    ("copy-default",),
    ("greedy-bid", "empty"),
    ("copy-default", "greedy-density", "half-default"),
)

# Line-ups of the builder-truthfulness and integration sweeps.
_BUILDER_DSIC_LINEUPS = (
    ("copy-default", "greedy-bid"),
    ("greedy-bid", "greedy-density", "empty"),
    ("copy-default",),
)
_INTEGRATION_LINEUPS = (
    ("greedy-bid", "empty"),
    ("copy-default", "greedy-density"),
    ("copy-default", "greedy-bid", "empty"),
)

# Stubs that can never outbid the default block (empty block at zero, or the
# default block at half value), for default-dominating scenarios.
_DOMINATED_STUBS = ("empty", "half-default")

# Deviation sweeps multiply scenario count by grid size, so they run on a
# small-group profile; the incentive properties do not depend on group size,
# and the mixed-profile sweeps cover the large-group machinery.
_SWEEP_PROFILE = Profile(
    name="sweep",
    n_bundles=8,
    group_sizes={1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1},
    bid_model="table",
)


def _subseed(base: int, index: int) -> int:
    return base * 1_000_003 + index


@dataclass(frozen=True)
class HarnessResult:
    name: str
    checked: int
    failures: tuple
    details: dict

    @property
    def passed(self) -> bool:
        return not self.failures


def _drawn(profile: Profile, seed: int, index: int, lineup=()) -> Scenario:
    """Scenario `index` of the sweep with base `seed`, `lineup` its builders."""
    return with_builders(generate_scenario(profile, _subseed(seed, index)), lineup)


def _sweep(name: str, cases: list, check, threads: int = 1) -> HarnessResult:
    """Run `check(scenario, *subject)` on every drawn case
    `(index, scenario, *subject)` and prefix each failure line it returns
    with its case's index, in case order."""

    def failures(index, *subject) -> list:
        return [f"scenario {index}: {line}" for line in check(*subject)]

    results = ordered_map(lambda case: failures(*case), cases, threads)
    return HarnessResult(name, len(cases), tuple(f for fs in results for f in fs), {})


def _gains(who: str, report) -> list:
    """The failure line of a deviation verdict that is not dominant."""
    if report.dominant:
        return []
    return [
        f"{who} gains via {report.witness} "
        f"({report.truthful_utility} -> {report.best_deviation_utility})"
    ]


def verify_budget_and_refunds(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Every refund non-negative and total outflows within total inflows,
    over mixed profiles with 0-3 registered builders."""
    names = ("realistic", "no-conflict", "full-conflict", "stress-large-groups")
    cases = [
        (i, _drawn(PROFILES[names[i % len(names)]], seed, i,
                   _BUILDER_ROTATION[i % len(_BUILDER_ROTATION)]))
        for i in range(n)
    ]

    def check(scenario) -> list:
        outcome = run_mechanism(scenario)
        failures = []
        bad_refund = [
            j for j, e in outcome.searcher_ledger.items() if e.refund < 0
        ] + [j for j, e in outcome.builder_ledger.items() if e.refund < 0]
        if bad_refund:
            failures.append(f"negative refund for {bad_refund}")
        if outcome.total_outflow > outcome.total_inflow + ABS_TOLERANCE:
            failures.append(
                f"outflow {outcome.total_outflow} exceeds "
                f"inflow {outcome.total_inflow}"
            )
        return failures

    return _sweep("budget-and-refunds", cases, check, threads)


def verify_searcher_dsic(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Searcher truthfulness when the default algorithm dominates: builders
    restricted to dominated stubs, one randomly designated subject each."""
    cases = []
    for i in range(n):
        profile = _SWEEP_PROFILE if i % 2 == 0 else PROFILES["full-conflict"]
        scenario = _drawn(profile, seed, i, _DOMINATED_STUBS)
        bundles = scenario.bundle_map()
        core = sorted(set(bundles) - conflict_free_set(get_conflict_groups(bundles)))
        rng = random.Random(scenario.seed ^ 0x5EED)
        pool = core if core else sorted(bundles)
        cases.append((i, scenario, pool[rng.randrange(len(pool))]))

    def check(scenario, subject) -> list:
        return _gains(f"searcher {subject}", searcher_deviation_sweep(scenario, subject))

    return _sweep("dsic-searcher", cases, check, threads)


def verify_builder_dsic(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Builder truthfulness: bid offsets around the truthful block value
    never strictly improve a builder's utility."""
    cases = []
    for i in range(n):
        lineup = _BUILDER_DSIC_LINEUPS[i % len(_BUILDER_DSIC_LINEUPS)]
        scenario = _drawn(_SWEEP_PROFILE, seed, i, lineup)
        rng = random.Random(scenario.seed ^ 0xB1D)
        cases.append((i, scenario, rng.randrange(len(scenario.builders))))

    def check(scenario, subject) -> list:
        return _gains(f"builder {subject}", builder_deviation_sweep(scenario, subject))

    return _sweep("dsic-builder", cases, check, threads)


def verify_integration(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Conflict-free dominance: across arbitrary builder line-ups, neither
    misreporting nor integrating ever beats participate-and-bid-truthfully
    in joint utility.

    Scenarios without a conflict-free bundle are skipped, so a case's index
    is the attempt that drew it, and fewer than `n` cases are checked when
    `10 * n` attempts do not find `n`."""
    cases = []
    attempt = 0
    while len(cases) < n and attempt < 10 * n:
        lineup = _INTEGRATION_LINEUPS[len(cases) % len(_INTEGRATION_LINEUPS)]
        scenario = _drawn(_SWEEP_PROFILE, seed, attempt, lineup)
        attempt += 1
        free = sorted(conflict_free_set(get_conflict_groups(scenario.bundle_map())))
        if not free:
            continue
        rng = random.Random(_subseed(seed, attempt) ^ 0x1A7E)
        subject = free[rng.randrange(len(free))]
        builder = rng.randrange(len(scenario.builders))
        cases.append((attempt - 1, scenario, subject, builder))

    def check(scenario, subject, builder) -> list:
        report = integration_game(scenario, subject, builder)
        return _gains(f"pair ({subject}, builder {builder})", report)

    return _sweep("integration", cases, check, threads)


def verify_oracle_equivalence(n: int, seed: int) -> HarnessResult:
    """On single-group instances small enough for the exact oracle, the
    default algorithm's block value equals the exact optimum."""
    cases = []
    for i in range(n):
        m = 2 + i % 5  # 2..6 bundles, one conflict group
        profile = Profile(
            name="one-group", n_bundles=m, group_sizes={m: 1.0}, bid_model="table"
        )
        cases.append((i, _drawn(profile, seed, i)))

    def check(scenario) -> list:
        bundles = scenario.bundle_map()
        coinbase = one_time_label(scenario.seed)
        built = block_building(bundles, scenario.k_cutoff, scenario.seed, coinbase)
        value = block_total_bid(built, bundles, coinbase)
        exact = vcg_outcome(bundles, coinbase).total_bid
        return [] if value == exact else [f"default {value} != oracle {exact}"]

    return _sweep("oracle-equivalence", cases, check)


def compare_sweep(profile: Profile, n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Fraction of scenarios where the default block is the best among the
    compared algorithms, plus witnesses where it is not."""
    scenarios = [_drawn(profile, seed, i) for i in range(n)]
    reports = ordered_map(compare_algorithms, scenarios, threads)
    witnesses = [
        {
            "seed": scenario.seed,
            "values": report.values,
            "gap_absolute": report.gap_absolute,
            "gap_relative": report.gap_relative,
        }
        for scenario, report in zip(scenarios, reports)
        if not report.default_is_best
    ]
    details = {
        "profile": profile.name,
        "default_best_fraction": (n - len(witnesses)) / n if n else 1.0,
        "witnesses": witnesses[:5],
        "witness_count": len(witnesses),
    }
    return HarnessResult("compare", n, (), details)


def adoption_sweep(n: int, seed: int) -> HarnessResult:
    """Commit is weakly optimal on both extreme conflict structures, with
    the full-conflict proposer payoff equal to the second-highest value."""
    cases = []
    for i in range(n):
        mode = "no-conflict" if i % 2 == 0 else "full-conflict"
        size = 3 + i % 6 if i % 2 == 0 else 2 + i % 5
        cases.append((i, _drawn(replace(PROFILES[mode], n_bundles=size), seed, i), mode))

    def check(scenario, mode) -> list:
        report = adoption_game(scenario)
        if mode == "no-conflict":
            if report.commit_proposer != 0.0 or report.best_alternative_proposer != 0.0:
                return ["nonzero proposer under no-conflict"]
            return []
        failures = []
        if report.commit_proposer != report.second_highest_valuation:
            failures.append(
                f"commit pays {report.commit_proposer}, "
                f"expected {report.second_highest_valuation}"
            )
        if not report.commit_weakly_optimal:
            failures.append(f"partition {report.witness_partition} beats commit")
        return failures

    return _sweep("adoption", cases, check)
