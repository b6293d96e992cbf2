"""Randomized sweeps behind the `verify`, `compare`, and `game` commands.

Every sweep is a pure function of (count, base seed): scenario i uses a seed
derived arithmetically from the base, profiles rotate by index, and subjects
are drawn from a per-scenario RNG. Failures carry enough detail to replay
the offending scenario.

The per-scenario loops of the `verify_*` sweeps and of `compare_sweep` are
the package's only `model.ordered_map` call sites: `threads` sizes the pool
over scenarios, and results are collected in index order, so the thread
count never changes a result. Everything below a scenario runs sequentially.
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


def _mixed_scenario(index: int, base_seed: int) -> Scenario:
    names = ("realistic", "no-conflict", "full-conflict", "stress-large-groups")
    profile = PROFILES[names[index % len(names)]]
    scenario = generate_scenario(profile, _subseed(base_seed, index))
    return with_builders(scenario, _BUILDER_ROTATION[index % len(_BUILDER_ROTATION)])


def _failures(check, items, threads: int) -> tuple:
    """Run `check` on every item, `threads` at a time, and concatenate the
    failure lists it returns in item order."""
    return tuple(f for fs in ordered_map(check, items, threads) for f in fs)


def _gains(index: int, who: str, report) -> list:
    """The failure line of a deviation verdict that is not dominant."""
    if report.dominant:
        return []
    return [
        f"scenario {index}: {who} gains via {report.witness} "
        f"({report.truthful_utility} -> {report.best_deviation_utility})"
    ]


def verify_budget_and_refunds(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Every refund non-negative and total outflows within total inflows,
    over mixed profiles with 0-3 registered builders."""

    def check(i: int) -> list:
        outcome = run_mechanism(_mixed_scenario(i, seed))
        failures = []
        bad_refund = [
            j for j, e in outcome.searcher_ledger.items() if e.refund < 0
        ] + [j for j, e in outcome.builder_ledger.items() if e.refund < 0]
        if bad_refund:
            failures.append(f"scenario {i}: negative refund for {bad_refund}")
        if outcome.total_outflow > outcome.total_inflow + ABS_TOLERANCE:
            failures.append(
                f"scenario {i}: outflow {outcome.total_outflow} exceeds "
                f"inflow {outcome.total_inflow}"
            )
        return failures

    return HarnessResult(
        "budget-and-refunds", n, _failures(check, range(n), threads), {}
    )


def verify_searcher_dsic(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Searcher truthfulness when the default algorithm dominates: builders
    restricted to dominated stubs, one randomly designated subject each."""

    def check(i: int) -> list:
        profile = _SWEEP_PROFILE if i % 2 == 0 else PROFILES["full-conflict"]
        scenario = generate_scenario(profile, _subseed(seed, i))
        scenario = with_builders(scenario, _DOMINATED_STUBS)
        bundles = scenario.bundle_map()
        core = sorted(set(bundles) - conflict_free_set(get_conflict_groups(bundles)))
        rng = random.Random(_subseed(seed, i) ^ 0x5EED)
        pool = core if core else sorted(bundles)
        subject = pool[rng.randrange(len(pool))]
        report = searcher_deviation_sweep(scenario, subject)
        return _gains(i, f"searcher {subject}", report)

    return HarnessResult("dsic-searcher", n, _failures(check, range(n), threads), {})


def verify_builder_dsic(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Builder truthfulness: bid offsets around the truthful block value
    never strictly improve a builder's utility."""

    def check(i: int) -> list:
        scenario = generate_scenario(_SWEEP_PROFILE, _subseed(seed, i))
        lineup = _BUILDER_DSIC_LINEUPS[i % len(_BUILDER_DSIC_LINEUPS)]
        scenario = with_builders(scenario, lineup)
        rng = random.Random(_subseed(seed, i) ^ 0xB1D)
        subject = rng.randrange(len(scenario.builders))
        report = builder_deviation_sweep(scenario, subject)
        return _gains(i, f"builder {subject}", report)

    return HarnessResult("dsic-builder", n, _failures(check, range(n), threads), {})


def verify_integration(n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Conflict-free dominance: across arbitrary builder line-ups, neither
    misreporting nor integrating ever beats participate-and-bid-truthfully
    in joint utility.

    Scenarios without a conflict-free bundle are skipped, so the draw of
    scenarios, subjects and builders is sequential; only the games run on
    the pool."""
    games = []  # (attempt index, scenario, subject, builder)
    attempt = 0
    while len(games) < n and attempt < 10 * n:
        scenario = generate_scenario(_SWEEP_PROFILE, _subseed(seed, attempt))
        attempt += 1
        free = sorted(conflict_free_set(get_conflict_groups(scenario.bundle_map())))
        if not free:
            continue
        lineup = _INTEGRATION_LINEUPS[len(games) % len(_INTEGRATION_LINEUPS)]
        scenario = with_builders(scenario, lineup)
        rng = random.Random(_subseed(seed, attempt) ^ 0x1A7E)
        subject = free[rng.randrange(len(free))]
        builder = rng.randrange(len(scenario.builders))
        games.append((attempt - 1, scenario, subject, builder))

    def check(game) -> list:
        index, scenario, subject, builder = game
        report = integration_game(scenario, subject, builder)
        return _gains(index, f"pair ({subject}, builder {builder})", report)

    return HarnessResult(
        "integration", len(games), _failures(check, games, threads), {}
    )


def verify_oracle_equivalence(n: int, seed: int) -> HarnessResult:
    """On single-group instances small enough for the exact oracle, the
    default algorithm's block value equals the exact optimum."""
    failures = []
    for i in range(n):
        m = 2 + i % 5  # 2..6 bundles, one conflict group
        profile = Profile(
            name="one-group", n_bundles=m, group_sizes={m: 1.0}, bid_model="table"
        )
        scenario = generate_scenario(profile, _subseed(seed, i))
        bundles = scenario.bundle_map()
        coinbase = one_time_label(scenario.seed)
        built = block_building(bundles, scenario.k_cutoff, scenario.seed, coinbase)
        value = block_total_bid(built, bundles, coinbase)
        exact = vcg_outcome(bundles, coinbase).total_bid
        if value != exact:
            failures.append(f"scenario {i}: default {value} != oracle {exact}")
    return HarnessResult("oracle-equivalence", n, tuple(failures), {})


def compare_sweep(profile: Profile, n: int, seed: int, threads: int = 1) -> HarnessResult:
    """Fraction of scenarios where the default block is the best among the
    compared algorithms, plus witnesses where it is not."""

    def compare(i: int) -> tuple:
        scenario = generate_scenario(profile, _subseed(seed, i))
        return scenario.seed, compare_algorithms(scenario)

    best_count = 0
    witnesses = []
    for scenario_seed, report in ordered_map(compare, range(n), threads):
        if report.default_is_best:
            best_count += 1
        else:
            witnesses.append(
                {
                    "seed": scenario_seed,
                    "values": report.values,
                    "gap_absolute": report.gap_absolute,
                    "gap_relative": report.gap_relative,
                }
            )
    details = {
        "profile": profile.name,
        "default_best_fraction": best_count / n if n else 1.0,
        "witnesses": witnesses[:5],
        "witness_count": len(witnesses),
    }
    return HarnessResult("compare", n, (), details)


def adoption_sweep(n: int, seed: int) -> HarnessResult:
    """Commit is weakly optimal on both extreme conflict structures, with
    the full-conflict proposer payoff equal to the second-highest value."""
    failures = []
    for i in range(n):
        if i % 2 == 0:
            profile = replace(PROFILES["no-conflict"], n_bundles=3 + i % 6)
            scenario = generate_scenario(profile, _subseed(seed, i))
            report = adoption_game(scenario)
            if report.commit_proposer != 0.0 or report.best_alternative_proposer != 0.0:
                failures.append(f"scenario {i}: nonzero proposer under no-conflict")
        else:
            profile = replace(PROFILES["full-conflict"], n_bundles=2 + i % 5)
            scenario = generate_scenario(profile, _subseed(seed, i))
            report = adoption_game(scenario)
            if report.commit_proposer != report.second_highest_valuation:
                failures.append(
                    f"scenario {i}: commit pays {report.commit_proposer}, "
                    f"expected {report.second_highest_valuation}"
                )
            if not report.commit_weakly_optimal:
                failures.append(
                    f"scenario {i}: partition {report.witness_partition} beats commit"
                )
    return HarnessResult("adoption", n, tuple(failures), {})
