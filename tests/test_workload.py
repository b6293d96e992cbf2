"""Workload generation: determinism, planned-vs-realized partitions, stamps."""

from __future__ import annotations

import pytest

from blockmech.conflict import get_conflict_groups
from blockmech.default_algo import Strategy, is_feasible
from blockmech.scenario_io import dumps_scenario
from blockmech.workload import (
    GenerationError,
    PROFILES,
    Profile,
    generate_scenario,
    load_profile,
)


def test_all_singletons_profile():
    scenario = generate_scenario(PROFILES["no-conflict"], 1)
    groups = get_conflict_groups(scenario.bundles)
    assert len(groups) == len(scenario.bundles) == 20
    assert all(len(g) == 1 for g in groups)


def test_full_conflict_is_one_group():
    scenario = generate_scenario(PROFILES["full-conflict"], 1)
    groups = get_conflict_groups(scenario.bundles)
    assert len(groups) == 1
    assert len(groups[0]) == len(scenario.bundles)


def test_generation_is_byte_deterministic():
    for profile in PROFILES.values():
        once = dumps_scenario(generate_scenario(profile, 77))
        twice = dumps_scenario(generate_scenario(profile, 77))
        assert once == twice


def test_different_seeds_differ():
    a = generate_scenario(PROFILES["realistic"], 1)
    b = generate_scenario(PROFILES["realistic"], 2)
    assert dumps_scenario(a) != dumps_scenario(b)


def test_shared_pivot_stamp_classifies():
    profile = Profile(
        name="pivot-heavy",
        n_bundles=9,
        group_sizes={9: 1.0},
        shared_pivot_rate=1.0,
        bid_model="table",
    )
    scenario = generate_scenario(profile, 4)
    groups = get_conflict_groups(scenario.bundles)
    assert len(groups) == 1
    assert is_feasible(groups[0], scenario.bundle_map()) is Strategy.SHARED_PIVOT


def test_same_target_stamp_classifies():
    profile = Profile(
        name="target-heavy",
        n_bundles=10,
        group_sizes={10: 1.0},
        shared_pivot_rate=0.0,
        same_target_rate=1.0,
        bid_model="table",
    )
    scenario = generate_scenario(profile, 4)
    groups = get_conflict_groups(scenario.bundles)
    assert is_feasible(groups[0], scenario.bundle_map()) is Strategy.SAME_TARGET


def test_planned_partition_matches_realized():
    # generate_scenario cross-checks internally; a pass means agreement
    for name in PROFILES:
        for seed in (0, 1, 2):
            generate_scenario(PROFILES[name], seed)


def test_infeasible_profile_rejected():
    bad = Profile(name="bad", n_bundles=3, group_sizes={9: 1.0})
    with pytest.raises(GenerationError, match="exceeds n_bundles"):
        generate_scenario(bad, 0)
    negative = Profile(name="neg", n_bundles=3, group_sizes={1: -1.0})
    with pytest.raises(GenerationError, match="non-negative"):
        generate_scenario(negative, 0)


@pytest.mark.parametrize("size", [0, -1])
def test_group_size_below_one_rejected(size):
    # such a size never shrinks what is left to plan, so it must not be drawn
    profile = Profile(name="z", n_bundles=3, group_sizes={size: 1.0})
    with pytest.raises(GenerationError, match="below 1"):
        generate_scenario(profile, 0)


def test_unknown_profile_name():
    with pytest.raises(GenerationError, match="unknown profile"):
        load_profile("definitely-not-a-profile")


def test_profile_file_roundtrip(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(
        '{"n_bundles": 4, "group_sizes": {"2": 1.0}, "bid_model": "constant"}'
    )
    profile = load_profile(str(path))
    scenario = generate_scenario(profile, 3)
    assert len(scenario.bundles) == 4
    groups = get_conflict_groups(scenario.bundles)
    assert all(len(g) == 2 for g in groups)
