"""Deterministic simulator for refund-based block-building auctions."""

from .conflict import ConflictGroup, conflict_free_set, conflicts, get_conflict_groups
from .default_algo import (
    DEFAULT_K_CUTOFF,
    GroupResolution,
    Strategy,
    block_building,
    build_with_resolutions,
    candidate_set,
    counterfactual_blocks,
    resolve_group,
)
from .mechanism import (
    BuilderAlgorithm,
    BuilderEnv,
    LedgerEntry,
    MechanismOutcome,
    alternative_refund,
    builder_utility,
    instantiate_builders,
    run_mechanism,
    searcher_utility,
)
from .model import (
    BALANCE_SLOT,
    BidFunction,
    Bundle,
    BuilderSpec,
    CoinbaseLabel,
    ConstantBid,
    ExecutionContext,
    GatedBid,
    Scenario,
    StorageKey,
    TableBid,
    TxRef,
    ZERO_BID,
    block_bids,
    block_total_bid,
    builder_label,
    evaluate_bid,
    exclusive_bid,
    one_time_label,
    validate_builder_block,
)
from .oracle import VcgOutcome, full_omega, vcg_outcome
from .scenario_io import load_scenario, save_scenario
from .workload import PROFILES, Profile, generate_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
