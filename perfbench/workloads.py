"""Workload definitions, op construction and output checks.

Each workload is a fixed corpus of ops whose outputs were recorded once in
`reference.json`; a run's seed only fixes the order in which the corpus is
visited. Keeping the corpus fixed is what lets the reference digests be
committed. Together with timing whole passes only, it makes runs under
different seeds time the same work, so their spread is the machine's, not
the inputs'.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from blockmech import harness, mechanism, workload
from blockmech.workload import Profile

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

ABS_TOLERANCE = 1e-9

# Order-flow shape: groups of 1-3 with the `realistic` profile's relative
# weights, so about 40 % of bundles are conflict-free and settlement over the
# core dominates the run.
SETTLE_WIDE = Profile(
    name="settle-wide",
    n_bundles=400,
    group_sizes={1: 0.52, 2: 0.2, 3: 0.12},
    shared_pivot_rate=0.2,
    same_target_rate=0.2,
    bid_model="table",
    builders=("copy-default", "greedy-bid", "greedy-density"),
)

# Most groups just under the default cutoff of 8, a fifth at 9-10 so both
# shortcuts and truncated enumeration appear (all four strategies occur in
# the corpus below).
ENUM_DEEP = Profile(
    name="enum-deep",
    n_bundles=28,
    group_sizes={5: 0.25, 6: 0.25, 7: 0.3, 9: 0.1, 10: 0.1},
    shared_pivot_rate=0.2,
    same_target_rate=0.2,
    bid_model="table",
    builders=("copy-default", "greedy-bid"),
)

# (harness call, scenario count covering one full profile or line-up
# rotation of that sweep, whether it takes a thread count).
SWEEP_CALLS = (
    ("verify_budget_and_refunds", 4, True),
    ("verify_searcher_dsic", 2, True),
    ("verify_builder_dsic", 3, True),
    ("verify_integration", 3, True),
    ("verify_oracle_equivalence", 5, False),
)

# (kind, profile, generator or harness seed). Small, so that a 40 s run
# makes about ten passes on a 2-core x86 machine with CPython 3.11 and
# every op's fastest pass is taken from many tries. The enum-deep seeds
# cover all four group strategies.
CORPUS = {
    "settle-wide": [("scenario", SETTLE_WIDE, s) for s in (1, 2)],
    "enum-deep": [("scenario", ENUM_DEEP, s) for s in (2, 3, 4, 5, 6)],
    "sweep-small": [("sweep", None, s) for s in range(1, 7)],
}

CURVE_SIZES = (100, 200, 400)
CURVE_SEED = 1


def sweep_threads() -> int:
    return min(2, os.cpu_count() or 1)


@dataclass
class Op:
    key: str  # reference key
    call: Callable
    digest: Callable  # result -> hex digest, or raise CheckError


class CheckError(Exception):
    """An op's output broke an invariant."""


def _hex(x) -> str:
    return float(x).hex()


def outcome_digest(o) -> str:
    """Digest of a MechanismOutcome after its ledger invariants hold.

    Floats enter as their exact hex form, so equal digests mean bit-equal
    values."""
    bad = [i for i, e in o.searcher_ledger.items() if e.refund < 0]
    bad += [j for j, e in o.builder_ledger.items() if e.refund < 0]
    if bad:
        raise CheckError(f"negative refund for {bad}")
    if o.total_outflow > o.total_inflow + ABS_TOLERANCE:
        raise CheckError(f"outflow {o.total_outflow} exceeds inflow {o.total_inflow}")
    record = [
        list(o.final_block),
        o.final_coinbase.value,
        o.winning_builder,
        [_hex(o.beta0), _hex(o.beta_star), _hex(o.beta_prime)],
        list(o.default_block),
        sorted(o.conflict_free),
        [[i, _hex(e.charge), _hex(e.refund)] for i, e in sorted(o.searcher_ledger.items())],
        [
            [j, _hex(e.payment), _hex(e.refund), list(e.block), _hex(e.bid), e.disqualified]
            for j, e in sorted(o.builder_ledger.items())
        ],
        _hex(o.proposer_revenue),
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def harness_digest(result, n: int) -> str:
    if not result.passed or result.checked != n:
        raise CheckError(
            f"{result.name}: checked {result.checked} of {n}, failures {result.failures}"
        )
    record = [result.name, result.checked, list(result.failures), result.details]
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def _scenario_op(key: str, scenario) -> Op:
    # Looked up at call time so the traced run's wrapper is the one called.
    return Op(key, lambda: mechanism.run_mechanism(scenario), outcome_digest)


def _sweep_op(name: str, n: int, threaded: bool, seed: int) -> Op:
    def call():
        fn = getattr(harness, name)
        if threaded:
            return fn(n, seed, threads=sweep_threads())
        return fn(n, seed)

    return Op(f"sweep-small/{name}/{n}/{seed}", call, lambda r: harness_digest(r, n))


def build_ops(name: str, seed: int) -> list:
    """Generate and validate every input of the workload; returns the ops
    in the seed's order. Scenario construction validates ids and tx
    targets, and generation cross-checks the planned conflict partition."""
    corpus = list(CORPUS[name])
    random.Random(seed).shuffle(corpus)
    ops = []
    for kind, profile, s in corpus:
        if kind == "scenario":
            scenario = workload.generate_scenario(profile, s)
            ops.append(_scenario_op(f"{name}/{s}", scenario))
        else:
            ops.extend(_sweep_op(*call, s) for call in SWEEP_CALLS)
    return ops


def curve_ops() -> list:
    """run_mechanism on the settle-wide shape at each curve size."""
    ops = []
    for size in CURVE_SIZES:
        profile = replace(SETTLE_WIDE, n_bundles=size)
        scenario = workload.generate_scenario(profile, CURVE_SEED)
        ops.append(_scenario_op(f"curve/{size}", scenario))
    return ops


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def run_op(op: Op, reference: dict):
    """Run one op and check it; returns (ok, seconds, error message)."""
    start = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        return False, perf_counter() - start, f"{op.key}: {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        digest = op.digest(result)
    except Exception as exc:
        return False, elapsed, f"{op.key}: {type(exc).__name__}: {exc}"
    expected = reference.get(op.key, {}).get("digest")
    if digest != expected:
        return False, elapsed, f"{op.key}: digest {digest[:12]} != reference {str(expected)[:12]}"
    return True, elapsed, None
