"""Checks of the benchmark itself: python3 -m pytest perfbench"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from blockmech import default_algo, mechanism, model  # noqa: E402


def _small_ops():
    """One rotation of sweep calls, three enum-deep scenarios and the
    smallest curve point."""
    ops = workloads.build_ops("sweep-small", 0)[:5]
    ops += workloads.build_ops("enum-deep", 0)[:3]
    ops += workloads.curve_ops()[:1]
    return ops


def test_wrappers_leave_outputs_identical():
    reference = workloads.load_reference()
    originals = (mechanism.run_mechanism, model.block_bids, default_algo.resolve_group)
    ops = _small_ops()
    untraced = [op.digest(op.call()) for op in ops]
    trace = tracer.Tracer()
    with trace.active():
        assert mechanism.run_mechanism is not originals[0]
        traced = [op.digest(op.call()) for op in ops]
    assert (mechanism.run_mechanism, model.block_bids, default_algo.resolve_group) == originals
    assert traced == untraced
    assert untraced == [reference[op.key]["digest"] for op in ops]
    assert trace.spans


def test_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.setitem(workloads.CORPUS, "sweep-small", workloads.CORPUS["sweep-small"][:1])
    monkeypatch.setattr(workloads, "CURVE_SIZES", (100,))

    def counts():
        stats, metrics, _, _ = run.traced_run(workloads, tracer, "sweep-small", 3)
        assert stats["failed"] == 0
        return {k: v for k, (v, unit) in metrics.items() if unit != "s" and "_per_s" not in k
                and k != "trace.overhead_frac"}

    first = counts()
    assert first["mechanism.run.calls"] > 0
    assert first["curve.n100.block_bids_entries"] > 0
    assert counts() == first


def test_tampered_outcome_counts_as_failed():
    reference = workloads.load_reference()
    op = workloads.build_ops("enum-deep", 0)[0]
    outcome = op.call()
    entry = next(iter(outcome.searcher_ledger.values()))
    ledger = dict(outcome.searcher_ledger)
    ledger[next(iter(ledger))] = replace(entry, refund=-1.0)
    tampered = {
        "value": replace(outcome, proposer_revenue=outcome.proposer_revenue + 2.0**-20),
        "negative-refund": replace(outcome, searcher_ledger=ledger),
        "not-an-outcome": None,
    }
    assert workloads.run_op(op, reference)[0]
    for label, bad in tampered.items():
        bad_op = workloads.Op(op.key, lambda bad=bad: bad, op.digest)
        stats = run.measure(workloads, [bad_op], reference, seconds=0)
        assert (stats["attempted"], stats["failed"]) == (1, 1), label


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
