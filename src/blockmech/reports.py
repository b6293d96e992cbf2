"""Report payloads and table rendering.

Every subcommand builds one JSON-serializable payload, and `render` draws
the human-readable table from that same payload alone, so the two can never
disagree: the table of a report equals `render` of its parsed JSON. JSON
output is canonical (sorted keys, fixed indent) to keep byte-identical
reruns byte-identical. Renderers never rely on a payload's key order, which
sorting changes; rows keyed by bundle or builder id are drawn in id order.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


def report_payload(kind: str, body: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **body}


def dumps_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def fmt(x) -> str:
    """Numbers without float noise: 150 not 150.0, 0.5 as-is."""
    if isinstance(x, float) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def fmt_block(block) -> str:
    return "[" + ", ".join(str(i) for i in block) + "]"


def render_table(headers, rows) -> str:
    """Plain left-aligned columns, two-space gutter."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    for n, row in enumerate(cells):
        lines.append("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _by_id(mapping) -> list:
    """(key, value) pairs of a mapping keyed by integers (ids, sizes), in
    numeric order; JSON turns the keys into strings, which sort 10 before 2."""
    return sorted(mapping.items(), key=lambda item: int(item[0]))


def _fmts(record, *keys) -> list:
    return [fmt(record[k]) for k in keys]


def _yes(flag: bool, no: str = "NO") -> str:
    return "yes" if flag else no


def _build(p) -> list:
    groups = [
        [fmt_block(g["members"]), g["strategy"], fmt_block(g["sub_block"])]
        + [fmt(g["value"])]
        for g in p["groups"]
    ]
    lines = [
        f"block: {fmt_block(p['block'])}",
        f"total bid: {fmt(p['total_bid'])}",
        render_table(["group", "strategy", "sub-block", "value"], groups),
    ]
    if "counterfactuals" in p:
        rows = [
            [i, fmt_block(c["block"]), fmt(c["others_value"])]
            for i, c in _by_id(p["counterfactuals"])
        ]
        lines.append(render_table(["without bid of", "block", "others' value"], rows))
    return lines


def _oracle(p) -> list:
    ids = [i for i, _ in _by_id(p["charges"])]
    lines = []
    if "block_space" in p:  # small instances: every block with its bids
        rows = [
            [fmt_block(r["block"])] + _fmts(r["bids"], *ids) + [fmt(r["total"])]
            for r in p["block_space"]
        ]
        headers = ["block"] + [f"bid {i}" for i in ids] + ["total"]
        lines.append(render_table(headers, rows))
    charges, refunds = p["charges"], p["refunds"]
    ledger = [
        [i, fmt(charges[i]), fmt(refunds[i]), fmt(charges[i] - refunds[i])] for i in ids
    ]
    return lines + [
        f"winner: {fmt_block(p['winner'])}",
        f"total bid: {fmt(p['total_bid'])}",
        render_table(["bundle", "charge", "refund", "net"], ledger),
        f"proposer revenue: {fmt(p['proposer_revenue'])}",
    ]


def _mechanism(p) -> list:
    searchers = [
        [i] + _fmts(e, "charge", "refund", "net") for i, e in _by_id(p["searchers"])
    ]
    lines = [
        f"winner: {p['winner']}",
        f"beta0: {fmt(p['beta0'])}  beta*: {fmt(p['beta_star'])}  "
        f"beta': {fmt(p['beta_prime'])}",
        f"final block: {fmt_block(p['final_block'])}",
        f"conflict-free: {fmt_block(p['conflict_free'])}",
        render_table(["bundle", "charge", "refund", "net"], searchers),
    ]
    if p["builders"]:
        builders = [
            [j] + _fmts(e, "bid", "payment", "refund") + [_yes(e["disqualified"], "no")]
            for j, e in _by_id(p["builders"])
        ]
        headers = ["builder", "bid", "payment", "refund", "disqualified"]
        lines.append(render_table(headers, builders))
    return lines + [f"proposer revenue: {fmt(p['proposer_revenue'])}"]


def _groups(p) -> list:
    return [
        render_table(["group size", "count"], _by_id(p["size_histogram"])),
        f"groups: {p['group_count']}",
        f"k_cutoff: {p['k_cutoff']}",
        f"groups with size >= k_cutoff: {p['groups_at_least_k_cutoff']}",
    ]


def _compare(p) -> list:
    values = [[name, fmt(value)] for name, value in sorted(p["values"].items())]
    return [
        render_table(["algorithm", "value"], values),
        f"default is best: {_yes(p['default_is_best'], 'no')}",
        f"gap to best: {fmt(p['gap_absolute'])} ({p['gap_relative']:.4f} relative)",
    ]


def _compare_sweep(p) -> list:
    d = p["sweep"]
    return [
        f"profile: {d['profile']}  scenarios: {p['scenarios']}",
        f"default-is-best fraction: {d['default_best_fraction']:.3f}",
        f"scenarios where another algorithm won: {d['witness_count']}",
    ]


def _pass_fail(name: str, p, items: str) -> list:
    """The status line of a sweep, then one line per listed witness."""
    status = "PASS" if p["passed"] else "FAIL"
    head = f"{status} {name}: {p['scenarios']} scenarios, {len(p[items])} {items}"
    return [head] + [f"  {item}" for item in p[items]]


def _collusion(p) -> list:
    rows = [
        [r["epsilon"]]
        + _fmts(r, "eq1_refund", "eq2_refund", "exploit_utility", "utility_gain")
        for r in p["per_epsilon"]
    ]
    headers = ["epsilon", "refund (deployed)", "refund (alternative)"]
    headers += ["utility (alternative)", "gain"]
    return [
        f"colluding bundle: {p['subject']}  default-block value: {fmt(p['beta0'])}",
        f"honest refund: {fmt(p['honest_refund'])}  honest utility: "
        f"{fmt(p['honest_utility'])}",
        render_table(headers, rows),
        f"deployed refund rule unaffected: {_yes(p['deployed_rule_unaffected'])}",
        f"alternative-rule exploit holds: {_yes(p['exploit_holds'])}",
    ]


def _deficit(p) -> list:
    refunds = [[k, fmt(v)] for k, v in _by_id(p["hypothetical_refunds"])]
    return [
        "hypothetical (exact refunds + second-price builder charge):",
        render_table(["bundle", "refund"], refunds),
        f"collected: {fmt(p['hypothetical_collected'])}  "
        f"deficit: {fmt(p['hypothetical_deficit'])}",
        f"deployed mechanism on the same fixture: inflow "
        f"{fmt(p['actual_inflow'])}, outflow {fmt(p['actual_outflow'])}, "
        f"balanced: {_yes(p['actual_balanced'])}",
    ]


def _sybil(p) -> list:
    return [
        f"refund before split: {fmt(p['refund_before'])}",
        f"refund after split:  {fmt(p['refund_after'])}",
        f"net payment before/after: {fmt(p['net_before'])} / {fmt(p['net_after'])}",
        f"proposer before/after: {fmt(p['proposer_before'])} / "
        f"{fmt(p['proposer_after'])}",
        f"refund inflation demonstrated: {_yes(p['inflated'])}",
    ]


def _adoption(p) -> list:
    return [
        f"structure: {p['mode']}",
        f"proposer under commit: {fmt(p['commit_proposer'])}",
        f"best build-and-choose alternative: {fmt(p['best_alternative_proposer'])} "
        f"({p['partitions_checked']} partitions checked)",
        f"commit weakly optimal: {_yes(p['commit_weakly_optimal'])}",
    ]


_RENDERERS = {
    "build": _build,
    "oracle": _oracle,
    "mechanism": _mechanism,
    "groups": _groups,
    "compare": _compare,
    "compare-sweep": _compare_sweep,
    "verify": lambda p: _pass_fail(p["property"], p, "witnesses"),
    "demo-collusion": _collusion,
    "demo-deficit": _deficit,
    "demo-sybil": _sybil,
    "game-adoption": _adoption,
    "game-adoption-sweep": lambda p: _pass_fail("adoption", p, "failures"),
}


def render(payload: dict) -> str:
    """The table text of a report, drawn from its payload alone."""
    return "\n".join(_RENDERERS[payload["kind"]](payload))
