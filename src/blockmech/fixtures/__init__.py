"""Built-in fixture scenarios used by the demos, docs, and tests.

Each fixture is one scenario file in this package, loaded by name with
`load_fixture`, so every one of them can also be run with the CLI
(`blockmech mechanism <this dir>/example2.json`):

- `example2`: two position-dependent bundles contesting one pool. Bundle 1
  pays 40 at the head of the block and 100 after bundle 2; bundle 2 pays 50
  at the head and 80 after bundle 1. The best block is [2, 1] worth 150,
  with refunds 70 and 50 and 30 left for the proposer.
- `deficit`: two mutually exclusive transactions, bids 100 and 1, plus one
  builder that always picks the smallest-hash tx and one that picks the
  largest. A mechanism that insisted on exact marginal refunds AND
  second-price builder charging would refund 99 while collecting 1 here;
  the real mechanism stays balanced on the same input.
- `collusion`: the example-2 core plus one dominated honest builder, so the
  default strictly outperforms every registered algorithm. The colluding
  builder is injected by the demo, not by the scenario.
- `integration`: a conflict-free bundle alongside a contested pair, with
  one competitive builder and one dominated stub: the smallest scenario
  where the participate-vs-integrate table is non-trivial.
- `sybil` and `sybil-split`: a refund-splitting demonstration, before and
  after the split; see `sybil_fixture`.
"""

from __future__ import annotations

from pathlib import Path

from ..model import Scenario
from ..scenario_io import load_scenario

FIXTURE_DIR = Path(__file__).parent


def load_fixture(name: str) -> Scenario:
    return load_scenario(FIXTURE_DIR / f"{name}.json")


def sybil_fixture() -> tuple:
    """(scenario, subject id, replacement parts) for the refund-splitting
    demonstration.

    The subject writes two keys and is pivotal against one competitor; the
    split halves cover one key each, stay compatible with each other, and
    bid 50 apiece, together matching the original bundle's 100. `sybil.json`
    holds the scenario before the split and `sybil-split.json` after it; the
    subject and the parts are the bundles only one of the two holds.
    """
    before = load_fixture("sybil")
    after = load_fixture("sybil-split")
    kept = {b.id for b in before.bundles} & {b.id for b in after.bundles}
    (subject,) = [b.id for b in before.bundles if b.id not in kept]
    parts = tuple(b for b in after.bundles if b.id not in kept)
    return before, subject, parts
