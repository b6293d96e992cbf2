"""Report bytes pinned per CLI command: the case list, the recorder, and
the regeneration script.

Each case is one `blockmech` command. Its golden file under `tests/golden/`
holds what the command printed on stdout and stderr, its exit code, and
every file it left in its (otherwise empty) working directory: the `--out`
report, a default-named report, or the scenario `gen` wrote.
`tests/test_golden.py` reruns every case in-process and compares bytes.

`{fixtures}` in an argument stands for the packaged fixture directory and
`{inputs}` for `tests/golden/inputs/`, so no file records a machine's path.

Rewrite the golden files only for a change that declares new report bytes,
and list every rewritten file with it:

    PYTHONPATH=src python tests/regen_golden.py            # every case
    PYTHONPATH=src python tests/regen_golden.py NAME ...   # the named cases

With `--check` as the first argument the script compares instead of
writing: it prints each case whose bytes differ and exits 1 if any does.
It needs no pytest, so any interpreter can check the report bytes:

    PYTHONPATH=src python tests/regen_golden.py --check [NAME ...]
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from blockmech.cli import main
from blockmech.fixtures import FIXTURE_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

FIXTURE_NAMES = ("collusion", "deficit", "example2", "integration", "sybil", "sybil-split")


def _cases() -> dict:
    cases = {}
    table = ("--out", "out.json")  # the table on stdout, the payload in a file
    json_format = ("--format", "json")
    for fixture in FIXTURE_NAMES:
        path = f"{{fixtures}}/{fixture}.json"
        for command in ("build", "mechanism", "oracle", "groups", "compare"):
            cases[f"{command}-{fixture}"] = (command, path, *table)
            cases[f"{command}-{fixture}-json"] = (command, path, *json_format)
        cases[f"build-counterfactuals-{fixture}"] = (
            "build", path, "--counterfactuals", *table
        )
    for prop in ("dsic-searcher", "dsic-builder", "integration"):
        sweep = ("verify", prop, "--n", "50", "--seed", "1100")
        cases[f"verify-{prop}"] = (*sweep, *table)
        cases[f"verify-{prop}-json"] = (*sweep, *json_format)
    for demo in ("collusion", "deficit", "sybil"):
        cases[f"demo-{demo}"] = ("demo", demo, *table)
        cases[f"demo-{demo}-json"] = ("demo", demo, *json_format)
    compare_gen = ("compare", "--gen", "realistic", "--n", "20", "--seed", "1")
    cases["compare-gen-realistic"] = (*compare_gen, *table)
    cases["compare-gen-realistic-json"] = (*compare_gen, *json_format)
    adoption = ("game", "adoption", "--n", "20", "--seed", "3")
    cases["game-adoption-sweep"] = (*adoption, *table)
    cases["game-adoption-sweep-json"] = (*adoption, *json_format)
    for profile in ("no-conflict", "full-conflict", "realistic", "stress-large-groups"):
        cases[f"gen-{profile}"] = ("gen", "--profile", profile, "--seed", "1", "--out", "out.json")
    # Seeds 4 and 7 of this profile hold all four group strategies.
    for seed in (4, 7):
        path = f"{{inputs}}/stress-{seed}.json"
        cases[f"build-stress-{seed}"] = ("build", path, *table)
        cases[f"mechanism-stress-{seed}"] = ("mechanism", path, *table)
        cases[f"build-counterfactuals-stress-{seed}-json"] = (
            "build", path, "--counterfactuals", *json_format
        )
    # Seed 33 of the same profile ties two shortlist candidates of one
    # group, so the first maximizer in list order decides the block.
    tie = "{inputs}/stress-33.json"
    cases["build-counterfactuals-stress-33-json"] = (
        "build", tie, "--counterfactuals", *json_format
    )
    cases["mechanism-stress-33"] = ("mechanism", tie, *table)
    # A line-up whose losing bid is not integral (half-default bids 236.5),
    # so the tables render a float through `reports.fmt`.
    half = "{inputs}/realistic-half-default.json"
    cases["gen-realistic-half-default"] = (
        "gen", "--profile", "{inputs}/realistic-half-default.profile.json",
        "--seed", "0", "--out", "out.json",
    )
    cases["mechanism-realistic-half-default"] = ("mechanism", half, *table)
    cases["mechanism-realistic-half-default-json"] = ("mechanism", half, *json_format)
    cases["compare-realistic-half-default"] = ("compare", half, *table)
    # The benchmark's enum-deep shape, seed 6: groups of 5, 6, 7 and 9, the
    # 7-member one winner-take-all, where the walk prunes the most.
    deep = "{inputs}/enum-deep-6.json"
    cases["gen-enum-deep-6"] = (
        "gen", "--profile", "{inputs}/enum-deep.profile.json",
        "--seed", "6", "--out", "out.json",
    )
    for name, argv in (
        ("mechanism", ("mechanism", deep)),
        ("build-counterfactuals", ("build", deep, "--counterfactuals")),
    ):
        cases[f"{name}-enum-deep-6"] = (*argv, *table)
        cases[f"{name}-enum-deep-6-json"] = (*argv, *json_format)
    # Sums over nothing: a scenario without bundles, and one whose only
    # bundle has no others to count. Every amount is still a float.
    empty = "{inputs}/empty.json"
    for command in ("mechanism", "compare", "oracle"):
        cases[f"{command}-empty-json"] = (command, empty, *json_format)
    cases["build-counterfactuals-empty-json"] = (
        "build", empty, "--counterfactuals", *json_format
    )
    cases["build-counterfactuals-one-bundle-json"] = (
        "build", "{inputs}/one-bundle.json", "--counterfactuals", *json_format
    )
    # The adoption game on one scenario of each extreme conflict structure,
    # as `gen --profile <structure> --seed 1` writes it.
    for structure in ("full-conflict", "no-conflict"):
        path = f"{{inputs}}/{structure}-1.json"
        cases[f"game-adoption-{structure}"] = ("game", "adoption", path, *table)
        cases[f"game-adoption-{structure}-json"] = ("game", "adoption", path, *json_format)
    # Label-dependent bids on one key: a bid gated to builder-0, a bundle
    # gated to builder-1 and a table-bid reader. copy-default and
    # half-default each rebuild the default block under their own label,
    # and the second price is not integral (52.5).
    gated = "{inputs}/gated.json"
    cases["mechanism-gated"] = ("mechanism", gated, *table)
    cases["mechanism-gated-json"] = ("mechanism", gated, *json_format)
    cases["build-counterfactuals-gated-json"] = (
        "build", gated, "--counterfactuals", *json_format
    )
    # Bids in 0.1 steps: `realistic` seed 1 with every bid scaled by 0.1
    # (`bid.scaled(0.1)`, valuation alike) and the line-up copy-default,
    # greedy-bid, greedy-density. Such totals round in the last place, so
    # these bytes hold only while every amount adds by one rule.
    decimal = "{inputs}/decimal-1.json"
    for name, argv in (
        ("mechanism", ("mechanism", decimal)),
        ("build-counterfactuals", ("build", decimal, "--counterfactuals")),
        ("compare", ("compare", decimal)),
    ):
        cases[f"{name}-decimal-1-json"] = (*argv, *json_format)
    # Refusals that end in exit 2 and one line on stderr; tests/test_cli.py
    # checks the usage errors.
    cases["error-oracle-too-large"] = ("oracle", "{inputs}/stress-4.json")
    cases["error-adoption-out-of-scope"] = ("game", "adoption", "{fixtures}/example2.json")
    return cases


CASES = _cases()


def _section(title: str, text: str) -> str:
    return f"[{title}: {len(text.encode())} bytes]\n{text}\n"


def record(argv, workdir: Path) -> str:
    """Run one case in `workdir` (empty) and render everything it produced."""
    paths = {"{fixtures}": str(FIXTURE_DIR), "{inputs}": str(INPUTS)}
    args = []
    for arg in argv:
        for mark, path in paths.items():
            arg = arg.replace(mark, path)
        args.append(arg)
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(args)
    finally:
        os.chdir(home)
    text = f"$ blockmech {' '.join(argv)}\n[exit code: {code}]\n"
    text += _section("stdout", stdout.getvalue()) + _section("stderr", stderr.getvalue())
    for path in sorted(Path(workdir).iterdir()):
        text += _section(f"file {path.name}", path.read_bytes().decode())
    return text


def _rerun(name: str) -> str:
    with tempfile.TemporaryDirectory() as workdir:
        text = record(CASES[name], Path(workdir))
    for path in (str(FIXTURE_DIR), str(INPUTS), workdir):
        if path in text:
            raise SystemExit(f"{name}: the output names the path {path}")
    return text


def regenerate(names) -> None:
    for name in names:
        (GOLDEN / f"{name}.txt").write_bytes(_rerun(name).encode())
        print(f"wrote golden/{name}.txt")


def check(names) -> int:
    """Rerun the cases without writing; print each mismatch, 1 if any."""
    mismatched = 0
    for name in names:
        golden = GOLDEN / f"{name}.txt"
        if not golden.exists() or golden.read_bytes() != _rerun(name).encode():
            mismatched += 1
            print(f"mismatch: golden/{name}.txt")
    print(f"{mismatched} of {len(names)} cases mismatch")
    return 1 if mismatched else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    checking = args[:1] == ["--check"]
    names = args[1:] if checking else args
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    if checking:
        sys.exit(check(names or sorted(CASES)))
    regenerate(names or sorted(CASES))
