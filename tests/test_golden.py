"""Report bytes between commits: every case of `regen_golden.CASES` reruns
in-process and must reproduce its golden file byte for byte."""

from __future__ import annotations

import difflib

import pytest

from regen_golden import CASES, GOLDEN, record


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode()
    actual = record(CASES[name], tmp_path)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            f"golden/{name}.txt",
            "this tree",
        )
        pytest.fail("".join(diff), pytrace=False)
