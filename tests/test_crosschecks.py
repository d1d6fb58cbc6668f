"""The cross-check table of tests/crosschecks.py is well formed, and its
runner reports a failing row; the table itself runs outside tier-1."""

import types

import pytest

import crosschecks
from admissible import cli

KINDS = {"ok", "same", "refuse", "python"}


def test_names_are_unique_and_kinds_known():
    names = [name for name, _, _, _ in crosschecks.ROWS]
    assert len(names) == len(set(names))
    assert {kind for _, kind, _, _ in crosschecks.ROWS} <= KINDS


@pytest.mark.parametrize("row", crosschecks.ROWS, ids=lambda row: row[0])
def test_row_is_well_formed(row):
    _, kind, what, timeout = row
    assert timeout > 0
    if kind == "python":
        assert isinstance(getattr(crosschecks, what, None), types.FunctionType)
    else:
        assert len(crosschecks.commands(row)) == (2 if kind == "same" else 1)
        for cmd in crosschecks.commands(row):
            assert isinstance(cli.parse_args(cmd.split()), types.SimpleNamespace), cmd


@pytest.mark.parametrize(
    "row, reason",
    [
        (("differ", "same", ("table --k 1 --which A2", "table --k 2 --which A2"), 20),
         "stdout differs"),
        (("accepted", "refuse", "table --k 1 --which A2", 20), "exit 0"),
        (("slow", "ok", "verify weights", 0.01), "no exit within 0.01 s"),
    ],
    ids=["differ", "accepted", "slow"],
)
def test_runner_reports_a_failing_row(row, reason):
    assert crosschecks.check(row).startswith(reason)


@pytest.mark.parametrize(
    "row",
    [
        ("equal", "same", ("table --k 1 --which A2", "table --k 1 --which A2"), 20),
        ("refused", "refuse", "bogus", 20),
        ("accepted", "ok", "table --k 1 --which A2", 20),
    ],
    ids=lambda row: row[0],
)
def test_runner_passes_a_good_row(row):
    assert crosschecks.check(row) is None
