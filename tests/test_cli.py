import argparse
import contextlib
import gc
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import cli, vertexops
from admissible.cli import main
from admissible.configurations import CapacityError, character_direct
from admissible.fermionic import fermionic_r3_special
from admissible.polyspaces import (
    graded_dimension,
    oracle_block,
    vanishing_spec_r2,
    vanishing_spec_r3_pair,
)
from admissible.series import TruncatedSeries, dumps
from brute_force import _kept_basis, closed_form_series

GOLDEN_DIR = Path(__file__).parent / "golden"
REGOLD = os.environ.get("REGOLD") == "1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_cap_r3_block(n, k, b0, b1, cap):
    """The rank-3 block the long way: every pair-space sector through cap,
    regraded through q^(2 cap + 1)."""
    row = [0] * (2 * cap + 2)
    for l2 in range(n + 1):
        dims = graded_dimension(vanishing_spec_r3_pair(n - l2, l2, k, b0, b1, cap))
        for d, c in enumerate(dims):
            if 2 * d + l2 < len(row):
                row[2 * d + l2] += c
    return row


class TestChar:
    def test_direct_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "char", "--method", "direct", "--k", "1", "--r", "2",
            "--b", "0", "--qmax", "8", "--zmax", "3",
        )
        assert code == 0
        assert json.loads(out) == character_direct(1, 2, (0,), 8, 3).to_json_obj()

    def test_trivial_constant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "char", "--method", "direct", "--k", "2", "--r", "3",
            "--b", "1,2", "--qmax", "0", "--zmax", "0",
        )
        assert code == 0
        assert json.loads(out) == {"q_order": 0, "z_order": 0, "terms": [[0, 0, "1"]]}

    def test_fermionic_r2_z1_block(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "char", "--method", "fermionic-r2", "--k", "1", "--r", "2",
            "--b", "1", "--qmax", "5", "--zmax", "2",
        )
        assert code == 0
        row = [0] * 6
        for dq, dz, c in json.loads(out)["terms"]:
            if dz == 1:
                row[dq] = int(c)
        assert row == [1] * 6

    def test_oracle_method_agrees_with_direct(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "char", "--method", "oracle", "--k", "2", "--r", "2",
            "--b", "1", "--qmax", "8", "--zmax", "3",
        )
        assert code == 0
        assert json.loads(out) == character_direct(2, 2, (1,), 8, 3).to_json_obj()

    def test_invalid_b1_for_fermionic_r3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "char", "--method", "fermionic-r3", "--k", "2", "--r", "3",
            "--b", "1,1", "--qmax", "4", "--zmax", "2",
        )
        assert code == 2
        assert "b1 = k" in err

    @pytest.mark.parametrize(
        "method, flags, message",
        [
            ("fermionic-r2", ["--k", "2", "--r", "3", "--b", "0,2"],
             "fermionic-r2 requires --r 2"),
            ("fermionic-r3", ["--k", "2", "--r", "2", "--b", "0"],
             "fermionic-r3 requires --r 3"),
            ("fermionic-r3", ["--k", "2", "--r", "3", "--b", "0,1"],
             "fermionic-r3 covers b1 = k only, got b1 = 1"),
            ("fermionic-r3-special", ["--k", "3", "--r", "2"],
             "fermionic-r3-special requires --r 3"),
            ("fermionic-r3-special", ["--k", "3", "--r", "3", "--b", "1,3"],
             "fermionic-r3-special fixes b = (2, 3)"),
            ("oracle", ["--k", "2", "--r", "4", "--b", "0,0,0"],
             "oracle supports r = 2 or r = 3"),
        ],
        ids=["r2-rank", "r3-rank", "r3-b1", "special-rank", "special-b", "oracle-rank"],
    )
    def test_method_refusals(self, capsys, method, flags, message):
        argv = ["char", "--method", method, *flags, "--qmax", "4", "--zmax", "2"]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_missing_b_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "char", "--method", "direct", "--k", "1", "--r", "2",
            "--qmax", "4", "--zmax", "2",
        )
        assert code == 2
        assert "--b is required" in err

    def test_negative_window_exits_2(self, capsys):
        methods = {
            "direct": ["--r", "2", "--b", "1"],
            "fermionic-r2": ["--r", "2", "--b", "1"],
            "fermionic-r3": ["--r", "3", "--b", "1,2"],
            "fermionic-r3-special": ["--r", "3"],
            "oracle": ["--r", "2", "--b", "1"],
        }
        for method, rb in methods.items():
            for window in (
                ["--qmax", "-1", "--zmax", "2"],
                ["--qmax", "3", "--zmax", "-1"],
                ["--qmax", "3", "--zmax", "-2"],
            ):
                argv = ["char", "--method", method, "--k", "2", *rb, *window]
                code, out, err = run_cli(capsys, *argv)
                assert (code, out, err) == (
                    2, "", "error: q_max and z_max must be non-negative\n"
                ), argv

    @pytest.mark.parametrize(
        "method, rb",
        [
            ("direct", ["--r", "2", "--b", "1"]),
            ("fermionic-r2", ["--r", "2", "--b", "1"]),
            ("fermionic-r3", ["--r", "3", "--b", "1,3"]),
            ("fermionic-r3-special", ["--r", "3"]),
        ],
    )
    def test_oversized_window_exits_2(self, capsys, method, rb):
        big = str(10**12)
        argv = ["char", "--method", method, "--k", "3", *rb, "--qmax", big, "--zmax", big]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "over the limit of" in err

    @pytest.mark.parametrize(
        "rb, qmax",
        [
            (["--k", "3", "--r", "3", "--b", "1,3"], "21"),
            (["--k", "1", "--r", "2", "--b", "0"], "8"),
        ],
        ids=["r3", "r2"],
    )
    def test_oracle_refuses_before_building_any_block(self, capsys, monkeypatch, rb, qmax):
        import admissible.polyspaces as polyspaces

        real = polyspaces.graded_dimension
        returned = []

        def counting(spec):
            dims = real(spec)
            returned.append(spec)
            return dims

        monkeypatch.setattr(polyspaces, "graded_dimension", counting)
        argv = ["char", "--method", "oracle", *rb, "--qmax", qmax, "--zmax", "9"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: 9 variables exceeds the limit of 8\n")
        assert returned == []

    @pytest.mark.parametrize("qmax", [8, 9])
    def test_r3_oracle_block_equals_full_cap_block_through_qmax(self, qmax):
        cap = qmax // 2
        for k in (1, 2):
            for b0 in range(k + 1):
                for b1 in range(b0, k + 1):
                    for n in range(5):
                        full = full_cap_r3_block(n, k, b0, b1, cap)
                        block = oracle_block(k, 3, (b0, b1), qmax, n)
                        assert block == full[: qmax + 1], (k, b0, b1, n)
                        block = oracle_block(k, 3, (b0, b1), 2 * cap + 1, n)
                        assert block == full, (k, b0, b1, n)

    def test_r3_oracle_refuses_at_the_full_cap_degree(self, capsys):
        # sector 0 keeps degree qmax // 2, so qmax 34 asks for cap 17
        argv = ["char", "--method", "oracle", "--k", "1", "--r", "3", "--b", "0,1"]
        code, out, err = run_cli(capsys, *argv, "--qmax", "34", "--zmax", "2")
        assert (code, out, err) == (2, "", "error: degree cap 17 exceeds the limit of 16\n")
        code, _, _ = run_cli(capsys, *argv, "--qmax", "33", "--zmax", "2")
        assert code == 0

    def test_special_fills_in_b(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "char", "--method", "fermionic-r3-special", "--k", "3", "--r", "3",
            "--qmax", "6", "--zmax", "2",
        )
        assert code == 0
        assert json.loads(out) == fermionic_r3_special(3, 6, 2).to_json_obj()

    @pytest.mark.parametrize(
        "method, k, r, b, qmax, zmax",
        [
            ("direct", 2, 3, (1, 2), 12, 6),
            ("fermionic-r2", 3, 2, (1,), 30, 15),
            ("fermionic-r3", 2, 3, (0, 2), 24, 12),
            ("fermionic-r3-special", 3, 3, (2, 3), 30, 15),
            ("oracle", 2, 2, (1,), 8, 4),
            ("direct", 1, 2, (0,), 0, 0),
        ],
    )
    def test_stdout_is_the_reference_json(self, capsys, method, k, r, b, qmax, zmax):
        argv = ["char", "--method", method, "--k", str(k), "--r", str(r),
                "--b", ",".join(map(str, b)), "--qmax", str(qmax), "--zmax", str(zmax)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        series = cli._compute_char(method, k, r, b, qmax, zmax)
        assert out == dumps(series.to_json_obj()) + "\n"


class TestTable:
    def test_grid_a_k2(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2", "--which", "A")
        assert code == 0
        assert out == "2 2 0 1\n2 4 1 2\n0 1 2 2\n1 2 2 4\n"

    @pytest.mark.parametrize(
        "which, k, matrix",
        [
            ("A", 1, [[2, 1], [1, 2]]),
            ("B", 2, [[2, 3], [3, 6]]),
            # a 1 x 1 matrix is still a matrix: the shape follows --which
            ("A2", 1, [[2]]),
            ("B3", 1, [[1]]),
            ("B", 1, [[3]]),
        ],
        ids=["A-k1", "B-k2", "A2-k1", "B3-k1", "B-k1"],
    )
    def test_json_matrix(self, capsys, which, k, matrix):
        code, out, _ = run_cli(
            capsys, "table", "--k", str(k), "--which", which, "--format", "json"
        )
        assert (code, json.loads(out)) == (0, matrix)

    def test_csv_and_latex(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k", "2", "--which", "A2", "--format", "csv"
        )
        assert out == "2,2\n2,4\n"
        code, out, _ = run_cli(
            capsys, "table", "--k", "1", "--which", "A", "--format", "latex"
        )
        assert "\\begin{array}{cc}" in out and "2 & 1" in out

    def test_c2_requires_b0(self, capsys):
        code, _, err = run_cli(capsys, "table", "--k", "2", "--which", "c2")
        assert code == 2 and "--b0" in err

    @pytest.mark.parametrize("which", ["A", "A2", "B", "B3"])
    def test_b0_only_with_boundary_vectors(self, capsys, which):
        code, out, err = run_cli(capsys, "table", "--k", "3", "--which", which, "--b0", "1")
        assert code == 2
        assert out == ""
        assert err == "error: --b0 applies to --which c2 or c3 only\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("char", "--method", "fermionic-r2", "--k", "100000", "--r", "2", "--b", "0",
             "--qmax", "0", "--zmax", "100000"),
            ("table", "--k", "100000", "--which", "A2"),
            ("table", "--k", str(10**12), "--which", "c2", "--b0", "0"),
            ("table", "--k", str(10**12), "--which", "c3", "--b0", "0"),
        ],
        ids=["char", "table", "c2", "c3"],
    )
    def test_oversized_gordon_matrix_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "entries, over the limit of" in err

    def test_c3_vector(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k", "2", "--which", "c3", "--b0", "0",
            "--format", "json",
        )
        assert json.loads(out) == [1, 2, 0, 0]


class TestDims:
    def test_r2_dims_and_char(self, capsys):
        code, out, _ = run_cli(
            capsys, "dims", "--r", "2", "--k", "1", "--b0", "0", "--n", "2",
            "--cap", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [0, 0, 0, 0, 1, 1, 2, 2, 3]
        assert payload["char"] == character_direct(1, 2, (0,), 8, 2).z_block(2).to_json_obj()

    def test_r3_pair_sectors(self, capsys):
        code, out, _ = run_cli(
            capsys, "dims", "--r", "3", "--k", "1", "--b0", "0", "--n", "1",
            "--cap", "4",
        )
        payload = json.loads(out)
        assert payload["b1"] == 1  # defaults to k
        assert [s["l2"] for s in payload["dims"]] == [0, 1]

    def test_r3_signed_variant(self, capsys):
        code, out, _ = run_cli(
            capsys, "dims", "--r", "3", "--variant", "signed", "--k", "2",
            "--b0", "1", "--n", "2", "--cap", "6",
        )
        payload = json.loads(out)
        assert payload["char"] == character_direct(2, 3, (1, 2), 6, 2).z_block(2).to_json_obj()

    @pytest.mark.parametrize(
        "argv,specs",
        [
            (
                ("--r", "2", "--k", "1", "--b0", "0", "--n", "2", "--cap", "8"),
                [vanishing_spec_r2(2, 1, 0, 8)],
            ),
            (
                ("--r", "3", "--k", "2", "--b0", "1", "--n", "3", "--cap", "5"),
                [vanishing_spec_r3_pair(3 - l2, l2, 2, 1, 2, 5) for l2 in range(4)],
            ),
        ],
        ids=["r2", "r3-pair"],
    )
    def test_one_rank_per_nonempty_degree(self, capsys, monkeypatch, argv, specs):
        import admissible.polyspaces as polyspaces

        real_rank = polyspaces._exact_rank
        calls = []

        def counting_rank(rows, ncols):
            calls.append(len(rows))
            return real_rank(rows, ncols)

        monkeypatch.setattr(polyspaces, "_exact_rank", counting_rank)
        code, _, _ = run_cli(capsys, "dims", *argv)
        assert code == 0
        nonempty = sum(
            1
            for spec in specs
            for d in range(spec.degree_cap + 1)
            if _kept_basis(spec, d)
        )
        assert len(calls) == nonempty

    def test_capacity_error_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "dims", "--r", "2", "--k", "1", "--b0", "0", "--n", "9",
            "--cap", "4",
        )
        assert code == 2 and "exceeds" in err

    def test_size_comes_from_the_variables_not_the_level(self, capsys):
        # Two variables see no diagonal condition once k >= 2, however large k is.
        big = str(10**12)
        chars = []
        for k in ("2", big):
            code, out, _ = run_cli(
                capsys, "dims", "--r", "3", "--k", k, "--b0", "0", "--n", "2", "--cap", "2"
            )
            assert code == 0
            chars.append(json.loads(out)["char"])
        assert chars[0] == chars[1]
        code, out, err = run_cli(
            capsys, "dims", "--r", "3", "--variant", "signed", "--k", big, "--b0", "0",
            "--n", str(10**12 + 1), "--cap", "2",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {10**12 + 1} variables exceeds the limit of 8\n"

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("--r", "2", "--k", "1", "--b0", "0", "--b1", "1"), 2),
            (("--r", "3", "--variant", "signed", "--k", "2", "--b0", "1", "--b1", "0"), 2),
            (("--r", "3", "--variant", "pair", "--k", "2", "--b0", "1", "--b1", "2"), 0),
        ],
        ids=["r2", "r3-signed", "r3-pair"],
    )
    def test_b1_only_with_pair_variant(self, capsys, argv, code):
        got, out, err = run_cli(capsys, "dims", *argv, "--n", "2", "--cap", "3")
        assert got == code
        if code:
            assert out == ""
            assert err == "error: --b1 applies to --r 3 --variant pair only\n"
        else:
            assert json.loads(out)["b1"] == 2

    @pytest.mark.parametrize("variant", ["pair", "signed"])
    def test_variant_only_with_r3(self, capsys, variant):
        code, out, err = run_cli(
            capsys, "dims", "--r", "2", "--k", "1", "--b0", "0", "--n", "2", "--cap", "3",
            "--variant", variant,
        )
        assert (code, out) == (2, "")
        assert err == "error: --variant applies to --r 3 only\n"

    @pytest.mark.parametrize("b1", [(), ("--b1", "2")], ids=["b1-default", "b1-given"])
    def test_negative_n_exits_2(self, capsys, b1):
        code, out, err = run_cli(
            capsys, "dims", "--r", "3", "--k", "2", "--b0", "1", *b1, "--n", "-1",
            "--cap", "4",
        )
        assert code == 2
        assert out == ""
        assert err == "error: variable counts must be non-negative\n"


class TestPairs:
    def test_family_output_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "pairs", "--family", "r3-odd-k", "--k", "1", "--order", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"] == [
            {
                "a": "gamma1",
                "b": "gamma1",
                "z_power": "3",
                "closed_form": [2, 1],
                "series": ["1", "-1", "-1", "1", "0"],
            }
        ]

    def test_negative_order_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "pairs", "--family", "r2", "--k", "2", "--order", "-1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: truncation order") and err.count("\n") == 1

    def test_parity_mismatch_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "pairs", "--family", "r3-even-k", "--k", "3"
        )
        assert code == 2 and "even" in err

    @pytest.mark.parametrize("b0_past", ["below", "above", "far-above"])
    @pytest.mark.parametrize(
        "family, k", [("r2", 2), ("r3-split", 2), ("r3-odd-k", 3), ("r3-even-k", 2)]
    )
    def test_b0_out_of_range_is_an_error(self, capsys, family, k, b0_past):
        b0 = {"below": -1, "above": k + 1, "far-above": 9}[b0_past]
        code, out, err = run_cli(
            capsys, "pairs", "--family", family, "--k", str(k), "--b0", str(b0),
            "--order", "2",
        )
        assert code == 2 and out == ""
        assert err == f"error: b entries must lie in [0, {k}]: ({b0},)\n"

    @pytest.mark.parametrize(
        "family, k, order",
        [("r2", 1, 10**12), ("r2", 10**12, 2), ("r3-split", 20, 12), ("r2", 1, 1414)],
    )
    def test_oversized_request_is_refused(self, capsys, family, k, order):
        code, out, err = run_cli(
            capsys, "pairs", "--family", family, "--k", str(k), "--order", str(order)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"terms, over the limit of {vertexops.MAX_PAIR_TERMS}\n")

    @pytest.mark.parametrize(
        "family, k",
        [("r2", k) for k in range(1, 9)]
        + [("r3-split", k) for k in range(1, 9)]
        + [("r3-odd-k", k) for k in range(1, 9, 2)]
        + [("r3-even-k", k) for k in range(2, 9, 2)],
    )
    def test_size_check_counts_the_family_specs(self, capsys, family, k):
        # the size check runs before the family is built, on its own count
        specs = len(vertexops.build_family(family, k).specs)
        code, _, err = run_cli(
            capsys, "pairs", "--family", family, "--k", str(k), "--order", "2000"
        )
        assert code == 2
        assert err.startswith(f"error: {specs * (specs + 1) // 2} pair functions of level {k} ")

    def test_oversized_verify_case_is_a_capacity_skip(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "pair-functions", "--kmax", "1", "--order", str(10**12)
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 5
        assert all(r["status"] == "capacity-skip" for r in reports)


def reference_pair_check(spec_a, spec_b, table, p) -> str:
    """The pair-functions check in Fractions: the pair function's
    coefficients against closed_form_series, its z power against p + s."""
    pf = vertexops.pair_function(spec_a, spec_b, table, p["order"])
    ok = (
        pf.closed_form == (p["p"], p["s"])
        and list(pf.coeffs) == closed_form_series(p["p"], p["s"], p["order"])
        and pf.z_power == p["p"] + p["s"]
    )
    return "ok" if ok else f"closed={pf.closed_form}"


class TestPairCheck:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("family", ["r2", "r3-split", "r3-mixed"])
    def test_integer_check_agrees_with_the_fraction_check(self, family, k):
        """At the true (p, s) and one step off in each exponent, the integer
        check returns exactly the reference's string."""
        if family == "r3-mixed":
            family = "r3-odd-k" if k % 2 else "r3-even-k"
        fam = vertexops.build_family(family, k)
        P, S = (build(k) if build else None for build in cli._PAIR_EXPONENTS[family])
        pairs = combinations_with_replacement(enumerate(fam.specs), 2)
        for (i, (_, a)), (j, (_, b)) in pairs:
            p0, s0 = P[i][j], S[i][j] if S else 0
            for p, s in [(p0, s0), (p0 + 1, s0), (p0 - 1, s0), (p0, s0 + 1), (p0, s0 - 1)]:
                for order in (0, 1, 2, 3, 7, 12, 16):
                    params = {"k": k, "order": order, "p": p, "s": s}
                    expected = reference_pair_check(a, b, fam.table, params)
                    assert expected == ("ok" if (p, s) == (p0, s0) else f"closed={(p0, s0)}")
                    assert cli._pair_check(a, b, fam.table, params, {}) == expected

    @pytest.mark.parametrize(
        "zero_mode, even, odd",
        [
            ({}, {"e": 1}, {"e": 1}),  # closed form (2, 0), z power 0
            ({"e": 1, "h": 1}, {"e": 1}, {"e": 1}),  # (2, 0), z power 3
            ({"e": 1, "h": Fraction(1, 2)}, {"e": 1}, {"e": 1}),  # (2, 0), z power 5/2
            ({"e": Fraction(1, 3)}, {"e": 1}, {"e": 1}),  # (2, 0), z power 2/3
            ({"e": 1}, {"h": 1}, {"e": 1}),  # (3, 1), z power 1
            ({"e": 1}, {"h": 1}, {"h": -1}),  # (4, 0), z power 1
            ({"h": 1}, {"e": 1}, {"h": Fraction(1, 2)}),  # exponents (3/2, 1/2), none
        ],
    )
    def test_z_power_off_the_exponents_agrees_with_the_fraction_check(
        self, zero_mode, even, odd
    ):
        # <e, e> = 2, <h, h> = 4, <e, h> = 1: the z power is read from the zero
        # mode alone, so it can miss p + s while the closed form holds.
        table = vertexops.PairingTable({("e", "e"): 2, ("h", "h"): 4, ("e", "h"): 1})
        spec = vertexops.VOSpec(even, odd, zero_mode)
        closed = vertexops.pair_function(spec, spec, table, 0).closed_form
        for p, s in [closed or (0, 0), (2, 0), (0, 2), (1, 1)]:
            for order in (0, 3, 9):
                params = {"k": 1, "order": order, "p": p, "s": s}
                expected = reference_pair_check(spec, spec, table, params)
                assert cli._pair_check(spec, spec, table, params, {}) == expected


class TestVerify:
    def test_small_r2_suite_all_match(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "r2", "--kmax", "2", "--qmax", "10", "--zmax", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "r2"
        assert len(payload["reports"]) == 5  # (k=1: 2 cases) + (k=2: 3 cases)
        assert all(r["status"] == "match" for r in payload["reports"])
        assert "match" in err  # human table goes to stderr

    def test_stdout_is_deterministic(self, capsys):
        _, out1, _ = run_cli(
            capsys, "verify", "special-equality", "--kmax", "2",
            "--qmax", "8", "--zmax", "4",
        )
        _, out2, _ = run_cli(
            capsys, "verify", "special-equality", "--kmax", "2",
            "--qmax", "8", "--zmax", "4",
        )
        assert out1 == out2

    def test_conjecture_suite_never_fails_exit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "conjecture-10.2", "--nmax", "2")
        assert code == 0
        payload = json.loads(out)
        assert all(r["experimental"] for r in payload["reports"])

    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch):
        argv = ["verify", "oracle-r2", "--kmax", "1", "--nmax", "1", "--cap", "2"]
        _, full, _ = run_cli(capsys, *argv)

        class ClosedAfter(io.StringIO):
            """A stdout whose reader goes away after `limit` characters."""

            def __init__(self, limit):
                super().__init__()
                self.limit = limit

            def write(self, text):
                room = self.limit - self.tell()
                if len(text) > room:
                    super().write(text[:room])
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        # nothing written, mid-payload, and everything but the final newline
        for limit in (0, 600, len(full) - 1):
            sink = ClosedAfter(limit)
            monkeypatch.setattr(sys, "stdout", sink)
            code = main(argv)
            assert code == 141
            assert sink.getvalue() == full[:limit]
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("module", ["admissible.cli", "admissible", "admissible.vertexops"])
    def test_start_up_footprint(self, module):
        # A fresh isolated interpreter: the test process has loaded them all.
        absent = (
            "dataclasses", "inspect", "traceback", "argparse", "gettext", "locale", "shutil",
            "re", "json", "fractions", "decimal", "functools", "enum", "collections", "os",
            "concurrent.futures.process",
        )
        src = str(Path(cli.__file__).parents[1])
        # Nothing freezes at import; the count is compared with the bare
        # interpreter's, which is 375 under CPython 3.12 and 0 elsewhere.
        code = (
            f"import sys, gc; frozen = gc.get_freeze_count(); sys.path.insert(0, {src!r}); "
            f"import {module}; "
            f"print([m for m in {absent!r} if m in sys.modules], gc.get_freeze_count() - frozen)"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "[] 0\n"

    def test_pair_functions_expands_each_closed_form_once(self, capsys, monkeypatch):
        calls = []
        expand = cli._closed_form_coefficients
        monkeypatch.setattr(
            cli, "_closed_form_coefficients", lambda *a: calls.append(a) or expand(*a)
        )
        code, out, _ = run_cli(capsys, "verify", "pair-functions")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 110
        assert all(r["status"] == "match" for r in reports)
        distinct = {(r["params"]["p"], r["params"]["s"]) for r in reports}
        assert sorted(calls) == sorted((p, s, 12) for p, s in distinct)
        assert len(calls) == 13  # of 110 cases

    def test_verify_pair_functions_loads_no_fractions(self):
        # The built-in families pair in ints: the whole run stays off
        # fractions and the decimal and re modules it imports.
        src = str(Path(cli.__file__).parents[1])
        code = (
            "import contextlib, io, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from admissible import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = cli.main(['verify', 'pair-functions', '--kmax', '2'])\n"
            "print(code, [m for m in ('fractions', 'decimal', 're') if m in sys.modules])\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "0 []\n"

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_no_collection_runs_during_a_command(self, monkeypatch, enabled):
        """The collector is off while a command runs and is back in its
        entry state on every way out."""
        collections = []

        def record(phase, info):
            # Only a collection that starts inside main counts: the test's own
            # set-up and monkeypatch undo run with the collector on, and
            # whether they reach its threshold depends on the tests before.
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not main.__code__:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                collections.append(info["generation"])

        def probe():
            kept = [[] for _ in range(20 * gc.get_threshold()[0])]
            return len(kept) > 0

        case = {"id": "probe", "params": {}, "methods": ["a", "b"], "sides": [probe, probe]}
        char = ["char", "--method", "direct", "--k", "1", "--r", "2", "--b", "0",
                "--qmax", "8", "--zmax", "3"]

        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        def broken(*args):
            raise RuntimeError("not a usage error")

        def run(argv, expected):
            (gc.enable if enabled else gc.disable)()
            if expected is RuntimeError:
                with pytest.raises(RuntimeError):
                    main(argv)
            else:
                assert main(argv) == expected
            assert gc.isenabled() is enabled

        gc.callbacks.append(record)
        try:
            with monkeypatch.context() as patch:
                patch.setitem(cli.SUITES, "r2", (lambda suite, args: iter([case]), {}))
                run(["verify", "r2"], 0)
            assert collections == []
            run(char, 0)
            run(["char", "--k", "x"], 2)
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", Closed())
                run(char, 141)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "character_direct", broken)
                run(char, RuntimeError)
        finally:
            gc.callbacks.remove(record)
            gc.enable()

    @pytest.mark.parametrize(
        "argv",
        [
            "char --method oracle --k 1 --r 3 --b 0,1 --qmax 8 --zmax 3",
            "dims --r 3 --k 2 --b0 1 --n 3 --cap 5",
            "dims --r 3 --variant signed --k 2 --b0 1 --n 4 --cap 6",
            "verify oracle-r3 --kmax 1 --nmax 2 --cap 4",
            "verify weights --kmax 2 --sizemax 4 --sizemax3 3",
            "char --method fermionic-r3 --k 2 --r 3 --b 1,2 --qmax 20 --zmax 8",
            "pairs --family r3-split --k 2",
        ],
    )
    def test_command_leaves_no_cyclic_garbage(self, argv):
        # A fresh interpreter, so that only the command's own objects are
        # collected at the end; DEBUG_SAVEALL keeps every unreachable one.
        src = str(Path(cli.__file__).parents[1])
        code = (
            "import contextlib, gc, io, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from admissible.cli import main\n"
            "gc.collect()\n"
            "gc.set_debug(gc.DEBUG_SAVEALL)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv.split()!r})\n"
            "gc.collect()\n"
            "print(code, len(gc.garbage))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "0 0\n"

    def test_host_running_many_commands_gets_full_collections(self):
        # A host that makes cyclic garbage between commands: with the
        # collector's counts left alone, its oldest generation comes due.
        src = str(Path(cli.__file__).parents[1])
        code = (
            "import contextlib, gc, io, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from admissible.cli import main\n"
            "argv = ['char', '--method', 'direct', '--k', '1', '--r', '2', '--b', '0',\n"
            "        '--qmax', '8', '--zmax', '3']\n"
            "full = gc.get_stats()[2]['collections']\n"
            "for _ in range(300):\n"
            "    for _ in range(2000):\n"
            "        d = {}\n"
            "        d['self'] = d\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        main(argv)\n"
            "print(gc.get_stats()[2]['collections'] - full)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert int(done.stdout) >= 1

    def test_oversized_suite_is_refused_before_any_case(self):
        # About 5 * 10^9 (k, b0) pairs: listing them would exhaust any memory,
        # so the command runs in a child process under a memory cap.
        src = str(Path(cli.__file__).parents[1])
        argv = ["verify", "r2", "--kmax", "100000", "--qmax", "1", "--zmax", "1"]
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            f"sys.path.insert(0, {src!r}); "
            f"from admissible.cli import main; sys.exit(main({argv!r}))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: verify r2 builds more than the limit of {cli.MAX_CASES} cases\n"
        )

    def test_case_limit_is_inclusive(self, capsys, monkeypatch):
        # verify r2 --kmax 2 builds 5 cases: a limit of 5 runs them all, and
        # a limit of 4 refuses the run
        argv = ("verify", "r2", "--kmax", "2", "--qmax", "1", "--zmax", "1")
        monkeypatch.setattr(cli, "MAX_CASES", 5)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(json.loads(out)["reports"]) == 5
        monkeypatch.setattr(cli, "MAX_CASES", 4)
        assert run_cli(capsys, *argv) == (
            2, "", "error: verify r2 builds more than the limit of 4 cases\n"
        )

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_suite_defaults_stay_under_the_case_limit(self, suite):
        build, defaults = cli.SUITES[suite]
        assert 0 < len(list(build(suite, SimpleNamespace(**defaults)))) <= cli.MAX_CASES

    def test_raising_case_is_reported_not_fatal(self, capsys, monkeypatch):
        import admissible.cli as cli

        real = cli.fermionic_r2

        def broken(k, b0, qmax, zmax):
            if (k, b0) == (2, 1):
                raise AssertionError("exactness check failed")
            return real(k, b0, qmax, zmax)

        monkeypatch.setattr(cli, "fermionic_r2", broken)
        code, out, err = run_cli(
            capsys, "verify", "r2", "--kmax", "2", "--qmax", "6", "--zmax", "3"
        )
        assert code == 1
        reports = {r["case"]: r for r in json.loads(out)["reports"]}
        assert len(reports) == 5
        bad = reports.pop("r2 k=2 b0=1")
        assert bad["status"] == "error"
        assert bad["detail"] == "AssertionError: exactness check failed"
        assert bad["params"] == {"k": 2, "b0": 1, "qmax": 6, "zmax": 3}
        assert all(r["status"] == "match" for r in reports.values())
        assert "detail: AssertionError" in err
        assert "Traceback (most recent call last)" in err
        assert ", in broken\n" in err

    def test_raising_experimental_case_does_not_fail_exit(self, capsys, monkeypatch):
        import admissible.cli as cli

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "oracle_blocks", broken)
        code, out, _ = run_cli(capsys, "verify", "conjecture-10.2", "--nmax", "1")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["status"] for r in reports] == ["error", "error"]
        assert all(r["experimental"] for r in reports)

    def test_oracle_suite_ranks_only_the_largest_b0(self, capsys, monkeypatch):
        # one oracle_blocks call per (k, n), built at b0 = k: as many ranks,
        # of the same sizes, as building the b0 = k blocks alone
        import admissible.polyspaces as polyspaces

        real, calls = polyspaces._pivot_columns, []

        def counting(rows, ncols):
            calls.append(ncols)
            return real(rows, ncols)

        monkeypatch.setattr(polyspaces, "_pivot_columns", counting)
        for k in range(1, 4):
            for n in range(6):
                oracle_block(k, 2, (k,), 12, n)
        alone = sorted(calls)
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", "oracle-r2", "--kmax", "3")
        assert code == 0
        assert len(json.loads(out)["reports"]) == 9 * 6
        assert sorted(calls) == alone and len(alone) > 18

    def test_raising_shared_oracle_call_fails_its_group_only(self, capsys, monkeypatch):
        import admissible.cli as cli

        real, tries = cli.oracle_blocks, []

        def broken(k, r, bs, qmax, n):
            if (k, n) == (2, 1):
                tries.append(bs)
                raise RuntimeError("boom")
            return real(k, r, bs, qmax, n)

        monkeypatch.setattr(cli, "oracle_blocks", broken)
        code, out, err = run_cli(
            capsys, "verify", "oracle-r2", "--kmax", "2", "--nmax", "2", "--cap", "6"
        )
        assert code == 1
        reports = {r["case"]: r for r in json.loads(out)["reports"]}
        assert len(reports) == 15
        for b0 in range(3):
            bad = reports.pop(f"oracle-r2 k=2 b0={b0} n=1")
            assert (bad["status"], bad["detail"]) == ("error", "RuntimeError: boom")
        assert all(r["status"] == "match" for r in reports.values())
        # the raising call is not kept: each case of the group calls again
        assert tries == [[(0,), (1,), (2,)]] * 3
        assert err.count("detail: RuntimeError: boom") == 3

    def count_weight_builds(self, monkeypatch, raising_k=None, exc=RuntimeError):
        """Wrap both Gordon data builders of cli, counting the builds per
        key; a build at k = raising_k raises exc instead."""
        builds = {}

        def counting(variant, real):
            def build(k, *b0):
                builds[(variant, k, *b0)] = builds.get((variant, k, *b0), 0) + 1
                if k == raising_k:
                    raise exc(f"no data at k={k}")
                return real(k, *b0)

            return build

        monkeypatch.setattr(cli, "gordon_data_r2", counting("G2", cli.gordon_data_r2))
        monkeypatch.setattr(
            cli, "gordon_data_r3_special", counting("G3", cli.gordon_data_r3_special)
        )
        return builds

    WEIGHTS_K2 = ["verify", "weights", "--kmax", "2", "--sizemax", "4", "--sizemax3", "3"]

    def test_weight_data_is_built_once_per_key(self, capsys, monkeypatch):
        builds = self.count_weight_builds(monkeypatch)
        code, out, _ = run_cli(capsys, *self.WEIGHTS_K2)
        assert code == 0
        assert all(r["status"] == "match" for r in json.loads(out)["reports"])
        # G2 at every (k, b0), G3 at every k
        assert builds == {
            ("G2", 1, 0): 1, ("G2", 1, 1): 1,
            ("G2", 2, 0): 1, ("G2", 2, 1): 1, ("G2", 2, 2): 1,
            ("G3", 1): 1, ("G3", 2): 1,
        }

    @pytest.mark.parametrize(
        "exc, status", [(RuntimeError, "error"), (CapacityError, "capacity-skip")]
    )
    def test_a_failing_weight_build_is_reported_by_every_case_of_its_key(
        self, capsys, monkeypatch, exc, status
    ):
        _, reference, _ = run_cli(capsys, *self.WEIGHTS_K2)
        builds = self.count_weight_builds(monkeypatch, raising_k=2, exc=exc)
        code, out, _ = run_cli(capsys, *self.WEIGHTS_K2)
        assert code == (1 if status == "error" else 0)
        reports = json.loads(out)["reports"]
        failed = [r for r in reports if r["params"]["k"] == 2]
        assert failed and all(r["status"] == status for r in failed)
        assert all(r["detail"].endswith("no data at k=2") for r in failed)
        # a build that raises is not kept: each case of its key builds again
        assert sum(n for key, n in builds.items() if key[1] == 2) == len(failed)
        kept = [r for r in reports if r["params"]["k"] == 1]
        assert kept and all(r["status"] == "match" for r in kept)
        assert kept == [r for r in json.loads(reference)["reports"] if r["params"]["k"] == 1]

    def replay_witness(self, capsys, err, witness, z_exp):
        """Run both replay lines of the first mismatch through main and
        check that they reproduce the witness's two coefficients."""
        replays = [
            line.split("replay: ", 1)[1] for line in err.splitlines() if "replay:" in line
        ]
        for replay, side in zip(replays[:2], ("lhs", "rhs")):
            command, note = replay.split("  # coefficient of ")
            assert note == f"q^{witness['q_exp']} z^{z_exp}"
            argv = command.split()
            assert argv[0] == "admissible"
            code, out, _ = run_cli(capsys, *argv[1:])
            assert code == 0
            terms = {(dq, dz): c for dq, dz, c in json.loads(out)["terms"]}
            assert terms.get((witness["q_exp"], z_exp), "0") == witness[side]
        return replays

    def test_mismatch_replay_lines_reproduce_the_witness(self, capsys, monkeypatch):
        import admissible.cli as cli

        real = cli.fermionic_r2

        def off_by_one(k, b0, qmax, zmax):
            series = real(k, b0, qmax, zmax)
            if (k, b0) != (2, 1):
                return series
            rows = [list(row) for row in series.rows]
            rows[1][3] += 1
            return TruncatedSeries(rows, series.q_order, series.z_order)

        monkeypatch.setattr(cli, "fermionic_r2", off_by_one)
        code, out, err = run_cli(
            capsys, "verify", "r2", "--kmax", "2", "--qmax", "6", "--zmax", "3"
        )
        assert code == 1
        reports = {r["case"]: r for r in json.loads(out)["reports"]}
        witness = reports["r2 k=2 b0=1"]["witness"]
        assert (witness["q_exp"], witness["z_exp"]) == (3, 1)
        replays = self.replay_witness(capsys, err, witness, 1)
        assert replays == [
            f"admissible char --method {method} --k 2 --r 2 --b 1 --qmax 6 --zmax 3"
            "  # coefficient of q^3 z^1"
            for method in ("direct", "fermionic-r2")
        ]

    def test_block_mismatch_replays_the_oracle_block(self, capsys, monkeypatch):
        import admissible.cli as cli

        real = cli.oracle_blocks

        def shifted(k, r, bs, qmax, n):
            rows = real(k, r, bs, qmax, n)
            for b, row in zip(bs, rows):
                if (n, b[0]) == (2, 0):
                    row[5] += 1
            return rows

        def shifted_one(k, r, b, qmax, n):
            return shifted(k, r, [b], qmax, n)[0]

        # the verify cases read oracle_blocks, the replayed char oracle_block
        monkeypatch.setattr(cli, "oracle_blocks", shifted)
        monkeypatch.setattr(cli, "oracle_block", shifted_one)
        code, out, err = run_cli(
            capsys, "verify", "oracle-r3", "--kmax", "1", "--nmax", "2", "--cap", "4"
        )
        assert code == 1
        reports = {r["case"]: r for r in json.loads(out)["reports"]}
        witness = reports["oracle-r3 k=1 b0=0 n=2"]["witness"]
        assert (witness["q_exp"], witness["z_exp"]) == (5, 0)
        replays = self.replay_witness(capsys, err, witness, 2)
        # the rank-3 block at cap 4 is exact through q^9
        assert replays == [
            f"admissible char --method {method} --k 1 --r 3 --b 0,1 --qmax 9 --zmax 2"
            "  # coefficient of q^5 z^2"
            for method in ("oracle", "direct")
        ]

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--kmax", "0"),
            ("--qmax", "-1"),
            ("--zmax", "-1"),
            ("--nmax", "-1"),
            ("--cap", "-1"),
            ("--order", "-1"),
            ("--sizemax", "-1"),
            ("--sizemax3", "-1"),
        ],
    )
    def test_bad_flag_exits_2_before_any_case(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", "r2", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be at least {int(value) + 1}, got {value}\n"

    @pytest.mark.parametrize(
        "suite,flag",
        [
            ("r2", "--cap"),
            ("r2", "--nmax"),
            ("weights", "--qmax"),
            ("pair-functions", "--zmax"),
            ("conjecture-10.2", "--kmax"),
            ("oracle-r3", "--qmax"),
        ],
    )
    def test_flag_outside_suite_exits_2(self, capsys, suite, flag):
        code, out, err = run_cli(capsys, "verify", suite, flag, "3")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to suite {suite}\n"

    def test_series_case_report_shape_on_mismatch(self):
        from admissible.cli import _run_case

        a = TruncatedSeries([[0, 1]], 4, 2)
        b = TruncatedSeries([[0, 2]], 4, 2)
        case = {
            "id": "demo", "params": {}, "methods": ["m1", "m2"], "sides": [lambda: a, lambda: b],
        }
        report, times = _run_case(case)
        assert report["status"] == "mismatch"
        assert report["witness"] == {"q_exp": 1, "z_exp": 0, "lhs": "1", "rhs": "2"}
        assert set(times) == {"m1", "m2"}

    def test_scalar_case_report_shape_on_mismatch(self):
        from admissible.cli import _run_case

        case = {
            "id": "demo", "params": {}, "methods": ["m1", "m2"], "sides": [lambda: 3, lambda: 4],
        }
        report, times = _run_case(case)
        assert (report["status"], report["methods"]) == ("mismatch", ["m1", "m2"])
        assert report["witness"] == {"q_exp": None, "z_exp": None, "lhs": "3", "rhs": "4"}
        assert set(times) == {"m1", "m2"}

    def test_reports_carry_case_params(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "r2", "--kmax", "1", "--qmax", "6", "--zmax", "3"
        )
        payload = json.loads(out)
        assert payload["reports"][0]["params"]["qmax"] == 6


class TestBenchHooks:
    """bench/tracer.py and bench/child.py call these by name and keyword."""

    @pytest.mark.parametrize(
        "module, name, params",
        [
            ("polyspaces", "partitions_max_parts", ["d", "max_parts"]),
            ("polyspaces", "graded_dimension", ["spec"]),
            ("cli", "_run_case", ["case"]),
        ],
    )
    def test_hook_is_a_module_level_function(self, module, name, params):
        mod = importlib.import_module(f"admissible.{module}")
        fn = getattr(mod, name)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
        assert fn.__qualname__ == name
        assert list(inspect.signature(fn).parameters) == params


GOLDEN_CASES = {
    "char_direct_k1_r2_b0.json": [
        "char", "--method", "direct", "--k", "1", "--r", "2",
        "--b", "0", "--qmax", "8", "--zmax", "3",
    ],
    "char_direct_k3_r2_b2.json": [
        "char", "--method", "direct", "--k", "3", "--r", "2",
        "--b", "2", "--qmax", "12", "--zmax", "6",
    ],
    "char_fermionic_r2_k2_b1.json": [
        "char", "--method", "fermionic-r2", "--k", "2", "--r", "2",
        "--b", "1", "--qmax", "10", "--zmax", "4",
    ],
    "char_fermionic_r3_k2_b1.json": [
        "char", "--method", "fermionic-r3", "--k", "2", "--r", "3",
        "--b", "1,2", "--qmax", "10", "--zmax", "5",
    ],
    "char_special_k3.json": [
        "char", "--method", "fermionic-r3-special", "--k", "3", "--r", "3",
        "--qmax", "10", "--zmax", "5",
    ],
    # two blocks, q^2 Pochhammer steps and extra weights
    "char_fermionic_r3_k3_b13.json": [
        "char", "--method", "fermionic-r3", "--k", "3", "--r", "3",
        "--b", "1,3", "--qmax", "30", "--zmax", "15",
    ],
    "char_special_k5.json": [
        "char", "--method", "fermionic-r3-special", "--k", "5", "--r", "3",
        "--qmax", "30", "--zmax", "15",
    ],
    "char_oracle_k2_r2_b0.json": [
        "char", "--method", "oracle", "--k", "2", "--r", "2",
        "--b", "0", "--qmax", "12", "--zmax", "6",
    ],
    "char_oracle_k2_r3_b02.json": [
        "char", "--method", "oracle", "--k", "2", "--r", "3",
        "--b", "0,2", "--qmax", "8", "--zmax", "3",
    ],
    "dims_r3_k2_b1_n2.json": [
        "dims", "--r", "3", "--k", "2", "--b0", "1", "--n", "2", "--cap", "6",
    ],
    # five sectors regraded into one block through q^25
    "dims_r3_k2_b1_n4.json": [
        "dims", "--r", "3", "--k", "2", "--b0", "1", "--n", "4", "--cap", "12",
        "--b1", "2",
    ],
    # the largest matrices the caps allow: five r3 sectors at cap 16, and
    # eight r2 variables at cap 16, every degree of full column rank
    "dims_r3_k3_b13_n5_cap16.json": [
        "dims", "--r", "3", "--k", "3", "--b0", "1", "--n", "5", "--cap", "16",
        "--b1", "3",
    ],
    "dims_r2_k2_b1_n8_cap16.json": [
        "dims", "--r", "2", "--k", "2", "--b0", "1", "--n", "8", "--cap", "16",
    ],
    # signed conditions come in t -> -t mirror pairs, one of each builds rows
    "dims_r3_signed_k2_b0_n5.json": [
        "dims", "--r", "3", "--k", "2", "--b0", "0", "--n", "5", "--cap", "14",
        "--variant", "signed",
    ],
    # five sectors, each computed only through the degree an even qmax reads
    "char_oracle_k1_r3_b01.json": [
        "char", "--method", "oracle", "--k", "1", "--r", "3",
        "--b", "0,1", "--qmax", "20", "--zmax", "4",
    ],
    "table_A_k3.json": ["table", "--k", "3", "--which", "A", "--format", "json"],
    "verify_r2_k2.json": ["verify", "r2", "--kmax", "2", "--qmax", "8", "--zmax", "4"],
    "verify_r3_k2.json": ["verify", "r3", "--kmax", "2", "--qmax", "8", "--zmax", "4"],
    "verify_special_k3.json": [
        "verify", "special-equality", "--kmax", "3", "--qmax", "8", "--zmax", "4",
    ],
    "verify_oracle_r2_k2.json": [
        "verify", "oracle-r2", "--kmax", "2", "--nmax", "2", "--cap", "6",
    ],
    # n = 9 exceeds the oracle's variable limit: pins the capacity-skip report
    "verify_oracle_r2_skip.json": [
        "verify", "oracle-r2", "--kmax", "1", "--nmax", "9", "--cap", "2",
    ],
    "verify_oracle_r3_k1.json": [
        "verify", "oracle-r3", "--kmax", "1", "--nmax", "2", "--cap", "4",
    ],
    "verify_conjecture_n2.json": ["verify", "conjecture-10.2", "--nmax", "2", "--cap", "4"],
    "verify_weights_k1.json": [
        "verify", "weights", "--kmax", "1", "--sizemax", "3", "--sizemax3", "2",
    ],
    "verify_weights_k2.json": [
        "verify", "weights", "--kmax", "2", "--sizemax", "4", "--sizemax3", "3",
    ],
    "verify_pairs_k2.json": ["verify", "pair-functions", "--kmax", "2", "--order", "4"],
    # the first past k = 2: every family at k = 3 and 4
    "verify_pairs_k4.json": ["verify", "pair-functions", "--kmax", "4", "--order", "4"],
    "pairs_r2_k3_b1.json": ["pairs", "--family", "r2", "--k", "3", "--b0", "1", "--order", "6"],
    "pairs_r3split_k2_b1.json": [
        "pairs", "--family", "r3-split", "--k", "2", "--b0", "1", "--order", "6",
    ],
    "pairs_r3oddk_k3.json": ["pairs", "--family", "r3-odd-k", "--k", "3", "--order", "12"],
    # deep orders, where the recurrence's d! D^d scaling grows large
    "pairs_r3oddk_k3_order40.json": [
        "pairs", "--family", "r3-odd-k", "--k", "3", "--order", "40",
    ],
    "pairs_r3evenk_k4.json": ["pairs", "--family", "r3-even-k", "--k", "4", "--order", "6"],
    "table_c2_k3_b1.json": [
        "table", "--k", "3", "--which", "c2", "--b0", "1", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, capsys):
    """Byte-for-byte regression against stored outputs.

    Regenerate with REGOLD=1 pytest tests/test_cli.py -k golden.
    """
    code, out, _ = run_cli(capsys, *GOLDEN_CASES[name])
    assert code == 0
    path = GOLDEN_DIR / name
    if REGOLD:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(out)
    assert path.read_text() == out


# Valid lines, help, and every kind of usage error, each parsed by
# cli.parse_args and by an argparse parser built from the same table.
PARSER_CORPUS = [
    *GOLDEN_CASES.values(),
    ["char", "--method", "oracle", "--k", "2", "--r", "3", "--b", "0,2", "--qmax", "8", "--zmax", "3"],
    ["verify", "special-equality", "--kmax", "4", "--qmax", "20", "--zmax", "10"],
    ["verify", "pair-functions", "--kmax", "4"],
    ["verify", "conjecture-10.2"],
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["cha"], ["-h", "char"],
    *([name, flag] for name in ("char", "verify", "dims", "pairs", "table") for flag in ("-h", "--help")),
    ["char", "--method", "direct", "--k", "1", "--b", "0", "--qmax", "4"],
    ["verify"],
    ["table", "--k", "3"],
    ["char", "--method", "dirct", "--k", "1", "--b", "0", "--qmax", "4", "--zmax", "2"],
    ["dims", "--r", "4", "--k", "2", "--b0", "1", "--n", "2", "--cap", "6"],
    ["verify", "r9"],
    ["table", "--k", "3", "--which", "A", "--format", "xml"],
    ["char", "--k", "x", "--method", "direct", "--b", "0", "--qmax", "4", "--zmax", "2"],
    ["char", "--method", "direct", "--k", "x", "--b", "0", "--qmax", "4", "--zmax", "2"],
    ["char", "--b", "a,b", "--method", "direct", "--k", "1", "--qmax", "4", "--zmax", "2"],
    ["char", "--meth", "direct", "--k", "1", "--b", "0", "--qmax", "4", "--zmax", "2"],
    ["verify", "r2", "--km", "1", "--qm", "4", "--zm", "2"],
    ["pairs", "--fam", "r2", "--k", "2", "--ord", "3"],
    ["char", "--method", "direct", "--k", "1", "--b", "0", "--qmax", "4", "--zmax", "2", "--bogus"],
    ["table", "--k", "3", "--which", "A", "extra"],
    ["char", "verify"],
    ["char", "--method=direct", "--k=1", "--b=0", "--qmax=-1", "--zmax", "-2"],
    ["char", "--method", "direct", "--k", "1", "--k", "2", "--b", "0", "--qmax", "4", "--zmax", "2"],
    ["char", "--method", "direct", "--k", "1", "--b", "-1", "--qmax", "4", "--zmax", "2"],
    ["dims", "--r", "02", "--k", "2", "--b0", "1", "--n", "2", "--cap", "6"],
    ["dims", "--b", "1", "--r", "2", "--k", "2", "--n", "2", "--cap", "6"],
    ["dims", "-h", "--b"],
    ["verify", "--s", "1", "weights"],
    ["verify", "--sizemax", "1", "weights"],
    ["verify", "--kmax", "-h", "r2"],
    ["verify", "--kmax", "--bogus", "r2"],
    ["verify", "r2", "r3"],
    ["verify", "--bogus", "r9", "-h"],
    ["--bogus", "char", "-h"],
    ["char", "--bogus", "extra", "-h"],
    ["char", "--k", "x", "-h"],
    ["char", "--help=x"],
    ["char", "--method", "direct", "--k", "1", "--b", "0", "--qmax", "4", "--zmax", "2", "--"],
    ["-1", "char"],
]


def _reference_parser() -> argparse.ArgumentParser:
    """argparse reading the cli.COMMANDS table: the parser cli.parse_args replaces."""
    parser = argparse.ArgumentParser(prog="admissible")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags, positional, func) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if positional:
            p.add_argument(positional[0], choices=positional[1])
        for flag, (kind, default, text) in flags.items():
            if callable(kind):
                kw = {"type": kind}
            else:
                kw = {"type": type(kind[0]), "choices": kind}
            if default is cli.REQUIRED:
                kw["required"] = True
            else:
                kw["default"] = default
            p.add_argument(f"--{flag}", help=text, **kw)
        p.set_defaults(func=func)
    return parser


REFERENCE = _reference_parser()


def _reference_outcome(argv):
    """("ok", attributes), ("help",) or ("error",): what argparse makes of argv."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            attrs = vars(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("error",)
    del attrs["command"]
    return "ok", attrs


def _outcome(argv):
    """The same for cli.parse_args."""
    try:
        args = cli.parse_args(argv)
    except ValueError:
        return ("error",)
    return ("help",) if isinstance(args, str) else ("ok", vars(args))


def _check_refusal(argv):
    """A usage error exits 2 with nothing on stdout and one line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, out.getvalue()) == (2, ""), argv
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


# Words put anywhere in a command line: help, unknown flags, stray words.
# Not "--": argparse reads the words after it as positionals, cli.parse_args
# as an unknown flag, so the two differ where help follows it.
NOISE = ["-h", "--help", "--he", "--h", "--help=x", "--bogus", "-x", "-", "extra", "-1", "7", "r2"]


def _values(kind):
    if kind is int:
        valid = st.integers(-2, 12).map(str)
        return st.one_of(valid, valid, st.sampled_from(["x", "02", " 3", "-.5", "1.5", ""]))
    if callable(kind):  # the b vector
        return st.sampled_from(["0", "2", "1,2", "0,2", "-1", "-1,2", "a,b", "1,", ""])
    return st.sampled_from([*map(str, kind), f"0{kind[0]}", "bogus", "4"])


@st.composite
def command_lines(draw):
    """A command line built from the table: its flags in any order, some
    missing or repeated, abbreviated or in the "=" form, with noise."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "cha"]))
    chunks = []
    if command in cli.COMMANDS:
        _, flags, positional, _ = cli.COMMANDS[command]
        for name, (kind, default, _) in flags.items():
            counts = [1] * 6 + [0, 2] if default is cli.REQUIRED else [0, 0, 1, 2]
            for _ in range(draw(st.sampled_from(counts))):
                spelled = "--" + name[: draw(st.integers(1, len(name)))]
                if draw(st.booleans()):
                    spelled = "--" + name
                value = draw(_values(kind))
                chunks.append([f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value])
        if positional and draw(st.integers(0, 5)):
            chunks.append([draw(st.sampled_from([*positional[1], "r9"]))])
    argv = [command, *(word for chunk in draw(st.permutations(chunks)) for word in chunk)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(NOISE)))
    return argv


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_parses_as_argparse(self, argv):
        assert _outcome(argv) == _reference_outcome(argv)

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    def test_generated_lines_parse_as_argparse(self, argv):
        outcome = _outcome(argv)
        assert outcome == _reference_outcome(argv)
        if outcome == ("error",):
            _check_refusal(argv)

    @pytest.mark.parametrize(
        "argv", [a for a in PARSER_CORPUS if _reference_outcome(a) == ("error",)], ids=" ".join
    )
    def test_refusal_is_one_line_and_exit_2(self, argv):
        _check_refusal(argv)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_command_help_names_every_flag(self, capsys, command):
        for flag in ("-h", "--help", "--he"):
            code, out, err = run_cli(capsys, command, flag)
            assert (code, err) == (0, "")
            _, flags, positional, _ = cli.COMMANDS[command]
            listed = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
            assert listed == [f"--{name}" for name in flags]
            if positional:
                assert all(choice in out for choice in positional[1])

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["table", "--k", "2", "--which", "A2"]
        _, expected, _ = run_cli(capsys, *argv)
        parsed = []
        parse = cli.parse_args
        monkeypatch.setattr(cli, "parse_args", lambda a: parsed.append(a) or parse(a))
        monkeypatch.setattr(sys, "argv", ["admissible", *argv])
        assert main() == 0
        assert capsys.readouterr().out == expected
        assert parsed == [argv]

    def test_module_help_lists_every_command(self):
        env = dict(os.environ, COLUMNS="20")  # the help does not follow the width
        src = str(Path(cli.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "admissible.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0
        listed = [line.split()[0] for line in done.stdout.splitlines() if line.startswith("    ")]
        assert listed == list(cli.COMMANDS)
