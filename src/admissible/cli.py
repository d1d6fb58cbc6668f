"""Command-line front end: compute characters, print Gordon tables, and run
the cross-verification suites.

Machine-readable JSON goes to stdout and is byte-for-byte deterministic for
fixed flags and version; wall-clock timings and the human-readable table go
to stderr.  The process exits 0 iff every executed non-experimental check
matched (capacity skips do not fail; a case that raises is reported with
status "error" and fails; the experimental suite never affects the exit
code).
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (see below)
import os
import shutil  # noqa: F401  (see below)
import sys
import time
import traceback

# argparse imports locale (through gettext) and shutil (for the help width)
# on first use, which every command reaches; importing them here keeps that
# fixed cost in start-up instead of in each command's own run time.

from .series import TruncatedSeries, first_mismatch
from .configurations import character_direct, validate_b
from .fermionic import (
    RestrictedPartition,
    boundary_c2,
    boundary_c3,
    fermionic_r2,
    fermionic_r3,
    fermionic_r3_special,
    gordon_a,
    gordon_a2,
    gordon_b,
    gordon_b3,
    gordon_data_r2,
    gordon_data_r3_special,
    level_restricted_partitions,
    quadratic_exponent,
)
from .polyspaces import (
    CapacityError,
    character_from_oracle_r2,
    character_from_oracle_r3,
    graded_dimension,
    pair_sector_dims,
    regrade_pair_sectors,
    vanishing_spec_r2,
    vanishing_spec_r3_signed,
    weight_degree,
)
from .vertexops import build_family, closed_form_series, pair_function

WORKERS_ENV = "ADMISSIBLE_WORKERS"
REPORT_SCHEMA = 1

SUITES = (
    "r2",
    "r3",
    "special-equality",
    "oracle-r2",
    "oracle-r3",
    "weights",
    "pair-functions",
    "conjecture-10.2",
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_b(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad b vector: {text!r}")


# ---------------------------------------------------------------------------
# char

def _compute_char(method, k, r, b, qmax, zmax) -> TruncatedSeries:
    if method == "direct":
        return character_direct(k, r, b, qmax, zmax)
    if method == "fermionic-r2":
        if r != 2:
            raise ValueError("fermionic-r2 requires --r 2")
        (b0,) = validate_b(k, 2, b)
        return fermionic_r2(k, b0, qmax, zmax)
    if method == "fermionic-r3":
        if r != 3:
            raise ValueError("fermionic-r3 requires --r 3")
        b0, b1 = validate_b(k, 3, b)
        if b1 != k:
            raise ValueError(f"fermionic-r3 covers b1 = k only, got b1 = {b1}")
        return fermionic_r3(k, b0, qmax, zmax)
    if method == "fermionic-r3-special":
        if r != 3:
            raise ValueError("fermionic-r3-special requires --r 3")
        expected = ((k + 1) // 2, k)
        if b is not None and tuple(b) != expected:
            raise ValueError(f"fermionic-r3-special fixes b = {expected}")
        return fermionic_r3_special(k, qmax, zmax)
    if method == "oracle":
        if r == 2:
            (b0,) = validate_b(k, 2, b)
            blocks = [character_from_oracle_r2(n, k, b0, qmax) for n in range(zmax + 1)]
        elif r == 3:
            b0, b1 = validate_b(k, 3, b)
            blocks = [character_from_oracle_r3(n, k, b0, b1, qmax // 2) for n in range(zmax + 1)]
        else:
            raise ValueError("oracle supports r = 2 or r = 3")
        rows = [[block.coefficient(d) for d in range(qmax + 1)] for block in blocks]
        return TruncatedSeries.from_blocks(rows, qmax, zmax)
    raise ValueError(f"unknown method: {method}")


def cmd_char(args) -> int:
    b = args.b
    if b is None and args.method == "fermionic-r3-special":
        b = ((args.k + 1) // 2, args.k)
    if b is None:
        raise ValueError("--b is required for this method")
    series = _compute_char(args.method, args.k, args.r, b, args.qmax, args.zmax)
    print(_dump(series.to_json_obj()))
    return 0


# ---------------------------------------------------------------------------
# table

def _matrix_for(which: str, k: int, b0: int):
    if which == "A2":
        return gordon_a2(k)
    if which == "B3":
        return gordon_b3(k)
    if which == "A":
        return gordon_a(k)
    if which == "B":
        return gordon_b(k)
    if which == "c2":
        return [boundary_c2(k, b0)]
    if which == "c3":
        return [boundary_c3(k, b0)]
    raise ValueError(f"unknown table: {which}")


def _format_table(rows, fmt: str) -> str:
    if fmt == "json":
        data = rows[0] if len(rows) == 1 else rows
        return _dump(data)
    if fmt == "csv":
        return "\n".join(",".join(str(x) for x in row) for row in rows)
    if fmt == "latex":
        body = " \\\\\n".join(" & ".join(str(x) for x in row) for row in rows)
        cols = "c" * len(rows[0])
        return (
            "\\left(\\begin{array}{%s}\n%s\n\\end{array}\\right)" % (cols, body)
        )
    width = max(len(str(x)) for row in rows for x in row)
    return "\n".join(
        " ".join(str(x).rjust(width) for x in row) for row in rows
    )


def cmd_table(args) -> int:
    if args.which in ("c2", "c3") and args.b0 is None:
        raise ValueError(f"--b0 is required for {args.which}")
    rows = _matrix_for(args.which, args.k, args.b0 if args.b0 is not None else 0)
    print(_format_table(rows, args.format))
    return 0


# ---------------------------------------------------------------------------
# dims

def cmd_dims(args) -> int:
    payload = {
        "r": args.r,
        "k": args.k,
        "b0": args.b0,
        "n": args.n,
        "degree_cap": args.cap,
    }
    if args.r == 3 and args.variant == "pair":
        b1 = args.b1 if args.b1 is not None else args.k
        sector_dims = pair_sector_dims(args.n, args.k, args.b0, b1, args.cap)
        char = regrade_pair_sectors(sector_dims, args.cap)
        payload["variant"] = "pair"
        payload["b1"] = b1
        payload["dims"] = [
            {"l1": args.n - l2, "l2": l2, "dims": dims}
            for l2, dims in enumerate(sector_dims)
        ]
    elif args.b1 is not None:
        raise ValueError("--b1 applies to --r 3 --variant pair only")
    else:
        if args.r == 2:
            spec = vanishing_spec_r2(args.n, args.k, args.b0, args.cap)
        else:
            spec = vanishing_spec_r3_signed(args.n, args.k, args.b0, args.cap)
            payload["variant"] = "signed"
        dims = graded_dimension(spec)
        char = TruncatedSeries.from_blocks([dims], args.cap)
        payload["dims"] = dims
    payload["char"] = char.to_json_obj()
    print(_dump(payload))
    return 0


# ---------------------------------------------------------------------------
# pairs

def cmd_pairs(args) -> int:
    fam = build_family(args.family, args.k, args.b0)
    spec_map = dict(fam.specs)
    names = [name for name, _ in fam.specs]
    pairs = []
    for i, a in enumerate(names):
        for b in names[i:]:
            pf = pair_function(spec_map[a], spec_map[b], fam.table, args.order)
            pairs.append(
                {
                    "a": a,
                    "b": b,
                    "z_power": str(pf.z_power),
                    "closed_form": list(pf.closed_form) if pf.closed_form else None,
                    "series": [str(c) for c in pf.coeffs],
                }
            )
    payload = {
        "family": fam.name,
        "k": args.k,
        "b0": args.b0,
        "order": args.order,
        "pairs": pairs,
    }
    print(_dump(payload))
    return 0


# ---------------------------------------------------------------------------
# verify

def _series_case(case_id, lhs_name, rhs_name, lhs, rhs, experimental=False):
    t0 = time.perf_counter()
    a = lhs()
    t1 = time.perf_counter()
    b = rhs()
    t2 = time.perf_counter()
    witness = first_mismatch(a, b)
    report = {
        "case": case_id,
        "methods": [lhs_name, rhs_name],
        "status": "match" if witness is None else "mismatch",
        "experimental": experimental,
        "witness": None
        if witness is None
        else {
            "q_exp": witness[0],
            "z_exp": witness[1],
            "lhs": str(witness[2]),
            "rhs": str(witness[3]),
        },
    }
    return report, {lhs_name: t1 - t0, rhs_name: t2 - t1}


def _scalar_case(case_id, lhs_name, rhs_name, lhs_value, rhs_value, experimental=False):
    report = {
        "case": case_id,
        "methods": [lhs_name, rhs_name],
        "status": "match" if lhs_value == rhs_value else "mismatch",
        "experimental": experimental,
        "witness": None
        if lhs_value == rhs_value
        else {
            "q_exp": None,
            "z_exp": None,
            "lhs": str(lhs_value),
            "rhs": str(rhs_value),
        },
    }
    return report, {}


def _run_case(case: dict):
    report, times = _dispatch_case(case)
    report["params"] = _case_params(case)
    return report, times


def _case_params(case: dict) -> dict:
    return {key: value for key, value in case.items() if key not in ("kind", "id")}


def _dispatch_case(case: dict):
    kind = case["kind"]
    try:
        if kind == "r2":
            k, b0, qmax, zmax = case["k"], case["b0"], case["qmax"], case["zmax"]
            return _series_case(
                case["id"],
                "direct",
                "fermionic-r2",
                lambda: character_direct(k, 2, (b0,), qmax, zmax),
                lambda: fermionic_r2(k, b0, qmax, zmax),
            )
        if kind == "r3":
            k, b0, qmax, zmax = case["k"], case["b0"], case["qmax"], case["zmax"]
            return _series_case(
                case["id"],
                "direct",
                "fermionic-r3",
                lambda: character_direct(k, 3, (b0, k), qmax, zmax),
                lambda: fermionic_r3(k, b0, qmax, zmax),
            )
        if kind == "special-pair":
            k, qmax, zmax = case["k"], case["qmax"], case["zmax"]
            return _series_case(
                case["id"],
                "fermionic-r3-special",
                "fermionic-r3",
                lambda: fermionic_r3_special(k, qmax, zmax),
                lambda: fermionic_r3(k, (k + 1) // 2, qmax, zmax),
            )
        if kind == "special-direct":
            k, qmax, zmax = case["k"], case["qmax"], case["zmax"]
            return _series_case(
                case["id"],
                "fermionic-r3-special",
                "direct",
                lambda: fermionic_r3_special(k, qmax, zmax),
                lambda: character_direct(k, 3, ((k + 1) // 2, k), qmax, zmax),
            )
        if kind == "oracle-r2":
            k, b0, n, cap = case["k"], case["b0"], case["n"], case["cap"]
            return _series_case(
                case["id"],
                "oracle",
                "direct",
                lambda: character_from_oracle_r2(n, k, b0, cap),
                lambda: character_direct(k, 2, (b0,), cap, n).z_block(n),
            )
        if kind == "oracle-r3":
            k, b0, b1, n, cap = case["k"], case["b0"], case["b1"], case["n"], case["cap"]
            return _series_case(
                case["id"],
                "oracle",
                "direct",
                lambda: character_from_oracle_r3(n, k, b0, b1, cap),
                lambda: character_direct(
                    k, 3, (b0, b1), 2 * cap + 1, n
                ).z_block(n),
                experimental=case.get("experimental", False),
            )
        if kind == "weight":
            k, b0, mult, variant = case["k"], case["b0"], case["mult"], case["variant"]
            part = RestrictedPartition(tuple(mult))
            if variant == "G2":
                data = gordon_data_r2(k, b0)
            else:
                data = gordon_data_r3_special(k)
            weight = quadratic_exponent(data, part.multiplicities)
            # The label is kept so that the report bytes stay the same; the
            # degree is the sum of the factor exponents, nothing is expanded.
            return _scalar_case(
                case["id"],
                "quadratic-form",
                "expanded-product",
                weight,
                weight_degree(part, variant, k, b0),
            )
        if kind == "pair-function":
            family, order = case["family"], case["order"]
            k, b0 = case["k"], case["b0"]
            fam = build_family(family, k, b0)
            spec_map = dict(fam.specs)
            name_a, name_b = case["name_a"], case["name_b"]
            pf = pair_function(spec_map[name_a], spec_map[name_b], fam.table, order)
            p_exp, s_exp = case["p"], case["s"]
            expected = closed_form_series(p_exp, s_exp, order)
            ok = (
                pf.closed_form == (p_exp, s_exp)
                and list(pf.coeffs) == expected
                and pf.z_power == p_exp + s_exp
            )
            return _scalar_case(
                case["id"],
                "exponential-expansion",
                "closed-form",
                "ok" if ok else f"closed={pf.closed_form}",
                "ok",
            )
        raise ValueError(f"unknown case kind: {kind}")
    except CapacityError as exc:
        return _failed_case(case, "capacity-skip", str(exc))
    except Exception as exc:  # one broken case must not abort the suite
        traceback.print_exc(file=sys.stderr)
        return _failed_case(case, "error", f"{type(exc).__name__}: {exc}")


def _failed_case(case: dict, status: str, detail: str):
    """Report for a case that produced no comparison."""
    return (
        {
            "case": case["id"],
            "methods": [],
            "status": status,
            "experimental": case.get("experimental", False),
            "witness": None,
            "detail": detail,
            "params": _case_params(case),
        },
        {},
    )


def _build_cases(suite: str, args) -> list[dict]:
    cases = []
    if suite == "r2":
        for k in range(1, args.kmax + 1):
            for b0 in range(k + 1):
                cases.append(
                    {
                        "kind": "r2",
                        "id": f"r2 k={k} b0={b0}",
                        "k": k,
                        "b0": b0,
                        "qmax": args.qmax,
                        "zmax": args.zmax,
                    }
                )
    elif suite == "r3":
        for k in range(1, args.kmax + 1):
            for b0 in range(k + 1):
                cases.append(
                    {
                        "kind": "r3",
                        "id": f"r3 k={k} b0={b0}",
                        "k": k,
                        "b0": b0,
                        "qmax": args.qmax,
                        "zmax": args.zmax,
                    }
                )
    elif suite == "special-equality":
        for k in range(1, args.kmax + 1):
            cases.append(
                {
                    "kind": "special-pair",
                    "id": f"special k={k} vs-fermionic",
                    "k": k,
                    "qmax": args.qmax,
                    "zmax": args.zmax,
                }
            )
            if k <= 2:
                cases.append(
                    {
                        "kind": "special-direct",
                        "id": f"special k={k} vs-direct",
                        "k": k,
                        "qmax": args.qmax,
                        "zmax": args.zmax,
                    }
                )
    elif suite == "oracle-r2":
        for k in range(1, args.kmax + 1):
            for b0 in range(k + 1):
                for n in range(args.nmax + 1):
                    cases.append(
                        {
                            "kind": "oracle-r2",
                            "id": f"oracle-r2 k={k} b0={b0} n={n}",
                            "k": k,
                            "b0": b0,
                            "n": n,
                            "cap": args.cap,
                        }
                    )
    elif suite == "oracle-r3":
        for k in range(1, args.kmax + 1):
            for b0 in range(k + 1):
                for n in range(args.nmax + 1):
                    cases.append(
                        {
                            "kind": "oracle-r3",
                            "id": f"oracle-r3 k={k} b0={b0} n={n}",
                            "k": k,
                            "b0": b0,
                            "b1": k,
                            "n": n,
                            "cap": args.cap,
                        }
                    )
    elif suite == "weights":
        for k in range(1, args.kmax + 1):
            for size in range(args.sizemax + 1):
                for part in level_restricted_partitions(size, k):
                    mult = list(part.multiplicities)
                    for b0 in range(k + 1):
                        cases.append(
                            {
                                "kind": "weight",
                                "id": f"weight-G2 k={k} b0={b0} m={mult}",
                                "k": k,
                                "b0": b0,
                                "mult": mult,
                                "variant": "G2",
                            }
                        )
            for size in range(args.sizemax3 + 1):
                for part in level_restricted_partitions(size, k):
                    mult = list(part.multiplicities)
                    cases.append(
                        {
                            "kind": "weight",
                            "id": f"weight-G3 k={k} m={mult}",
                            "k": k,
                            "b0": (k + 1) // 2,
                            "mult": mult,
                            "variant": "G3",
                        }
                    )
    elif suite == "pair-functions":
        for k in range(1, args.kmax + 1):
            fams = [("r2", 0)]
            fams.append(("r3-odd-k", None) if k % 2 else ("r3-even-k", None))
            fams.append(("r3-split", 0))
            for family, b0 in fams:
                b0 = 0 if b0 is None else b0
                fam = build_family(family, k, b0)
                names = [name for name, _ in fam.specs]
                for i, name_a in enumerate(names):
                    for name_b in names[i:]:
                        p, s = _expected_pair_exponents(family, k, name_a, name_b)
                        cases.append(
                            {
                                "kind": "pair-function",
                                "id": f"pair {family} k={k} {name_a},{name_b}",
                                "family": family,
                                "k": k,
                                "b0": b0,
                                "name_a": name_a,
                                "name_b": name_b,
                                "order": args.order,
                                "p": p,
                                "s": s,
                            }
                        )
    elif suite == "conjecture-10.2":
        for n in range(args.nmax + 1):
            cases.append(
                {
                    "kind": "oracle-r3",
                    "id": f"conjecture-10.2 k=2 b=(1,1) n={n}",
                    "k": 2,
                    "b0": 1,
                    "b1": 1,
                    "n": n,
                    "cap": args.cap,
                    "experimental": True,
                }
            )
    else:
        raise ValueError(f"unknown suite: {suite}")
    return cases


def _expected_pair_exponents(family: str, k: int, name_a: str, name_b: str):
    def level(name: str) -> int:
        return int(name.rstrip("+-").removeprefix("gamma"))

    a, b = level(name_a), level(name_b)
    if family == "r2":
        return 2 * min(a, b), 0
    if family in ("r3-odd-k", "r3-even-k"):
        return 2 * min(a, b), max(0, a + b - k)
    # split family: same sign pairs contract like the rank-2 family,
    # opposite signs only through the overlap beyond level k
    same = name_a[-1] == name_b[-1]
    if same:
        return 2 * min(a, b), 0
    return max(0, a + b - k), 0


def _worker_count(n_cases: int) -> int:
    """Pool size from the environment, clamped to the CPUs and the cases."""
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {text!r}")
    return min(workers, os.cpu_count() or 1, n_cases)


def cmd_verify(args) -> int:
    cases = _build_cases(args.suite, args)
    workers = _worker_count(len(cases))
    if workers > 1:
        # imported here so that a serial run never loads the process-pool machinery
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for result in pool.map(_run_case, cases):
                    results.append(result)
            except BrokenExecutor as exc:
                # a dead worker ends the map: keep what finished, report the rest
                detail = f"{type(exc).__name__}: {exc}"
                results.extend(
                    _failed_case(case, "error", detail) for case in cases[len(results):]
                )
    else:
        results = [_run_case(c) for c in cases]
    reports = [r for r, _ in results]
    timings = [t for _, t in results]
    order = sorted(range(len(reports)), key=lambda i: reports[i]["case"])
    reports = [reports[i] for i in order]
    timings = [timings[i] for i in order]

    payload = {"schema": REPORT_SCHEMA, "suite": args.suite, "reports": reports}
    print(_dump(payload))

    width = max((len(r["case"]) for r in reports), default=4)
    for rep, times in zip(reports, timings):
        t = " ".join(f"{name}={dt:.3f}s" for name, dt in times.items())
        flag = " [experimental]" if rep["experimental"] else ""
        line = f"{rep['case'].ljust(width)}  {rep['status']}{flag}  {t}"
        print(line, file=sys.stderr)
        if rep["status"] == "mismatch" and rep["witness"]:
            print(f"{' ' * width}  witness: {rep['witness']}", file=sys.stderr)
        if rep["status"] == "error":
            print(f"{' ' * width}  detail: {rep['detail']}", file=sys.stderr)

    failed = [
        r
        for r in reports
        if r["status"] in ("mismatch", "error") and not r["experimental"]
    ]
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admissible",
        description="Characters of admissible configurations: compute and cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", help="compute one character as canonical JSON")
    p_char.add_argument(
        "--method",
        required=True,
        choices=["direct", "fermionic-r2", "fermionic-r3", "fermionic-r3-special", "oracle"],
    )
    p_char.add_argument("--k", type=int, required=True)
    p_char.add_argument("--r", type=int, default=2)
    p_char.add_argument("--b", type=_parse_b, default=None, help="comma list, e.g. 0 or 1,2")
    p_char.add_argument("--qmax", type=int, required=True)
    p_char.add_argument("--zmax", type=int, required=True)
    p_char.set_defaults(func=cmd_char)

    p_verify = sub.add_parser("verify", help="run a cross-check suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--kmax", type=int, default=None)
    p_verify.add_argument("--qmax", type=int, default=None)
    p_verify.add_argument("--zmax", type=int, default=None)
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--cap", type=int, default=None)
    p_verify.add_argument("--order", type=int, default=12)
    p_verify.add_argument("--sizemax", type=int, default=8)
    p_verify.add_argument("--sizemax3", type=int, default=6)
    p_verify.set_defaults(func=cmd_verify)

    p_dims = sub.add_parser(
        "dims", help="graded dimensions and character of one vanishing space"
    )
    p_dims.add_argument("--r", type=int, required=True, choices=[2, 3])
    p_dims.add_argument("--k", type=int, required=True)
    p_dims.add_argument("--b0", type=int, required=True)
    p_dims.add_argument("--b1", type=int, default=None, help="r=3 pair only; defaults to k")
    p_dims.add_argument("--n", type=int, required=True)
    p_dims.add_argument("--cap", type=int, required=True, help="degree cap")
    p_dims.add_argument(
        "--variant", default="pair", choices=["pair", "signed"], help="r=3 realization"
    )
    p_dims.set_defaults(func=cmd_dims)

    p_pairs = sub.add_parser(
        "pairs", help="pair functions of a built-in operator family"
    )
    p_pairs.add_argument(
        "--family",
        required=True,
        choices=["r2", "r3-split", "r3-odd-k", "r3-even-k"],
    )
    p_pairs.add_argument("--k", type=int, required=True)
    p_pairs.add_argument("--b0", type=int, default=0)
    p_pairs.add_argument("--order", type=int, default=12)
    p_pairs.set_defaults(func=cmd_pairs)

    p_table = sub.add_parser("table", help="print a Gordon matrix or boundary vector")
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--which", required=True, choices=["A2", "B3", "A", "B", "c2", "c3"])
    p_table.add_argument("--b0", type=int, default=None)
    p_table.add_argument(
        "--format", default="grid", choices=["grid", "json", "csv", "latex"]
    )
    p_table.set_defaults(func=cmd_table)

    return parser


_SUITE_DEFAULTS = {
    "r2": {"kmax": 3, "qmax": 30, "zmax": 12},
    "r3": {"kmax": 2, "qmax": 20, "zmax": 10},
    "special-equality": {"kmax": 4, "qmax": 20, "zmax": 10},
    "oracle-r2": {"kmax": 3, "nmax": 5, "cap": 12},
    "oracle-r3": {"kmax": 2, "nmax": 4, "cap": 8},
    "weights": {"kmax": 3},
    "pair-functions": {"kmax": 4},
    "conjecture-10.2": {"nmax": 3, "cap": 6},
}


def _apply_suite_defaults(args):
    for name, value in _SUITE_DEFAULTS.get(getattr(args, "suite", ""), {}).items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        _apply_suite_defaults(args)
    try:
        return args.func(args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
