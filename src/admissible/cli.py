"""Command-line front end: compute characters, print Gordon tables, and run
the cross-verification suites.

``verify`` runs its cases one by one in this process and reports them sorted
by case id.  Every case is two named computations of one quantity, compared
as series or as scalars.  A series case computes two ``char`` methods on one
window (k, r, b, qmax, zmax), whole or on one z-block, through the same
function that ``char`` uses; a mismatch prints one replay ``admissible char``
command per side on stderr.  The weights and pair-functions suites compare
scalars.  pair-functions checks each pair function of a built-in family
against the exponents (p, s) that the Gordon matrices of ``fermionic`` give:
(A2, 0) for r2, (A, 0) for r3-split and (A2, B3) for r3-odd-k and
r3-even-k, the matrices the fermionic sums read.

Machine-readable JSON goes to stdout and is byte-for-byte deterministic for
fixed flags and version; wall-clock timings and the human-readable table go
to stderr.  The process exits 0 iff every executed non-experimental check
matched (capacity skips do not fail; a case that raises is reported with
status "error" and fails; the experimental suite never affects the exit
code), and 2 on bad input, before any case runs.  Every command exits 141
(128 + SIGPIPE) without a traceback when its reader closes stdout early, as
``| head`` does; what was written before stays as it was.

The command line is read by ``parse_args`` from the ``COMMANDS`` table, which
holds each command's help line, flags, positional argument and function.  A
flag is given as ``--name value`` or ``--name=value``, or by a unique prefix
of its name; the last of repeated values wins.  ``-h`` or ``--help`` prints
plain help, whatever the terminal width, and exits 0.  A usage error prints
one line, ``error: ...``, and exits 2.
"""

from __future__ import annotations

import gc
import sys
import time
from itertools import combinations_with_replacement, islice
from types import SimpleNamespace

from .series import TruncatedSeries, dumps, first_mismatch, series_json
from .configurations import CapacityError, character_direct, validate_b, validate_window
from .fermionic import (
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
    graded_dimension,
    oracle_block,
    oracle_blocks,
    pair_sector_dims,
    regrade_pair_sectors,
    vanishing_spec_r2,
    vanishing_spec_r3_signed,
    weight_degree,
)
from .vertexops import (
    _check_pair_terms,
    _closed_form_coefficients,
    build_family,
    pair_expansion,
    pair_function,
)

REPORT_SCHEMA = 1


def _parse_b(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# ---------------------------------------------------------------------------
# char

def _compute_char(method, k, r, b, qmax, zmax) -> TruncatedSeries:
    validate_window(qmax, zmax)
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
        if tuple(b) != expected:
            raise ValueError(f"fermionic-r3-special fixes b = {expected}")
        return fermionic_r3_special(k, qmax, zmax)
    if method == "oracle":
        # Largest block (most variables, same degree cap) first: a refusal precedes all work.
        rows = [oracle_block(k, r, b, qmax, n) for n in range(zmax, -1, -1)][::-1]
        return TruncatedSeries(rows, qmax, zmax)
    raise ValueError(f"unknown method: {method}")


def cmd_char(args) -> int:
    b = args.b
    if b is None and args.method == "fermionic-r3-special":
        b = ((args.k + 1) // 2, args.k)
    if b is None:
        raise ValueError("--b is required for this method")
    series = _compute_char(args.method, args.k, args.r, b, args.qmax, args.zmax)
    print(series_json(series))
    return 0


# ---------------------------------------------------------------------------
# table

def _matrix_for(which: str, k: int, b0: int):
    if which in ("c2", "c3"):  # a boundary vector, as one row
        return [(boundary_c2 if which == "c2" else boundary_c3)(k, b0)]
    return {"A2": gordon_a2, "B3": gordon_b3, "A": gordon_a, "B": gordon_b}[which](k)


def _format_table(rows, fmt: str) -> str:
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
    boundary = args.which in ("c2", "c3")
    if boundary and args.b0 is None:
        raise ValueError(f"--b0 is required for {args.which}")
    if not boundary and args.b0 is not None:
        raise ValueError("--b0 applies to --which c2 or c3 only")
    rows = _matrix_for(args.which, args.k, args.b0)
    if args.format == "json":  # a boundary vector prints as a vector, a matrix as rows
        print(dumps(rows[0] if boundary else rows))
    else:
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
    if args.r == 2 and args.variant is not None:
        raise ValueError("--variant applies to --r 3 only")
    if args.r == 3 and args.variant != "signed":
        b1 = args.b1 if args.b1 is not None else args.k
        sector_dims = pair_sector_dims(args.n, args.k, args.b0, b1, args.cap)
        q_order = 2 * args.cap + 1  # pair spaces through cap make it exact
        char = TruncatedSeries([regrade_pair_sectors(sector_dims, q_order)], q_order)
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
        char = TruncatedSeries([dims], args.cap)
        payload["dims"] = dims
    payload["char"] = char.to_json_obj()
    print(dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# pairs

def cmd_pairs(args) -> int:
    # r3-split has the specs gamma_a+ and gamma_a-, every other family gamma_a
    specs = 2 * args.k if args.family == "r3-split" else args.k
    _check_pair_terms(specs * (specs + 1) // 2, args.k, args.order)
    fam = build_family(args.family, args.k, args.b0)
    pairs = []
    for (a, spec_a), (b, spec_b) in combinations_with_replacement(fam.specs, 2):
        pf = pair_function(spec_a, spec_b, fam.table, args.order)
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
    print(dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# verify
#
# A case is two named computations of one quantity: a dict with its "id",
# the "params" its report echoes, its two "methods" and their "sides", the
# zero-argument functions that compute them.  A series case also keeps the
# char "window" (k, r, b, qmax, zmax) of both sides and the z-block "n" they
# compare, or None for the whole window, for its replay lines.

def _char_side(method, window, n) -> TruncatedSeries:
    """One side of a series case: the char of the window, or its z^n block."""
    if n is None:
        return _compute_char(method, *window)
    return _compute_char(method, *window).z_block(n)


def _run_case(case: dict):
    """Report and per-method times of one case: both sides are computed,
    timed and compared, series by their first differing term (q_exp, z_exp,
    lhs, rhs) and scalars by equality.  A case that raises is reported as a
    capacity skip or an error and does not end the run."""
    params = case["params"]
    report = {
        "case": case["id"],
        "methods": [],
        "witness": None,
        "experimental": params.get("experimental", False),
        "params": params,
    }
    try:
        values, times = [], {}
        for method, side in zip(case["methods"], case["sides"]):
            t0 = time.perf_counter()
            values.append(side())
            times[method] = time.perf_counter() - t0
        lhs, rhs = values
        if isinstance(lhs, TruncatedSeries):
            witness = first_mismatch(lhs, rhs)
        else:
            witness = None if lhs == rhs else (None, None, lhs, rhs)
        if witness is not None:
            q_exp, z_exp, lhs, rhs = witness
            witness = {"q_exp": q_exp, "z_exp": z_exp, "lhs": str(lhs), "rhs": str(rhs)}
        status = "match" if witness is None else "mismatch"
        report.update(methods=list(case["methods"]), status=status, witness=witness)
        return report, times
    except CapacityError as exc:
        report.update(status="capacity-skip", detail=str(exc))
    except Exception as exc:  # one broken case must not abort the suite
        import traceback  # only a failing case needs it; keep it out of start-up

        traceback.print_exc(file=sys.stderr)
        report.update(status="error", detail=f"{type(exc).__name__}: {exc}")
    return report, {}


def _replay_lines(case: dict, witness: dict) -> list[str]:
    """One `admissible char` command per side of a series mismatch, each
    naming the coefficient that differs."""
    k, r, b, qmax, zmax = case["window"]
    z_exp = witness["z_exp"] if case["n"] is None else case["n"]
    b_text = ",".join(str(x) for x in b)
    return [
        f"replay: admissible char --method {method} --k {k} --r {r} --b {b_text}"
        f" --qmax {qmax} --zmax {zmax}  # coefficient of q^{witness['q_exp']} z^{z_exp}"
        for method in case["methods"]
    ]


def _case(case_id, methods, sides, window, params, n=None) -> dict:
    return {
        "id": case_id,
        "params": params,
        "methods": methods,
        "sides": sides,
        "window": window,
        "n": n,
    }


def _series(case_id, methods, window, params, n=None) -> dict:
    sides = [lambda m=method: _char_side(m, window, n) for method in methods]
    return _case(case_id, methods, sides, window, params, n)


def _k_b0(args):
    return ((k, b0) for k in range(1, args.kmax + 1) for b0 in range(k + 1))


def _fermionic_cases(suite, args):
    """direct against the fermionic formula of rank r, at b = (b0,) or (b0, k)."""
    r = int(suite[-1])  # the suite name ends in its rank
    for k, b0 in _k_b0(args):
        b = (b0,) if r == 2 else (b0, k)
        params = {"k": k, "b0": b0, "qmax": args.qmax, "zmax": args.zmax}
        window = (k, r, b, args.qmax, args.zmax)
        yield _series(f"{suite} k={k} b0={b0}", ("direct", f"fermionic-r{r}"), window, params)


def _special_cases(suite, args):
    """The b = ((k+1)/2, k) special formula against fermionic-r3, and
    against direct where direct is cheap."""
    for k in range(1, args.kmax + 1):
        params = {"k": k, "qmax": args.qmax, "zmax": args.zmax}
        window = (k, 3, ((k + 1) // 2, k), args.qmax, args.zmax)
        methods = ("fermionic-r3-special", "fermionic-r3")
        yield _series(f"special k={k} vs-fermionic", methods, window, params)
        if k <= 2:
            methods = ("fermionic-r3-special", "direct")
            yield _series(f"special k={k} vs-direct", methods, window, params)


def _oracle_cases(suite, args):
    """Each z^n block of the vanishing-space oracle against direct, n <= nmax.
    conjecture-10.2 is the b1 < k block the fermionic formula does not cover.

    The oracle sides of one (k, n) read one oracle_blocks call for every b
    of that k, made by the first case of the group that runs and kept in
    `made` for this run of the builder only.  A call that raises is not
    kept: every case of the group calls again and reports its own capacity
    skip or error."""
    if suite == "conjecture-10.2":
        r, groups = 3, [(2, {f"{suite} k=2 b=(1,1)": (1, 1)})]
    else:
        r = int(suite[-1])  # the suite name ends in its rank
        groups = (  # lazy, so an oversized --kmax is refused at MAX_CASES
            (k, {f"{suite} k={k} b0={b0}": (b0,) if r == 2 else (b0, k) for b0 in range(k + 1)})
            for k in range(1, args.kmax + 1)
        )
    qmax = args.cap if r == 2 else 2 * args.cap + 1
    made = {}
    for k, labels in groups:
        bs = list(labels.values())
        for i, (label, b) in enumerate(labels.items()):
            for n in range(args.nmax + 1):
                params = {"k": k, **dict(zip(("b0", "b1"), b)), "n": n, "cap": args.cap}
                if suite == "conjecture-10.2":
                    params["experimental"] = True
                window = (k, r, b, qmax, n)
                sides = [
                    lambda key=(k, r, n), bs=bs, i=i: _oracle_side(made, key, bs, qmax, i),
                    lambda window=window, n=n: _char_side("direct", window, n),
                ]
                yield _case(f"{label} n={n}", ("oracle", "direct"), sides, window, params, n)


def _oracle_side(made: dict, key, bs, qmax, i) -> TruncatedSeries:
    """The oracle side of a block case: block i of the oracle_blocks call
    of key = (k, r, n) over bs, read from `made` or made and stored there."""
    blocks = made.get(key)
    if blocks is None:
        k, r, n = key
        blocks = made[key] = oracle_blocks(k, r, bs, qmax, n)
    return TruncatedSeries([blocks[i]], qmax)


def _weight_cases(suite, args):
    """The quadratic-form weight of each level-restricted partition against
    the degree of its product form, G2 at every b0 and G3 at b0 = (k+1)/2.

    Each variant's Gordon sum data is built once per (variant, k, b0), by
    the first case of that key that runs, and kept for this run of the
    builder only.  A build that raises is not kept: every case of its key
    builds again and reports its own capacity skip or error."""
    built = {}
    for k in range(1, args.kmax + 1):
        for size in range(args.sizemax + 1):
            for part in level_restricted_partitions(size, k):
                for b0 in range(k + 1):
                    case_id = f"weight-G2 k={k} b0={b0} m={list(part)}"
                    yield _weight(case_id, "G2", k, b0, part, built)
        for size in range(args.sizemax3 + 1):
            for part in level_restricted_partitions(size, k):
                case_id = f"weight-G3 k={k} m={list(part)}"
                yield _weight(case_id, "G3", k, (k + 1) // 2, part, built)


def _gordon_data(variant, k, b0, built: dict):
    """The Gordon sum data of the variant at (k, b0), from `built` or built
    and stored there."""
    key = (variant, k, b0)
    data = built.get(key)
    if data is None:
        data = gordon_data_r2(k, b0) if variant == "G2" else gordon_data_r3_special(k)
        built[key] = data
    return data


def _weight(case_id, variant, k, b0, part, built: dict) -> dict:
    """One weight case; its first side reads the variant's Gordon sum data
    from `built`, the builder's data of one key, or builds it there."""
    return {
        "id": case_id,
        "params": {"k": k, "b0": b0, "mult": list(part), "variant": variant},
        # The label is kept so that the report bytes stay the same; the
        # degree is the sum of the factor exponents, nothing is expanded.
        "methods": ["quadratic-form", "expanded-product"],
        "sides": [
            lambda: quadratic_exponent(_gordon_data(variant, k, b0, built), part),
            lambda: weight_degree(part, variant, k, b0),
        ],
    }


# family: the Gordon matrices of its pair exponents (p, s), entry (i, j) for
# specs i and j in build order; None is s = 0.
_PAIR_EXPONENTS = {
    "r2": (gordon_a2, None),
    "r3-split": (gordon_a, None),
    "r3-odd-k": (gordon_a2, gordon_b3),
    "r3-even-k": (gordon_a2, gordon_b3),
}


def _pair_cases(suite, args):
    """Each pair function of the built-in families against the closed form
    its Gordon matrices give.

    The closed form's coefficients depend only on (p, s) at the run's
    order, so each distinct (p, s) is expanded once, by the first case
    that reads it, into `closed_forms`, kept for this run of the builder
    only."""
    closed_forms = {}
    for k in range(1, args.kmax + 1):
        for family in ("r2", "r3-odd-k" if k % 2 else "r3-even-k", "r3-split"):
            fam = build_family(family, k, 0)
            P, S = (build(k) if build else None for build in _PAIR_EXPONENTS[family])
            pairs = combinations_with_replacement(enumerate(fam.specs), 2)
            for (i, (name_a, spec_a)), (j, (name_b, spec_b)) in pairs:
                params = {
                    "family": family,
                    "k": k,
                    "b0": 0,
                    "name_a": name_a,
                    "name_b": name_b,
                    "order": args.order,
                    "p": P[i][j],
                    "s": S[i][j] if S else 0,
                }
                yield {
                    "id": f"pair {family} k={k} {name_a},{name_b}",
                    "params": params,
                    "methods": ["exponential-expansion", "closed-form"],
                    "sides": [
                        lambda a=spec_a, b=spec_b, t=fam.table, p=params: _pair_check(
                            a, b, t, p, closed_forms
                        ),
                        lambda: "ok",
                    ],
                }


def _pair_check(spec_a, spec_b, table, p, closed_forms: dict) -> str:
    """"ok" if the pair function of the two specs has the closed form
    (p["p"], p["s"]), its series and the z power p + s, else its closed form.

    Compared in integers: each numerator h_d of the expansion must be the
    closed-form coefficient c_d times its scale d! D^d.  The c_d are read
    from `closed_forms`, the builder's coefficients by (p, s), or expanded
    and stored there."""
    order = p["order"]
    _check_pair_terms(1, p["k"], order)
    z_power, numerators, scales, closed = pair_expansion(spec_a, spec_b, table, order)
    expected = (p["p"], p["s"])
    coeffs = closed_forms.get(expected)
    if coeffs is None:
        coeffs = closed_forms[expected] = _closed_form_coefficients(*expected, order)
    ok = (
        closed == expected
        and numerators == [c * scale for c, scale in zip(coeffs, scales)]
        and z_power == (p["p"] + p["s"], 1)
    )
    return "ok" if ok else f"closed={closed}"


# suite: (case builder, defaults of the flags it reads)
SUITES = {
    "r2": (_fermionic_cases, {"kmax": 3, "qmax": 30, "zmax": 12}),
    "r3": (_fermionic_cases, {"kmax": 2, "qmax": 20, "zmax": 10}),
    "special-equality": (_special_cases, {"kmax": 4, "qmax": 20, "zmax": 10}),
    "oracle-r2": (_oracle_cases, {"kmax": 3, "nmax": 5, "cap": 12}),
    "oracle-r3": (_oracle_cases, {"kmax": 2, "nmax": 4, "cap": 8}),
    "weights": (_weight_cases, {"kmax": 3, "sizemax": 8, "sizemax3": 6}),
    "pair-functions": (_pair_cases, {"kmax": 4, "order": 12}),
    "conjecture-10.2": (_oracle_cases, {"nmax": 3, "cap": 6}),
}
# flag of a verify suite: its help
VERIFY_FLAGS = {
    "kmax": "largest level k",
    "qmax": "highest power of q",
    "zmax": "highest power of z",
    "nmax": "largest z-block n",
    "cap": "degree cap of the vanishing spaces",
    "order": "order of the pair-function series",
    "sizemax": "largest partition size of the G2 weights",
    "sizemax3": "largest partition size of the G3 weights",
}
# The most cases one verify run takes; the suite defaults build at most 303.
MAX_CASES = 10_000


def cmd_verify(args) -> int:
    build, defaults = SUITES[args.suite]
    for name in VERIFY_FLAGS:
        value = getattr(args, name)
        least = 1 if name == "kmax" else 0
        if value is None:
            setattr(args, name, defaults.get(name))
        elif value < least:
            raise ValueError(f"--{name} must be at least {least}, got {value}")
        elif name not in defaults:
            raise ValueError(f"--{name} does not apply to suite {args.suite}")
    cases = list(islice(build(args.suite, args), MAX_CASES + 1))
    if len(cases) > MAX_CASES:
        raise CapacityError(
            f"verify {args.suite} builds more than the limit of {MAX_CASES} cases"
        )
    runs = sorted(
        ((case, *_run_case(case)) for case in cases), key=lambda run: run[1]["case"]
    )
    reports = [report for _, report, _ in runs]

    payload = {"schema": REPORT_SCHEMA, "suite": args.suite, "reports": reports}
    print(dumps(payload))

    width = max((len(r["case"]) for r in reports), default=4)
    for case, rep, times in runs:
        t = " ".join(f"{name}={dt:.3f}s" for name, dt in times.items())
        flag = " [experimental]" if rep["experimental"] else ""
        line = f"{rep['case'].ljust(width)}  {rep['status']}{flag}  {t}"
        print(line, file=sys.stderr)
        if rep["status"] == "mismatch" and rep["witness"]:
            print(f"{' ' * width}  witness: {rep['witness']}", file=sys.stderr)
            if "window" in case:
                for replay in _replay_lines(case, rep["witness"]):
                    print(f"{' ' * width}  {replay}", file=sys.stderr)
        if rep["status"] == "error":
            print(f"{' ' * width}  detail: {rep['detail']}", file=sys.stderr)

    failed = any(
        r["status"] in ("mismatch", "error") and not r["experimental"] for r in reports
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# command line
#
# A flag is {name: (kind, default, help)}: kind is a converter such as int,
# or a tuple of choices whose type converts the value before the choice is
# checked; default is REQUIRED for a flag that must be given.

REQUIRED = object()

# command: (help line, flags, positional argument and its choices, function)
COMMANDS = {
    "char": (
        "compute one character as canonical JSON",
        {
            "method": (
                ("direct", "fermionic-r2", "fermionic-r3", "fermionic-r3-special", "oracle"),
                REQUIRED,
                "the route that computes the character",
            ),
            "k": (int, REQUIRED, "level k"),
            "r": (int, 2, "rank r"),
            "b": (_parse_b, None, "boundary vector, a comma list, e.g. 0 or 1,2; "
                  "fermionic-r3-special fills it in"),
            "qmax": (int, REQUIRED, "highest power of q"),
            "zmax": (int, REQUIRED, "highest power of z"),
        },
        None,
        cmd_char,
    ),
    "verify": (
        "run a cross-check suite",
        {name: (int, None, f"{text}; unset, the suite's default")
         for name, text in VERIFY_FLAGS.items()},
        ("suite", tuple(SUITES)),
        cmd_verify,
    ),
    "dims": (
        "graded dimensions and character of one vanishing space",
        {
            "r": ((2, 3), REQUIRED, "rank r"),
            "k": (int, REQUIRED, "level k"),
            "b0": (int, REQUIRED, "boundary value b0"),
            "b1": (int, None, "r=3 pair only; defaults to k"),
            "n": (int, REQUIRED, "number of variables"),
            "cap": (int, REQUIRED, "degree cap"),
            "variant": (("pair", "signed"), None, "r=3 only: realization, default pair"),
        },
        None,
        cmd_dims,
    ),
    "pairs": (
        "pair functions of a built-in operator family",
        {
            "family": (("r2", "r3-split", "r3-odd-k", "r3-even-k"), REQUIRED, "operator family"),
            "k": (int, REQUIRED, "level k"),
            "b0": (int, 0, "boundary value b0"),
            "order": (int, 12, "order of the series"),
        },
        None,
        cmd_pairs,
    ),
    "table": (
        "print a Gordon matrix or boundary vector",
        {
            "k": (int, REQUIRED, "level k"),
            "which": (("A2", "B3", "A", "B", "c2", "c3"), REQUIRED, "matrix or boundary vector"),
            "b0": (int, None, "c2 and c3 only"),
            "format": (("grid", "json", "csv", "latex"), "grid", "output format"),
        },
        None,
        cmd_table,
    ),
}


def _is_negative_number(word: str) -> bool:
    return word[1:].replace(".", "", 1).isdecimal() and not word.endswith(".")


def _resolve(word: str, names) -> tuple:
    """The flag among `names` that `word` gives, exactly or by a unique
    prefix, and its "=" value or None.  The flag is None for a value (a word
    not starting with "-", "-" itself, or a negative number) and "" for an
    unknown flag; "-h" is "help"."""
    if word == "-h":
        return "help", None
    if word[:2] != "--" or word == "--":
        flag_like = len(word) > 1 and word[0] == "-" and not _is_negative_number(word)
        return ("" if flag_like else None), None
    name, eq, value = word[2:].partition("=")
    found = [name] if name in names else [n for n in names if n.startswith(name)]
    if len(found) > 1:
        raise ValueError(f"ambiguous flag {word}: could match --{', --'.join(found)}")
    return (found[0] if found else ""), (value if eq else None)


def _convert(name: str, kind, word: str):
    try:
        value = kind(word) if callable(kind) else type(kind[0])(word)
    except ValueError:
        raise ValueError(f"{name}: invalid value {word!r}") from None
    if not callable(kind) and value not in kind:
        choices = ", ".join(map(str, kind))
        raise ValueError(f"{name}: invalid choice {word!r} (choose from {choices})")
    return value


def parse_args(argv):
    """The arguments argv gives, as a namespace whose ``func`` runs the
    command, or the help text when argv asks for it.  Raises ValueError with
    a one-line message on a usage error.

    The words are read left to right, as argparse reads them: help wins
    where it comes before any error, a value is converted and checked where
    it is read, and required flags, stray words and unknown flags are
    checked at the end.
    """
    stray = []
    for i, word in enumerate(argv):  # before the command: help or unknown flags
        flag, value = _resolve(word, ("help",))
        if flag is None:
            break
        if flag == "help":
            return _help(value)
        stray.append(word)
    else:
        raise ValueError(f"a command is required (choose from {', '.join(COMMANDS)})")
    name = _convert("command", tuple(COMMANDS), argv[i])
    _, flags, positional, func = COMMANDS[name]
    names = ("help", *flags)
    words = argv[i + 1:]
    # as in argparse, an ambiguous flag anywhere is refused before any other error
    resolved = [_resolve(word, names) for word in words]
    args = {flag: default for flag, (_, default, _) in flags.items() if default is not REQUIRED}
    j = 0
    while j < len(words):
        (flag, value), word = resolved[j], words[j]
        j += 1
        if flag is None and positional and positional[0] not in args:
            args[positional[0]] = _convert(*positional, word)
        elif not flag:
            stray.append(word)
        elif flag == "help":
            return _help(value, name)
        else:
            if value is None:
                if j == len(words) or resolved[j][0] is not None:
                    raise ValueError(f"--{flag}: expected a value")
                value, j = words[j], j + 1
            args[flag] = _convert(f"--{flag}", flags[flag][0], value)
    missing = [f"--{flag}" for flag in flags if flag not in args]
    if positional and positional[0] not in args:
        missing.insert(0, positional[0])
    if missing:
        raise ValueError(f"{name}: the following arguments are required: {', '.join(missing)}")
    if stray:
        raise ValueError(f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(**args, func=func)


def _help(value, name=None) -> str:
    """The plain help of the command `name`, or of the program; `value` is
    what followed "--help=", which it does not take."""
    if value is not None:
        raise ValueError(f"--help takes no value, got {value!r}")
    if name is None:
        width = max(map(len, COMMANDS))
        return "\n".join([
            "usage: admissible COMMAND [FLAGS]",
            "",
            "Characters of admissible configurations: compute and cross-check.",
            "",
            "commands:",
            *(f"    {cmd.ljust(width)}  {entry[0]}" for cmd, entry in COMMANDS.items()),
            "",
            "`admissible COMMAND --help` lists the flags of one command.",
        ])
    help_line, flags, positional, _ = COMMANDS[name]
    arg = positional[0].upper() if positional else None
    usage = " ".join(filter(None, ["usage: admissible", name, arg, "[FLAGS]"]))
    lines = [usage, "", help_line, "", "  -h, --help", "      print this help"]
    if positional:
        lines += [f"  {arg}", f"      one of {', '.join(positional[1])}; required"]
    for flag, (kind, default, text) in flags.items():
        shape = flag.upper() if callable(kind) else "{%s}" % ",".join(map(str, kind))
        if default is REQUIRED:
            text += "; required"
        elif default is not None:
            text += f"; default {default}"
        lines += [f"  --{flag} {shape}", f"      {text}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run the command argv gives (sys.argv[1:] by default); return its exit
    status.

    No garbage collection runs during a command, and the package makes no
    reference cycles, so no garbage waits for one.
    """
    if argv is None:
        argv = sys.argv[1:]
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = parse_args(argv)
        if isinstance(args, str):
            print(args)
            code = 0
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        import os  # only a closed pipe needs it; keep it out of start-up

        # Point the descriptor at devnull so the flush at exit cannot raise
        # a second time; a stdout without a descriptor needs nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass
        finally:
            os.close(devnull)
        return 141
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
