"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All identities checked here are exact, so every comparison is exact
coefficient equality on the stated truncation window (tolerance zero).
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import time

from admissible.configurations import character_direct
from admissible.fermionic import (
    fermionic_r2,
    fermionic_r3,
    fermionic_r3_special,
    gordon_data_r2,
    gordon_data_r3,
    gordon_data_r3_special,
    level_restricted_partitions,
    quadratic_exponent,
)
from admissible.polyspaces import oracle_block, weight_degree
from admissible.series import TruncatedSeries, first_mismatch
from admissible.vertexops import (
    family_r2,
    family_r3_mixed,
    family_r3_split,
    pair_function,
)
from brute_force import _multiplicity_vectors, _pochhammer_inverse_coeffs, closed_form_series


def _oracle(k, r, b, q_order, n):
    """The z^n oracle block as a series through q^q_order."""
    return TruncatedSeries([oracle_block(k, r, b, q_order, n)], q_order)


def _verdict(name, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} case(s))"
    print(f"[acceptance] {name}: {status}  [{elapsed:.1f}s]")
    assert not failures, f"{name}: first failures {failures[:3]}"


def test_criterion_01_fermionic_r2_equals_direct():
    started = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        for b0 in range(k + 1):
            lhs = fermionic_r2(k, b0, 30, 15)
            rhs = character_direct(k, 2, (b0,), 30, 15)
            witness = first_mismatch(lhs, rhs)
            if witness is not None:
                failures.append((k, b0, witness))
    _verdict("criterion 1 (rank-2 fermionic = direct, q<=30 z<=15)", failures, started)


def test_criterion_02_fermionic_r3_equals_direct():
    started = time.perf_counter()
    failures = []
    cases = [(k, b0) for k in (1, 2) for b0 in range(k + 1)]
    cases += [(3, 0), (3, 2)]
    for k, b0 in cases:
        lhs = fermionic_r3(k, b0, 20, 10)
        rhs = character_direct(k, 3, (b0, k), 20, 10)
        witness = first_mismatch(lhs, rhs)
        if witness is not None:
            failures.append((k, b0, witness))
    _verdict("criterion 2 (rank-3 fermionic = direct, q<=20 z<=10)", failures, started)


def test_criterion_03_special_case_equality():
    started = time.perf_counter()
    failures = []
    for k in (1, 2, 3, 4):
        lhs = fermionic_r3_special(k, 20, 10)
        rhs = fermionic_r3(k, (k + 1) // 2, 20, 10)
        witness = first_mismatch(lhs, rhs)
        if witness is not None:
            failures.append(("formulas", k, witness))
    for k in (1, 2):
        lhs = fermionic_r3_special(k, 20, 10)
        rhs = character_direct(k, 3, ((k + 1) // 2, k), 20, 10)
        witness = first_mismatch(lhs, rhs)
        if witness is not None:
            failures.append(("direct", k, witness))
    _verdict("criterion 3 (special-case fermionic equality, k<=4)", failures, started)


def test_criterion_04_oracle_r2_agreement():
    started = time.perf_counter()
    failures = []
    cap = 12
    for k in (1, 2, 3):
        for b0 in range(k + 1):
            chi = character_direct(k, 2, (b0,), cap, 5)
            for n in range(6):
                oracle = _oracle(k, 2, (b0,), cap, n)
                witness = first_mismatch(oracle, chi.z_block(n))
                if witness is not None:
                    failures.append((k, b0, n, witness))
    _verdict("criterion 4 (rank-2 vanishing-space oracle, cap 12)", failures, started)


def test_criterion_05_oracle_r3_agreement():
    started = time.perf_counter()
    failures = []
    cap = 8
    for k in (1, 2):
        for b0 in range(k + 1):
            chi = character_direct(k, 3, (b0, k), 2 * cap + 1, 4)
            for n in range(5):
                oracle = _oracle(k, 3, (b0, k), 2 * cap + 1, n)
                witness = first_mismatch(oracle, chi.z_block(n))
                if witness is not None:
                    failures.append((k, b0, n, witness))
    _verdict("criterion 5 (rank-3 vanishing-space oracle, cap 8)", failures, started)


def test_criterion_06_weight_consistency():
    started = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        for b0 in range(k + 1):
            data = gordon_data_r2(k, b0)
            for n in range(9):
                for part in level_restricted_partitions(n, k):
                    weight = quadratic_exponent(data, part)
                    degree = weight_degree(part, "G2", k, b0)
                    if weight != degree:
                        failures.append(("G2", k, b0, part, weight, degree))
        b0 = (k + 1) // 2
        data = gordon_data_r3_special(k)
        for n in range(7):
            for part in level_restricted_partitions(n, k):
                weight = quadratic_exponent(data, part)
                degree = weight_degree(part, "G3", k, b0)
                if weight != degree:
                    failures.append(("G3", k, part, weight, degree))
    _verdict("criterion 6 (quadratic form = weight product degree)", failures, started)


def test_criterion_07_pair_function_closed_forms():
    started = time.perf_counter()
    failures = []
    order = 12
    for k in range(1, 6):
        fam = family_r2(k)
        spec_map = dict(fam.specs)
        for a in range(1, k + 1):
            for b in range(a, k + 1):
                pf = pair_function(spec_map[f"gamma{a}"], spec_map[f"gamma{b}"], fam.table, order)
                p, s = 2 * min(a, b), 0
                if pf.closed_form != (p, s) or list(pf.coeffs) != closed_form_series(p, s, order):
                    failures.append(("r2", k, a, b))
        fam = family_r3_mixed(k)
        spec_map = dict(fam.specs)
        for a in range(1, k + 1):
            for b in range(a, k + 1):
                pf = pair_function(spec_map[f"gamma{a}"], spec_map[f"gamma{b}"], fam.table, order)
                p, s = 2 * min(a, b), max(0, a + b - k)
                if pf.closed_form != (p, s) or list(pf.coeffs) != closed_form_series(p, s, order):
                    failures.append(("mixed", k, a, b))
        fam = family_r3_split(k)
        spec_map = dict(fam.specs)
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                pf = pair_function(spec_map[f"gamma{a}+"], spec_map[f"gamma{b}-"], fam.table, order)
                p = max(0, a + b - k)
                if pf.closed_form != (p, 0) or list(pf.coeffs) != closed_form_series(p, 0, order):
                    failures.append(("split-cross", k, a, b))
            for b in range(a, k + 1):
                for sign in "+-":
                    pf = pair_function(
                        spec_map[f"gamma{a}{sign}"], spec_map[f"gamma{b}{sign}"], fam.table, order
                    )
                    p = 2 * min(a, b)
                    if pf.closed_form != (p, 0) or list(pf.coeffs) != closed_form_series(p, 0, order):
                        failures.append(("split-same", k, a, b, sign))
    _verdict("criterion 7 (pair-function closed forms, k<=5, order 12)", failures, started)


def test_criterion_08_filtration_telescoping():
    started = time.perf_counter()
    failures = []
    cap = 12
    for k in (1, 2, 3):
        for b0 in range(k + 1):
            for n in range(6):
                total = fermionic_r2(k, b0, cap, n).z_block(n)
                oracle = _oracle(k, 2, (b0,), cap, n)
                witness = first_mismatch(total, oracle)
                if witness is not None:
                    failures.append((k, b0, n, witness))
    _verdict("criterion 8 (fermionic z-blocks telescope to the oracle)", failures, started)


def test_criterion_09_property_suites():
    started = time.perf_counter()
    failures = []

    # exponent integrality and non-negativity over every term the
    # criterion 1-3 sums evaluate
    grids = []
    for k in (1, 2, 3):
        for b0 in range(k + 1):
            grids.append((gordon_data_r2(k, b0), 15))
    for k, b0 in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 2)]:
        grids.append((gordon_data_r3(k, b0), 10))
    for k in (1, 2, 3, 4):
        grids.append((gordon_data_r3_special(k), 10))
    for data, zmax in grids:
        for n in range(zmax + 1):
            for m in _multiplicity_vectors(data.z_weights, n):
                e = quadratic_exponent(data, m)
                if not (isinstance(e, int) and e >= 0):
                    failures.append(("exponent", data.matrix, m, e))

    # Pochhammer inverse identity: the inverse times prod_j (1 - q^(step*j))
    for step in (1, 2):
        for m in range(9):
            prod = _pochhammer_inverse_coeffs((m,), step, 40)
            for j in range(1, m + 1):
                for d in range(40, step * j - 1, -1):
                    prod[d] -= prod[d - step * j]
            if prod != [1] + [0] * 40:
                failures.append(("pochhammer", m, step))

    _verdict("criterion 9 (exponent integrality, Pochhammer)", failures, started)


def test_criterion_10_conjectural_oracle_evidence():
    started = time.perf_counter()
    failures = []
    k, b0, b1, cap = 2, 1, 1, 6
    chi = character_direct(k, 3, (b0, b1), 2 * cap + 1, 3)
    lines = []
    for n in range(4):
        try:
            oracle = _oracle(k, 3, (b0, b1), 2 * cap + 1, n)
        except Exception as exc:  # the run itself must complete
            failures.append((n, repr(exc)))
            continue
        witness = first_mismatch(oracle, chi.z_block(n))
        verdict = "agree" if witness is None else f"DIFFER at {witness}"
        lines.append(f"  n={n}: conjectural oracle vs direct: {verdict}")
    for line in lines:
        print(line)
    if len(lines) != 4:
        failures.append(("incomplete report", len(lines)))
    # agreement is recorded above, not required
    _verdict("criterion 10 (conjectural-space evidence run completes)", failures, started)
