from fractions import Fraction
from itertools import product
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible.configurations import CapacityError
from admissible.fermionic import gordon_a, gordon_a2, gordon_b, gordon_b3
from admissible.vertexops import (
    MAX_PAIR_TERMS,
    PairingTable,
    PairingUndefined,
    VOSpec,
    _check_pair_terms,
    build_family,
    family_r3_mixed,
    family_r3_split,
    pair_expansion,
    pair_function,
)
from brute_force import closed_form_series, pairing, pairing_of


def reference_pairing(table, u, v):
    """<u, v> as a Fraction bilinear sum over the table's Fraction pairings."""
    return sum(
        (Fraction(cu) * Fraction(cv) * pairing_of(table, g, h)
         for g, cu in u.items() if cu for h, cv in v.items() if cv),
        Fraction(0),
    )


def reference_pair_function(a, b, table, trunc):
    """(z power, coefficients, closed form) by the O(trunc^2) convolution
    of the log-derivative: d g_d = -sum_j c_j g_{d-j}."""
    c_even = reference_pairing(table, a.even, b.even)
    c_odd = reference_pairing(table, a.odd, b.odd)
    coeffs = [Fraction(1)]
    for d in range(1, trunc + 1):
        acc = Fraction(0)
        for j in range(1, d + 1):
            acc -= (c_odd if j % 2 else c_even) * coeffs[d - j]
        coeffs.append(acc / d)
    p, s = (c_odd + c_even) / 2, (c_even - c_odd) / 2
    closed = None
    if p.denominator == 1 and s.denominator == 1 and p >= 0 and s >= 0:
        closed = (int(p), int(s))
    return reference_pairing(table, a.even, b.zero_mode), coeffs, closed


def assert_matches_reference(a, b, table, trunc):
    pf = pair_function(a, b, table, trunc)
    z_power, coeffs, closed = reference_pair_function(a, b, table, trunc)
    assert pf.z_power == z_power
    assert list(pf.coeffs) == coeffs
    assert pf.closed_form == closed
    assert type(pf.z_power) is Fraction
    assert {type(c) for c in pf.coeffs} == {Fraction}


GENERATORS = ("a", "b", "c")
rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
)
vectors = st.dictionaries(st.sampled_from(GENERATORS), rationals, max_size=3)
specs = st.builds(VOSpec, vectors, vectors, vectors)


@st.composite
def tables(draw):
    """A complete pairing table on GENERATORS with rational entries."""
    return PairingTable(
        {(g, h): draw(rationals) for i, g in enumerate(GENERATORS) for h in GENERATORS[i:]}
    )


class TestPairingTable:
    def test_symmetric_lookup(self):
        t = PairingTable({("a", "b"): 3})
        assert pairing_of(t, "b", "a") == 3

    def test_missing_pairing_raises_with_names(self):
        t = PairingTable({("a", "a"): 1})
        with pytest.raises(PairingUndefined, match="a, b"):
            pairing(t, {"a": 1}, {"b": 1})

    def test_bilinear(self):
        t = PairingTable({("a", "a"): 2, ("b", "b"): 2, ("a", "b"): 1})
        u = {"a": 1, "b": -1}
        assert pairing(t, u, u) == 2  # 2 + 2 - 2*1

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError):
            PairingTable({("a", "b"): 1, ("b", "a"): 2})

    def test_conflicts_are_read_at_exact_values_across_types(self):
        # a float, a Fraction and an int are compared at their exact values
        t = PairingTable({("a", "b"): 0.5, ("b", "a"): Fraction(1, 2)})
        assert pairing_of(t, "a", "b") == Fraction(1, 2)
        with pytest.raises(ValueError, match=r"conflicting pairings for \('a', 'b'\)"):
            PairingTable({("a", "b"): 0.1, ("b", "a"): Fraction(1, 10)})
        t = PairingTable({("a", "b"): 2, ("b", "a"): Fraction(4, 2)})
        assert pairing_of(t, "b", "a") == 2

    def test_missing_pairing_is_read_only_for_nonzero_coefficients(self):
        t = PairingTable({("a", "a"): 2, ("b", "b"): 2})
        assert pairing(t, {"a": 1, "b": 0}, {"a": 3}) == 6
        assert pairing(t, {"a": 1}, {"a": 1, "b": Fraction(0)}) == 2
        assert pairing(t, {"a": 0}, {"b": 1}) == 0
        with pytest.raises(PairingUndefined, match="pairing <a, b> is not defined"):
            pairing(t, {"a": 1, "b": 0}, {"a": 0, "b": Fraction(1, 2)})

    def test_float_coefficients_are_taken_at_their_exact_value(self):
        t = PairingTable({("a", "a"): 2, ("a", "b"): 0.1, ("b", "b"): 1})
        assert pairing_of(t, "a", "b") == Fraction(0.1)
        assert pairing(t, {"a": 0.1}, {"a": 1}) == 2 * Fraction(0.1) != Fraction(1, 5)
        assert pairing(t, {"a": 0.5, "b": 1}, {"b": 0.3}) == reference_pairing(
            t, {"a": 0.5, "b": 1}, {"b": 0.3}
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(GENERATORS), st.sampled_from(GENERATORS)),
            rationals,
        ).filter(lambda d: all(d.get((h, g), d[g, h]) == d[g, h] for g, h in d))
    )
    def test_pairing_of_returns_each_stored_value(self, pairings):
        t = PairingTable(pairings)
        for (g, h), value in pairings.items():
            assert pairing_of(t, g, h) == pairing_of(t, h, g) == value

    @settings(max_examples=100, deadline=None)
    @given(tables(), vectors, vectors)
    def test_pairing_is_the_fraction_bilinear_sum(self, t, u, v):
        assert pairing(t, u, v) == reference_pairing(t, u, v)


class TestPairFunction:
    def test_norm_two_constant_spec(self):
        t = PairingTable({("e", "e"): 2})
        spec = VOSpec.constant({"e": 1})
        pf = pair_function(spec, spec, t, 6)
        assert pf.closed_form == (2, 0)
        assert pf.z_power == 2
        assert list(pf.coeffs) == [1, -2, 1, 0, 0, 0, 0]

    def test_orthogonal_specs_give_one(self):
        t = PairingTable({("a", "a"): 2, ("b", "b"): 2, ("a", "b"): 0})
        pf = pair_function(VOSpec.constant({"a": 1}), VOSpec.constant({"b": 1}), t, 5)
        assert pf.closed_form == (0, 0)
        assert list(pf.coeffs) == [1, 0, 0, 0, 0, 0]
        assert pf.z_power == 0

    def test_alternating_spec_brings_z_plus_w(self):
        # even pairing 1, odd pairing -1: (1-x)^0 (1+x)^1
        t = PairingTable({("a", "a"): 2, ("b", "b"): 2, ("a", "b"): 1})
        plus = VOSpec.constant({"a": 1})
        minus = VOSpec(even={"b": 1}, odd={"b": -1}, zero_mode={"b": 1})
        pf = pair_function(plus, minus, t, 5)
        assert pf.closed_form == (0, 1)
        assert list(pf.coeffs) == [1, 1, 0, 0, 0, 0]

    def test_negative_order_rejected(self):
        t = PairingTable({("e", "e"): 2})
        spec = VOSpec.constant({"e": 1})
        with pytest.raises(ValueError, match="non-negative"):
            pair_function(spec, spec, t, -1)

    def test_pair_term_budget_is_inclusive(self):
        # 250,000 pair functions of level 1 to order 1 sum 250,000 * (1 + 3)
        # terms: exactly the budget, which passes; one pair more is refused
        assert MAX_PAIR_TERMS == 250_000 * 4
        _check_pair_terms(250_000, 1, 1)
        with pytest.raises(CapacityError, match="1000004 terms"):
            _check_pair_terms(250_001, 1, 1)

    def test_half_integer_exponents_have_no_closed_form(self):
        t = PairingTable({("a", "a"): 2, ("d", "d"): 1, ("a", "d"): 0})
        spec = VOSpec(even={"a": 1}, odd={"d": 1}, zero_mode={"a": 1})
        pf = pair_function(spec, spec, t, 4)
        assert pf.closed_form is None
        # series still produced: exp(-2x^2/2 - x/1 - ...) has rational coefficients
        assert pf.coeffs[0] == 1
        assert pf.coeffs[1] == -1

    def test_values_stay_fractions(self):
        # Fraction is imported inside the function; its values must still be Fractions.
        t = PairingTable({("a", "a"): 2, ("d", "d"): 1, ("a", "d"): 0})
        spec = VOSpec(even={"a": 1}, odd={"d": 1}, zero_mode={"a": 1})
        pf = pair_function(spec, spec, t, 4)
        assert type(pf.z_power) is Fraction
        assert [type(c) for c in pf.coeffs] == [Fraction] * 5

    @settings(max_examples=100, deadline=None)
    @given(tables(), specs, specs, st.integers(0, 20))
    def test_recurrence_matches_the_convolution(self, t, a, b, trunc):
        assert_matches_reference(a, b, t, trunc)

    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(Fraction, st.integers(-12, 12), st.just(2)),
        st.builds(Fraction, st.integers(-36, 36), st.sampled_from([1, 2, 3, 6])),
        st.integers(0, 20),
    )
    def test_recurrence_for_negative_and_half_integer_pairings(self, c_odd, c_even, trunc):
        # c_odd = <o, o> and c_even = <e, e>, each of either sign
        t = PairingTable({("e", "e"): c_even, ("o", "o"): c_odd, ("e", "o"): 0})
        spec = VOSpec(even={"e": 1}, odd={"o": 1}, zero_mode={"e": 1, "o": 0})
        assert_matches_reference(spec, spec, t, trunc)

    @settings(max_examples=100, deadline=None)
    @given(tables(), specs, specs, st.integers(0, 20))
    def test_integer_expansion_is_the_reference_in_integers(self, t, a, b, trunc):
        """h_d / scale_d, the z power ratio and the closed form of
        pair_expansion are the reference's values, and scale_d = d! D^d."""
        z_power, numerators, scales, closed = pair_expansion(a, b, t, trunc)
        ref_z, ref_coeffs, ref_closed = reference_pair_function(a, b, t, trunc)
        assert z_power == (ref_z.numerator, ref_z.denominator)
        assert [Fraction(h, scale) for h, scale in zip(numerators, scales)] == ref_coeffs
        assert len(numerators) == len(scales) == trunc + 1
        assert closed == ref_closed
        assert {type(x) for x in (*z_power, *numerators, *scales)} == {int}
        D = lcm(
            reference_pairing(t, a.even, b.even).denominator,
            reference_pairing(t, a.odd, b.odd).denominator,
        )
        assert scales == [factorial(d) * D**d for d in range(trunc + 1)]

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("family", ["r2", "r3-split", "r3-mixed"])
    def test_builtin_families_match_the_convolution(self, family, k):
        if family == "r3-mixed":
            family = "r3-odd-k" if k % 2 else "r3-even-k"
        fam = build_family(family, k)
        for (_, a), (_, b) in product(fam.specs, repeat=2):
            for trunc in (0, 1, 2, 30):
                assert_matches_reference(a, b, fam.table, trunc)

    def test_mixed_families_match_closed_forms(self):
        for k in range(1, 6):
            fam = family_r3_mixed(k)
            spec_map = dict(fam.specs)
            for a in range(1, k + 1):
                for b in range(a, k + 1):
                    pf = pair_function(
                        spec_map[f"gamma{a}"], spec_map[f"gamma{b}"], fam.table, 12
                    )
                    p, s = 2 * min(a, b), max(0, a + b - k)
                    assert pf.closed_form == (p, s), (k, a, b)
                    assert list(pf.coeffs) == closed_form_series(p, s, 12)
                    assert pf.z_power == p + s

    def test_split_family_cross_forms(self):
        for k in range(1, 5):
            fam = family_r3_split(k)
            spec_map = dict(fam.specs)
            for a in range(1, k + 1):
                for b in range(1, k + 1):
                    pf = pair_function(
                        spec_map[f"gamma{a}+"], spec_map[f"gamma{b}-"], fam.table, 8
                    )
                    assert pf.closed_form == (max(0, a + b - k), 0), (k, a, b)


class TestFamilies:
    def test_build_family_dispatch(self):
        assert build_family("r2", 2, 1).name == "r2"
        assert build_family("r3-split", 2, 0).name == "r3-split"
        assert build_family("r3-odd-k", 3).name == "r3-odd-k"
        assert build_family("r3-even-k", 4).name == "r3-even-k"
        with pytest.raises(ValueError):
            build_family("r3-odd-k", 2)
        with pytest.raises(ValueError):
            build_family("r3-even-k", 3)
        with pytest.raises(ValueError):
            build_family("nope", 1)

    def test_irrational_pairing_is_absent(self):
        fam = family_r3_mixed(3)
        with pytest.raises(PairingUndefined):
            pairing_of(fam.table, "eps0", "sqrt3_eps0")

    def test_middle_spec_is_not_constant(self):
        fam = family_r3_mixed(3)
        spec_map = dict(fam.specs)
        assert spec_map["gamma2"].even != spec_map["gamma2"].odd
        assert spec_map["gamma1"].even == spec_map["gamma1"].odd

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("family", ["r2", "r3-split", "r3-mixed"])
    def test_pair_exponents_are_the_gordon_matrices(self, family, k):
        """Entry (i, j) of the matrices of a family's pair exponents (p, s)
        and z powers, for specs i and j in build order, is the entry of the
        Gordon matrices its fermionic sum reads: (A2, 0) and A2 for r2,
        (A, 0) and A for r3-split, (A2, B3) and B = A2 + B3 for the mixed
        family."""
        if family == "r3-mixed":
            family = "r3-odd-k" if k % 2 else "r3-even-k"
            p, s, z = gordon_a2(k), gordon_b3(k), gordon_b(k)
        else:
            p = gordon_a2(k) if family == "r2" else gordon_a(k)
            s, z = [[0] * len(p)] * len(p), p
        fam = build_family(family, k)
        pfs = [[pair_function(a, b, fam.table, 0) for _, b in fam.specs] for _, a in fam.specs]
        assert [[pf.closed_form for pf in row] for row in pfs] == [
            list(zip(p_row, s_row)) for p_row, s_row in zip(p, s)
        ]
        assert [[pf.z_power for pf in row] for row in pfs] == z
