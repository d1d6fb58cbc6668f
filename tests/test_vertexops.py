from fractions import Fraction

import pytest

from admissible.fermionic import gordon_a, gordon_a2, gordon_b, gordon_b3
from admissible.vertexops import (
    PairingTable,
    PairingUndefined,
    VOSpec,
    build_family,
    closed_form_series,
    family_r3_mixed,
    family_r3_split,
    pair_function,
)


class TestPairingTable:
    def test_symmetric_lookup(self):
        t = PairingTable({("a", "b"): 3})
        assert t.pairing_of("b", "a") == 3

    def test_missing_pairing_raises_with_names(self):
        t = PairingTable({("a", "a"): 1})
        with pytest.raises(PairingUndefined, match="a, b"):
            t.pairing({"a": 1}, {"b": 1})

    def test_bilinear(self):
        t = PairingTable({("a", "a"): 2, ("b", "b"): 2, ("a", "b"): 1})
        u = {"a": 1, "b": -1}
        assert t.pairing(u, u) == 2  # 2 + 2 - 2*1

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError):
            PairingTable({("a", "b"): 1, ("b", "a"): 2})


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
        with pytest.raises(ValueError, match="non-negative"):
            closed_form_series(2, 0, -1)

    def test_half_integer_exponents_have_no_closed_form(self):
        t = PairingTable({("a", "a"): 2, ("d", "d"): 1, ("a", "d"): 0})
        spec = VOSpec(even={"a": 1}, odd={"d": 1}, zero_mode={"a": 1})
        pf = pair_function(spec, spec, t, 4)
        assert pf.closed_form is None
        # series still produced: exp(-2x^2/2 - x/1 - ...) has rational coefficients
        assert pf.coeffs[0] == 1
        assert pf.coeffs[1] == -1

    def test_values_stay_fractions(self):
        # Fraction is imported inside the functions; their values must still be Fractions.
        t = PairingTable({("a", "a"): 2, ("d", "d"): 1, ("a", "d"): 0})
        spec = VOSpec(even={"a": 1}, odd={"d": 1}, zero_mode={"a": 1})
        assert type(t.pairing({"a": 1}, {"a": 1, "d": 3})) is Fraction
        pf = pair_function(spec, spec, t, 4)
        assert type(pf.z_power) is Fraction
        assert [type(c) for c in pf.coeffs] == [Fraction] * 5
        assert [type(c) for c in closed_form_series(2, 1, 5)] == [Fraction] * 6

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
            fam.table.pairing_of("eps0", "sqrt3_eps0")

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
