"""Pair functions: the contraction scalars of lattice vertex operator products.

Operators are described by 2-periodic sequences of lattice vectors (one
vector for even mode indices, one for odd) plus a zero-mode vector.  Vectors
are never stored in coordinates, only as rational combinations of named
generators whose pairwise inner products live in a PairingTable; this keeps
every computation exact even when a generator itself has irrational
coordinates.  The product of two operators contracts to the scalar

    g(z, w) = z^(<a_0, b^0>) * exp(-sum_{m>0} <a_m, b_{-m}>/m (w/z)^m),

which for 2-periodic data has the closed form (1-w/z)^p (1+w/z)^s with
p = (c_odd + c_even)/2 and s = (c_even - c_odd)/2.  ``pair_expansion`` does
not use that form: it expands the exponential by the three-term recurrence
its log-derivative gives, carried in integers, so the closed form is an
independent check.  It returns the pair function in integers: the z power
as a ratio, and each coefficient as a numerator over its scale d! D^d.
A PairingTable keeps every pairing as an integer over one common
denominator.  A pair function reads up to three pairings, <a_even, b_even>,
<a_odd, b_odd> and <a_even, b_zero>; where a spec's vectors are equal dicts
the odd pairing or the z power is the even pairing, and is not taken
again.  Every r2 and r3-split spec is constant, so its pair functions take
one pairing; every spec of the mixed families has its even vector as its
zero mode, so theirs take at most two.

For specs i and j of a built-in family, in build order, (p, s) is entry
(i, j) of the Gordon matrices its fermionic sum reads: (A2, 0) for r2,
(A, 0) for r3-split, (A2, B3) for the mixed family; the z power is p + s.
``verify pair-functions`` takes its expected exponents from ``fermionic``
and compares them with ``pair_expansion`` in integers: h_d = c_d d! D^d for
every closed-form coefficient c_d.

``Fraction`` is built in two places only: ``pair_function``, the Fraction
view of ``pair_expansion`` that ``pairs`` prints, and ``_over_lcd``, which
reads a pairing or coefficient that is not an int at its exact Fraction
value.  A pairing sums int coefficients in one integer pass and reaches
``_over_lcd`` only when a coefficient is not an int, so the built-in
families, whose coefficients are all ints, never do.  Each imports
``fractions`` inside the function, as only ``pairs`` reaches them on the
built-in families: ``fractions`` imports ``decimal`` and ``re``, which every
other command would load for nothing.
"""

from __future__ import annotations

from math import comb, gcd, lcm

from .configurations import CapacityError, _Record, _ValueRecord, validate_b, validate_k

# The most terms the pair functions of one request may sum, counted before
# any family or pair function is built.  The count charges each pair
# trunc (trunc + 1) / 2 terms for its expansion and at most 3 k^2 generator
# products for its three pairings: no spec of a level-k family has more than
# k generators.  The recurrence takes trunc steps, but its integers
# d! D^d g_d gain Theta(log d) bits a step, so the work is quadratic in
# trunc (r2 at k = 1: 1.7, 4.7, 15.3 and 55.5 ms at orders 700, 1413, 2826
# and 5652, Python 3.11.7) and a count linear in trunc would under-charge.
MAX_PAIR_TERMS = 10**6


class PairingUndefined(KeyError):
    """No pairing stored for a generator pair (for instance an irrational one)."""


def _over_lcd(items) -> tuple[list, int]:
    """The values of (key, value) pairs as integer numerators over their
    least common denominator: ([(key, numerator), ...], denominator).

    An int is its own numerator; any other value is read at its exact
    Fraction value, a float included.
    """
    for _, value in items:
        if type(value) is not int:
            break
    else:
        return items, 1
    from fractions import Fraction

    exact = [(key, Fraction(value)) for key, value in items]
    den = lcm(*(value.denominator for _, value in exact))
    return [(key, value.numerator * (den // value.denominator)) for key, value in exact], den


class PairingTable:
    """Symmetric table of rational inner products of named generators, kept
    as integer numerators over one common denominator, so that ``_ratio``
    sums integer products."""

    def __init__(self, pairings: dict):
        # A stored 0 is a defined pairing, so zeros are kept; two entries
        # for one pair share the denominator and must share the numerator.
        nums, den = _over_lcd(list(pairings.items()))
        rows: dict = {}
        for (g, h), num in nums:
            if rows.setdefault(g, {}).setdefault(h, num) != num:
                raise ValueError(f"conflicting pairings for {(g, h) if g <= h else (h, g)}")
            rows.setdefault(h, {})[g] = num
        self._rows = rows
        self._den = den

    def _ratio(self, u: dict, v: dict) -> tuple[int, int]:
        """<u, v> in lowest terms as (numerator, positive denominator).

        One pass sums cu cv <g, h> over the nonzero coefficients as they
        are; a zero coefficient's pairing is never looked up.  If the sum is
        not an int, some coefficient was not one: the sum is taken again
        with every coefficient read at its exact Fraction value by
        ``_over_lcd``, so a float or Fraction costs a second pass and an int
        none."""
        total = self._sum(u.items(), v.items())
        den = self._den
        if type(total) is not int:
            u_terms, u_den = _over_lcd(list(u.items()))
            v_terms, v_den = _over_lcd(list(v.items()))
            total = self._sum(u_terms, v_terms)
            den *= u_den * v_den
        common = gcd(total, den)
        return total // common, den // common

    def _sum(self, u_terms, v_terms):
        """sum cu cv row[g][h] over the nonzero (g, cu) and (h, cv)."""
        rows = self._rows
        total = 0
        for g, cu in u_terms:
            if cu:
                row = rows.get(g, {})
                for h, cv in v_terms:
                    if cv:
                        try:
                            total += cu * cv * row[h]
                        except KeyError:
                            raise PairingUndefined(f"pairing <{g}, {h}> is not defined") from None
        return total


def _vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for g, c in v.items():
        out[g] = out.get(g, 0) + c
        if not out[g]:
            del out[g]
    return out


class VOSpec(_Record):
    """A 2-periodic operator spec: mode vectors by parity plus a zero mode.

    even applies to all even mode indices including 0, odd to all odd ones;
    a constant spec has even == odd.  Every sequence used here is of this
    form, so the representation is lossless.
    """

    __slots__ = ("even", "odd", "zero_mode")

    @classmethod
    def constant(cls, vec: dict) -> "VOSpec":
        return cls(dict(vec), dict(vec), dict(vec))


class PairFunction(_ValueRecord):
    """Expansion of one contraction scalar.

    z_power is the leading power of z; coeffs[d] is the coefficient of
    (w/z)^d; closed_form is (p, s) for (1-w/z)^p (1+w/z)^s when both
    exponents are non-negative integers, else None.
    """

    __slots__ = ("z_power", "coeffs", "closed_form")


def _check_order(trunc: int) -> None:
    if trunc < 0:
        raise ValueError(f"truncation order must be non-negative, got {trunc}")


def _check_pair_terms(pairs: int, k: int, trunc: int) -> None:
    """Check k and trunc, then refuse (CapacityError) that many pair
    functions of a level-k family to order trunc if they sum more than
    MAX_PAIR_TERMS terms."""
    validate_k(k)
    _check_order(trunc)
    terms = pairs * (trunc * (trunc + 1) // 2 + 3 * k * k)
    if terms > MAX_PAIR_TERMS:
        raise CapacityError(
            f"{pairs} pair functions of level {k} to order {trunc} sum up to {terms} terms, "
            f"over the limit of {MAX_PAIR_TERMS}"
        )


def pair_expansion(a: VOSpec, b: VOSpec, table: PairingTable, trunc: int) -> tuple:
    """The pair function of two operator specs in integers, to order trunc
    in w/z: (z_power, numerators, scales, closed_form).

    z_power is the z power as (numerator, positive denominator) in lowest
    terms; the coefficient of (w/z)^d is numerators[d] / scales[d]; and
    closed_form is as in PairFunction.

    The expansion g = exp(-sum c_m x^m/m) has g'/g = -(c_odd + c_even x)/(1 - x^2),
    so (d + 1) g_{d+1} = -c_odd g_d + (d - 1 - c_even) g_{d-1}.  With D the
    least common denominator of c_odd and c_even, A = c_odd D and E = c_even D,
    the integers h_d = d! D^d g_d obey
    h_{d+1} = -A h_d + (D (d - 1) - E) D d h_{d-1}: the numerators are h_d
    and the scales d! D^d.

    c_even = <a_even, b_even> is always taken.  c_odd = <a_odd, b_odd> is
    c_even when a.odd == a.even and b.odd == b.even, and the z power
    <a_even, b_zero> is c_even when b.zero_mode == b.even: equal dicts hold
    equal exact values, so these pairings are implied and not taken again.
    """
    _check_order(trunc)
    even = table._ratio(a.even, b.even)
    odd = even if a.odd == a.even and b.odd == b.even else table._ratio(a.odd, b.odd)
    z_power = even if b.zero_mode == b.even else table._ratio(a.even, b.zero_mode)
    even_num, even_den = even
    odd_num, odd_den = odd
    D = lcm(even_den, odd_den)
    A = odd_num * (D // odd_den)
    E = even_num * (D // even_den)
    # p = (c_odd + c_even)/2 and s = (c_even - c_odd)/2
    closed = None
    p, p_rem = divmod(A + E, 2 * D)
    s, s_rem = divmod(E - A, 2 * D)
    if not p_rem and not s_rem and p >= 0 and s >= 0:
        closed = (p, s)
    numerators, scales = [1], [1]
    h_prev, h, scale = 0, 1, 1
    for d in range(trunc):
        h_prev, h = h, -A * h + (D * (d - 1) - E) * D * d * h_prev
        scale *= (d + 1) * D
        numerators.append(h)
        scales.append(scale)
    return z_power, numerators, scales, closed


def pair_function(a: VOSpec, b: VOSpec, table: PairingTable, trunc: int) -> PairFunction:
    """Contraction scalar of two operator specs, to order trunc in w/z: the
    Fraction view of ``pair_expansion``."""
    from fractions import Fraction

    z_power, numerators, scales, closed = pair_expansion(a, b, table, trunc)
    coeffs = tuple(map(Fraction, numerators, scales))
    return PairFunction(Fraction(*z_power), coeffs, closed)


def _closed_form_coefficients(p: int, s: int, trunc: int) -> list[int]:
    """Integer coefficients of (1 - x)^p (1 + x)^s through order trunc."""
    out = [0] * (trunc + 1)
    for i in range(min(p, trunc) + 1):
        ci = comb(p, i) * (-1) ** i
        for j in range(min(s, trunc - i) + 1):
            out[i + j] += ci * comb(s, j)
    return out


# ---------------------------------------------------------------------------
# Built-in spec families

class VOFamily(_Record):
    """A named collection of operator specs sharing one pairing table."""

    __slots__ = ("name", "table", "specs")


def _running_sums(bases: list, suffix: str = "") -> tuple:
    """The named specs gamma{a}{suffix} = bases[0] + ... + bases[a - 1],
    field by field, for a = 1..len(bases)."""
    specs = []
    acc = VOSpec({}, {}, {})
    for a, base in enumerate(bases, 1):
        acc = VOSpec(
            _vec_add(acc.even, base.even),
            _vec_add(acc.odd, base.odd),
            _vec_add(acc.zero_mode, base.zero_mode),
        )
        specs.append((f"gamma{a}{suffix}", acc))
    return tuple(specs)


def family_r2(k: int) -> VOFamily:
    """Constant specs gamma_a = eps_1 + ... + eps_a over an orthogonal norm-2
    basis."""
    validate_k(k)
    pairings = {}
    for a in range(1, k + 1):
        for b in range(a, k + 1):
            pairings[(f"eps{a}", f"eps{b}")] = 2 if a == b else 0
    bases = [VOSpec.constant({f"eps{a}": 1}) for a in range(1, k + 1)]
    return VOFamily("r2", PairingTable(pairings), _running_sums(bases))


def _paired_block_pairings(n: int) -> dict:
    """Pairings of the paired blocks eps{j}+, eps{j}- for j = 1..n: norm 2,
    1 between the two halves of a block, 0 across blocks."""
    pairings = {}
    for j in range(1, n + 1):
        pairings[(f"eps{j}+", f"eps{j}+")] = 2
        pairings[(f"eps{j}-", f"eps{j}-")] = 2
        pairings[(f"eps{j}+", f"eps{j}-")] = 1
        for j2 in range(j + 1, n + 1):
            for s1 in "+-":
                for s2 in "+-":
                    pairings[(f"eps{j}{s1}", f"eps{j2}{s2}")] = 0
    return pairings


def family_r3_split(k: int) -> VOFamily:
    """Two constant families gamma_a^+ and gamma_a^- over paired 2-dimensional
    blocks; the minus family accumulates generators from the top index down."""
    validate_k(k)
    plus = [VOSpec.constant({f"eps{j}+": 1}) for j in range(1, k + 1)]
    minus = [VOSpec.constant({f"eps{j}-": 1}) for j in range(k, 0, -1)]
    specs = _running_sums(plus, "+") + _running_sums(minus, "-")
    return VOFamily("r3-split", PairingTable(_paired_block_pairings(k)), specs)


def family_r3_mixed(k: int) -> VOFamily:
    """The mixed-current family: alternating-sign specs on paired blocks and,
    for odd k, a middle spec whose even modes use the norm-3 composite
    generator.  The irrational cross pairing of the two middle generators is
    deliberately absent from the table."""
    validate_k(k)
    half = k // 2
    pairings = _paired_block_pairings(half)
    bases = [VOSpec.constant({f"eps{j}+": 1}) for j in range(1, half + 1)]
    if k % 2:
        pairings[("eps0", "eps0")] = 1
        pairings[("sqrt3_eps0", "sqrt3_eps0")] = 3
        for j in range(1, half + 1):
            for s in "+-":
                pairings[(f"eps{j}{s}", "eps0")] = 0
                pairings[(f"eps{j}{s}", "sqrt3_eps0")] = 0
        bases.append(VOSpec({"sqrt3_eps0": 1}, {"eps0": 1}, {"sqrt3_eps0": 1}))
    bases += [
        VOSpec({f"eps{j}-": 1}, {f"eps{j}-": -1}, {f"eps{j}-": 1}) for j in range(half, 0, -1)
    ]
    name = "r3-odd-k" if k % 2 else "r3-even-k"
    return VOFamily(name, PairingTable(pairings), _running_sums(bases))


def build_family(name: str, k: int, b0: int = 0) -> VOFamily:
    """Dispatch on the CLI family names.

    b0 is checked against [0, k] for every family and read by none: no
    spec vector pairs with a boundary vector.
    """
    validate_b(k, 2, (b0,))
    if name == "r2":
        return family_r2(k)
    if name == "r3-split":
        return family_r3_split(k)
    if name == "r3-odd-k":
        if k % 2 == 0:
            raise ValueError("r3-odd-k requires odd k")
        return family_r3_mixed(k)
    if name == "r3-even-k":
        if k % 2:
            raise ValueError("r3-even-k requires even k")
        return family_r3_mixed(k)
    raise ValueError(f"unknown family: {name}")
