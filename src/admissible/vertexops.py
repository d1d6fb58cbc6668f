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
denominator.

For specs i and j of a built-in family, in build order, (p, s) is entry
(i, j) of the Gordon matrices its fermionic sum reads: (A2, 0) for r2,
(A, 0) for r3-split, (A2, B3) for the mixed family; the z power is p + s.
``verify pair-functions`` takes its expected exponents from ``fermionic``
and compares them with ``pair_expansion`` in integers: h_d = c_d d! D^d for
every closed-form coefficient c_d.

``Fraction`` is built only where a value is returned as one:
``pair_function``, ``closed_form_series`` and ``PairingTable.pairing`` are
the Fraction views of the integer routines, and a PairingTable given a value
that is not an int reads it through Fraction.  Each imports ``fractions``
inside the function, as only ``pairs`` reaches them on the built-in
families: ``fractions`` imports ``decimal`` and ``re``, which every other
command would load for nothing.
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


def _scaled(vec: dict) -> tuple[list, int]:
    """The nonzero coefficients of vec as integer numerators over their
    common denominator: ([(generator, numerator), ...], denominator).

    A coefficient that is not an int is taken at its exact Fraction value,
    a float included.
    """
    terms = [(g, c) for g, c in vec.items() if c]
    for _, c in terms:
        if type(c) is not int:
            break
    else:
        return terms, 1
    from fractions import Fraction

    exact = [(g, Fraction(c)) for g, c in vec.items() if c]
    den = lcm(*(c.denominator for _, c in exact))
    return [(g, c.numerator * (den // c.denominator)) for g, c in exact], den


class PairingTable:
    """Symmetric table of rational inner products of named generators, kept
    as integer numerators over one common denominator: ``_ratio`` sums
    integer products, and ``pairing`` builds a single Fraction of it."""

    def __init__(self, pairings: dict):
        # An int is its own numerator over denominator 1; any other value is
        # read at its exact Fraction value.
        if all(type(value) is int for value in pairings.values()):
            exact = pairings
        else:
            from fractions import Fraction

            exact = {pair: Fraction(value) for pair, value in pairings.items()}
        table = {}
        for (g, h), value in exact.items():
            key = (g, h) if g <= h else (h, g)
            if key in table and table[key] != value:
                raise ValueError(f"conflicting pairings for {key}")
            table[key] = value
        den = lcm(*(value.denominator for value in table.values()))
        rows: dict = {}
        for (g, h), value in table.items():
            num = value.numerator * (den // value.denominator)
            rows.setdefault(g, {})[h] = num
            rows.setdefault(h, {})[g] = num
        self._rows = rows
        self._den = den

    def pairing_of(self, g: str, h: str) -> Fraction:
        return self.pairing({g: 1}, {h: 1})

    def _ratio(self, u: dict, v: dict) -> tuple[int, int]:
        """<u, v> in lowest terms as (numerator, positive denominator)."""
        u_terms, u_den = _scaled(u)
        v_terms, v_den = _scaled(v)
        rows = self._rows
        total = 0
        for g, cu in u_terms:
            row = rows.get(g, {})
            for h, cv in v_terms:
                try:
                    total += cu * cv * row[h]
                except KeyError:
                    raise PairingUndefined(f"pairing <{g}, {h}> is not defined") from None
        den = u_den * v_den * self._den
        common = gcd(total, den)
        return total // common, den // common

    def pairing(self, u: dict, v: dict) -> Fraction:
        """Bilinear extension to sparse rational combinations of generators."""
        from fractions import Fraction

        return Fraction(*self._ratio(u, v))


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
    """
    _check_order(trunc)
    even_num, even_den = table._ratio(a.even, b.even)
    odd_num, odd_den = table._ratio(a.odd, b.odd)
    z_power = table._ratio(a.even, b.zero_mode)
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


def closed_form_series(p: int, s: int, trunc: int) -> list[Fraction]:
    """Coefficients of (1 - x)^p (1 + x)^s through order trunc, as Fractions."""
    from fractions import Fraction

    _check_order(trunc)
    return [Fraction(c) for c in _closed_form_coefficients(p, s, trunc)]


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
