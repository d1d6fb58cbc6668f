"""Pair functions: the contraction scalars of lattice vertex operator products.

Operators are described by 2-periodic sequences of lattice vectors (one
vector for even mode indices, one for odd) plus a zero-mode vector.  Vectors
are never stored in coordinates, only as rational combinations of named
generators whose pairwise inner products live in a PairingTable; this keeps
every computation exact even when a generator itself has irrational
coordinates.  The product of two operators contracts to the scalar

    g(z, w) = z^(<a_0, b^0>) * exp(-sum_{m>0} <a_m, b_{-m}>/m (w/z)^m),

which for 2-periodic data has the closed form (1-w/z)^p (1+w/z)^s with
p = (c_odd + c_even)/2 and s = (c_even - c_odd)/2.

For specs i and j of a built-in family, in build order, (p, s) is entry
(i, j) of the Gordon matrices its fermionic sum reads: (A2, 0) for r2,
(A, 0) for r3-split, (A2, B3) for the mixed family; the z power is p + s.
``verify pair-functions`` takes its expected exponents from ``fermionic``.

``Fraction`` is imported inside the functions that build one: only ``pairs``
and ``verify pair-functions`` reach them, and ``fractions`` imports
``decimal`` and ``re``, which every other command would load for nothing.
"""

from __future__ import annotations

from math import comb

from .configurations import CapacityError, _Record, _ValueRecord, validate_b, validate_k

# The most terms the pair functions of one request may sum, counted before
# any family or pair function is built.  A pair sums trunc (trunc + 1) / 2
# series terms and at most 3 k^2 generator products in its three pairings:
# no spec of a level-k family has more than k generators.
MAX_PAIR_TERMS = 10**6


class PairingUndefined(KeyError):
    """No pairing stored for a generator pair (for instance an irrational one)."""


class PairingTable:
    """Symmetric table of rational inner products of named generators."""

    def __init__(self, pairings: dict):
        from fractions import Fraction

        table = {}
        for (g, h), value in pairings.items():
            value = Fraction(value)
            key = (g, h) if g <= h else (h, g)
            if key in table and table[key] != value:
                raise ValueError(f"conflicting pairings for {key}")
            table[key] = value
        self._table = table

    def pairing_of(self, g: str, h: str) -> Fraction:
        key = (g, h) if g <= h else (h, g)
        try:
            return self._table[key]
        except KeyError:
            raise PairingUndefined(f"pairing <{g}, {h}> is not defined") from None

    def pairing(self, u: dict, v: dict) -> Fraction:
        """Bilinear extension to sparse rational combinations of generators."""
        from fractions import Fraction

        total = Fraction(0)
        for g, cu in u.items():
            if not cu:
                continue
            for h, cv in v.items():
                if cv:
                    total += Fraction(cu) * Fraction(cv) * self.pairing_of(g, h)
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


def pair_function(a: VOSpec, b: VOSpec, table: PairingTable, trunc: int) -> PairFunction:
    """Contraction scalar of two operator specs, to order trunc in w/z."""
    from fractions import Fraction

    _check_order(trunc)
    c_even = table.pairing(a.even, b.even)
    c_odd = table.pairing(a.odd, b.odd)
    z_power = table.pairing(a.even, b.zero_mode)
    # exp(sum L_m x^m) with L_m = -c_m/m via the log-derivative recurrence
    coeffs = [Fraction(1)]
    for d in range(1, trunc + 1):
        acc = Fraction(0)
        for j in range(1, d + 1):
            c_j = c_odd if j % 2 else c_even
            acc -= c_j * coeffs[d - j]
        coeffs.append(acc / d)
    p = (c_odd + c_even) / 2
    s = (c_even - c_odd) / 2
    closed = None
    if p.denominator == 1 and s.denominator == 1 and p >= 0 and s >= 0:
        closed = (int(p), int(s))
    return PairFunction(z_power, tuple(coeffs), closed)


def closed_form_series(p: int, s: int, trunc: int) -> list[Fraction]:
    """Coefficients of (1 - x)^p (1 + x)^s through order trunc."""
    from fractions import Fraction

    _check_order(trunc)
    out = [Fraction(0)] * (trunc + 1)
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


def family_r2(k: int) -> VOFamily:
    """Constant specs gamma_a = eps_1 + ... + eps_a over an orthogonal norm-2
    basis."""
    validate_k(k)
    pairings = {}
    for a in range(1, k + 1):
        for b in range(a, k + 1):
            pairings[(f"eps{a}", f"eps{b}")] = 2 if a == b else 0
    table = PairingTable(pairings)
    specs = tuple(
        (f"gamma{a}", VOSpec.constant({f"eps{j}": 1 for j in range(1, a + 1)}))
        for a in range(1, k + 1)
    )
    return VOFamily("r2", table, specs)


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
    table = PairingTable(_paired_block_pairings(k))
    plus = tuple(
        (f"gamma{a}+", VOSpec.constant({f"eps{j}+": 1 for j in range(1, a + 1)}))
        for a in range(1, k + 1)
    )
    minus = tuple(
        (
            f"gamma{a}-",
            VOSpec.constant({f"eps{k + 1 - j}-": 1 for j in range(1, a + 1)}),
        )
        for a in range(1, k + 1)
    )
    return VOFamily("r3-split", table, plus + minus)


def family_r3_mixed(k: int) -> VOFamily:
    """The mixed-current family: alternating-sign specs on paired blocks and,
    for odd k, a middle spec whose even modes use the norm-3 composite
    generator.  The irrational cross pairing of the two middle generators is
    deliberately absent from the table."""
    validate_k(k)
    half = k // 2
    pairings = _paired_block_pairings(half)
    if k % 2:
        pairings[("eps0", "eps0")] = 1
        pairings[("sqrt3_eps0", "sqrt3_eps0")] = 3
        for j in range(1, half + 1):
            for s in "+-":
                pairings[(f"eps{j}{s}", "eps0")] = 0
                pairings[(f"eps{j}{s}", "sqrt3_eps0")] = 0
    table = PairingTable(pairings)

    def base_spec(a: int) -> VOSpec:
        if a <= half:
            vec = {f"eps{a}+": 1}
            return VOSpec(even=vec, odd=dict(vec), zero_mode=dict(vec))
        if k % 2 and a == half + 1:
            return VOSpec(
                even={"sqrt3_eps0": 1},
                odd={"eps0": 1},
                zero_mode={"sqrt3_eps0": 1},
            )
        j = k - a + 1
        vec = {f"eps{j}-": 1}
        return VOSpec(even=dict(vec), odd={f"eps{j}-": -1}, zero_mode=dict(vec))

    specs = []
    even_acc: dict = {}
    odd_acc: dict = {}
    zero_acc: dict = {}
    for a in range(1, k + 1):
        base = base_spec(a)
        even_acc = _vec_add(even_acc, base.even)
        odd_acc = _vec_add(odd_acc, base.odd)
        zero_acc = _vec_add(zero_acc, base.zero_mode)
        specs.append(
            (f"gamma{a}", VOSpec(dict(even_acc), dict(odd_acc), dict(zero_acc)))
        )
    name = "r3-odd-k" if k % 2 else "r3-even-k"
    return VOFamily(name, table, tuple(specs))


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
