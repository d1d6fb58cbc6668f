"""Brute-force references that the tests check the package against.

No command runs these: ``enumerate_configs`` and ``is_admissible`` walk and
test configurations one at a time, the slow side of ``character_direct``;
``_multiplicity_vectors`` lists the multiplicity vectors of a given weighted
total, the slow side of the fermionic walk and of
``level_restricted_partitions``.  A configuration is its entry tuple
(a_0, a_1, ..., a_l), ending at its last nonzero entry; the empty
configuration is ().  ``_basis`` and ``_condition_rows`` build the oracle's
matrices column by column over the full basis, and ``_kept_basis`` drops the
columns the t^0 terms of the conditions delete: the slow side of the block
builder in ``graded_dimension``.  ``oracle_block_alone`` builds one oracle
block at its own b, in build order, the slow side of the nesting in
``oracle_blocks``.  ``_substitute_monomial`` expands a monomial under a
pattern into a map (t exponent, free partition tuple) -> coefficient, the
slow side of the integer-coded walk ``polyspaces._image_codes``; and
``_substitute_by_splits`` expands it under a signed pattern one (t, -t)
split at a time, the slow side of their closed-form count.
``partitions_by_recursion`` lists the partitions of d into at most
max_parts parts depth first, the slow side of ``partitions_max_parts``,
and ``weight_degree_by_pairs`` sums the weight exponents one pair of
variables at a time, the slow side of ``weight_degree``.
``_divide_by_one_minus`` and ``_pochhammer_inverse_coeffs`` divide dense
q-lists one cell at a time, the slow side of the packed kernel in
``series`` (``_add_shifted``, ``_divide``, ``_unpack``), and
``partition_numbers`` computes p(0), ..., p(n) exactly by Euler's
pentagonal recurrence, the reference for the width table ``series._width``
reads.
``closed_form_series``, ``pairing`` and ``pairing_of`` are the ``Fraction``
values the integer vertex-operator routines stand for: the closed-form
coefficients, and a PairingTable's bilinear pairing and stored entries.
"""

from fractions import Fraction
from itertools import groupby
from math import comb, factorial

from admissible.configurations import validate_b, validate_window
from admissible.polyspaces import (
    VanishingSpec,
    _signed_count,
    graded_dimension,
    partitions_max_parts,
    regrade_pair_sectors,
    vanishing_spec_r2,
    vanishing_spec_r3_pair,
)
from admissible.vertexops import _closed_form_coefficients


def closed_form_series(p: int, s: int, trunc: int) -> list[Fraction]:
    """Coefficients of (1 - x)^p (1 + x)^s through order trunc, as Fractions."""
    return [Fraction(c) for c in _closed_form_coefficients(p, s, trunc)]


def pairing(table, u: dict, v: dict) -> Fraction:
    """<u, v> under a PairingTable, extended bilinearly to sparse rational
    combinations of generators."""
    return Fraction(*table._ratio(u, v))


def pairing_of(table, g: str, h: str) -> Fraction:
    """The table's pairing of generators g and h."""
    return pairing(table, {g: 1}, {h: 1})


def _pochhammer_inverse_coeffs(ms, step: int, q_order: int) -> list[int]:
    """Dense coefficients of prod_i 1/(q^step; q^step)_{ms[i]} through q^q_order."""
    out = [1] + [0] * q_order
    for m in ms:
        for j in range(1, min(m, q_order // step) + 1):
            _divide_by_one_minus(out, step * j)
    return out


def _divide_by_one_minus(coeffs: list[int], stride: int) -> None:
    """Divide the dense q-list by (1 - q^stride) in place, keeping its length.

    1/(1 - q^stride) is the geometric series in q^stride; multiplying by it
    in increasing degree is coeffs[d] += coeffs[d - stride].
    """
    for d in range(stride, len(coeffs)):
        lower = coeffs[d - stride]
        if lower:
            coeffs[d] += lower


def partition_numbers(n: int) -> list[int]:
    """p(0), ..., p(n), by Euler's pentagonal recurrence (Andrews, The
    Theory of Partitions, ch. 1): p(i) is the sum over j >= 1 of
    (-1)^(j+1) (p(i - j(3j-1)/2) + p(i - j(3j+1)/2)), with p of a negative
    argument 0."""
    p = [1] + [0] * n
    for i in range(1, n + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= i:
            sign = 1 if j % 2 else -1
            total += sign * p[i - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= i:
                total += sign * p[i - j * (3 * j + 1) // 2]
            j += 1
        p[i] = total
    return p


def is_admissible(a, k: int, r: int, b) -> bool:
    """True iff the vector satisfies all window-sum and initial constraints."""
    b = validate_b(k, r, b)
    a = tuple(int(x) for x in a)
    if any(x < 0 or x > k for x in a):
        return False
    padded = a + (0,) * r
    for i in range(len(a)):
        if sum(padded[i : i + r]) > k:
            return False
    prefix = 0
    for t in range(r - 1):
        prefix += padded[t]
        if prefix > b[t]:
            return False
    return True


def enumerate_configs(k: int, r: int, b, q_max: int, z_max: int):
    """Every admissible configuration with q-degree <= q_max and z-degree <= z_max.

    Each configuration is yielded as its entry tuple, exactly once, in
    lexicographic order on the entry vectors, by a depth-first search.  Each
    step appends the next nonzero entry; positions are tried from high to low
    so that the overall yield order is lexicographic on the (zero-padded)
    vectors.  Window sums are enforced on the window ending at each placed
    position, which covers every window once all entries are placed.
    """
    b = validate_b(k, r, b)
    validate_window(q_max, z_max)
    stack = [((), 0, 0, 0)]
    while stack:
        acc, start, qdeg, zdeg = stack.pop()
        yield acc
        if zdeg >= z_max:
            continue
        children = []
        for j in range(q_max, start - 1, -1):
            if j > 0 and qdeg + j > q_max:
                continue
            lo = max(0, j - r + 1)
            window = sum(acc[lo : min(j, len(acc))])
            vmax = k - window
            if j > 0:
                vmax = min(vmax, (q_max - qdeg) // j)
            vmax = min(vmax, z_max - zdeg)
            for v in range(1, vmax + 1):
                if j <= r - 2:
                    prefix = sum(acc[:j]) + v
                    if any(prefix > b[t] for t in range(j, r - 1)):
                        break
                child = acc + (0,) * (j - len(acc)) + (v,)
                children.append((child, j + 1, qdeg + j * v, zdeg + v))
        # LIFO stack: push in reverse so children come out in generation order
        stack.extend(reversed(children))


def _multiplicity_vectors(weights, total):
    """All non-negative integer vectors m with sum(weights[i]*m[i]) = total."""
    yield from _vectors_after(weights, 0, total, ())


def _vectors_after(weights, i, remaining, prefix):
    """prefix + t for each vector t with sum(weights[i+j]*t[j]) = remaining."""
    if i == len(weights):
        if remaining == 0:
            yield prefix
        return
    w = weights[i]
    if i == len(weights) - 1:
        if remaining % w == 0:
            yield prefix + (remaining // w,)
        return
    for v in range(remaining // w + 1):
        yield from _vectors_after(weights, i + 1, remaining - v * w, prefix + (v,))


def _basis(spec: VanishingSpec, degree: int):
    if len(spec.family_sizes) == 1:
        return [(rho,) for rho in partitions_max_parts(degree, spec.family_sizes[0])]
    l1, l2 = spec.family_sizes
    out = []
    for d1 in range(degree + 1):
        seconds = partitions_max_parts(degree - d1, l2)
        for rho1 in partitions_max_parts(d1, l1):
            out.extend((rho1, rho2) for rho2 in seconds)
    return out


def _kept_basis(spec: VanishingSpec, degree: int):
    """_basis(spec, degree) less what the t^0 terms of the conditions delete.

    At t = 0 a condition (p, m, z) is the zero condition (0, 0, p + m + z),
    which sends m_rho to itself when len(rho_f) <= n_f - p_f - m_f - z_f in
    every family f, and to 0 otherwise; the basis elements it keeps are
    deleted.  A zero condition is its own t^0 term.
    """
    return [
        elem for elem in _basis(spec, degree)
        if not any(
            all(len(rho) <= n - p - m - z
                for rho, n, (p, m, z) in zip(elem, spec.family_sizes, cond))
            for cond in spec.conditions
        )
    ]


def _condition_rows(spec: VanishingSpec, cond, basis) -> list[dict[int, int]]:
    """One sparse row {column: value} per surviving monomial of the images.

    Columns index basis; each row holds no zeros and its columns ascend.
    All of basis has one degree d, and the t exponent of a term is d less
    the sizes of its free partitions, so two-family rows are keyed by the
    free partitions alone; distinct pairs of terms give distinct keys, and
    their products are nonzero.
    """
    rows_by_key: dict[tuple, dict[int, int]] = {}
    if len(spec.family_sizes) == 1:
        (n,), (pattern,) = spec.family_sizes, cond
        for ci, (rho,) in enumerate(basis):
            for term, c in _substitute_monomial(rho, n, pattern).items():
                row = rows_by_key.get(term)
                if row is None:
                    row = rows_by_key[term] = {}
                row[ci] = c
        return list(rows_by_key.values())
    (n1, n2), (pattern1, pattern2) = spec.family_sizes, cond
    for ci, (rho1, rho2) in enumerate(basis):
        second = _substitute_monomial(rho2, n2, pattern2).items()
        for (_, sigma1), c1 in _substitute_monomial(rho1, n1, pattern1).items():
            for (_, sigma2), c2 in second:
                row = rows_by_key.get((sigma1, sigma2))
                if row is None:
                    row = rows_by_key[sigma1, sigma2] = {}
                row[ci] = c1 * c2
    return list(rows_by_key.values())


def oracle_block_alone(k: int, r: int, b, q_order: int, n: int) -> list[int]:
    """The z^n block of the rank-r oracle character at b, each space built
    at b itself and ranked with its columns in build order
    (graded_dimension): no column is cut by a b0 of another space."""
    if r == 2:
        return graded_dimension(vanishing_spec_r2(n, k, *b, q_order))
    sectors = [
        graded_dimension(vanishing_spec_r3_pair(n - l2, l2, k, *b, (q_order - l2) // 2))
        for l2 in range(min(n, q_order) + 1)
    ]
    return regrade_pair_sectors(sectors, q_order)


def _substitute_by_splits(rho, n, pattern):
    """_substitute_monomial(rho, n, pattern), one (c, d) split at a time.

    The walk runs over the distinct nonzero values v of rho, largest first,
    each with its multiplicity a: c copies of v go to the t slots and d to
    the -t slots, in comb(p_left, c) * comb(m_left, d) ways and with sign
    (-1)^(v d); the other a - c - d copies extend the free partition.  The
    zeros of rho close the walk: z of them fill the zero slots and the
    remaining t and -t slots, so a state with more slots left than free
    zeros is dropped.

    With no -t slot (a plain diagonal) d is always 0, so the free partition
    records every c: distinct walks give distinct keys and nothing merges.
    """
    p_cnt, m_cnt, z_cnt = pattern
    free_zeros = n - len(rho) - z_cnt
    if free_zeros < 0:
        return {}  # a positive exponent would land on a zero slot
    unwalked = len(rho)
    if not m_cnt:
        # (p_left, t_exponent, free_partition, coefficient)
        plain = [(p_cnt, 0, (), 1)]
        for v, group in groupby(rho):
            a = len(list(group))
            unwalked -= a
            capacity = unwalked + free_zeros
            plain = [
                (p_left - c, t_exp + v * c, sigma + (v,) * (a - c), coeff * comb(p_left, c))
                for p_left, t_exp, sigma, coeff in plain
                for c in range(max(0, p_left - capacity), min(a, p_left) + 1)
            ]
        return {(t_exp, sigma): coeff for _, t_exp, sigma, coeff in plain}
    # (p_left, m_left, t_exponent, free_partition, coefficient)
    states = [(p_cnt, m_cnt, 0, (), 1)]
    for v, group in groupby(rho):
        a = len(list(group))
        unwalked -= a
        capacity = unwalked + free_zeros  # values left for the signed slots
        walked = []
        for p_left, m_left, t_exp, sigma, coeff in states:
            need = p_left + m_left - capacity
            for c in range(min(a, p_left) + 1):
                plus = coeff * comb(p_left, c)
                for d in range(max(0, need - c), min(a - c, m_left) + 1):
                    x = plus * comb(m_left, d)
                    walked.append((
                        p_left - c,
                        m_left - d,
                        t_exp + v * (c + d),
                        sigma + (v,) * (a - c - d),
                        -x if v & d & 1 else x,
                    ))
        states = walked
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    for _, _, t_exp, sigma, coeff in states:
        key = (t_exp, sigma)
        out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


def partitions_by_recursion(d: int, max_parts: int) -> list[tuple[int, ...]]:
    """Partitions of d into at most max_parts parts, descending tuples, by
    the depth-first recursion: the slow side of ``partitions_max_parts``."""
    out = []
    _append_partitions(out, d, d, max(0, min(max_parts, d)), ())
    return out


def _append_partitions(out, remaining, largest, parts_left, prefix) -> None:
    """Append prefix + rho to out for each partition rho of remaining into at
    most parts_left parts of size at most largest, descending."""
    if remaining == 0:
        out.append(prefix)
        return
    if parts_left == 0:
        return
    for part in range(min(remaining, largest), 0, -1):
        _append_partitions(out, remaining - part, part, parts_left - 1, prefix + (part,))


def _substitute_monomial(rho, n, pattern):
    """Expand a monomial symmetric polynomial under a substitution pattern.

    rho is a partition (descending tuple) with at most n parts; pattern is
    (num_plus, num_minus, num_zero), summing to at most n: the first
    variables are set to t, the next to -t, the next to 0, the rest stay
    free.  The result is returned
    as a map (t_exponent, free_partition) -> integer coefficient, where
    free_partition indexes a monomial symmetric polynomial in the free
    variables.

    The p + m signed slots take a sub-multiset tau of rho, s_v copies of
    each value v, and zeros; the free partition is rho less tau, so
    distinct tau give distinct keys and nothing merges.  The zeros of rho
    fill the zero slots and whatever signed slots tau leaves, so tau needs
    S = sum s_v >= p + m - (n - len(rho) - z): the walk over the distinct
    values of rho, largest first, drops a state with more slots left than
    values and zeros left to fill them.

    With no -t slot (a plain diagonal) the s_v copies of v go to the t
    slots in comb(p_left, s_v) ways.  Otherwise a split of each s_v into
    c_v copies on t and d_v on -t fills the slots in
    perm(p, C) perm(m, D) / prod_v c_v! d_v! ways (C = sum c_v,
    D = sum d_v), with sign (-1)^(sum_v v d_v).  Summed over the splits,
    prod_v (x + (-1)^v y)^(s_v) / s_v! = (x + y)^(S - O) (x - y)^O / prod_v s_v!
    gives the coefficient of tau as _signed_count(p, m, S, O) / prod_v s_v!,
    with O the number of odd values in tau, counted with multiplicity.  The
    quotient counts signed fillings, so the division is exact.
    """
    p_cnt, m_cnt, z_cnt = pattern
    free_zeros = n - len(rho) - z_cnt
    if free_zeros < 0:
        return {}  # a positive exponent would land on a zero slot
    unwalked = len(rho)
    if not m_cnt:
        # (p_left, t_exponent, free_partition, coefficient)
        plain = [(p_cnt, 0, (), 1)]
        for v, group in groupby(rho):
            a = len(list(group))
            unwalked -= a
            capacity = unwalked + free_zeros
            plain = [
                (p_left - c, t_exp + v * c, sigma + (v,) * (a - c), coeff * comb(p_left, c))
                for p_left, t_exp, sigma, coeff in plain
                for c in range(max(0, p_left - capacity), min(a, p_left) + 1)
            ]
        return {(t_exp, sigma): coeff for _, t_exp, sigma, coeff in plain}
    slots = p_cnt + m_cnt
    # (slots_left, odd_values, t_exponent, free_partition, prod s_v!)
    states = [(slots, 0, 0, (), 1)]
    for v, group in groupby(rho):
        a = len(list(group))
        unwalked -= a
        capacity = unwalked + free_zeros  # values left for the signed slots
        states = [
            (left - s, odd + (s if v & 1 else 0), t_exp + v * s,
             sigma + (v,) * (a - s), den * factorial(s))
            for left, odd, t_exp, sigma, den in states
            for s in range(max(0, left - capacity), min(a, left) + 1)
        ]
    out = {}
    for left, odd, t_exp, sigma, den in states:
        count = _signed_count(p_cnt, m_cnt, slots - left, odd)
        if count:
            out[t_exp, sigma] = count // den
    return out


def weight_degree_by_pairs(lam, variant: str, k: int, b0: int, mu=None) -> int:
    """``weight_degree`` one pair of variables at a time.

    Each part a of the multiplicity tuple lam is a variable x (of mu, for
    G_pair, a variable y).  The factors are x^(a - b0) and, per pair of
    variables of parts a and b, (x - x')^(2 min(a, b)) and, for G3,
    (x + x')^(a + b - k) in one family, and (x - y)^(a + b - k) across; none
    where the exponent is not positive.
    Every factor is a nonzero homogeneous integer polynomial, so the product
    is too, and its degree is the sum of the factor exponents.
    """
    if variant not in ("G2", "G3", "G_pair"):
        raise ValueError(f"unknown weight variant: {variant}")
    validate_b(k, 2, (b0,))
    families = [lam]
    if variant == "G_pair":
        if mu is None:
            raise ValueError("G_pair needs a second partition")
        families.append(mu)
    elif mu is not None:
        raise ValueError(f"{variant} takes a single partition")
    for multiplicities in families:
        if min(multiplicities, default=0) < 0:
            raise ValueError(f"multiplicities must be non-negative: {tuple(multiplicities)}")
    variables = [
        (f, a + 1)
        for f, multiplicities in enumerate(families)
        for a, m in enumerate(multiplicities)
        for _ in range(m)
    ]
    for _, a in variables:
        if a > k:
            raise ValueError(f"part {a} violates the level-{k} restriction")
    degree = sum(a - b0 for f, a in variables if f == 0 and a > b0)
    for i, (f, a) in enumerate(variables):
        for g, b in variables[i + 1:]:
            if f == g:
                degree += 2 * min(a, b)
                if variant == "G3" and a + b > k:
                    degree += a + b - k
            elif a + b > k:
                degree += a + b - k
    return degree
