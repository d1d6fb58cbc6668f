"""Brute-force references that the tests check the package against.

No command runs these: ``enumerate_configs`` and ``is_admissible`` walk and
test configurations one at a time, the slow side of ``character_direct``;
``_multiplicity_vectors`` lists the multiplicity vectors of a given weighted
total, the slow side of the fermionic walk and of
``level_restricted_partitions``.  A configuration is its entry tuple
(a_0, a_1, ..., a_l), ending at its last nonzero entry; the empty
configuration is ().  ``_basis`` and ``_condition_rows`` build the oracle's
matrices column by column over the full basis, and ``_kept_basis`` drops the
columns a zero condition deletes: the slow side of the block builder in
``graded_dimension``.  ``_substitute_by_splits`` expands a monomial under a
signed pattern one (t, -t) split at a time, the slow side of
``_substitute_monomial``'s closed-form count.
"""

from itertools import groupby
from math import comb

from admissible.configurations import validate_b, validate_window
from admissible.polyspaces import VanishingSpec, _substitute_monomial, partitions_max_parts


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
    """_basis(spec, degree) less what a zero condition deletes.

    A zero condition (no t or -t slot) sends m_rho to 0 unless
    len(rho_f) <= n_f - z_f in every family f, and to itself otherwise;
    the basis elements it keeps are deleted.
    """
    zeros = [cond for cond in spec.conditions if not any(p or m for p, m, _ in cond)]
    return [
        elem for elem in _basis(spec, degree)
        if not any(
            all(len(rho) <= n - z for rho, n, (_, _, z) in zip(elem, spec.family_sizes, cond))
            for cond in zeros
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
