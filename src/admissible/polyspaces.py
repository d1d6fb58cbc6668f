"""Brute-force oracle for graded dimensions of symmetric vanishing spaces.

A space is cut out of symmetric polynomials (in one variable family, or two
families that are symmetric separately) by substitution conditions: a
condition identifies a group of leading variables with a shared symbol t,
with -t, or with 0, and demands that the result vanish identically.  A
condition is a plain tuple with one count triple (#t, #-t, #0) per family,
e.g. ((k + 1, 0, 0),) for the (k+1)-fold diagonal of one family.  The
dimension of each graded piece is obtained by expanding every monomial
symmetric basis element under each substitution, reading off one linear
constraint per surviving monomial, and subtracting the rank.  A condition
that only sets variables to 0 sends each basis element to itself or to 0,
and the monomial symmetric polynomials are independent, so its constraints
are unit vectors: it deletes basis elements and builds no rows.  The
substitution t -> -t swaps the t and -t counts of a condition in every
family and keeps its kernel, so of two such mirror conditions only one
builds rows.  The expansion walks the multiplicity vector of the partition,
counting the ways to fill the t and -t slots with binomial coefficients.
Each constraint is a sparse row {column: value} with no zeros and ascending
columns, and the rows stay sparse through deduplication, transposition,
echelon form and certificate.  The rank is computed modulo one large prime
and certified exactly: the kernel vectors of the modular echelon form are
lifted to the rationals, packed column by column into one integer of wide
signed slots, and checked with one big-integer dot product per row, with
fraction-free (Bareiss) elimination on a dense copy as the fallback when
the certificate fails.  No floating point is involved anywhere, so rank
decisions are exact.

The rank-3 block character is a regraded sum of pair-space sectors, and
sector l2 enters at q^(2d + l2).  oracle_block, which builds every oracle
block of either rank, therefore computes sector l2 of a block through q^qmax
only through degree (qmax - l2) // 2.

The same module gives the degree of the product-formula weight attached to a
restricted partition, given by its multiplicity tuple.  A product of nonzero
homogeneous integer polynomials is nonzero and homogeneous, so its degree is
the sum of the factor exponents; comparing that sum with the quadratic-form
exponents used by the fermionic sums is an independent check of the matrices.
"""

from __future__ import annotations

from itertools import groupby
from math import comb, isqrt, lcm

from .configurations import CapacityError, _ValueRecord, validate_b, validate_window

MAX_VARS = 8
MAX_DEGREE_CAP = 16

# The Mersenne prime 2^61 - 1 for the modular rank; tests may set it small.
_PRIME = 2**61 - 1


class VanishingSpec(_ValueRecord):
    """A vanishing-condition space: variable counts, conditions, degree cap.

    family_sizes is one or two variable counts; each condition gives one
    (t slots, -t slots, zero slots) pattern per family.
    """

    __slots__ = ("family_sizes", "conditions", "degree_cap")

    def _validate(self):
        if len(self.family_sizes) not in (1, 2):
            raise ValueError("one or two variable families are supported")
        if any(n < 0 for n in self.family_sizes):
            raise ValueError("variable counts must be non-negative")
        if self.degree_cap < 0:
            raise ValueError("degree_cap must be non-negative")
        for cond in self.conditions:
            if len(cond) != len(self.family_sizes):
                raise ValueError("condition must give one pattern per family")
            for (p, m, z), n in zip(cond, self.family_sizes):
                if p < 0 or m < 0 or z < 0:
                    raise ValueError("pattern counts must be non-negative")
                if p + m + z > n:
                    raise ValueError(
                        f"pattern ({p},{m},{z}) references more variables "
                        f"than the family has ({n})"
                    )


# (d, parts): partitions_max_parts(d, parts) for 0 <= parts <= d, shared by
# every basis of the process like _SUBSTITUTED; callers do not mutate them.
_PARTITIONS: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def partitions_max_parts(d: int, max_parts: int) -> list[tuple[int, ...]]:
    """Partitions of d into at most max_parts parts, descending tuples.

    The list is memoised and shared between callers, who must not mutate it.
    """
    key = (d, max(0, min(max_parts, d)))  # d has at most d parts
    out = _PARTITIONS.get(key)
    if out is None:
        out = _PARTITIONS[key] = []
        _append_partitions(out, d, d, key[1], ())
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


# (rho, n, pattern): _substitute_monomial(rho, n, pattern), shared by every
# condition and degree of the process; callers do not mutate the maps.
_SUBSTITUTED: dict[tuple, dict] = {}


def _substitute_monomial(rho, n, pattern):
    """Expand a monomial symmetric polynomial under a substitution pattern.

    rho is a partition (descending tuple) with at most n parts; pattern is
    (num_plus, num_minus, num_zero), summing to at most n: the first
    variables are set to t, the next to -t, the next to 0, the rest stay
    free.  The result is returned
    as a map (t_exponent, free_partition) -> integer coefficient, where
    free_partition indexes a monomial symmetric polynomial in the free
    variables.

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


def _condition_rows(spec: VanishingSpec, cond, basis) -> list[dict[int, int]]:
    """One sparse row {column: value} per surviving monomial of the images.

    Columns index basis; each row holds no zeros and its columns ascend.
    The t exponent of a term is |rho| less the size of its free partition,
    so for two families distinct pairs of terms give distinct keys, and
    their products are nonzero.
    """
    rows_by_key: dict[tuple, dict[int, int]] = {}
    for ci, elem in enumerate(basis):
        pieces = []
        for key in zip(elem, spec.family_sizes, cond):
            piece = _SUBSTITUTED.get(key)
            if piece is None:
                piece = _SUBSTITUTED[key] = _substitute_monomial(*key)
            pieces.append(piece)
        if len(pieces) == 1:
            terms = pieces[0].items()
        else:
            terms = (
                ((t1 + t2, s1, s2), c1 * c2)
                for (t1, s1), c1 in pieces[0].items()
                for (t2, s2), c2 in pieces[1].items()
            )
        for key, c in terms:
            row = rows_by_key.get(key)
            if row is None:
                row = rows_by_key[key] = {}
            row[ci] = c
    return list(rows_by_key.values())


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of a dense integer matrix by fraction-free (Bareiss) elimination.

    The fallback of _certified_rank and the test oracle it is checked against.
    """
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot_row = mat[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, nrows):
            row = mat[r]
            factor = row[col]
            for c in range(col, ncols):
                value = row[c] * pivot - factor * pivot_row[c]
                quotient, remainder = divmod(value, prev)
                if remainder:
                    raise AssertionError("fraction-free elimination lost exactness")
                row[c] = quotient
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def _distinct_nonzero_rows(rows) -> list[dict[int, int]]:
    """The nonempty sparse rows, first occurrence of each kept in order."""
    return list({tuple(row.items()): row for row in rows if row}.values())


def _transpose(rows) -> list[dict[int, int]]:
    """The columns of sparse rows, in column order, as sparse rows."""
    cols: dict[int, dict[int, int]] = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            col = cols.get(c)
            if col is None:
                col = cols[c] = {}
            col[r] = v
    return [cols[c] for c in sorted(cols)]


def _subtract_multiple(vec: dict, factor: int, row: dict, p: int) -> None:
    """vec -= factor * row mod p, in place, for sparse {column: value} rows."""
    for c, v in row.items():
        x = (vec.get(c, 0) - factor * v) % p
        if x:
            vec[c] = x
        else:
            del vec[c]


def _echelon_mod_p(mat, p: int, ncols: int) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse rows mod p, as pivot column -> row.

    Each pivot row holds 1 at its own pivot column and 0 at every other one,
    so reducing a new row takes one pass over its pivot columns.  Stops once
    all ncols columns are pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in mat:
        vec = {c: x for c, v in row.items() if (x := v % p)}
        for c in [c for c in vec if c in pivots]:
            _subtract_multiple(vec, vec[c], pivots[c], p)
        if not vec:
            continue
        col = min(vec)
        inverse = pow(vec[col], -1, p)
        vec = {c: v * inverse % p for c, v in vec.items()}
        for other in pivots.values():
            if col in other:
                _subtract_multiple(other, other[col], vec, p)
        pivots[col] = vec
        if len(pivots) == ncols:
            break
    return pivots


def _rational_reconstruction(a: int, p: int):
    """(num, den) with num = a * den mod p and |num|, den <= sqrt(p/2), or None."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        quotient = r0 // r1
        r0, r1 = r1, r0 - quotient * r1
        s0, s1 = s1, s0 - quotient * s1
    if not s1 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _kernel_certified(mat, pivots, p: int, ncols: int) -> bool:
    """Whether the mod-p kernel of the sparse rows mat lifts to one over Q.

    Free column f gives the kernel vector with 1 at f and -pivots[c][f] at
    each pivot column c.  Every vector's entries are lifted by rational
    reconstruction and scaled to integers first.  Then column c of all the
    vectors is packed into one integer, vector i in a signed slot of w bits
    at bit w*i, and each row of mat is checked with one big-integer dot
    product.  Slot i of that product is the row's product with vector i, of
    absolute value at most max|v| times the row's l1 norm, which is below
    2^(w - 2); balanced slots that small are unique, so the product is 0
    exactly when the row annihilates every vector.
    """
    entries = {f: [(f, 1, 1)] for f in range(ncols) if f not in pivots}
    for c, pivot_row in pivots.items():
        for f, x in pivot_row.items():
            if f != c:  # a pivot row is 0 at every other pivot column
                lifted = _rational_reconstruction(-x % p, p)
                if lifted is None:
                    return False
                entries[f].append((c, *lifted))
    vectors = []
    for vec in entries.values():
        scale = lcm(*(den for _, _, den in vec))
        vectors.append([(c, num * (scale // den)) for c, num, den in vec])
    height = max(abs(x) for vec in vectors for _, x in vec)
    norm = max(sum(map(abs, row.values())) for row in mat)
    w = (height * norm).bit_length() + 2
    packed = [0] * ncols
    for i, vec in enumerate(vectors):
        for c, x in vec:
            packed[c] += x << (w * i)
    return not any(sum(v * packed[c] for c, v in row.items()) for row in mat)


def _certified_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Exact rank of an integer matrix, from its rank r mod _PRIME.

    rows are sparse {column: value} maps over columns 0..ncols-1, with no
    zero entries and ascending columns.  The rank mod a prime never exceeds
    the rank over Q, so r is exact when it equals the column count.
    Otherwise the n - r kernel vectors of the mod-p echelon form are
    independent (each has a unit in its own free column); if they lift to
    exact kernel vectors over Q, the rank over Q is at most r, hence r.  A
    wide matrix is certified through its transpose, whose kernel is smaller.
    When the lift or the check fails, Bareiss decides on a dense copy.
    """
    mat = _distinct_nonzero_rows(rows)
    if mat and len(mat) < ncols:
        mat, ncols = _distinct_nonzero_rows(_transpose(mat)), len(mat)
    if not mat:
        return 0
    mat.sort(key=len)  # sparse first: less fill-in
    pivots = _echelon_mod_p(mat, _PRIME, ncols)
    if len(pivots) == ncols or _kernel_certified(mat, pivots, _PRIME, ncols):
        return len(pivots)
    return _bareiss_rank([[row.get(c, 0) for c in range(ncols)] for row in mat])


def graded_dimension(spec: VanishingSpec) -> list[int]:
    """Dimension of each graded piece, degrees 0..degree_cap.

    A zero condition (no t or -t slot) keeps m_rho when len(rho_f) <=
    n_f - z_f in every family f and sends it to 0 otherwise; the kept images
    are independent, so it deletes the kept columns and builds no rows.
    The substitution t -> -t turns a condition into its mirror, with the t
    and -t counts swapped in every family.  It is an automorphism of the
    polynomial ring, so the two conditions have the same kernel (their rows
    differ by the signs (-1)^(t exponent)), and only the first condition of
    each mirror pair builds rows.
    Refuses (CapacityError) rather than degrade when the problem exceeds
    MAX_VARS or MAX_DEGREE_CAP.
    """
    _check_vars(sum(spec.family_sizes))
    if spec.degree_cap > MAX_DEGREE_CAP:
        raise CapacityError(
            f"degree cap {spec.degree_cap} exceeds the limit of {MAX_DEGREE_CAP}"
        )
    substituted, seen = [], set()
    zero_limits = []  # per zero condition, n_f - z_f: the most parts it keeps
    for cond in spec.conditions:
        if not any(p or m for p, m, _ in cond):
            zero_limits.append([n - z for n, (_, _, z) in zip(spec.family_sizes, cond)])
        elif cond not in seen:
            substituted.append(cond)
            seen.update((cond, tuple((m, p, z) for p, m, z in cond)))
    dims = []
    for d in range(spec.degree_cap + 1):
        basis = _basis(spec, d)
        if not basis:
            dims.append(0)
            continue
        basis = [
            elem for elem in basis
            if not any(all(len(rho) <= most for rho, most in zip(elem, limits))
                       for limits in zero_limits)
        ]
        rows: list[dict[int, int]] = []
        for cond in substituted:
            rows.extend(_condition_rows(spec, cond, basis))
        dims.append(len(basis) - _certified_rank(rows, len(basis)))
    return dims


def _check_vars(total_vars: int) -> None:
    """Refuse (CapacityError) a space of more than MAX_VARS variables."""
    if total_vars > MAX_VARS:
        raise CapacityError(f"{total_vars} variables exceeds the limit of {MAX_VARS}")


# ---------------------------------------------------------------------------
# Canned specs
#
# Each builder refuses a space of more than MAX_VARS variables before it
# builds any condition, so no loop here runs past MAX_VARS + 1 steps.

def vanishing_spec_r2(n: int, k: int, b0: int, degree_cap: int) -> VanishingSpec:
    """Symmetric polynomials in n variables vanishing on the (k+1)-fold
    diagonal and when b0+1 variables are set to zero.  Patterns that need
    more variables than n are skipped (no constraint)."""
    validate_b(k, 2, (b0,))
    _check_vars(n)
    conds = []
    if k + 1 <= n:
        conds.append(((k + 1, 0, 0),))
    if b0 + 1 <= n:
        conds.append(((0, 0, b0 + 1),))
    return VanishingSpec((n,), tuple(conds), degree_cap)


def vanishing_spec_r3_pair(
    l1: int, l2: int, k: int, b0: int, b1: int, degree_cap: int
) -> VanishingSpec:
    """Two-family space: vanishing when a leading x's and b leading y's share
    a value (a + b = k + 1), and when b0+1 x's are zero.  For b1 < k the
    conjectural combined zero conditions (s x's and t y's zero, s + t = b1+1)
    are added as well."""
    validate_b(k, 3, (b0, b1))
    _check_vars(l1 + l2)
    conds = [
        ((a, 0, 0), (k + 1 - a, 0, 0)) for a in range(max(0, k + 1 - l2), min(l1, k + 1) + 1)
    ]
    if b0 + 1 <= l1:
        conds.append(((0, 0, b0 + 1), (0, 0, 0)))
    if b1 < k:
        conds.extend(
            ((0, 0, s), (0, 0, b1 + 1 - s))
            for s in range(max(0, b1 + 1 - l2), min(l1, b1 + 1) + 1)
        )
    return VanishingSpec((l1, l2), tuple(conds), degree_cap)


def vanishing_spec_r3_signed(n: int, k: int, b0: int, degree_cap: int) -> VanishingSpec:
    """Single-family space with signed diagonals: vanishing when a leading
    variables equal t and the next k+1-a equal -t (all a), and when b0+1
    variables are zero."""
    validate_b(k, 2, (b0,))
    _check_vars(n)
    conds = []
    if k + 1 <= n:
        for a in range(k + 2):
            conds.append(((a, k + 1 - a, 0),))
    if b0 + 1 <= n:
        conds.append(((0, 0, b0 + 1),))
    return VanishingSpec((n,), tuple(conds), degree_cap)


# ---------------------------------------------------------------------------
# Oracle characters

def oracle_block(k: int, r: int, b, q_order: int, n: int) -> list[int]:
    """The z^n block of the rank-r oracle character: its q^0..q^q_order
    coefficients.

    At r = 2 the block is the graded dimension of the n-variable space.  At
    r = 3 it is the regraded sum of the (n - l2, l2) pair spaces, and sector
    l2 enters at q^(2d + l2), so it is computed through degree
    (q_order - l2) // 2, and not at all past l2 = q_order.  Sector 0 comes
    first, with the most variables and the largest degree cap, so a
    refusal precedes the other sectors.
    """
    if r not in (2, 3):
        raise ValueError("oracle supports r = 2 or r = 3")
    b = validate_b(k, r, b)
    validate_window(q_order, n)
    if r == 2:
        return graded_dimension(vanishing_spec_r2(n, k, *b, q_order))
    sector_dims = [
        graded_dimension(vanishing_spec_r3_pair(n - l2, l2, k, *b, (q_order - l2) // 2))
        for l2 in range(min(n, q_order) + 1)
    ]
    return regrade_pair_sectors(sector_dims, q_order)


def pair_sector_dims(n: int, k: int, b0: int, b1: int, degree_cap: int) -> list[list[int]]:
    """Graded dimensions of the (n - l2, l2) pair spaces, indexed by l2 = 0..n."""
    if n < 0:
        raise ValueError("variable counts must be non-negative")
    return [
        graded_dimension(vanishing_spec_r3_pair(n - l2, l2, k, b0, b1, degree_cap))
        for l2 in range(n + 1)
    ]


def regrade_pair_sectors(sector_dims, q_order: int) -> list[int]:
    """The rank-3 block's q^0..q^q_order coefficients, from the pair spaces.

    sector_dims[l2] holds graded dimensions of the (n - l2, l2) pair space.
    The pair space graded in its own degree enters regraded: the (l1, l2)
    summand contributes q^l2 times its character evaluated at q^2.
    """
    row = [0] * (q_order + 1)
    for l2, dims in enumerate(sector_dims):
        for q_exp, c in zip(range(l2, q_order + 1, 2), dims):
            row[q_exp] += c
    return row


# ---------------------------------------------------------------------------
# Product-formula weights

def weight_degree(lam, variant: str, k: int, b0: int, mu=None) -> int:
    """Total degree of the weight product attached to a restricted partition.

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
