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
are unit vectors: it deletes basis elements and builds no rows.  The t^0
term of any condition (p, m, z) is the zero condition (0, 0, p + m + z),
so every condition deletes the basis elements that one keeps.  The
substitution t -> -t swaps the t and -t counts of a condition in every
family and keeps its kernel, so of two such mirror conditions only one
builds rows.  A one-family space is built as a pair whose first family has
no variables.  Each condition builds every degree in one pass: a partition
rho1 of the first family spans the degrees from |rho1| up, with the list of
second-family partitions it keeps, built once per (|rho2|, len rho1), and
each condition expands each rho1 and each list once.  The expansion of
m_rho walks the multiplicity vector of rho over the sub-multisets that fill
the t and -t slots: with binomial coefficients for a plain diagonal, and
with a closed-form signed count for a pattern with -t slots.  The walk of
each partition tail is memoised per process, so a partition extends its
tail's walks by its largest value.  An image is a list [(code,
coefficient)], a free partition of an n-variable family coded as
sum_v mult_v 2^(w (v - 1)), w the bit length of n.  A row of one degree is
keyed by the two codes packed into one int.  Each constraint is a sparse
row {column: value} with no zeros and ascending columns.  The rank is
exact: fraction-free forward elimination in Python integers, shortest rows
first, reduces each row at its largest column against that column's pivot
row, scaled by the two entries over their gcd, and keeps a row that
survives as a new pivot row, divided by the gcd of its entries.  No
modulus is involved, so no certificate is needed, and no floating point is
involved anywhere, so rank decisions are exact.

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

from itertools import product
from math import comb, factorial, gcd, perm

from .configurations import CapacityError, _Record, validate_b, validate_window

MAX_VARS = 8
MAX_DEGREE_CAP = 16


class VanishingSpec(_Record):
    """A vanishing-condition space: variable counts, conditions, degree cap.

    family_sizes is one or two variable counts; each condition gives one
    (t slots, -t slots, zero slots) pattern per family.
    """

    __slots__ = ("family_sizes", "conditions", "degree_cap")

    def _validate(self):
        if len(self.family_sizes) not in (1, 2):
            raise ValueError("one or two variable families are supported")
        if not all(isinstance(n, int) for n in self.family_sizes):
            raise ValueError(f"variable counts must be integers, got {self.family_sizes}")
        if any(n < 0 for n in self.family_sizes):
            raise ValueError("variable counts must be non-negative")
        if not isinstance(self.degree_cap, int):
            raise ValueError(f"degree_cap must be an integer, got {self.degree_cap}")
        if self.degree_cap < 0:
            raise ValueError("degree_cap must be non-negative")
        for cond in self.conditions:
            if len(cond) != len(self.family_sizes):
                raise ValueError("condition must give one pattern per family")
            for pattern, n in zip(cond, self.family_sizes):
                if not isinstance(pattern, (tuple, list)) or len(pattern) != 3:
                    raise ValueError(
                        f"patterns must be (t, -t, zero) triples of counts, got {pattern}"
                    )
                p, m, z = pattern
                if not (isinstance(p, int) and isinstance(m, int) and isinstance(z, int)):
                    raise ValueError(f"pattern counts must be integers, got ({p},{m},{z})")
                if p < 0 or m < 0 or z < 0:
                    raise ValueError("pattern counts must be non-negative")
                if p + m + z > n:
                    raise ValueError(
                        f"pattern ({p},{m},{z}) references more variables "
                        f"than the family has ({n})"
                    )


# (d, parts): the partitions of d into at most parts <= d parts, one table
# shared by every basis of the process, and by the conjugates
# fermionic.level_restricted_partitions reads; never mutated.
_PARTITIONS: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def partitions_max_parts(d: int, max_parts: int) -> list[tuple[int, ...]]:
    """Partitions of d into at most max_parts parts, descending tuples.

    The list is memoised and shared between callers, who must not mutate it.
    """
    return _partition_row(d, max(0, min(max_parts, d)))  # d has at most d parts


def _partition_row(d, parts):
    """_PARTITIONS[d, parts], built from the table's rows on first use.

    The partitions come in descending lexicographic order: by largest part
    a, from d down to ceil(d / parts), then a followed by each partition of
    d - a into at most parts - 1 parts of size at most a, in the order of
    row (d - a, parts - 1) filtered by its largest part.
    """
    out = _PARTITIONS.get((d, parts))
    if out is None:
        out = [()] if d == 0 else []
        if d > 0 and parts:
            for a in range(d, -(-d // parts) - 1, -1):
                rests = _partition_row(d - a, min(parts - 1, d - a))
                out += [(a, *rest) for rest in rests if not rest or rest[0] <= a]
        _PARTITIONS[d, parts] = out
    return out


# (rho, free zeros, w, slots) -> the walk of rho: [(code, coefficient)]
# for a plain pattern, [(code, S, O, prod s_v!)] for a signed one (see
# _image_codes); shared by every condition and degree of the process, every
# tail of a partition walked once; callers do not mutate the lists.
_PLAIN_WALKS: dict[tuple, list[tuple[int, int]]] = {}
_SIGNED_WALKS: dict[tuple, list[tuple[int, int, int, int]]] = {}
# (p, m, total, odd): _signed_count(p, m, total, odd), shared like the
# walks.
_SIGNED_COUNTS: dict[tuple[int, int, int, int], int] = {}


def _image_codes(rho, n, pattern):
    """Expand a monomial symmetric polynomial under a substitution pattern.

    rho is a partition (descending tuple) with at most n parts; pattern is
    (num_plus, num_minus, num_zero), summing to at most n: the first
    variables are set to t, the next to -t, the next to 0, the rest stay
    free.  The result is [(code of sigma, integer coefficient of m_sigma)]
    over the free partitions sigma, codes descending, the code
    sum_v mult_v 2^(w (v - 1)) with w = n.bit_length(): a multiplicity is
    at most n < 2^w, so distinct free partitions have distinct codes.  The
    t exponent, |rho| - |sigma|, is dropped.

    The p + m signed slots take a sub-multiset tau of rho, s_v copies of
    each value v, and zeros; the free partition is rho less tau, so
    nothing merges.  The zeros of rho fill the zero slots and whatever
    signed slots tau leaves, so tau needs S = sum s_v >= p + m - f, with
    f = n - len(rho) - z the free zeros.  The walk (_plain_walk,
    _signed_walk) takes the largest value a of rho, s copies of it, and
    each count c of them for the slots, then the walk of the tail
    rho = (a,)^s + rest with c fewer slots: rest keeps the f free zeros of
    rho among n - s variables, and w is fixed here, so a tail's walk is
    memoised per (rest, f, w, slots) and shared by every partition that
    ends in it.

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
        return []  # a positive exponent would land on a zero slot
    w = n.bit_length()
    if not m_cnt:
        return _plain_walk(rho, free_zeros, w, p_cnt)
    out = []
    for code, total, odd, den in _signed_walk(rho, free_zeros, w, p_cnt + m_cnt):
        count = _signed_count(p_cnt, m_cnt, total, odd)
        if count:
            out.append((code, count // den))
    return out


_EMPTY_WALK = [(0, 1)]  # no values left: the slots left take free zeros


def _plain_walk(rho, free_zeros, w, slots):
    """The plain walk of rho into slots t slots: [(code, coefficient)] over
    the sub-multisets tau of rho that the slots take, codes descending, the
    coefficient prod_v comb(p_left, s_v); memoised in _PLAIN_WALKS (see
    _image_codes)."""
    if not rho:
        return _EMPTY_WALK
    key = (rho, free_zeros, w, slots)
    out = _PLAIN_WALKS.get(key)
    if out is None:
        a = rho[0]
        s = rho.count(a)
        rest, unit = rho[s:], 1 << w * (a - 1)
        capacity = len(rest) + free_zeros  # values and zeros left after a
        out = []
        for c in range(max(0, slots - capacity), min(s, slots) + 1):
            head, ways = (s - c) * unit, comb(slots, c)
            out += [(head + code, ways * coeff)
                    for code, coeff in _plain_walk(rest, free_zeros, w, slots - c)]
        _PLAIN_WALKS[key] = out
    return out


_EMPTY_SIGNED_WALK = [(0, 0, 0, 1)]


def _signed_walk(rho, free_zeros, w, slots):
    """The signed walk of rho into slots t and -t slots: [(code, S, O,
    prod_v s_v!)] over the sub-multisets tau of rho that the slots take,
    codes descending; memoised in _SIGNED_WALKS (see _image_codes)."""
    if not rho:
        return _EMPTY_SIGNED_WALK
    key = (rho, free_zeros, w, slots)
    out = _SIGNED_WALKS.get(key)
    if out is None:
        a = rho[0]
        s = rho.count(a)
        rest, unit, odd_step = rho[s:], 1 << w * (a - 1), a & 1
        capacity = len(rest) + free_zeros
        out = []
        for c in range(max(0, slots - capacity), min(s, slots) + 1):
            head, odd_c, fact = (s - c) * unit, c * odd_step, factorial(c)
            out += [(head + code, c + total, odd_c + odd, fact * den)
                    for code, total, odd, den in _signed_walk(rest, free_zeros, w, slots - c)]
        _SIGNED_WALKS[key] = out
    return out


def _signed_count(p, m, total, odd):
    """N = sum over C of perm(p, C) perm(m, total - C) times the
    x^C y^(total - C) coefficient of (x + y)^(total - odd) (x - y)^odd.

    For a sub-multiset of total values, odd of them odd, N / prod_v s_v! is
    the signed number of ways to place it on p t slots and m -t slots (see
    _image_codes), so N depends on nothing else.  N = 0 drops the term:
    there the t and -t placements cancel.  Memoised in _SIGNED_COUNTS.
    """
    key = (p, m, total, odd)
    count = _SIGNED_COUNTS.get(key)
    if count is None:
        even = total - odd
        count = sum(
            perm(p, c) * perm(m, total - c) * sum(
                comb(even, c - i) * comb(odd, i) * (-1 if (odd - i) & 1 else 1)
                for i in range(max(0, c - even), min(odd, c) + 1)
            )
            for c in range(max(0, total - m), min(p, total) + 1)
        )
        _SIGNED_COUNTS[key] = count
    return count


def _pair_form(spec: VanishingSpec):
    """The spec's family sizes and conditions as two families.

    A one-family spec becomes the second family of a pair whose first
    family has no variables and the pattern (0, 0, 0) in every condition;
    the constant 1 is the first family's only basis element, and (0, 0, 0)
    maps it to 1.
    """
    if len(spec.family_sizes) == 2:
        return spec.family_sizes, spec.conditions
    return (0, *spec.family_sizes), tuple(((0, 0, 0), *cond) for cond in spec.conditions)


def _column_blocks(sizes, deleted, cap):
    """The kept columns of degrees 0..cap: ((firsts, spans, groups), ncols).

    Column order in degree d is that of the pairs (rho1, rho2) with
    d1 = |rho1| ascending, then rho1, then rho2 in partitions_max_parts
    order; ncols[d] counts them.  firsts lists every rho1 in that order,
    and spans[i] holds (d, first column, group) for each degree d in which
    firsts[i] keeps a column.  The pair is deleted when (len rho1, len rho2)
    is in deleted, so the list groups[group] of the rho2 kept is built once
    per (|rho2|, len rho1), and the spans once per (d1, len rho1).
    """
    n1, n2 = sizes
    firsts, spans, groups, ncols = [], [], [], [0] * (cap + 1)
    group_of = {}
    for d1 in range(cap + 1 if n1 else 1):
        kept_of_len = {}  # len rho1 -> [(d, group, its length)]
        for rho1 in partitions_max_parts(d1, n1):
            kept = kept_of_len.get(len(rho1))
            if kept is None:
                kept = kept_of_len[len(rho1)] = []
                for d in range(d1, cap + 1):
                    g = group_of.get((d - d1, len(rho1)))
                    if g is None:
                        groups.append([rho2 for rho2 in partitions_max_parts(d - d1, n2)
                                       if (len(rho1), len(rho2)) not in deleted])
                        g = group_of[d - d1, len(rho1)] = len(groups) - 1
                    if groups[g]:
                        kept.append((d, g, len(groups[g])))
            if kept:
                span = []
                for d, g, size in kept:
                    span.append((d, ncols[d], g))
                    ncols[d] += size
                firsts.append(rho1)
                spans.append(span)
    return (firsts, spans, groups), ncols


def _rows_by_degree(blocks, sizes, cond, cap) -> list[list[dict[int, int]]]:
    """For each degree 0..cap, one sparse row {column: value} per surviving
    monomial of the images of the blocks (_column_blocks) under cond.

    Each row holds no zeros and its columns ascend.  In degree d the t
    exponent of a term is d less the sizes of its free partitions, so a row
    is keyed by the two codes, packed as code1 << shift | code2: a free
    partition of the second family has values at most cap, so
    code2 < 2^shift.  Distinct pairs of terms give distinct keys, and their
    products are nonzero.
    """
    firsts, spans, groups = blocks
    (n1, n2), (pattern1, pattern2) = sizes, cond
    # groups share their rho2, so each is expanded once, into one dict
    distinct = dict.fromkeys(rho2 for kept in groups for rho2 in kept)
    images = {rho2: _image_codes(rho2, n2, pattern2) for rho2 in distinct}
    seconds = [[images[rho2] for rho2 in kept] for kept in groups]
    shift = n2.bit_length() * cap
    rows_by_key: list[dict[int, dict[int, int]]] = [{} for _ in range(cap + 1)]
    for rho1, span in zip(firsts, spans):
        first = [(code1 << shift, c1) for code1, c1 in _image_codes(rho1, n1, pattern1)]
        for d, col, g in span:
            by_key = rows_by_key[d]
            for second in seconds[g]:
                for base, c1 in first:
                    for code2, c2 in second:
                        row = by_key.get(base | code2)
                        if row is None:
                            row = by_key[base | code2] = {}
                        row[col] = c1 * c2
                col += 1
    return [list(by_key.values()) for by_key in rows_by_key]


def _exact_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Exact rank of an integer matrix by fraction-free sparse elimination.

    rows are sparse {column: value} maps over columns 0..ncols-1 with no
    zero entries; copies of them are taken shortest first.  A row is
    reduced at its largest column c against the pivot row of c: with a
    and b the pivot and the row's entry at c, each divided by their gcd,
    the row becomes a * row - b * pivot_row, which is 0 at c and holds no
    column above c.  A row that reaches a column with no pivot row becomes
    its pivot row, divided by the gcd of its entries and signed so that the
    pivot is positive; a pivot of 1 then needs no multiplication.  Each
    step multiplies by a nonzero integer or subtracts a kept row, so the
    pivot rows span the rows taken so far over Q and, with distinct leading
    columns, are independent: their count is the exact rank of every
    prefix, with no modulus and no certificate.  A duplicate row reduces to
    0 like any dependent one.  Stops once every column has a pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in sorted(rows, key=len):
        vec = dict(vec)
        while vec:
            c = max(vec)
            pivot_row = pivots.get(c)
            if pivot_row is None:
                g = gcd(*vec.values())
                if vec[c] < 0:
                    g = -g
                if g != 1:
                    for j in vec:
                        vec[j] //= g
                pivots[c] = vec
                break
            a, b = pivot_row[c], vec[c]
            if a != 1:
                g = gcd(a, b)
                a //= g
                b //= g
                if a != 1:
                    for j in vec:
                        vec[j] *= a
            for j, v in pivot_row.items():
                x = vec.get(j, 0) - b * v
                if x:
                    vec[j] = x
                else:
                    del vec[j]
        if len(pivots) == ncols:
            break
    return len(pivots)


def graded_dimension(spec: VanishingSpec) -> list[int]:
    """Dimension of each graded piece, degrees 0..degree_cap.

    A zero condition (no t or -t slot) keeps m_rho when len(rho_f) <=
    n_f - z_f in every family f and sends it to 0 otherwise; the kept images
    are independent, so it deletes the kept columns and builds no rows.
    The t^0 coefficient of a condition (p, m, z) is the zero condition
    (0, 0, p + m + z), so every condition deletes the columns with
    len(rho_f) <= n_f - p_f - m_f - z_f in every family f: their unit rows
    take one pivot each and clear those columns from every other row, so
    the rows of positive t exponent are built over the columns left.  Which
    columns a condition deletes depends only on the part counts, so their
    tuples are gathered once per spec.
    The substitution t -> -t turns a condition into its mirror, with the t
    and -t counts swapped in every family.  It is an automorphism of the
    polynomial ring, so the two conditions have the same kernel (their rows
    differ by the signs (-1)^(t exponent)), and only the first condition of
    each mirror pair builds rows.
    A one-family spec is built as a pair (_pair_form).  The kept columns of
    every degree come as blocks (_column_blocks), and each condition builds
    the rows of every degree in one pass (_rows_by_degree); a degree that
    keeps no column has dimension 0 and takes no rank.
    Refuses (CapacityError) rather than degrade when the problem exceeds
    MAX_VARS or MAX_DEGREE_CAP.
    """
    _check_vars(sum(spec.family_sizes))
    cap = spec.degree_cap
    if cap > MAX_DEGREE_CAP:
        raise CapacityError(f"degree cap {cap} exceeds the limit of {MAX_DEGREE_CAP}")
    sizes, conditions = _pair_form(spec)
    substituted, seen = [], set()
    deleted = set()  # (len rho_1, len rho_2) of the basis elements deleted
    for cond in conditions:
        most = [n - p - m - z for n, (p, m, z) in zip(sizes, cond)]
        deleted.update(product(*(range(m + 1) for m in most)))
        if any(p or m for p, m, _ in cond) and cond not in seen:
            substituted.append(cond)
            seen.update((cond, tuple((m, p, z) for p, m, z in cond)))
    blocks, ncols = _column_blocks(sizes, deleted, cap)
    rows = [_rows_by_degree(blocks, sizes, cond, cap) for cond in substituted]
    return [
        ncols[d] - _exact_rank([row for by_degree in rows for row in by_degree[d]], ncols[d])
        if ncols[d] else 0
        for d in range(cap + 1)
    ]


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
    if not (isinstance(l1, int) and isinstance(l2, int)):
        raise ValueError(f"variable counts must be integers, got {(l1, l2)}")
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
    if not isinstance(n, int):
        raise ValueError(f"variable counts must be integers, got {n}")
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
    A negative q_order is refused (ValueError).
    """
    validate_window(q_order, 0)
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
    is too, and its degree is the sum of the factor exponents: parts a < b
    of one family give m_a m_b pairs of variables, a = b gives
    comb(m_a, 2), and parts a of lam and b of mu give lam_a mu_b.
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
    present = [[(a, m) for a, m in enumerate(family, 1) if m] for family in families]
    over = [a for parts in present for a, _ in parts if a > k]
    if over:
        raise ValueError(f"part {over[0]} violates the level-{k} restriction")
    degree = sum(m * (a - b0) for a, m in present[0] if a > b0)
    for parts in present:
        for i, (a, m_a) in enumerate(parts):
            for b, m_b in parts[i:]:
                exponent = 2 * a + (a + b - k if variant == "G3" and a + b > k else 0)
                degree += (m_a * m_b if b > a else comb(m_a, 2)) * exponent
    if variant == "G_pair":
        degree += sum(m_a * m_b * (a + b - k)
                      for a, m_a in present[0] for b, m_b in present[1] if a + b > k)
    return degree
