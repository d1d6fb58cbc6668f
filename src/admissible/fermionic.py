"""Gordon matrices, boundary vectors, and the fermionic character sums.

The three closed-form characters computed here share one shape: a sum over
multiplicity vectors m of q^(quadratic form in m) divided by a product of
finite q-Pochhammer factors.  GordonData packages the matrix, the linear
boundary term, the Pochhammer step, and the sector bookkeeping so that a
single audited evaluator covers all of them.  A multiplicity vector is a plain
tuple; for a partition with parts <= k, m[a-1] is its number of parts a.

That evaluator walks the multiplicity vectors depth first and prunes: every
entry of the matrix, the boundary vector and the sector weights is >= 0 and
every z-weight is >= 1 (GordonData enforces this), so raising any m_i never
lowers the q-exponent or the z-degree, and a vector past the window has no
descendant inside it.  It also bounds each run by the one before it.  Say
coordinate j + 1 covers j when column j + 1 of the matrix is entrywise at
least column j, c_(j+1) + x_(j+1) >= c_j + x_j (boundary plus extra
q-weight) and w_(j+1) >= w_j (z-weight).  Then for p with p_j = p_(j+1) = 0,
p + v e_j + u e_(j+1) costs at least as much as p + (v + u) e_j, in q-shift
and in z: the difference in shift is u (g_(j+1) - g_j) + u (x_(j+1) - x_j)
+ C(u, 2) (A_(j+1,j+1) - A_jj) + u v (A_(j,j+1) - A_jj), with g = c + A p,
and every term is >= 0.  So where the run at j keeps v <= L, the run at
j + 1 stops at L, and the child p + v e_j stops at L - v, neither pricing
the vector past its bound.  The cover holds inside every block of the r2,
r3 and r3-special data and fails at the r3 block boundary; it is checked
on the data, once per sum.

Every coordinate shares one Pochhammer base, so the denominator
prod_j (q^step; q^step)_(m_j) depends only on the partition the m_j form,
not on which coordinates hold them.  Each sum keeps one memo of inverses
keyed by that partition, and every vector of one partition, in whatever
subtree, reads one entry: an inverse is divided once per distinct
partition, and again only when a vector at a smaller shift needs it
longer.  No per-vector product is formed.  The rows and the inverses are
packed q-lists of the one series kernel (``series._Packing``), all >= 0,
so each term is one shifted add and each division one short run of
shifted adds, in C, at one width proven before the walk starts: the one
``series._width`` picks from the window for the data of a character
(``_CharacterData``), and a wider one that holds every sum over any
GordonData (``_sum_bits``) for data a caller builds.

The sums are sized by the window, not by the level: coordinate a of a block
has z-weight a, so one past z_max is never raised, and fermionic_r2,
fermionic_r3 and fermionic_r3_special build the Gordon data of the leading
min(k, z_max) coordinates of each block only.  The public gordon_* and
gordon_data_* builders keep the full k x k (2k x 2k) matrices.

Where the window raises four or more coordinates, fermionic_r2 does not
walk: it folds the r2 sum over the partial sums of m, one coordinate at a
time (``_transfer_r2``), at a cost the window sets, not the number of
vectors in it.  The walk stays the route of r3, r3-special and the
smaller r2 windows, and the slow path the fold is tested against.
"""

from __future__ import annotations

from math import comb
from operator import add, sub

from . import series
from .configurations import _Record, _check_cells
from .configurations import validate_b, validate_k, validate_window
from .polyspaces import partitions_max_parts
from .series import TruncatedSeries, _Overflow, _add_shifted, _divide, _fit, _is_int
from .series import _partition_bits, _unpack, _width


def _check_matrix(k: int, n: int) -> None:
    """Refuse a bad level k, or an n x n Gordon matrix of more than
    MAX_CELLS entries, before any entry is built."""
    validate_k(k)
    _check_cells(n * n, f"a {n} x {n} Gordon matrix needs {{}} entries")


def _a2_rows(w: int) -> list[list[int]]:
    """The leading w x w block of every A2: entries 2*min(a, b)."""
    return [[2 * min(a, b) for b in range(1, w + 1)] for a in range(1, w + 1)]


def _b3_rows(k: int, w: int) -> list[list[int]]:
    """The leading w x w block of the level-k B3: entries max(0, a + b - k)."""
    return [[max(0, a + b - k) for b in range(1, w + 1)] for a in range(1, w + 1)]


def _c2_entries(b0: int, w: int) -> list[int]:
    """The leading w entries of boundary_c2(k, b0), for any k >= w."""
    return [max(0, a - b0) for a in range(1, w + 1)]


def gordon_a2(k: int) -> list[list[int]]:
    """k x k matrix with entries 2*min(a, b)."""
    _check_matrix(k, k)
    return _a2_rows(k)


def gordon_b3(k: int) -> list[list[int]]:
    """k x k matrix with entries max(0, a + b - k)."""
    _check_matrix(k, k)
    return _b3_rows(k, k)


def gordon_a(k: int) -> list[list[int]]:
    """2k x 2k block matrix [[A2, B3], [B3, A2]]."""
    _check_matrix(k, 2 * k)
    return _a_rows(k, k)


def _a_rows(k: int, w: int) -> list[list[int]]:
    """gordon_a(k) on the leading w coordinates of each block: 2w x 2w."""
    a2, b3 = _a2_rows(w), _b3_rows(k, w)
    return [x + y for x, y in zip(a2, b3)] + [y + x for x, y in zip(a2, b3)]


def gordon_b(k: int) -> list[list[int]]:
    """k x k matrix with entries 2*min(a, b) + max(0, a + b - k)."""
    _check_matrix(k, k)
    return _b_rows(k, k)


def _b_rows(k: int, w: int) -> list[list[int]]:
    """gordon_b(k) on the leading w coordinates: w x w."""
    return [list(map(add, x, y)) for x, y in zip(_a2_rows(w), _b3_rows(k, w))]


def boundary_c2(k: int, b0: int) -> list[int]:
    """Length-k vector (0, ..., 0, 1, 2, ..., k - b0) with b0 leading zeros."""
    (b0,) = validate_b(k, 2, (b0,))
    _check_cells(k, "the boundary vector needs {} entries")
    return [0] * b0 + list(range(1, k - b0 + 1))


def boundary_c3(k: int, b0: int) -> list[int]:
    """Length-2k vector: boundary_c2(k, b0) followed by k zeros."""
    _check_cells(2 * k, "the boundary vector needs {} entries")
    return boundary_c2(k, b0) + [0] * k


class GordonData(_Record):
    """Everything that determines one fermionic sum.

    matrix          symmetric integer matrix A; the term of multiplicity
                    vector m has q-exponent (m'Am - diag(A).m)/2 + c.m
    boundary        linear term vector c, same dimension
    q_step          Pochhammer base: 1 for (q)_m denominators, 2 for (q^2)_m
    z_weights       per-coordinate z-degree: z-degree of a term is z_weights.m
    extra_q_weights per-coordinate extra q-power (the sector prefactor)
    """

    __slots__ = ("matrix", "boundary", "q_step", "z_weights", "extra_q_weights")

    def _validate(self):
        n = len(self.matrix)
        if not all(_is_int(x) for row in self.matrix for x in row):
            raise ValueError(f"matrix entries must be integers, got {self.matrix}")
        if not _is_int(self.q_step):
            raise ValueError(f"q_step must be an integer, got {self.q_step}")
        for name in ("boundary", "z_weights", "extra_q_weights"):
            if not all(_is_int(x) for x in getattr(self, name)):
                raise ValueError(f"{name} entries must be integers, got {getattr(self, name)}")
        if list(zip(*self.matrix)) != list(map(tuple, self.matrix)):
            raise ValueError("matrix must be square and symmetric")
        if min(map(min, self.matrix), default=0) < 0:
            raise ValueError("matrix entries must be non-negative")
        if not (len(self.boundary) == len(self.z_weights) == len(self.extra_q_weights) == n):
            raise ValueError("vector dimensions must match the matrix")
        if self.q_step < 1:
            raise ValueError("q_step must be positive")
        # The pruned walk of evaluate_gordon_sum is exact only on this data.
        if any(c < 0 for c in self.boundary):
            raise ValueError("boundary entries must be non-negative")
        if any(w < 0 for w in self.extra_q_weights):
            raise ValueError("extra_q_weights entries must be non-negative")
        if any(w < 1 for w in self.z_weights):
            raise ValueError("z_weights entries must be at least 1")


class _CharacterData(GordonData):
    """The Gordon data of a character, as ``_data_r2``, ``_data_r3`` and
    ``_data_r3_special`` build it: the coefficient of q^a z^n of its sum
    counts admissible configurations, so the width ``series._width`` picks
    from the window holds it.  It declares no ``__slots__``, so ``_Record``
    reads GordonData's field names."""


def _freeze(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in matrix)


def gordon_data_r2(k: int, b0: int) -> GordonData:
    """Sum data for the rank-2 character with initial cap b0."""
    return _data_r2(k, b0, k)


def _data_r2(k: int, b0: int, w: int) -> GordonData:
    """gordon_data_r2(k, b0) on its leading w coordinates, in O(w^2)."""
    _check_matrix(k, w)
    (b0,) = validate_b(k, 2, (b0,))
    return _CharacterData(
        matrix=_freeze(_a2_rows(w)),
        boundary=tuple(_c2_entries(b0, w)),
        q_step=1,
        z_weights=tuple(range(1, w + 1)),
        extra_q_weights=(0,) * w,
    )


def gordon_data_r3(k: int, b0: int) -> GordonData:
    """Sum data for the rank-3 character with b = (b0, k).

    Coordinates are (m_{1,1}, ..., m_{1,k}, m_{2,1}, ..., m_{2,k}); the second
    block contributes an extra q^(l2) with l2 = sum_j j*m_{2,j}, and all
    Pochhammer factors run in q^2.  The exponent m'Am - diag(A).m + 2c.m of
    A = gordon_a(k), c = boundary_c3(k, b0) is carried as 2A and 2c.
    """
    return _data_r3(k, b0, k)


def _data_r3(k: int, b0: int, w: int) -> GordonData:
    """gordon_data_r3(k, b0) on the leading w coordinates of each block:
    (m_{1,1}, ..., m_{1,w}, m_{2,1}, ..., m_{2,w}), in O(w^2)."""
    _check_matrix(k, 2 * w)
    (b0,) = validate_b(k, 2, (b0,))
    return _CharacterData(
        matrix=_freeze([2 * x for x in row] for row in _a_rows(k, w)),
        boundary=tuple(2 * c for c in _c2_entries(b0, w)) + (0,) * w,
        q_step=2,
        z_weights=tuple(range(1, w + 1)) * 2,
        extra_q_weights=(0,) * w + tuple(range(1, w + 1)),
    )


def gordon_data_r3_special(k: int) -> GordonData:
    """Sum data for the rank-3 character at the symmetric initial cap.

    Uses the k x k matrix B with the boundary vector taken at
    b0 = floor((k+1)/2); this is the only b0 the closed form covers.
    """
    return _data_r3_special(k, k)


def _data_r3_special(k: int, w: int) -> GordonData:
    """gordon_data_r3_special(k) on its leading w coordinates, in O(w^2)."""
    _check_matrix(k, w)
    return _CharacterData(
        matrix=_freeze(_b_rows(k, w)),
        boundary=tuple(_c2_entries((k + 1) // 2, w)),
        q_step=1,
        z_weights=tuple(range(1, w + 1)),
        extra_q_weights=(0,) * w,
    )


def quadratic_exponent(data: GordonData, m) -> int:
    """The q-exponent (m'Am - diag(A).m)/2 + c.m of multiplicity vector m.

    Summed as sum_{j<i} A_ij m_i m_j + sum_i A_ii C(m_i, 2) + c.m, which is
    an integer for every symmetric integer matrix A.  One pass over m keeps
    the (j, m_j) pairs of the nonzero coordinates seen so far, so each new
    nonzero m_i adds m_i (c_i + sum_j A_ij m_j) + A_ii C(m_i, 2) from those
    pairs alone.
    """
    matrix, boundary = data.matrix, data.boundary
    total = 0
    seen = []
    for i, mi in enumerate(m):
        if mi:
            row = matrix[i]
            cross = boundary[i]
            for j, mj in seen:
                cross += row[j] * mj
            total += mi * cross + row[i] * (mi * (mi - 1) // 2)
            seen.append((i, mi))
    return total


def evaluate_gordon_sum(data: GordonData, q_max: int, z_max: int) -> TruncatedSeries:
    """Evaluate the fermionic sum as a truncated series in (q, z).

    A depth-first walk over the coordinates 0..n-1 visits each multiplicity
    vector in the window once: from a vector whose coordinates past i are 0,
    each later coordinate j > i is raised in a run m_j = 1, 2, ...  The shift
    quadratic_exponent(m) + extra_q_weights.m and the z-degree never
    decrease when a coordinate is raised (every entry of the matrix, the
    boundary and the weights is non-negative, and every z-weight is at least
    1), so a run stops at its first vector past the window: neither that
    vector's later siblings nor its descendants can lie inside it.  Where
    coordinate j + 1 covers j (see the module docstring and ``_chains``), a
    node's run at j + 1 stops at the last value L its run at j kept, and the
    child m + v e_j stops its run at j + 1 at L - v, without pricing the
    vector past that bound; a bound of 0 skips to the start of the next
    chain.  Each vector priced is one quadratic_exponent call, and a child
    with no coordinate left to raise is added by its parent without a
    ``_walk`` call.  A vector's Pochhammer inverse depends only on the
    partition its entries form, so the sum keeps one memo of inverses,
    keyed by that partition (see ``_walk``).  The rows and the inverses are
    packed q-lists, at one width proven before the walk: every field is a
    partial sum of one coefficient of the window, so the data of a
    character (``_CharacterData``), whose coefficient of q^a z^n is at most
    the number of partitions of a into at most n parts, takes the width
    ``series._width`` picks from the window, and any other data the wider
    one that ``_sum_bits`` proves for every GordonData.  data may cover
    only the coordinates a window can raise; the fermionic_* functions
    that walk pass the leading min(k, z_max) coordinates of each block.
    """
    _check_sum_window(q_max, z_max)
    if isinstance(data, _CharacterData):
        width = _width(q_max, z_max)
    else:
        width = _fit(_sum_bits(data, q_max, z_max))
    packing = series._Packing(width, q_max + 1)
    return TruncatedSeries(_sum_rows(data, z_max, packing), q_max, z_max)


def _sum_bits(data, q_max: int, z_max: int) -> int:
    """An upper bound on the bits of every coefficient of the sum of any
    GordonData in the window, from what GordonData enforces alone.

    Every z-weight is >= 1, so at most V = C(z_max + n, n) of the n-entry
    vectors m lie in the window, and each has M = sum(m) <= z_max.  Every
    exponent is >= 0, so [q^a] of the term of m is at most [q^a] of
    prod_j 1/(q^s; q^s)_(m_j), and for s >= 1 at most [q^a] of
    prod_j 1/(q; q)_(m_j).  That counts the partitions of a in as many
    colours as m has nonzero entries, at most c = min(n, z_max), which the
    saddle-point argument behind Apostol's bound puts below
    exp(pi sqrt(2 c a / 3)) (``series._partition_bits(c a)``).  It is also
    at most C(a + M, M): each of the M factors 1/(1 - q^v) has v >= 1, so
    the exponents of a solution of sum_i c_i v_i = a sum to at most a.  A
    coefficient is a sum of at most V such terms, and every field the walk
    packs is a partial sum of one coefficient's terms, so the least width
    that holds these bits under a guard bit never overflows.
    """
    n = len(data.matrix)
    vectors = comb(z_max + n, n).bit_length()
    term = min(_partition_bits(min(n, z_max) * q_max), comb(q_max + z_max, z_max).bit_length())
    return vectors + term


def _check_sum_window(q_max: int, z_max: int) -> None:
    """Refuse a bad window, or one whose z-rows hold more than MAX_CELLS
    q-coefficients, before a sum starts."""
    validate_window(q_max, z_max)
    _check_cells(
        (z_max + 1) * (q_max + 1), "the fermionic sum's z-rows need {} q-coefficients"
    )


def _sum_rows(data, z_max, packing) -> list[list[int]]:
    """The z-rows of the sum: the walk's packed rows, unpacked."""
    rows = [0] * (z_max + 1)
    m = [0] * len(data.matrix)
    # the root's shift is 0; its quadratic_exponent call stays, as one of the
    # 16 vectors that bench/test_bench.py's test_traced_counters_are_exact counts
    rows[0] = _add_shifted(0, 1, quadratic_exponent(data, m), packing.length, packing)
    _walk(data, rows, m, 0, z_max, 0, 0, {0: (1, packing.length)}, 0, packing, _chains(data))
    return [_unpack(row, packing.width) for row in rows]


def _chains(data) -> list[int]:
    """chain[j]: the first coordinate i > j that does not cover i - 1 (see
    the module docstring), or n; so j + 1 covers j exactly when
    chain[j] > j + 1.  O(n^2), as building the data is.
    """
    matrix, weights = data.matrix, data.z_weights
    lift = list(map(add, data.boundary, data.extra_q_weights))
    n = len(matrix)
    chain = [n] * n
    for i in range(n - 1, 0, -1):
        covers = (
            all(row[i] >= row[i - 1] for row in matrix)
            and lift[i] >= lift[i - 1]
            and weights[i] >= weights[i - 1]
        )
        chain[i - 1] = chain[i] if covers else i
    return chain


def _walk(data, rows, m, first, bound, z, extra, inverses, key, packing, chain) -> None:
    """Add the terms of m's descendants in the window to the packed rows;
    m is 0 from coordinate first on, and is left as found.

    The window is z <= len(rows) - 1 and q < packing.length.  bound caps
    m_first: every vector with a larger m_first is known to lie past the
    window.  Each coordinate j's run m_j = 1, 2, ... is priced before any
    child is walked, and stops at the first vector past the window; let
    last be its last kept value.  When coordinate j + 1 covers j
    (``_chains``), p + u e_(j+1) costs at least p + u e_j, so the run at
    j + 1 stops at last unpriced, and the child m + v e_j stops its own run
    at j + 1 at last - v.  A bound of 0 leaves the rest of the chain at 0,
    so the walk jumps to the next chain's start, unbounded there.  A child
    left with no coordinate to raise has its term added here, with no call.

    inverses is the sum's one memo of Pochhammer inverses, keyed by the
    partition code sum_v count_v 2^(w v) of a vector, count_v its number of
    coordinates equal to v and w = len(m).bit_length(); key is m's.  An
    entry is (inverse, length), exact through its first length fields, and
    is replaced, never changed, by a longer one only.  A child at shift
    cshift needs q_max - cshift + 1 fields; when its entry is missing or
    shorter, it is divided once by (1 - q^(step v)) from the entry of the
    child m_j = v - 1, which was made long enough at a shift no larger, or,
    for v = 1, from m's own, which is long enough for every child.
    """
    length = packing.length
    z_max, n = len(rows) - 1, len(m)
    w = n.bit_length()
    j = first
    while j < n:
        step, lift, nxt = data.z_weights[j], data.extra_q_weights[j], chain[j]
        shifts = []
        for v in range(1, min(bound, (z_max - z) // step) + 1):
            m[j] = v
            cshift = quadratic_exponent(data, m) + extra + v * lift
            if cshift >= length:
                break
            shifts.append(cshift)
        last = len(shifts)
        ckey = key
        for v, cshift in enumerate(shifts, 1):
            need, prev, ckey = length - cshift, ckey, key + (1 << w * v)
            entry = inverses.get(ckey)
            if entry is None or entry[1] < need:
                cur = _divide(inverses[prev][0], data.q_step * v, need, packing)
                entry = inverses[ckey] = (cur, need)
            cz = z + v * step
            rows[cz] = _add_shifted(rows[cz], entry[0], cshift, length, packing)
            # the child walks on from j + 1, bounded there if j + 1 covers
            # j, or from the next chain's start at a bound of 0
            if nxt == j + 1:
                cfirst, cbound = j + 1, z_max
            elif last - v:
                cfirst, cbound = j + 1, last - v
            else:
                cfirst, cbound = nxt, z_max
            if cfirst < n:
                m[j] = v
                _walk(data, rows, m, cfirst, cbound, cz, extra + v * lift, inverses, ckey,
                      packing, chain)
        m[j] = 0
        # the same rule at v = 0 moves this node on to its next coordinate
        if nxt == j + 1:
            j, bound = j + 1, z_max
        elif last:
            j, bound = j + 1, last
        else:
            j, bound = nxt, z_max


def _leading(k: int, z_max: int) -> int:
    """How many leading coordinates of a level-k block a window can raise:
    coordinate a has z-weight a, so those past z_max stay 0.  A z_max that
    the window check refuses gives 0, so k and b are checked before it."""
    return min(k, z_max) if _is_int(z_max) and z_max > 0 else 0


# fermionic_r2 folds its sum over partial sums (``_transfer_r2``) when the
# window raises at least this many coordinates, and walks it below that.
# Measured in-process (best of 15 calls, outputs equal; CPython 3.11, x86-64
# Linux) at (q_max, z_max) = (70, 35), (100, 50) and (150, 75), four b0
# each, fold/walk time was 0.23-1.06 at k = 4-8 and 1.16-1.70 at k = 2-3.
_TRANSFER_FROM = 4


def fermionic_r2(k: int, b0: int, q_max: int, z_max: int) -> TruncatedSeries:
    """Fermionic character for rank 2, initial cap b0.

    The window raises w = min(k, z_max) coordinates.  From w =
    _TRANSFER_FROM on, the sum is folded over its partial sums
    (``_transfer_r2``), whose cost the window sets; below that it is
    walked (``evaluate_gordon_sum``), which is faster where the window
    holds few vectors.  Both refuse bad input with the same checks, in the
    same order."""
    w = _leading(k, z_max)
    if w < _TRANSFER_FROM:
        return evaluate_gordon_sum(_data_r2(k, b0, w), q_max, z_max)
    _check_matrix(k, w)
    (b0,) = validate_b(k, 2, (b0,))
    _check_sum_window(q_max, z_max)
    packing = series._Packing(_width(q_max, z_max), q_max + 1)
    return TruncatedSeries(_transfer_r2(w, b0, z_max, packing), q_max, z_max)


def _transfer_r2(w, b0, z_max, packing) -> list[list[int]]:
    """The z-rows of the r2 sum on its leading w coordinates, folded over
    the partial sums N_i = m_i + ... + m_w (Andrews, PNAS 71, 1974).

    With A = 2 min(a, b) and c_a = max(0, a - b0), the exponent
    (m'Am - diag(A).m)/2 + c.m is sum_i (N_i^2 - N_i) + sum_(i>b0) N_i,
    the z-degree is sum_i N_i, and the denominator is
    prod_i (q)_(N_i - N_(i+1)), with N_(w+1) = 0.  So the sweep
    i = w, ..., 1 keeps, for each value N of N_i, the z-rows

        G_i(N) = q^(e_i(N)) z^N sum_(M <= N) G_(i+1)(M) / (q)_(N-M),

    e_i(N) = N^2 - N + [i > b0] N, from G_(w+1)(0) = 1; the sum is
    sum_N G_1(N).  For each M, the quotient G_(i+1)(M) / (q)_(N-M) runs up
    N one ``_divide`` by (1 - q^(N-M)) at a time.

    Every coordinate j < i still to come has N_j >= N, so together they
    add at least (i-1) N to the z-degree and rest_i(N) = (i-1)(N^2 - N)
    + #{j < i : j > b0} N to the shift.  So a quotient keeps its rows
    z <= z_max - iN, truncated to q_max + 1 - rest_i(N) - e_i(N) fields,
    and N runs while both leave something.  That is also the length at
    which G_(i+1)(N) was kept, so the quotient at M = N is G_(i+1)(N) as it
    stands.  Setting m_j = 0 for every j < i completes a term at exactly
    that rest, and maps the fields of a quotient or a state one to one
    onto terms of one coefficient of the window: each field is a partial
    sum of it, which the width ``series._width`` picks holds.  Every add
    and every quotient is still tested for the guard (``_add_rows``,
    ``_divide``).
    """
    length, width = packing.length, packing.width
    states = [[1]]  # G_(w+1): at N = 0, the row z^0 holding the packed 1
    for i in range(w, 0, -1):
        lift, below = i > b0, max(0, i - 1 - b0)
        quotients, nxt = [], []
        n = 0
        while True:
            shift = n * n - n + lift * n
            need = length - (i - 1) * (n * n - n) - below * n - shift
            top = z_max - i * n
            if need <= 0 or top < 0:
                break
            if n < len(states):
                quotients.append(states[n])
                states[n] = None  # so it is freed once its quotient is divided
            total = [0] * (top + 1)
            for m, rows in enumerate(quotients):
                if m < n:
                    rows = quotients[m] = [
                        _divide(x, n - m, need, packing) if x else 0 for x in rows[: top + 1]
                    ]
                _add_rows(total, rows, packing)
            nxt.append([0] * n + [x << shift * width for x in total])
            n += 1
        states = nxt
    rows = [0] * (z_max + 1)
    for state in states:
        _add_rows(rows, state, packing)
    return [_unpack(row, width) for row in rows]


def _add_rows(total, rows, packing) -> None:
    """total[z] += rows[z] for every nonzero packed row, rows no longer
    than total; each add of two clean values is tested for the guard, as
    ``series._add_shifted`` tests it."""
    guard = packing.guard
    for z, x in enumerate(rows):
        if x:
            x += total[z]
            if x & guard:
                raise _Overflow(packing.width)
            total[z] = x


def fermionic_r3(k: int, b0: int, q_max: int, z_max: int) -> TruncatedSeries:
    """Fermionic character for rank 3 with b = (b0, k)."""
    return evaluate_gordon_sum(_data_r3(k, b0, _leading(k, z_max)), q_max, z_max)


def fermionic_r3_special(k: int, q_max: int, z_max: int) -> TruncatedSeries:
    """Fermionic character for rank 3 at b = (floor((k+1)/2), k)."""
    return evaluate_gordon_sum(_data_r3_special(k, _leading(k, z_max)), q_max, z_max)


def level_restricted_partitions(n: int, k: int):
    """All partitions of n with parts at most k, as multiplicity tuples m,
    m[a-1] the number of parts of size a.

    They are the conjugates of the partitions of n into at most k parts,
    ``partitions_max_parts(n, k)``: the conjugate of lam has
    lam_a - lam_(a+1) parts of size a, with lam padded with zeros to
    length k + 1.  A negative n has none.  Each tuple has k entries, so a
    k past MAX_CELLS is refused with CapacityError before the first one is
    built.
    """
    validate_k(k)
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n}")
    _check_cells(k, "each multiplicity tuple needs {} entries")
    for lam in partitions_max_parts(n, k):
        padded = lam + (0,) * (k + 1 - len(lam))
        yield tuple(map(sub, padded, padded[1:]))
