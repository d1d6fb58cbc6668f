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
on the data, once per sum.  On the benchmark's fermionic pool this prices
7,188 vectors a pass instead of 11,992.

Every coordinate shares one Pochhammer base, so the inverse for m_j = v
depends on v alone: the children m + v e_j of one node m with one v all
have m's inverse divided by (q^step; q^step)_v, whatever j is, and so their
own runs of inverses are one series too.  A node keeps
one run list per v and hands it to every child with that v, so an entry is
divided once for all the siblings that read it, and rebuilt only when a
later one needs it longer.  No per-vector product is formed.  The rows
and the inverses are packed q-lists of the one series kernel
(``series._Packing``), all >= 0, so each term is one shifted add and each
division one short run of shifted adds, in C.

The sums are sized by the window, not by the level: coordinate a of a block
has z-weight a, so one past z_max is never raised, and fermionic_r2,
fermionic_r3 and fermionic_r3_special build the Gordon data of the leading
min(k, z_max) coordinates of each block only.  The public gordon_* and
gordon_data_* builders keep the full k x k (2k x 2k) matrices.
"""

from __future__ import annotations

from operator import add, sub

from .configurations import _ValueRecord, _check_cells
from .configurations import validate_b, validate_k, validate_window
from .polyspaces import partitions_max_parts
from .series import TruncatedSeries, _add_shifted, _divide, _packed, _unpack


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
    validate_b(k, 2, (b0,))
    _check_cells(k, "the boundary vector needs {} entries")
    return [0] * b0 + list(range(1, k - b0 + 1))


def boundary_c3(k: int, b0: int) -> list[int]:
    """Length-2k vector: boundary_c2(k, b0) followed by k zeros."""
    _check_cells(2 * k, "the boundary vector needs {} entries")
    return boundary_c2(k, b0) + [0] * k


class GordonData(_ValueRecord):
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


def _freeze(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in matrix)


def gordon_data_r2(k: int, b0: int) -> GordonData:
    """Sum data for the rank-2 character with initial cap b0."""
    return _data_r2(k, b0, k)


def _data_r2(k: int, b0: int, w: int) -> GordonData:
    """gordon_data_r2(k, b0) on its leading w coordinates, in O(w^2)."""
    _check_matrix(k, w)
    validate_b(k, 2, (b0,))
    return GordonData(
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
    validate_b(k, 2, (b0,))
    return GordonData(
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
    return GordonData(
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
    ``_walk`` call.  The Pochhammer inverse of m_j = v is the parent's
    divided by (q^step; q^step)_v, whatever j is, so each parent keeps one
    run of these inverses for all its children, and the children with one v
    share the run of their own children's inverses (see ``_walk``).  The
    rows and the inverses are packed q-lists; a coefficient past the packed
    width restarts the walk at twice the width (``series._packed``), which
    prices every vector again.  data may cover only the coordinates a window
    can raise; the fermionic_* functions pass the leading min(k, z_max)
    coordinates of each block.
    """
    validate_window(q_max, z_max)
    _check_cells(
        (z_max + 1) * (q_max + 1), "the fermionic sum's z-rows need {} q-coefficients"
    )
    return TruncatedSeries(_packed(_sum_rows, q_max, data, z_max), q_max, z_max)


def _sum_rows(data, z_max, packing) -> list[list[int]]:
    """The z-rows of the sum: the walk's packed rows, unpacked."""
    rows = [0] * (z_max + 1)
    m = [0] * len(data.matrix)
    root_shift = quadratic_exponent(data, m)
    if root_shift < packing.length:
        rows[0] = _add_shifted(0, 1, root_shift, packing.length, packing)
        _walk(data, rows, m, 0, z_max, 0, 0, 1, packing, [], _chains(data))
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


def _walk(data, rows, m, first, bound, z, extra, poch, packing, run, chain) -> None:
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
    On the benchmark's fermionic pool a pass makes 1,838 calls, not the
    5,850 of one call per kept vector.

    poch is m's packed Pochhammer inverse; only its first q_max - shift + 1
    fields are read, shift being m's, and it is never changed.  run[v-1] is
    (inverse, length): poch divided by prod_{u<=v} (1 - q^(step*u)), the
    inverse of every child m_j = v, exact through its first length fields.
    run is shared with every sibling of m that has the same inverse (the
    vectors m' + v e_i of one parent m' and one v), so an entry one of them
    divided serves them all; an entry is replaced, never changed, and is at
    least as long as every child m_j = v priced so far needed.  A child at
    shift cshift needs q_max - cshift + 1 fields; when run[v-1] is missing
    or shorter, it is rebuilt from run[v-2], which the child m_j = v - 1
    made long enough at a shift no larger, or, for v = 1, from poch, which
    is long enough for every child.  The node keeps one run per v for its
    own children, runs[v-1], and hands it to each child m_j = v.
    """
    length = packing.length
    z_max, n = len(rows) - 1, len(m)
    runs = []
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
        for v, cshift in enumerate(shifts, 1):
            need = length - cshift
            if v > len(run) or run[v - 1][1] < need:
                cur = _divide(run[v - 2][0] if v > 1 else poch, data.q_step * v, need, packing)
                run[v - 1 : v] = [(cur, need)]
            cur = run[v - 1][0]
            cz = z + v * step
            rows[cz] = _add_shifted(rows[cz], cur, cshift, length, packing)
            # the child walks on from j + 1, bounded there if j + 1 covers
            # j, or from the next chain's start at a bound of 0
            if nxt == j + 1:
                cfirst, cbound = j + 1, z_max
            elif last - v:
                cfirst, cbound = j + 1, last - v
            else:
                cfirst, cbound = nxt, z_max
            if cfirst < n:
                if v > len(runs):
                    runs.append([])
                m[j] = v
                _walk(data, rows, m, cfirst, cbound, cz, extra + v * lift, cur, packing,
                      runs[v - 1], chain)
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
    coordinate a has z-weight a, so those past z_max stay 0."""
    return min(k, max(z_max, 0))


def fermionic_r2(k: int, b0: int, q_max: int, z_max: int) -> TruncatedSeries:
    """Fermionic character for rank 2, initial cap b0."""
    return evaluate_gordon_sum(_data_r2(k, b0, _leading(k, z_max)), q_max, z_max)


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
    length k + 1.  A negative n has none.
    """
    validate_k(k)
    for lam in partitions_max_parts(n, k):
        padded = lam + (0,) * (k + 1 - len(lam))
        yield tuple(map(sub, padded, padded[1:]))
