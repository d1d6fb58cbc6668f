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
descendant inside it.  The Pochhammer inverse of each vector is its previous
sibling's divided by one more factor, so no per-vector product is formed.
"""

from __future__ import annotations

from operator import add

from .configurations import _ValueRecord, _check_cells
from .configurations import validate_b, validate_k, validate_window
from .series import TruncatedSeries, _divide_by_one_minus


def gordon_a2(k: int) -> list[list[int]]:
    """k x k matrix with entries 2*min(a, b)."""
    validate_k(k)
    _check_cells(k * k, f"a {k} x {k} Gordon matrix needs {{}} entries")
    return [[2 * min(a, b) for b in range(1, k + 1)] for a in range(1, k + 1)]


def gordon_b3(k: int) -> list[list[int]]:
    """k x k matrix with entries max(0, a + b - k)."""
    validate_k(k)
    _check_cells(k * k, f"a {k} x {k} Gordon matrix needs {{}} entries")
    return [[max(0, a + b - k) for b in range(1, k + 1)] for a in range(1, k + 1)]


def gordon_a(k: int) -> list[list[int]]:
    """2k x 2k block matrix [[A2, B3], [B3, A2]]."""
    validate_k(k)
    _check_cells(4 * k * k, f"a {2 * k} x {2 * k} Gordon matrix needs {{}} entries")
    a2 = gordon_a2(k)
    b3 = gordon_b3(k)
    top = [a2[i] + b3[i] for i in range(k)]
    bottom = [b3[i] + a2[i] for i in range(k)]
    return top + bottom


def gordon_b(k: int) -> list[list[int]]:
    """k x k matrix with entries 2*min(a, b) + max(0, a + b - k)."""
    a2 = gordon_a2(k)
    b3 = gordon_b3(k)
    return [[a2[i][j] + b3[i][j] for j in range(k)] for i in range(k)]


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
    return GordonData(
        matrix=_freeze(gordon_a2(k)),
        boundary=tuple(boundary_c2(k, b0)),
        q_step=1,
        z_weights=tuple(range(1, k + 1)),
        extra_q_weights=(0,) * k,
    )


def gordon_data_r3(k: int, b0: int) -> GordonData:
    """Sum data for the rank-3 character with b = (b0, k).

    Coordinates are (m_{1,1}, ..., m_{1,k}, m_{2,1}, ..., m_{2,k}); the second
    block contributes an extra q^(l2) with l2 = sum_j j*m_{2,j}, and all
    Pochhammer factors run in q^2.  The exponent m'Am - diag(A).m + 2c.m of
    A = gordon_a(k), c = boundary_c3(k, b0) is carried as 2A and 2c.
    """
    return GordonData(
        matrix=_freeze([2 * x for x in row] for row in gordon_a(k)),
        boundary=tuple(2 * c for c in boundary_c3(k, b0)),
        q_step=2,
        z_weights=tuple(range(1, k + 1)) * 2,
        extra_q_weights=(0,) * k + tuple(range(1, k + 1)),
    )


def gordon_data_r3_special(k: int) -> GordonData:
    """Sum data for the rank-3 character at the symmetric initial cap.

    Uses the k x k matrix B with the boundary vector taken at
    b0 = floor((k+1)/2); this is the only b0 the closed form covers.
    """
    return GordonData(
        matrix=_freeze(gordon_b(k)),
        boundary=tuple(boundary_c2(k, (k + 1) // 2)),
        q_step=1,
        z_weights=tuple(range(1, k + 1)),
        extra_q_weights=(0,) * k,
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


def evaluate_gordon_sum(data: GordonData, q_max: int, z_max: int) -> TruncatedSeries:
    """Evaluate the fermionic sum as a truncated series in (q, z).

    A depth-first walk over the coordinates 0..n-1 visits each multiplicity
    vector in the window once: from a vector whose coordinates past i are 0,
    each later coordinate j > i is raised in a run m_j = 1, 2, ...  The shift
    quadratic_exponent(m) + extra_q_weights.m and the z-degree never
    decrease when a coordinate is raised (every entry of the matrix, the
    boundary and the weights is non-negative, and every z-weight is at least
    1), so a run stops at its first vector past the window: neither that
    vector's later siblings nor its descendants can lie inside it.  The
    Pochhammer inverse of m_j = v is that of m_j = v - 1, truncated at
    q_max - shift and divided by the one new factor (1 - q^(step*v)).
    """
    validate_window(q_max, z_max)
    _check_cells(
        (z_max + 1) * (q_max + 1), "the fermionic sum's z-rows need {} q-coefficients"
    )
    rows = [[0] * (q_max + 1) for _ in range(z_max + 1)]
    m = [0] * len(data.matrix)
    root_shift = quadratic_exponent(data, m)
    if root_shift <= q_max:
        _walk(data, rows, m, 0, 0, 0, root_shift, [1] + [0] * (q_max - root_shift))
    return TruncatedSeries(rows, q_max, z_max)


def _walk(data, rows, m, first, z, extra, shift, poch) -> None:
    """Add the terms of m (0 from coordinate first on) and of its descendants
    that lie in the window, which is the shape of rows; m is left as found."""
    q_max, z_max = len(rows[0]) - 1, len(rows) - 1
    rows[z][shift:] = map(add, rows[z][shift:], poch)
    for j in range(first, len(m)):
        cz, cx, cur = z, extra, poch
        for v in range(1, z_max + 1):
            cz += data.z_weights[j]
            if cz > z_max:
                break
            m[j] = v
            cx += data.extra_q_weights[j]
            cshift = quadratic_exponent(data, m) + cx
            if cshift > q_max:
                break
            cur = cur[: q_max - cshift + 1]
            _divide_by_one_minus(cur, data.q_step * v)
            _walk(data, rows, m, j + 1, cz, cx, cshift, cur)
        m[j] = 0


def fermionic_r2(k: int, b0: int, q_max: int, z_max: int) -> TruncatedSeries:
    """Fermionic character for rank 2, initial cap b0."""
    return evaluate_gordon_sum(gordon_data_r2(k, b0), q_max, z_max)


def fermionic_r3(k: int, b0: int, q_max: int, z_max: int) -> TruncatedSeries:
    """Fermionic character for rank 3 with b = (b0, k)."""
    return evaluate_gordon_sum(gordon_data_r3(k, b0), q_max, z_max)


def fermionic_r3_special(k: int, q_max: int, z_max: int) -> TruncatedSeries:
    """Fermionic character for rank 3 at b = (floor((k+1)/2), k)."""
    return evaluate_gordon_sum(gordon_data_r3_special(k), q_max, z_max)


def level_restricted_partitions(n: int, k: int):
    """All partitions of n with parts at most k, as multiplicity tuples m,
    m[a-1] the number of parts of size a."""
    validate_k(k)
    yield from _multiplicity_vectors(tuple(range(1, k + 1)), n)
