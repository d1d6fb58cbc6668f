import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admissible import fermionic, series
from admissible.configurations import CapacityError, character_direct
from admissible.fermionic import (
    GordonData,
    boundary_c2,
    boundary_c3,
    evaluate_gordon_sum,
    fermionic_r2,
    fermionic_r3,
    fermionic_r3_special,
    gordon_a,
    gordon_a2,
    gordon_b,
    gordon_b3,
    gordon_data_r2,
    gordon_data_r3,
    gordon_data_r3_special,
    level_restricted_partitions,
    quadratic_exponent,
)
from admissible.series import TruncatedSeries, _Overflow
from brute_force import _multiplicity_vectors, _pochhammer_inverse_coeffs, enumerate_configs


class TestMatrices:
    def test_a2_displays(self):
        assert gordon_a2(1) == [[2]]
        assert gordon_a2(2) == [[2, 2], [2, 4]]
        assert gordon_a2(3) == [[2, 2, 2], [2, 4, 4], [2, 4, 6]]

    def test_b3_displays(self):
        assert gordon_b3(1) == [[1]]
        assert gordon_b3(2) == [[0, 1], [1, 2]]
        assert gordon_b3(3) == [[0, 0, 1], [0, 1, 2], [1, 2, 3]]

    def test_a_block_displays(self):
        assert gordon_a(1) == [[2, 1], [1, 2]]
        assert gordon_a(2) == [
            [2, 2, 0, 1],
            [2, 4, 1, 2],
            [0, 1, 2, 2],
            [1, 2, 2, 4],
        ]
        assert gordon_a(3) == [
            [2, 2, 2, 0, 0, 1],
            [2, 4, 4, 0, 1, 2],
            [2, 4, 6, 1, 2, 3],
            [0, 0, 1, 2, 2, 2],
            [0, 1, 2, 2, 4, 4],
            [1, 2, 3, 2, 4, 6],
        ]

    def test_b_is_entrywise_sum(self):
        assert gordon_b(1) == [[3]]
        assert gordon_b(2) == [[2, 3], [3, 6]]
        assert gordon_b(3) == [[2, 2, 3], [2, 5, 6], [3, 6, 9]]
        for k in range(1, 7):
            a2, b3, b = gordon_a2(k), gordon_b3(k), gordon_b(k)
            for i in range(k):
                for j in range(k):
                    assert b[i][j] == a2[i][j] + b3[i][j]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetry_and_positivity(self, k):
        for mat in (gordon_a2(k), gordon_b3(k), gordon_a(k), gordon_b(k)):
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] == mat[j][i]
                    assert mat[i][j] >= 0


class TestBoundaryVectors:
    def test_c2(self):
        assert boundary_c2(3, 1) == [0, 1, 2]
        assert boundary_c2(2, 2) == [0, 0]
        assert boundary_c2(1, 0) == [1]

    def test_c3(self):
        assert boundary_c3(1, 0) == [1, 0]
        assert boundary_c3(2, 2) == [0, 0, 0, 0]
        assert boundary_c3(2, 0) == [1, 2, 0, 0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            boundary_c2(2, 3)
        with pytest.raises(ValueError):
            boundary_c3(2, -1)


class TestExponent:
    def test_integrality_and_positivity_over_grid(self):
        for k in range(1, 4):
            for b0 in range(k + 1):
                data = gordon_data_r2(k, b0)
                for n in range(9):
                    for m in _multiplicity_vectors(data.z_weights, n):
                        e = quadratic_exponent(data, m)
                        assert isinstance(e, int) and e >= 0

    def test_r3_exponent_is_the_unhalved_block_form(self):
        for k in range(1, 4):
            a = gordon_a(k)
            for b0 in range(k + 1):
                c = boundary_c3(k, b0)
                data = gordon_data_r3(k, b0)
                for n in range(9):
                    for m in _multiplicity_vectors(data.z_weights, n):
                        quad = sum(
                            a[i][j] * m[i] * m[j] for i in range(2 * k) for j in range(2 * k)
                        )
                        lin = sum(a[i][i] * m[i] for i in range(2 * k))
                        bound = 2 * sum(ci * mi for ci, mi in zip(c, m))
                        assert quadratic_exponent(data, m) == quad - lin + bound, (k, b0, m)

    def test_spec_example_weight(self):
        # the partition (2, 1) of level 3: one part each of sizes 1 and 2
        assert quadratic_exponent(gordon_data_r2(3, 1), (1, 1, 0)) == 3

    def test_gordon_data_validation(self):
        with pytest.raises(ValueError):
            GordonData(
                matrix=((1, 2), (3, 1)),  # not symmetric
                boundary=(0, 0),
                q_step=1,
                z_weights=(1, 2),
                extra_q_weights=(0, 0),
            )

    @pytest.mark.parametrize(
        "matrix", [((1, 2),), ((1, 2), (2,)), ((1, 2, 0), (2, 1, 0))],
        ids=["one-row", "ragged", "wide"],
    )
    def test_non_square_matrix_rejected(self, matrix):
        with pytest.raises(ValueError, match="matrix must be square and symmetric"):
            GordonData(
                matrix=matrix, boundary=(0, 0), q_step=1, z_weights=(1, 2),
                extra_q_weights=(0, 0),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("boundary", (-3,)),
            ("extra_q_weights", (-1,)),
            ("z_weights", (0,)),
            ("z_weights", (-1,)),
        ],
    )
    def test_data_outside_the_walk_precondition_rejected(self, field, value):
        fields = dict(
            matrix=((2,),),
            boundary=(0,),
            q_step=1,
            z_weights=(1,),
            extra_q_weights=(0,),
        )
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            GordonData(**fields)


class TestFermionicR2:
    def test_z0_block_is_one(self):
        for k in (1, 2, 3):
            for b0 in range(k + 1):
                f = fermionic_r2(k, b0, 8, 3)
                assert f.z_block(0) == TruncatedSeries([[1]], 8)

    def test_k1_b1_z1_block(self):
        f = fermionic_r2(1, 1, 6, 2)
        assert [f.z_block(1).coefficient(d) for d in range(7)] == [1] * 7

    def test_k1_b0_z2_block(self):
        f = fermionic_r2(1, 0, 8, 2)
        # q^4 / (q)_2
        expect = [0] * 4 + _pochhammer_inverse_coeffs((2,), 1, 4)
        assert f.z_block(2) == TruncatedSeries([expect], 8)

    def test_matches_direct_small(self):
        for k in (1, 2):
            for b0 in range(k + 1):
                assert fermionic_r2(k, b0, 12, 6) == character_direct(
                    k, 2, (b0,), 12, 6
                )


def _gordon_product(k, c, order):
    """prod_{n >= 1, n != 0, +-(c+1) mod 2k+3} (1 - q^n)^(-1) through q^order."""
    modulus = 2 * k + 3
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        if n % modulus in (0, c + 1, modulus - c - 1):
            continue
        for d in range(n, order + 1):
            coeffs[d] += coeffs[d - n]
    return coeffs


def _at_z_equals_q(series, order):
    """The coefficients through q^order of series(q, z = q)."""
    out = [0] * (order + 1)
    for dq, dz, c in series.terms():
        if dq + dz <= order:
            out[dq + dz] += c
    return out


class TestGordonProductIdentity:
    """At z = q the r = 2 character is Gordon's product (Gordon 1961;
    Andrews, The Theory of Partitions, ch. 7): a check from outside the
    package's own routes."""

    ORDER = 60

    @pytest.mark.parametrize(
        "k, c", [(k, c) for k in range(1, 5) for c in range(k + 1)]
    )
    @pytest.mark.parametrize("route", ["direct", "fermionic"])
    def test_diagonal_sums_equal_the_product(self, route, k, c):
        n = self.ORDER
        if route == "direct":
            series = character_direct(k, 2, (c,), n, n)
        else:
            series = fermionic_r2(k, c, n, n)
        assert _at_z_equals_q(series, n) == _gordon_product(k, c, n)


class TestFermionicR3:
    def test_z0_block_is_one(self):
        for k in (1, 2):
            for b0 in range(k + 1):
                f = fermionic_r3(k, b0, 8, 3)
                assert f.z_block(0) == TruncatedSeries([[1]], 8)

    def test_k1_b0_z1_block(self):
        f = fermionic_r3(1, 0, 8, 1)
        assert [f.z_block(1).coefficient(d) for d in range(9)] == [0] + [1] * 8

    def test_k1_b1_z1_block(self):
        f = fermionic_r3(1, 1, 8, 1)
        assert [f.z_block(1).coefficient(d) for d in range(9)] == [1] * 9

    def test_matches_direct_small(self):
        for k in (1, 2):
            for b0 in range(k + 1):
                assert fermionic_r3(k, b0, 12, 5) == character_direct(
                    k, 3, (b0, k), 12, 5
                )


class TestFermionicSpecial:
    def test_k1_z1_block(self):
        f = fermionic_r3_special(1, 8, 1)
        assert [f.z_block(1).coefficient(d) for d in range(9)] == [1] * 9

    def test_z0_block_is_one(self):
        for k in (1, 2, 3, 4):
            assert fermionic_r3_special(k, 6, 2).z_block(0) == TruncatedSeries([[1]], 6)

    def test_k2_equals_general_formula(self):
        assert fermionic_r3_special(2, 10, 5) == fermionic_r3(2, 1, 10, 5)
        assert fermionic_r3_special(2, 10, 5) == character_direct(
            2, 3, (1, 2), 10, 5
        )


class TestPartitionEnumeration:
    def test_enumeration_count_against_dp(self):
        def count(n, k):
            table = [1] + [0] * n
            for part in range(1, k + 1):
                for total in range(part, n + 1):
                    table[total] += table[total - part]
            return table[n]

        for k in range(1, 7):
            for n in range(13):
                got = list(level_restricted_partitions(n, k))
                assert len(got) == count(n, k)
                assert len(set(got)) == len(got)
                assert all(
                    len(m) == k and sum((a + 1) * x for a, x in enumerate(m)) == n
                    for m in got
                )
                assert set(got) == set(_multiplicity_vectors(tuple(range(1, k + 1)), n))
        # a level far above the size, and a negative size
        assert len(list(level_restricted_partitions(3, 5000))) == 3
        assert list(level_restricted_partitions(-1, 1)) == []

    def test_a_level_whose_tuples_pass_max_cells_is_refused(self):
        # each tuple has k entries: refused before the first one is built
        with pytest.raises(
            CapacityError,
            match=r"^each multiplicity tuple needs 1000000000000 entries, over the limit of",
        ):
            next(level_restricted_partitions(4, 10**12))


def partition_term(m, data, q_max):
    """Dense q-row of one partition's term q^weight / prod (q)_{m_a}."""
    weight = quadratic_exponent(data, m)
    if weight > q_max:
        return [0] * (q_max + 1)
    return [0] * weight + _pochhammer_inverse_coeffs(m, data.q_step, q_max - weight)


def partition_sum(data, k, n, q_max):
    """The z^n block summed one level-k partition of n at a time."""
    rows = [partition_term(part, data, q_max) for part in level_restricted_partitions(n, k)]
    return TruncatedSeries([list(map(sum, zip(*rows)))], q_max)


class TestPartitionTerm:
    """The per-partition terms, priced one at a time, regroup into the
    z-blocks of the pruned walk."""

    def test_empty_partition(self):
        assert partition_term((0, 0), gordon_data_r2(2, 1), 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_spec_example(self):
        # weight 3, two single-part Pochhammers: q^3 / (1-q)^2
        data = gordon_data_r2(3, 1)
        assert partition_term((1, 1, 0), data, 9) == [0, 0, 0, 1, 2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("k,b0", [(1, 0), (2, 1), (3, 1), (3, 3)])
    def test_regrouping_reproduces_z_blocks(self, k, b0):
        qmax = 14
        data = gordon_data_r2(k, b0)
        f = fermionic_r2(k, b0, qmax, 6)
        for n in range(7):
            assert partition_sum(data, k, n, qmax) == f.z_block(n), (k, b0, n)

    def test_special_variant_terms_sum(self):
        k, qmax = 3, 12
        data = gordon_data_r3_special(k)
        f = fermionic_r3_special(k, qmax, 5)
        for n in range(6):
            assert partition_sum(data, k, n, qmax) == f.z_block(n), n


class TestEvaluatorPlumbing:
    def test_r3_data_shape(self):
        data = gordon_data_r3(2, 1)
        assert len(data.matrix) == 4
        assert data.z_weights == (1, 2, 1, 2)
        assert data.extra_q_weights == (0, 0, 1, 2)
        assert data.q_step == 2

    def test_evaluate_zero_window(self):
        assert evaluate_gordon_sum(gordon_data_r2(2, 2), 0, 0) == TruncatedSeries([[1]], 0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="q_max and z_max must be non-negative"):
            evaluate_gordon_sum(gordon_data_r2(1, 0), 3, -2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fermionic_r2(10**5, 0, 0, 10**5),
            lambda: fermionic_r3(2000, 0, 0, 2000),
            lambda: gordon_a2(10**5),
        ],
        ids=["r2", "r3", "gordon_a2"],
    )
    def test_oversized_gordon_matrix_refused(self, build):
        # The sums build the leading min(k, z_max) coordinates of each block,
        # so only a window with a large z_max needs the large matrix.
        with pytest.raises(CapacityError, match="Gordon matrix needs [0-9]+ entries"):
            build()


class TestWindowSizedData:
    """A coordinate whose z-weight is past z_max is never raised, so the
    sums build the Gordon data of the leading min(k, z_max) coordinates of
    each block only."""

    @pytest.mark.parametrize(
        "got, k, r, b",
        [
            (lambda: fermionic_r2(10**5, 3, 5, 5), 10**5, 2, (3,)),
            (lambda: fermionic_r3(2000, 3, 5, 5), 2000, 3, (3, 2000)),
            (lambda: fermionic_r3_special(2001, 5, 5), 2001, 3, (1001, 2001)),
        ],
        ids=["r2", "r3", "r3-special"],
    )
    def test_large_level_small_window_equals_direct(self, got, k, r, b):
        assert got() == character_direct(k, r, b, 5, 5)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_window_below_the_level_equals_direct(self, k):
        for z_max in range(k):
            for b0 in range(k + 1):
                assert fermionic_r2(k, b0, 16, z_max) == character_direct(
                    k, 2, (b0,), 16, z_max
                ), (b0, z_max)
                assert fermionic_r3(k, b0, 16, z_max) == character_direct(
                    k, 3, (b0, k), 16, z_max
                ), (b0, z_max)
            assert fermionic_r3_special(k, 16, z_max) == character_direct(
                k, 3, ((k + 1) // 2, k), 16, z_max
            ), z_max


def window_vectors(data, q_max, z_max):
    """(m, z-degree, shift) of every vector in the window, one at a time."""
    for n in range(z_max + 1):
        for m in _multiplicity_vectors(data.z_weights, n):
            shift = quadratic_exponent(data, m) + sum(
                w * x for w, x in zip(data.extra_q_weights, m)
            )
            if shift <= q_max:
                yield m, n, shift


def brute_force_sum(data, q_max, z_max):
    """Every vector of each z-degree, priced and expanded on its own."""
    rows = [[0] * (q_max + 1) for _ in range(z_max + 1)]
    for m, n, shift in window_vectors(data, q_max, z_max):
        poch = _pochhammer_inverse_coeffs(m, data.q_step, q_max - shift)
        for d, c in enumerate(poch, shift):
            rows[n][d] += c
    return TruncatedSeries(rows, q_max, z_max)


def walk_r2_6_1():
    """The walk of the data that fermionic_r2(6, 1, 100, 50) walked before
    its window, which raises six coordinates, took the partial-sum fold."""
    return evaluate_gordon_sum(gordon_data_r2(6, 1), 100, 50)


@st.composite
def sum_windows(draw):
    n = draw(st.integers(1, 4))
    upper = [[draw(st.integers(0, 4)) for _ in range(n)] for _ in range(n)]
    matrix = tuple(
        tuple(upper[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)
    )

    def vector(lo, hi):
        return tuple(draw(st.integers(lo, hi)) for _ in range(n))

    data = GordonData(
        matrix=matrix,
        boundary=vector(0, 3),
        q_step=draw(st.integers(1, 2)),
        z_weights=vector(1, 3),
        extra_q_weights=vector(0, 2),
    )
    return data, draw(st.integers(0, 25)), draw(st.integers(0, 10))


@st.composite
def chained_windows(draw):
    """Sum data, the heads of its chains, and a window.  The coordinates
    fall into chains in which each coordinate covers the one before it
    (``fermionic._chains``).

    Within a chain the matrix is a two-way prefix sum of non-negative
    symmetric increments, so every column is entrywise at least the one
    before it; boundary plus extra q-weight and the z-weight never fall.
    Zero increments give ties.  A chain head is drawn afresh, so it may
    break any of the three.
    """
    n = draw(st.integers(2, 5))
    heads = [0] + sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    head = [max(h for h in heads if h <= i) for i in range(n)]
    small = st.one_of(st.just(0), st.integers(0, 2))
    upper = [[draw(small) for _ in range(n)] for _ in range(n)]
    step = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    matrix = tuple(
        tuple(
            sum(step[s][t] for s in range(head[i], i + 1) for t in range(head[j], j + 1))
            for j in range(n)
        )
        for i in range(n)
    )
    lift, weights = [], []
    for i in range(n):
        fresh = head[i] == i
        lift.append((0 if fresh else lift[-1]) + draw(st.integers(0, 2)))
        weights.append(draw(st.integers(1, 3)) if fresh else weights[-1] + draw(st.integers(0, 1)))
    boundary = tuple(draw(st.integers(0, x)) for x in lift)
    data = GordonData(
        matrix=matrix,
        boundary=boundary,
        q_step=draw(st.integers(1, 2)),
        z_weights=tuple(weights),
        extra_q_weights=tuple(x - c for x, c in zip(lift, boundary)),
    )
    return data, heads, draw(st.integers(0, 25)), draw(st.integers(0, 10))


def dense_exponent(data, m):
    """(m'Am - diag(A).m)/2 + c.m over the whole matrix, zeros included."""
    a, n = data.matrix, len(m)
    quad = sum(a[i][j] * m[i] * m[j] for i in range(n) for j in range(n))
    diag = sum(a[i][i] * m[i] for i in range(n))
    assert (quad - diag) % 2 == 0
    return (quad - diag) // 2 + sum(c * x for c, x in zip(data.boundary, m))


class TestSparseExponentAgainstDense:
    @pytest.mark.parametrize(
        "data, z_max",
        [
            *((gordon_data_r2(k, b0), 8) for k in (1, 2, 4) for b0 in range(k + 1)),
            *((gordon_data_r3(k, b0), 6) for k in (1, 2, 3) for b0 in range(k + 1)),
            *((gordon_data_r3_special(k), 8) for k in (1, 2, 3, 5)),
        ],
    )
    def test_every_vector_of_small_windows(self, data, z_max):
        for n in range(z_max + 1):
            for m in _multiplicity_vectors(data.z_weights, n):
                assert quadratic_exponent(data, m) == dense_exponent(data, m), m

    @settings(max_examples=200, deadline=None)
    @given(sum_windows(), st.data())
    def test_random_vectors_with_zeros(self, case, draw):
        data = case[0]
        entry = st.one_of(st.just(0), st.integers(0, 6))
        m = tuple(draw.draw(entry) for _ in data.matrix)
        assert quadratic_exponent(data, m) == dense_exponent(data, m)

    def test_list_and_tuple_vectors_agree(self):
        data = gordon_data_r3(2, 1)
        m = [0, 3, 0, 2]
        assert quadratic_exponent(data, m) == quadratic_exponent(data, tuple(m))
        assert quadratic_exponent(data, (0,) * 4) == 0


class TestPrunedWalkAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(sum_windows())
    def test_random_sum_data(self, case):
        data, q_max, z_max = case
        assert evaluate_gordon_sum(data, q_max, z_max) == brute_force_sum(data, q_max, z_max)

    @settings(max_examples=120, deadline=None)
    @given(chained_windows())
    def test_covered_chains(self, case):
        # The walk bounds each run of a chain by the run before it and
        # jumps to the next head at a bound of 0.
        data, heads, q_max, z_max = case
        chain = fermionic._chains(data)
        n = len(chain)
        assert all(chain[i - 1] > i for i in range(1, n) if i not in heads)
        assert evaluate_gordon_sum(data, q_max, z_max) == brute_force_sum(data, q_max, z_max)

    # Two coordinates where all but one clause of the cover test hold; were
    # coordinate 1 taken to cover 0, its run would stop at 0's last kept value
    # and drop a vector of the window.
    @pytest.mark.parametrize(
        "matrix, boundary, extra, weights, q_max, z_max",
        [
            (((2, 1), (1, 1)), (0, 0), (0, 0), (1, 1), 1, 4),
            (((0, 0), (0, 0)), (1, 0), (0, 0), (1, 1), 1, 4),
            (((0, 0), (0, 0)), (0, 0), (1, 0), (1, 1), 1, 4),
            (((0, 0), (0, 0)), (0, 0), (0, 0), (2, 1), 9, 3),
        ],
        ids=["column", "boundary", "extra-q-weight", "z-weight"],
    )
    def test_one_broken_clause_breaks_the_chain(
        self, matrix, boundary, extra, weights, q_max, z_max
    ):
        data = GordonData(
            matrix=matrix, boundary=boundary, q_step=1, z_weights=weights,
            extra_q_weights=extra,
        )
        assert fermionic._chains(data) == [1, 2]
        assert evaluate_gordon_sum(data, q_max, z_max) == brute_force_sum(data, q_max, z_max)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_chains_of_the_gordon_data(self, k):
        # Every block covers itself coordinate by coordinate; the r3 data
        # breaks at the second block's head.
        for b0 in range(k + 1):
            assert fermionic._chains(gordon_data_r2(k, b0)) == [k] * k
            assert fermionic._chains(gordon_data_r3(k, b0)) == [k] * k + [2 * k] * k
        assert fermionic._chains(gordon_data_r3_special(k)) == [k] * k

    @pytest.mark.parametrize(
        "data",
        [gordon_data_r2(3, 1), gordon_data_r3(2, 0), gordon_data_r3_special(3)],
        ids=["r2", "r3", "r3-special"],
    )
    @pytest.mark.parametrize("q_max, z_max", [(0, 6), (12, 0), (0, 0)])
    def test_degenerate_windows(self, data, q_max, z_max):
        assert evaluate_gordon_sum(data, q_max, z_max) == brute_force_sum(data, q_max, z_max)

    def test_vector_with_shift_exactly_q_max_is_kept(self):
        data = gordon_data_r2(2, 1)
        assert quadratic_exponent(data, (5, 0)) == 20
        assert evaluate_gordon_sum(data, 20, 5) == brute_force_sum(data, 20, 5)

    @pytest.mark.parametrize(
        "data",
        [
            *(pytest.param(gordon_data_r2(k, b0), id=f"r2-k{k}-b{b0}")
              for k in range(1, 5) for b0 in range(k + 1)),
            *(pytest.param(gordon_data_r3(k, b0), id=f"r3-k{k}-b{b0}")
              for k in range(1, 4) for b0 in range(k + 1)),
            *(pytest.param(gordon_data_r3_special(k), id=f"r3-special-k{k}") for k in range(1, 6)),
        ],
    )
    def test_gordon_data_at_a_real_window(self, data):
        # The pruned walk against every vector of the window, priced one by one.
        assert evaluate_gordon_sum(data, 20, 8) == brute_force_sum(data, 20, 8)

    @staticmethod
    def _priced(monkeypatch, run):
        """The quadratic_exponent calls of run(): the walk looks the
        module's function up at call time."""
        calls = 0
        price = fermionic.quadratic_exponent

        def counted(data, m):
            nonlocal calls
            calls += 1
            return price(data, m)

        monkeypatch.setattr(fermionic, "quadratic_exponent", counted)
        run()
        return calls

    def test_pruning_stays_on(self, monkeypatch):
        calls = self._priced(monkeypatch, walk_r2_6_1)
        weights = tuple(range(1, 7))
        brute = sum(1 for n in range(51) for _ in _multiplicity_vectors(weights, n))
        assert 0 < calls < brute // 10

    @pytest.mark.parametrize(
        "run, priced",
        [
            # fermionic_r2 walks a window that raises two coordinates
            pytest.param(lambda: fermionic_r2(2, 1, 20, 6), 16, id="window0-16"),
            pytest.param(walk_r2_6_1, 1274, id="window1-1274"),
        ],
    )
    def test_each_visited_vector_is_priced_once(self, monkeypatch, run, priced):
        # The benchmark counts priced vectors by these calls.  At
        # (6, 1, 100, 50) the window keeps 1,163 vectors; runs that stop at
        # their first vector past it price 2,455, and runs that also stop at
        # the bound a covered coordinate inherits price 1,274.
        assert self._priced(monkeypatch, run) == priced


class TestPochhammerMemo:
    """One memo per sum holds the Pochhammer inverse of each partition the
    window reaches, keyed by the partition's code sum_v count_v 2^(w v), so
    every vector of one partition, in whatever subtree, reads one inverse."""

    @staticmethod
    def _spy(monkeypatch):
        """Count the walk's divisions, and record (m, key, memo) at each call."""
        calls = {"divide": 0, "walks": []}
        divide, walk = fermionic._divide, fermionic._walk
        signature = inspect.signature(walk)

        def counted_divide(*args):
            calls["divide"] += 1
            return divide(*args)

        def spied_walk(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            calls["walks"].append((tuple(bound["m"]), bound["key"], bound["inverses"]))
            return walk(*args, **kwargs)

        monkeypatch.setattr(fermionic, "_divide", counted_divide)
        monkeypatch.setattr(fermionic, "_walk", spied_walk)
        return calls

    @staticmethod
    def _below_root(data, q_max, z_max):
        """The window's vectors below the root, and their distinct partitions."""
        kept = [m for m, _, _ in window_vectors(data, q_max, z_max) if any(m)]
        return len(kept), len({tuple(sorted(filter(None, m))) for m in kept})

    @staticmethod
    def _code(m):
        return sum(1 << len(m).bit_length() * v for v in m if v)

    def test_r2_builds_each_partition_once_and_divides_157_times(self, monkeypatch):
        kept, partitions = self._below_root(gordon_data_r2(6, 1), 100, 50)
        calls = self._spy(monkeypatch)
        walk_r2_6_1()
        (_, _, inverses), *_ = calls["walks"]
        # every entry but the root's was built once, then maybe lengthened
        assert len(inverses) - 1 == partitions == 77
        assert calls["divide"] == 157
        assert 0 < 4 * calls["divide"] <= kept

    def test_r3_lengthens_an_entry_and_stays_exact(self, monkeypatch):
        data = gordon_data_r3(2, 1)
        kept, partitions = self._below_root(data, 20, 10)
        calls = self._spy(monkeypatch)
        got = evaluate_gordon_sum(data, 20, 10)
        (_, _, inverses), *_ = calls["walks"]
        assert len(inverses) - 1 == partitions < calls["divide"] < kept
        monkeypatch.undo()
        assert got == brute_force_sum(data, 20, 10) == fermionic_r3(2, 1, 20, 10)

    def test_one_partition_in_two_subtrees_reads_one_inverse(self, monkeypatch):
        calls = self._spy(monkeypatch)
        walk_r2_6_1()
        entries = {}
        for m, key, inverses in calls["walks"]:
            assert key == self._code(m)
            entries[m] = inverses[key]
        # {1, 1} under e_1 and under e_2; and {1, 1} and {2}, whose codes
        # the field width of len(m).bit_length() bits keeps apart
        assert entries[(1, 1, 0, 0, 0, 0)] is entries[(0, 1, 1, 0, 0, 0)]
        assert entries[(1, 1, 0, 0, 0, 0)] is not entries[(2, 0, 0, 0, 0, 0)]


def transfer_r2(k, b0, q_max, z_max):
    """The partial-sum fold of the r2 sum on the window's w = min(k, z_max)
    coordinates, whatever w is, at the width the window takes."""
    packing = series._Packing(series._width(q_max, z_max), q_max + 1)
    rows = fermionic._transfer_r2(min(k, z_max), b0, z_max, packing)
    return TruncatedSeries(rows, q_max, z_max)


class TestTransferR2:
    """fermionic_r2 folds its sum over partial sums where the window raises
    fermionic._TRANSFER_FROM coordinates or more; the walk is its slow
    path, and direct an independent one."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_equals_the_walk_and_direct(self, k, data):
        b0 = data.draw(st.integers(0, k), label="b0")
        q_max = data.draw(st.integers(0, 60), label="q_max")
        z_max = data.draw(st.integers(1, 30), label="z_max")
        got = transfer_r2(k, b0, q_max, z_max)
        assert got == evaluate_gordon_sum(gordon_data_r2(k, b0), q_max, z_max)
        assert got == character_direct(k, 2, (b0,), q_max, z_max)

    @pytest.mark.parametrize("q_max, z_max", [(24, 8), (0, 6), (1, 4), (12, 1), (0, 1)])
    def test_every_level_and_cap(self, q_max, z_max):
        for k in range(1, 9):
            for b0 in range(k + 1):
                want = evaluate_gordon_sum(gordon_data_r2(k, b0), q_max, z_max)
                assert transfer_r2(k, b0, q_max, z_max) == want, (k, b0)

    @pytest.mark.parametrize(
        "window, folds",
        [
            ((3, 1, 60, 30), False),
            ((30, 1, 60, 3), False),
            ((4, 1, 60, 30), True),
            ((30, 1, 60, 4), True),
            ((6, 1, 100, 50), True),
        ],
    )
    def test_the_fold_starts_where_the_window_raises_four_coordinates(
        self, monkeypatch, window, folds
    ):
        assert fermionic._TRANSFER_FROM == 4
        called = []
        fold = fermionic._transfer_r2

        def spied(*args):
            called.append(args[:2])
            return fold(*args)

        monkeypatch.setattr(fermionic, "_transfer_r2", spied)
        k, b0, q_max, z_max = window
        got = fermionic_r2(*window)
        assert called == ([(min(k, z_max), b0)] if folds else [])
        assert got == character_direct(k, 2, (b0,), q_max, z_max)

    @pytest.mark.parametrize(
        "args",
        [
            (6, 7, 10, 10),  # b0 past k
            (6, -1, 10, 10),
            (6.5, 1, 10, 10),  # k not an int, its window raising six coordinates
            (6, 1, 10.5, 10),
            (6, 1, -1, 10),
            (6, 1, True, 10),
            (6, 1, 10**7, 10**6),  # the z-rows past MAX_CELLS
            (10**5, 3, 0, 10**5),  # the Gordon matrix past MAX_CELLS
        ],
    )
    def test_refusals_match_the_walk(self, args):
        k, b0, q_max, z_max = args
        w = fermionic._leading(k, z_max)
        assert w >= fermionic._TRANSFER_FROM
        with pytest.raises((ValueError, CapacityError)) as folded:
            fermionic_r2(*args)
        with pytest.raises((ValueError, CapacityError)) as walked:
            evaluate_gordon_sum(fermionic._data_r2(k, b0, w), q_max, z_max)
        assert type(folded.value) is type(walked.value)
        assert str(folded.value) == str(walked.value)


def tally(k, r, b, q_max, z_max):
    """The character counted one enumerated configuration at a time."""
    rows = [[0] * (q_max + 1) for _ in range(z_max + 1)]
    for cfg in enumerate_configs(k, r, b, q_max, z_max):
        rows[sum(cfg)][sum(j * a for j, a in enumerate(cfg))] += 1
    return TruncatedSeries(rows, q_max, z_max)


# A 4 x 4 sum with every matrix, boundary and extra entry 0 is no character:
# its coefficients grow past p(q_max).
ZERO_DATA = GordonData(((0,) * 4,) * 4, (0,) * 4, 1, (1,) * 4, (0,) * 4)
# A width table that gives every window here 8 bits.
EIGHT_BITS = ((10**9, 8),)


def spy_widths(monkeypatch) -> list:
    """The list that the width of every ``series._Packing`` built from now
    on is appended to."""
    widths = []
    packing = series._Packing

    def spied(width, length):
        widths.append(width)
        return packing(width, length)

    monkeypatch.setattr(series, "_Packing", spied)
    return widths


@st.composite
def zero_heavy_sums(draw):
    """Sum data of up to five coordinates, its entries mostly 0, whose
    coefficients come nearest the generic bound, and a window."""
    n = draw(st.integers(1, 5))
    small = st.one_of(st.just(0), st.integers(0, 2))
    upper = [[draw(small) for _ in range(n)] for _ in range(n)]
    matrix = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))

    def vector(entry):
        return tuple(draw(entry) for _ in range(n))

    data = GordonData(
        matrix=matrix,
        boundary=vector(small),
        q_step=draw(st.integers(1, 2)),
        z_weights=vector(st.integers(1, 2)),
        extra_q_weights=vector(small),
    )
    return data, draw(st.integers(0, 16)), draw(st.integers(0, 8))


class TestEachRouteRunsOnceAtAProvenWidth:
    """No route retries: each builds one packing, at a width it proved
    before it started.  A character route takes ``series._width``, and a
    sum over data a caller builds the wider ``fermionic._sum_bits``.  A
    guard bit that is reached anyway raises ``_Overflow``, an internal
    error that is no ValueError, and the route returns nothing."""

    @pytest.mark.parametrize(
        "route, reference",
        [
            (
                lambda: character_direct(3, 2, (1,), 22, 11),
                lambda: tally(3, 2, (1,), 22, 11),
            ),
            (
                lambda: fermionic_r2(2, 1, 30, 15),
                lambda: brute_force_sum(gordon_data_r2(2, 1), 30, 15),
            ),
            (
                lambda: fermionic_r2(4, 1, 40, 20),
                lambda: character_direct(4, 2, (1,), 40, 20),
            ),
            (
                lambda: fermionic_r3(2, 1, 30, 15),
                lambda: brute_force_sum(gordon_data_r3(2, 1), 30, 15),
            ),
            (
                lambda: fermionic_r3_special(3, 22, 11),
                lambda: brute_force_sum(gordon_data_r3_special(3), 22, 11),
            ),
        ],
        ids=["direct", "fermionic-r2-walk", "fermionic-r2-fold", "fermionic-r3",
             "fermionic-r3-special"],
    )
    def test_a_character_route_started_too_narrow_raises(
        self, monkeypatch, route, reference
    ):
        want = reference()
        assert max(max(row, default=0) for row in want.rows) > 127  # past an 8-bit field
        monkeypatch.setattr(series, "_WIDTHS", EIGHT_BITS)
        widths = spy_widths(monkeypatch)
        with pytest.raises(
            _Overflow, match="^a packed field reached the guard bit of its 8-bit field$"
        ) as err:
            route()
        assert widths == [8]
        assert not isinstance(err.value, ValueError)

    def test_data_that_is_no_character_runs_once_at_its_generic_width(self, monkeypatch):
        # 8 bits of vectors and 10 of coefficients per vector: 32 bits,
        # where the 8-bit width of a character at (6, 6) would overflow
        widths = spy_widths(monkeypatch)
        got = evaluate_gordon_sum(ZERO_DATA, 6, 6)
        assert widths == [series._fit(fermionic._sum_bits(ZERO_DATA, 6, 6))] == [32]
        assert series._width(6, 6) == 8
        assert max(max(row) for row in got.rows) > 127
        assert got == brute_force_sum(ZERO_DATA, 6, 6)

    def test_the_character_builders_carry_the_character_width(self, monkeypatch):
        widths = spy_widths(monkeypatch)
        for data in (gordon_data_r2(3, 1), gordon_data_r3(2, 0), gordon_data_r3_special(3)):
            evaluate_gordon_sum(data, 40, 20)
            assert widths.pop() == series._width(40, 20) and not widths
            # the same fields, under the subclass's name
            plain = repr(GordonData(*data._values()))
            assert repr(data) == "_CharacterData" + plain.removeprefix("GordonData")

    @settings(max_examples=60, deadline=None)
    @given(zero_heavy_sums())
    @example((ZERO_DATA, 12, 6))
    @example((ZERO_DATA, 4, 20))
    def test_the_generic_bound_holds_every_coefficient(self, case):
        data, q_max, z_max = case
        want = brute_force_sum(data, q_max, z_max)
        top = max((c for row in want.rows for c in row), default=0)
        assert top.bit_length() <= fermionic._sum_bits(data, q_max, z_max)
        assert evaluate_gordon_sum(data, q_max, z_max) == want


def test_a_wide_window_prices_each_vector_once(monkeypatch):
    # 77-bit coefficients: the walk runs once, at 128 bits, and prices
    # each vector once
    calls = []
    price = fermionic.quadratic_exponent

    def counted(data, m):
        calls.append(1)
        return price(data, m)

    monkeypatch.setattr(fermionic, "quadratic_exponent", counted)
    got = fermionic_r2(2, 1, 1000, 500)
    assert len(calls) == 464
    assert max(max(row, default=0) for row in got.rows).bit_length() == 77
