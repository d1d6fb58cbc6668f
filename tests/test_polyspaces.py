import itertools
import random
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import admissible.polyspaces as polyspaces
from admissible.configurations import character_direct
from admissible.fermionic import (
    GordonData,
    boundary_c3,
    gordon_a,
    gordon_data_r2,
    gordon_data_r3_special,
    level_restricted_partitions,
    partition_term,
    quadratic_exponent,
)
from admissible.polyspaces import (
    CapacityError,
    VanishingSpec,
    _basis,
    _bareiss_rank,
    _certified_rank,
    _condition_rows,
    _echelon_mod_p,
    _kernel_certified,
    _substitute_monomial,
    character_from_oracle_r2,
    character_from_oracle_r3,
    graded_dimension,
    oracle_block,
    partitions_max_parts,
    vanishing_spec_r2,
    vanishing_spec_r3_pair,
    vanishing_spec_r3_signed,
    weight_degree,
)
from admissible.series import TruncatedSeries, first_mismatch


class TestBasis:
    def test_partition_counts(self):
        # number of partitions of d into at most n parts, independent DP
        def count(d, n):
            table = [[0] * (n + 1) for _ in range(d + 1)]
            for parts in range(n + 1):
                table[0][parts] = 1
            for total in range(1, d + 1):
                for parts in range(1, n + 1):
                    table[total][parts] = table[total][parts - 1] + (
                        table[total - parts][parts] if total >= parts else 0
                    )
            return table[d][n]

        for n in range(5):
            for d in range(10):
                assert len(partitions_max_parts(d, n)) == count(d, n)

    def test_zero_variables(self):
        assert partitions_max_parts(0, 0) == [()]
        assert partitions_max_parts(3, 0) == []


class TestSubstitution:
    # hand-expanded images of m_(2,1)(x1, x2, x3)

    def test_plus_minus_free(self):
        # x1 = t, x2 = -t, x3 free: everything cancels except 2 t^2 x3
        got = _substitute_monomial((2, 1), 3, (1, 1, 0))
        assert got == {(2, (1,)): 2}

    def test_leading_zero(self):
        # x1 = 0: the surviving terms form m_(2,1) in the two free variables
        got = _substitute_monomial((2, 1), 3, (0, 0, 1))
        assert got == {(0, (2, 1)): 1}

    def test_double_diagonal(self):
        # x1 = x2 = t: 2t^3 + 2t^2 x3 + 2t x3^2
        got = _substitute_monomial((2, 1), 3, (2, 0, 0))
        assert got == {(3, ()): 2, (2, (1,)): 2, (1, (2,)): 2}

    def test_degree_zero_constant(self):
        # the constant 1 maps to 1 under any pattern
        assert _substitute_monomial((), 2, (1, 1, 0)) == {(0, ()): 1}

    def test_equals_literal_expansion(self):
        # every rho with n <= 5 and |rho| <= 7, under every pattern
        for n in range(6):
            for size in range(8):
                for rho in partitions_max_parts(size, n):
                    for p in range(n + 1):
                        for m in range(n + 1 - p):
                            for z in range(n + 1 - p - m):
                                got = _substitute_monomial(rho, n, (p, m, z))
                                want = _expand_literally(rho, n, (p, m, z))
                                assert got == want, (rho, n, (p, m, z))


def _expand_literally(rho, n, pattern):
    """m_rho under a pattern, term by term over the distinct permutations.

    The image is symmetric in the free variables, so the coefficient of
    m_sigma is that of the one monomial whose free exponents are sigma,
    descending and padded with zeros.
    """
    p, m, z = pattern
    poly = {}
    for values in set(itertools.permutations(rho + (0,) * (n - len(rho)))):
        if any(values[p + m:p + m + z]):
            continue
        sign = -1 if sum(values[p:p + m]) % 2 else 1
        key = (sum(values[:p + m]), values[p + m + z:])
        poly[key] = poly.get(key, 0) + sign
    return {
        (t, tuple(v for v in free if v)): c
        for (t, free), c in poly.items()
        if c and list(free) == sorted(free, reverse=True)
    }


class TestSpecValidation:
    def test_oversized_pattern_rejected(self):
        with pytest.raises(ValueError):
            VanishingSpec((2,), (((3, 0, 0),),), 4)

    def test_family_count(self):
        with pytest.raises(ValueError):
            VanishingSpec((1, 1, 1), (), 4)

    def test_capacity_errors_are_explicit(self):
        spec = VanishingSpec((9,), (), 4)
        with pytest.raises(CapacityError, match="9 variables"):
            graded_dimension(spec)
        with pytest.raises(CapacityError):
            graded_dimension(VanishingSpec((2,), (), 20))

    def test_builders_skip_inapplicable_patterns(self):
        # one variable: k+1 = 2 > 1, so only the zero condition for b0 = 0
        spec = vanishing_spec_r2(1, 1, 0, 4)
        assert len(spec.conditions) == 1
        spec = vanishing_spec_r2(1, 1, 1, 4)
        assert len(spec.conditions) == 0

    def test_r3_builders_equal_a_filter_over_every_pattern(self):
        # The patterns a + b = k + 1 and s + t = b1 + 1 of every split, in
        # order, kept where they fit the families.
        def pair(l1, l2, k, b0, b1):
            conds = [((a, 0, 0), (k + 1 - a, 0, 0))
                     for a in range(k + 2) if a <= l1 and k + 1 - a <= l2]
            if b0 + 1 <= l1:
                conds.append(((0, 0, b0 + 1), (0, 0, 0)))
            if b1 < k:
                conds += [((0, 0, s), (0, 0, b1 + 1 - s))
                          for s in range(b1 + 2) if s <= l1 and b1 + 1 - s <= l2]
            return tuple(conds)

        def signed(n, k, b0):
            conds = [((a, k + 1 - a, 0),) for a in range(k + 2) if k + 1 <= n]
            return tuple(conds + [((0, 0, b0 + 1),)] * (b0 + 1 <= n))

        for k in range(1, 6):
            for l1, l2 in itertools.product(range(5), repeat=2):
                for b0 in range(k + 1):
                    got = vanishing_spec_r3_signed(l1 + l2, k, b0, 3).conditions
                    assert got == signed(l1 + l2, k, b0), (k, l1 + l2, b0)
                    for b1 in range(b0, k + 1):
                        got = vanishing_spec_r3_pair(l1, l2, k, b0, b1, 3).conditions
                        assert got == pair(l1, l2, k, b0, b1), (l1, l2, k, b0, b1)

    def test_builders_refuse_before_building_any_condition(self):
        # A loop over k or over the variables would not end at these sizes.
        big = 10**12
        spec = vanishing_spec_r3_pair(1, 1, big, 0, big - 1, 2)
        assert spec.conditions == (((0, 0, 1), (0, 0, 0)),)
        for build in (
            lambda: vanishing_spec_r2(big, big, 0, 2),
            lambda: vanishing_spec_r3_pair(big, big, big, 0, big, 2),
            lambda: vanishing_spec_r3_signed(big + 1, big, 0, 2),
        ):
            with pytest.raises(CapacityError, match="variables exceeds the limit of 8"):
                build()


class TestGradedDimension:
    def test_single_variable_unconstrained(self):
        dims = graded_dimension(vanishing_spec_r2(1, 1, 1, 6))
        assert dims == [1] * 7

    def test_spec_example_n2_k1(self):
        dims = graded_dimension(vanishing_spec_r2(2, 1, 0, 8))
        assert dims == [0, 0, 0, 0, 1, 1, 2, 2, 3]

    def test_against_direct_z_blocks_r2(self):
        for k in (1, 2):
            for b0 in range(k + 1):
                chi = character_direct(k, 2, (b0,), 10, 4)
                for n in range(5):
                    oracle = character_from_oracle_r2(n, k, b0, 10)
                    assert oracle == chi.z_block(n), (k, b0, n)

    def test_pair_space_example(self):
        # one x, one y, k=1, b0=0: conditions x=y and x=0
        spec = vanishing_spec_r3_pair(1, 1, 1, 0, 1, 5)
        assert graded_dimension(spec) == [0, 0, 1, 2, 3, 4]

    def test_assembled_oracle_matches_direct_r3(self):
        for k in (1, 2):
            for b0 in range(k + 1):
                chi = character_direct(k, 3, (b0, k), 13, 3)
                for n in range(4):
                    oracle = character_from_oracle_r3(n, k, b0, k, 6)
                    assert oracle == chi.z_block(n), (k, b0, n)

    @pytest.mark.parametrize("r, b", [(2, (0,)), (3, (0, 1))], ids=["r2", "r3"])
    @pytest.mark.parametrize("q_order, n", [(5, -1), (-1, 1)], ids=["n", "q_order"])
    def test_oracle_block_refuses_a_negative_window(self, r, b, q_order, n):
        with pytest.raises(ValueError, match="q_max and z_max must be non-negative"):
            oracle_block(1, r, b, q_order, n)

    def test_r3_oracle_character_refuses_negative_n(self):
        with pytest.raises(ValueError, match="q_max and z_max must be non-negative"):
            character_from_oracle_r3(-1, 1, 0, 1, 3)

    def test_signed_spec_matches_direct(self):
        for k in (1, 2, 3):
            b0 = (k + 1) // 2
            chi = character_direct(k, 3, (b0, k), 8, 3)
            for n in range(4):
                dims = graded_dimension(vanishing_spec_r3_signed(n, k, b0, 8))
                series = TruncatedSeries(
                    {(d, 0): c for d, c in enumerate(dims)}, 8, 0
                )
                assert series == chi.z_block(n), (k, n)

    def test_column_permutation_leaves_rank_invariant(self):
        spec = vanishing_spec_r2(4, 2, 1, 6)
        basis = _basis(spec, 6)
        rows = []
        for cond in spec.conditions:
            rows.extend(_condition_rows(spec, cond, basis))
        base_rank = _certified_rank(rows, len(basis))
        dense = [[row.get(c, 0) for c in range(len(basis))] for row in rows]
        assert base_rank == _bareiss_rank(dense)
        rng = random.Random(7)
        for _ in range(5):
            perm = list(range(len(basis)))
            rng.shuffle(perm)
            shuffled = [[row[i] for i in perm] for row in dense]
            assert _certified_rank(*_sparse(shuffled)) == base_rank

    @pytest.mark.parametrize(
        "spec",
        [vanishing_spec_r3_signed(5, 2, 1, 7), vanishing_spec_r3_pair(3, 2, 2, 1, 1, 6)],
        ids=["signed", "pair"],
    )
    def test_condition_rows_are_sparse_and_ascending(self, spec):
        basis = _basis(spec, spec.degree_cap)
        for cond in spec.conditions:
            rows = _condition_rows(spec, cond, basis)
            assert rows
            for row in rows:
                assert row and all(row.values())
                assert list(row) == sorted(row)
                assert all(0 <= c < len(basis) for c in row)


def _is_zero_condition(cond):
    return all(p == 0 and m == 0 for p, m, _ in cond)


def _rows_over_full_basis(spec):
    """Graded dimensions with every condition's rows built over the full basis."""
    dims = []
    for d in range(spec.degree_cap + 1):
        basis = _basis(spec, d)
        rows = [row for cond in spec.conditions for row in _condition_rows(spec, cond, basis)]
        dims.append(len(basis) - _certified_rank(rows, len(basis)))
    return dims


def _zero_condition_reference_specs():
    for k in (1, 2, 3):
        for b0 in range(k + 1):
            for n in range(7):
                yield vanishing_spec_r2(n, k, b0, 10)
            for n in range(6):
                yield vanishing_spec_r3_signed(n, k, b0, 8)
            for b1 in range(b0, k + 1):
                for l1 in range(5):
                    for l2 in range(5 - l1):
                        yield vanishing_spec_r3_pair(l1, l2, k, b0, b1, 7)
    mixed = ((1, 0, 1),)
    yield VanishingSpec((4,), (mixed, ((0, 0, 2),)), 8)
    yield VanishingSpec((3,), (((0, 0, 0),),), 6)  # deletes every column
    both = ((0, 0, 1), (0, 0, 2))
    yield VanishingSpec((3, 3), (both, ((1, 0, 0), (1, 0, 0))), 6)
    twice = (((0, 0, 1), (0, 0, 0)), ((0, 0, 3), (0, 0, 0)))
    yield VanishingSpec((4, 2), (*twice, ((2, 0, 0), (1, 0, 0))), 6)
    yield VanishingSpec((0,), (((0, 0, 0),),), 3)
    yield VanishingSpec((0, 2), (((0, 0, 0), (0, 0, 1)),), 4)


class TestZeroConditions:
    def test_deleted_columns_match_rows_over_full_basis(self):
        for spec in _zero_condition_reference_specs():
            assert graded_dimension(spec) == _rows_over_full_basis(spec), spec

    @pytest.mark.parametrize(
        "spec",
        [
            vanishing_spec_r2(6, 2, 1, 10),
            vanishing_spec_r3_signed(5, 2, 1, 8),
            vanishing_spec_r3_pair(3, 2, 2, 1, 1, 6),
        ],
        ids=["r2", "signed", "pair-b1-below-k"],
    )
    def test_zero_conditions_build_no_rows(self, monkeypatch, spec):
        assert any(map(_is_zero_condition, spec.conditions))
        real_rows = polyspaces._condition_rows
        seen = []

        def spying_rows(spec, cond, basis):
            seen.append(cond)
            return real_rows(spec, cond, basis)

        monkeypatch.setattr(polyspaces, "_condition_rows", spying_rows)
        graded_dimension(spec)
        assert seen and not any(map(_is_zero_condition, seen))


def _mirror(cond):
    return tuple((m, p, z) for p, m, z in cond)


class TestMirrorConditions:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signed_spec_builds_rows_for_one_condition_per_mirror_pair(self, monkeypatch, k):
        spec = vanishing_spec_r3_signed(k + 3, k, 1, 8)
        assert len([c for c in spec.conditions if not _is_zero_condition(c)]) == k + 2
        expected = _rows_over_full_basis(spec)  # every condition builds rows
        real_rows = polyspaces._condition_rows
        seen = set()

        def spying_rows(spec, cond, basis):
            seen.add(cond)
            return real_rows(spec, cond, basis)

        monkeypatch.setattr(polyspaces, "_condition_rows", spying_rows)
        assert graded_dimension(spec) == expected
        assert len(seen) == (k + 3) // 2  # ceil((k + 2) / 2)
        assert all(_mirror(cond) not in seen for cond in seen if _mirror(cond) != cond)


def _sparse(rows):
    """Dense rows as the sparse rows and column count _certified_rank takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows], len(rows[0]) if rows else 0


@st.composite
def integer_matrices(draw):
    """A product of random m x inner and inner x n integer matrices, so the
    rank is often below min(m, n), with zero and duplicate rows mixed in."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    inner = draw(st.integers(0, 7))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    left = [[draw(entries) for _ in range(inner)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(inner)]
    rows = [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if inner else [0] * n
        for row in left
    ]
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.one_of(st.just([0] * n), st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    return rows


@st.composite
def sparse_integer_matrices(draw):
    """A product of random sparse integer factors, so the rank is often below
    both sizes, with a few sparse rows of its own mixed in."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(2, 8))
    inner = draw(st.integers(1, 5))
    entries = st.one_of(
        st.just(0), st.just(0), st.integers(-3, 3), st.integers(-999, 999)
    )
    left = [[draw(entries) for _ in range(inner)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(inner)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [draw(entries) for _ in range(n)])
    return rows


def _rank_mod(rows, p):
    """Rank over the integers mod p, by plain elimination."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inverse = pow(mat[rank][col], -1, p)
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] * inverse
            mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class TestCertifiedRank:
    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def counting_bareiss(rows):
            calls.append(len(rows))
            return _bareiss_rank(rows)

        monkeypatch.setattr(polyspaces, "_bareiss_rank", counting_bareiss)
        return calls

    def test_known_ranks(self):
        assert _certified_rank(*_sparse([])) == 0
        assert _certified_rank(*_sparse([[0, 0, 0]])) == 0
        assert _certified_rank(*_sparse([[1, 2], [2, 4], [1, 2]])) == 1
        assert _certified_rank(*_sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
        # wide: 2 x 5 at rank 2, certified through the 5 x 2 transpose
        assert _certified_rank(*_sparse([[1, 0, 2, 0, 1], [0, 3, 0, 1, 1]])) == 2

    @settings(max_examples=100, deadline=None)
    @given(integer_matrices())
    def test_equals_bareiss(self, rows):
        assert _certified_rank(*_sparse(rows)) == _bareiss_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(integer_matrices(), st.sampled_from([2, 3, 5]))
    def test_small_prime_falls_back_to_bareiss(self, rows, prime):
        calls = []

        def counting_bareiss(mat):
            calls.append(len(mat))
            return _bareiss_rank(mat)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polyspaces, "_PRIME", prime)
            patch.setattr(polyspaces, "_bareiss_rank", counting_bareiss)
            got = _certified_rank(*_sparse(rows))
        exact = _bareiss_rank(rows)
        assert got == exact
        if _rank_mod(rows, prime) < exact:
            assert calls, "a rank that drops mod p must fall back"

    @pytest.mark.parametrize(
        "rows,prime",
        [
            ([[2, 0], [0, 1], [0, 0]], 2),  # rank 2, but 1 mod 2
            ([[1, 2], [2, 4], [3, 6]], 5),  # kernel entry -2 = 3 mod 5 does not lift
        ],
        ids=["rank-drop", "no-lift"],
    )
    def test_fallback_cases(self, monkeypatch, fallbacks, rows, prime):
        monkeypatch.setattr(polyspaces, "_PRIME", prime)
        assert _certified_rank(*_sparse(rows)) == _bareiss_rank(rows)
        assert len(fallbacks) == 1

    def test_wrong_lift_is_rejected(self, monkeypatch, fallbacks):
        # rank 1 in three columns: two kernel vectors, each with a lifted entry
        rows = [[1, 2, 3], [2, 4, 6], [3, 6, 9], [1, 2, 3]]
        sparse, ncols = _sparse(rows)
        p = polyspaces._PRIME
        pivots = _echelon_mod_p(sparse, p, ncols)
        assert len(pivots) == 1 and _kernel_certified(sparse, pivots, p, ncols)

        _lift_one_residue_wrong(monkeypatch)
        assert not _kernel_certified(sparse, pivots, p, ncols)
        assert _certified_rank(sparse, ncols) == 1
        assert len(fallbacks) == 1

    def test_wrong_lift_is_caught_by_a_row_without_the_free_column(self, monkeypatch):
        # x0 = 2 x1 and x1 = x2: free column 2, kernel vector (2, 1, 1); the
        # wrong entry lands on column 0, which only the first row holds
        sparse = [{0: 1, 1: -2}, {1: 1, 2: -1}]
        p = polyspaces._PRIME
        pivots = _echelon_mod_p(sparse, p, 3)
        assert sorted(pivots) == [0, 1] and _kernel_certified(sparse, pivots, p, 3)
        _lift_one_residue_wrong(monkeypatch)
        assert not _kernel_certified(sparse, pivots, p, 3)

    @settings(max_examples=100, deadline=None)
    @given(
        sparse_integer_matrices(),
        st.one_of(st.just(2**61 - 1), st.sampled_from([2, 3, 5, 7])),
        st.data(),
    )
    def test_packed_check_equals_per_vector_check(self, rows, p, data):
        mat, ncols = _sparse(rows)
        mat = [row for row in mat if row]
        pivots = _echelon_mod_p(mat, p, ncols)
        assume(mat and len(pivots) < ncols)
        certified = _per_vector_check(mat, pivots, p, ncols)
        assert _kernel_certified(mat, pivots, p, ncols) == certified
        assume(pivots)
        # force a failure: change one kernel vector at one pivot column
        c = data.draw(st.sampled_from(sorted(pivots)))
        f = data.draw(st.sampled_from([f for f in range(ncols) if f not in pivots]))
        wrong = {col: dict(row) for col, row in pivots.items()}
        wrong[c][f] = (wrong[c].get(f, 0) + data.draw(st.integers(1, p - 1))) % p
        verdict = _kernel_certified(mat, wrong, p, ncols)
        assert verdict == _per_vector_check(mat, wrong, p, ncols)
        if certified:  # a true kernel vector moved along a nonzero column
            assert not verdict

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_packed_slots_do_not_carry_into_each_other(self, m):
        # one row of m ones; the first vector has 2^b at each pivot column,
        # the second -1 at column 0: slot sums m 2^b and -1, which a slot
        # width of log2(m) + b would cancel into a false certificate
        p = polyspaces._PRIME
        mat = [dict.fromkeys(range(m), 1)]
        for b in range(30):
            pivots = {c: {c: 1, m: -(2**b) % p} for c in range(m)}
            pivots[0][m + 1] = 1
            assert not _per_vector_check(mat, pivots, p, m + 2)
            assert not _kernel_certified(mat, pivots, p, m + 2), b


def _per_vector_check(mat, pivots, p, ncols):
    """_kernel_certified one vector at a time: the reference for the packed
    check.  Each lifted kernel vector is multiplied by every row on its own."""
    for f in range(ncols):
        if f in pivots:
            continue
        entries = [(f, 1, 1)]
        for c, pivot_row in pivots.items():
            if pivot_row.get(f):
                lifted = polyspaces._rational_reconstruction(-pivot_row[f] % p, p)
                if lifted is None:
                    return False
                entries.append((c, *lifted))
        scale = lcm(*(den for _, _, den in entries))
        vec = {c: num * (scale // den) for c, num, den in entries}
        if any(sum(v * vec.get(c, 0) for c, v in row.items()) for row in mat):
            return False
    return True


def _lift_one_residue_wrong(monkeypatch):
    """Make rational reconstruction add 1 to the first residue it lifts."""
    real = polyspaces._rational_reconstruction
    target = []

    def one_wrong(a, p):
        num, den = real(a, p)
        target[:] = target or [a]  # the first residue lifted stays wrong
        return (num + 1, den) if a == target[0] else (num, den)

    monkeypatch.setattr(polyspaces, "_rational_reconstruction", one_wrong)


class TestBareiss:
    def test_known_ranks(self):
        assert _bareiss_rank([]) == 0
        assert _bareiss_rank([[0, 0], [0, 0]]) == 0
        assert _bareiss_rank([[1, 2], [2, 4]]) == 1
        assert _bareiss_rank([[1, 2], [3, 4]]) == 2
        assert _bareiss_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2

    def test_against_fraction_elimination(self):
        from fractions import Fraction

        def frac_rank(rows):
            mat = [[Fraction(x) for x in row] for row in rows]
            rank = 0
            for col in range(len(mat[0]) if mat else 0):
                piv = next(
                    (r for r in range(rank, len(mat)) if mat[r][col]), None
                )
                if piv is None:
                    continue
                mat[rank], mat[piv] = mat[piv], mat[rank]
                for r in range(rank + 1, len(mat)):
                    f = mat[r][col] / mat[rank][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
                rank += 1
            return rank

        rng = random.Random(11)
        for _ in range(60):
            rows = [
                [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
            ]
            ncols = len(rows[0])
            for _ in range(rng.randint(0, 6)):
                rows.append([rng.randint(-4, 4) for _ in range(ncols)])
            assert _bareiss_rank(rows) == frac_rank(rows)


class TestFiltrationTelescoping:
    @pytest.mark.parametrize("k,b0", [(1, 0), (2, 0), (2, 2), (3, 1)])
    def test_partition_terms_sum_to_oracle(self, k, b0):
        cap = 10
        data = gordon_data_r2(k, b0)
        for n in range(5):
            total = TruncatedSeries.zero(cap, 0)
            for part in level_restricted_partitions(n, k):
                total = total + partition_term(part, data, cap)
            oracle = character_from_oracle_r2(n, k, b0, cap)
            assert total == oracle, (k, b0, n)


class TestGordonWeights:
    def test_empty_partition(self):
        assert weight_degree((0, 0), "G2", 2, 0) == 0

    def test_spec_example_degree_3(self):
        part = (1, 1, 0)  # the partition (2, 1)
        assert weight_degree(part, "G2", 3, 1) == 3

    def test_weight_matches_quadratic_form_small(self):
        for k in (1, 2, 3):
            for b0 in range(k + 1):
                data = gordon_data_r2(k, b0)
                for n in range(6):
                    for part in level_restricted_partitions(n, k):
                        w = weight_degree(part, "G2", k, b0)
                        assert w == quadratic_exponent(data, part), (k, b0, part)

    def test_g3_weight_matches_special_form(self):
        for k in (1, 2, 3):
            b0 = (k + 1) // 2
            data = gordon_data_r3_special(k)
            for n in range(6):
                for part in level_restricted_partitions(n, k):
                    w = weight_degree(part, "G3", k, b0)
                    assert w == quadratic_exponent(data, part), (k, part)

    def test_pair_weight_matches_block_form(self):
        # degree of the paired product = halved quadratic form of the block matrix
        for k in (1, 2):
            for b0 in range(k + 1):
                data = GordonData(
                    matrix=tuple(tuple(r) for r in gordon_a(k)),
                    boundary=tuple(boundary_c3(k, b0)),
                    q_step=1,
                    z_weights=tuple(range(1, k + 1)) * 2,
                    extra_q_weights=(0,) * (2 * k),
                )
                for n1 in range(4):
                    for n2 in range(4):
                        for lam in level_restricted_partitions(n1, k):
                            for mu in level_restricted_partitions(n2, k):
                                w = weight_degree(lam, "G_pair", k, b0, mu=mu)
                                assert w == quadratic_exponent(data, lam + mu)

    def test_seven_variable_degree(self):
        part = (7,)  # seven parts of size 1
        assert weight_degree(part, "G2", 1, 0) == quadratic_exponent(gordon_data_r2(1, 0), part)

    def test_variant_validation(self):
        part = (1,)
        with pytest.raises(ValueError):
            weight_degree(part, "G9", 1, 0)
        with pytest.raises(ValueError):
            weight_degree(part, "G_pair", 1, 0)  # needs mu

    def test_part_above_level_rejected(self):
        with pytest.raises(ValueError, match="part 3 violates the level-2"):
            weight_degree((0, 0, 1), "G2", 2, 0)
        with pytest.raises(ValueError, match="part 4 violates the level-2"):
            weight_degree((1,), "G_pair", 2, 0, mu=(0, 0, 0, 1))
        # trailing zero multiplicities past k name no part
        assert weight_degree((1, 0, 0), "G2", 1, 0) == 1


class TestConjectureEvidence:
    def test_evidence_run_completes_and_reports(self, capsys):
        # experimental comparison: agreement recorded, never asserted
        k, b0, b1, cap = 2, 1, 1, 5
        chi = character_direct(k, 3, (b0, b1), 2 * cap + 1, 3)
        for n in range(4):
            oracle = character_from_oracle_r3(n, k, b0, b1, cap)
            block = chi.z_block(n)
            witness = first_mismatch(oracle, block)
            verdict = "agree" if witness is None else f"differ at {witness}"
            print(f"conjectural oracle n={n}: {verdict}")
        out = capsys.readouterr().out
        assert out.count("conjectural oracle") == 4
