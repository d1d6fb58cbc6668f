import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admissible.polyspaces as polyspaces
from admissible.configurations import character_direct
from admissible.fermionic import (
    GordonData,
    boundary_c3,
    fermionic_r2,
    gordon_a,
    gordon_data_r2,
    gordon_data_r3_special,
    level_restricted_partitions,
    quadratic_exponent,
)
from admissible.polyspaces import (
    CapacityError,
    VanishingSpec,
    _column_blocks,
    _exact_rank,
    _image_codes,
    _pair_form,
    _pivot_columns,
    _rows_by_degree,
    _signed_count,
    graded_dimension,
    oracle_block,
    oracle_blocks,
    partitions_max_parts,
    regrade_pair_sectors,
    vanishing_spec_r2,
    vanishing_spec_r3_pair,
    vanishing_spec_r3_signed,
    weight_degree,
)
from admissible.series import TruncatedSeries, first_mismatch
from brute_force import (
    _basis,
    _condition_rows,
    _substitute_by_splits,
    _substitute_monomial,
    oracle_block_alone,
    partitions_by_recursion,
    weight_degree_by_pairs,
)


def oracle_series(k, r, b, q_order, n):
    """The z^n oracle block as a series through q^q_order."""
    return TruncatedSeries([oracle_block(k, r, b, q_order, n)], q_order)


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

    def test_table_rows_equal_the_recursion(self):
        # the same lists, order included, for d <= 16 at every bound, with
        # negative d and bounds past d; each list is shared between calls
        for d in range(-2, 17):
            for max_parts in range(-1, d + 3):
                got = partitions_max_parts(d, max_parts)
                assert got == partitions_by_recursion(d, max_parts), (d, max_parts)
                assert partitions_max_parts(d, max_parts) is got


@functools.lru_cache(maxsize=None)
def _decode(code, n):
    """The free partition, a descending tuple, of an n-variable code: the
    multiplicity of v is digit v - 1 in base 2^(n.bit_length())."""
    w = n.bit_length()
    parts = []
    v = 1
    while code:
        parts[:0] = [v] * (code & ((1 << w) - 1))
        code >>= w
        v += 1
    return tuple(parts)


def _decoded(rho, n, pattern):
    """_image_codes(rho, n, pattern) as the map (t exponent, free partition)
    -> coefficient that _substitute_monomial returns; no two terms of the
    image may share a code."""
    image = _image_codes(rho, n, pattern)
    sigmas = [_decode(code, n) for code, _ in image]
    out = {(sum(rho) - sum(sigma), sigma): c for sigma, (_, c) in zip(sigmas, image)}
    assert len(out) == len(image), (rho, n, pattern)
    return out


class TestSubstitution:
    # hand-expanded images of m_(2,1)(x1, x2, x3)

    def test_plus_minus_free(self):
        # x1 = t, x2 = -t, x3 free: everything cancels except 2 t^2 x3
        got = _decoded((2, 1), 3, (1, 1, 0))
        assert got == {(2, (1,)): 2}

    def test_leading_zero(self):
        # x1 = 0: the surviving terms form m_(2,1) in the two free variables
        got = _decoded((2, 1), 3, (0, 0, 1))
        assert got == {(0, (2, 1)): 1}

    def test_double_diagonal(self):
        # x1 = x2 = t: 2t^3 + 2t^2 x3 + 2t x3^2
        got = _decoded((2, 1), 3, (2, 0, 0))
        assert got == {(3, ()): 2, (2, (1,)): 2, (1, (2,)): 2}

    def test_degree_zero_constant(self):
        # the constant 1 maps to 1 under any pattern
        assert _decoded((), 2, (1, 1, 0)) == {(0, ()): 1}

    def test_equals_literal_expansion(self):
        # every rho with n <= 5 and |rho| <= 7, under every pattern
        for n in range(6):
            for size in range(8):
                for rho in partitions_max_parts(size, n):
                    for p in range(n + 1):
                        for m in range(n + 1 - p):
                            for z in range(n + 1 - p - m):
                                got = _decoded(rho, n, (p, m, z))
                                want = _expand_literally(rho, n, (p, m, z))
                                assert got == want, (rho, n, (p, m, z))

    def test_code_images_equal_the_tuple_walk(self):
        # every rho with n <= 8 and |rho| <= 12, under every pattern: the
        # decoded image equals the reference walk's, term order included
        for n in range(9):
            for size in range(13):
                for rho in partitions_max_parts(size, n):
                    for p in range(n + 1):
                        for m in range(n + 1 - p):
                            for z in range(n + 1 - p - m):
                                got = _decoded(rho, n, (p, m, z)).items()
                                want = _substitute_monomial(rho, n, (p, m, z)).items()
                                assert list(got) == list(want), (rho, n, (p, m, z))

    def test_codes_are_distinct_past_eight_variables(self):
        # At n = 20 a free partition can hold a value 16 or more times, which
        # a 4-bit digit (wide enough for 8 variables) would carry into the
        # next value: 16 ones would read as one 2.
        code_of = {}
        for rho in [(3,) + (2,) * 2 + (1,) * 17, (2,) + (1,) * 16, (2,), (1,) * 16]:
            for pattern in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (1, 2, 0)]:
                image = _image_codes(rho, 20, pattern)
                want = _substitute_monomial(rho, 20, pattern)
                assert _decoded(rho, 20, pattern) == want, (rho, pattern)
                for (code, _), (_, sigma) in zip(image, want):
                    assert code_of.setdefault(sigma, code) == code, sigma
        assert len(set(code_of.values())) == len(code_of)
        assert {(1,) * 16, (2,)} <= code_of.keys()

    @pytest.mark.parametrize("reverse", [False, True], ids=["n8-first", "n20-first"])
    def test_tail_walks_are_keyed_by_digit_width(self, monkeypatch, reverse):
        # (3,3,3,2,1) at n = 8 and (3)^15 + (2,1) at n = 20 share the tail
        # (2,1) with 5 variables and the same free zeros, but their codes
        # have 4- and 5-bit digits: from cold memos, in either order, each
        # image decodes to the reference walk's, term order included.
        for memo in ("_PLAIN_WALKS", "_SIGNED_WALKS"):
            monkeypatch.setattr(polyspaces, memo, {})
        cases = [((3, 3, 3, 2, 1), 8), ((3,) * 15 + (2, 1), 20)]
        for rho, n in reversed(cases) if reverse else cases:
            for pattern in [(3, 0, 0), (2, 1, 0), (4, 0, 1)]:
                got = _decoded(rho, n, pattern).items()
                want = _substitute_monomial(rho, n, pattern).items()
                assert got and list(got) == list(want), (rho, n, pattern)

    def test_signed_closed_form_equals_split_walk(self):
        # every rho with n <= 8 and |rho| <= 12, under every pattern with a
        # -t slot
        for n in range(9):
            for size in range(13):
                for rho in partitions_max_parts(size, n):
                    for p in range(n):
                        for m in range(1, n + 1 - p):
                            for z in range(n + 1 - p - m):
                                got = _decoded(rho, n, (p, m, z))
                                want = _substitute_by_splits(rho, n, (p, m, z))
                                assert got == want, (rho, n, (p, m, z))

    def test_signed_count_is_divisible_by_the_multiplicity_factorials(self):
        # for every sub-multiset tau of every rho above that fills at most
        # p + m slots, prod s_v! divides the count of tau's arrangements
        for n in range(9):
            for size in range(13):
                for rho in partitions_max_parts(size, n):
                    values = [(v, len(list(g))) for v, g in itertools.groupby(rho)]
                    for counts in itertools.product(*(range(a + 1) for _, a in values)):
                        total = sum(counts)
                        odd = sum(s for (v, _), s in zip(values, counts) if v & 1)
                        den = 1
                        for s in counts:
                            den *= math.factorial(s)
                        for p in range(n):
                            for m in range(1, n + 1 - p):
                                if total <= p + m:
                                    count = _signed_count(p, m, total, odd)
                                    assert count % den == 0, (rho, counts, p, m)


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

    @pytest.mark.parametrize(
        "conditions, shown", [((((1, 0),),), "(1, 0)"), (((1,),), "1")], ids=["pair", "int"]
    )
    def test_a_pattern_that_is_no_triple_is_refused(self, conditions, shown):
        # refused before it is unpacked, which would raise a ValueError or
        # a TypeError that names no field
        with pytest.raises(ValueError) as got:
            VanishingSpec((2,), conditions, 3)
        assert str(got.value) == f"patterns must be (t, -t, zero) triples of counts, got {shown}"

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
                    oracle = oracle_series(k, 2, (b0,), 10, n)
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
                    oracle = oracle_series(k, 3, (b0, k), 13, n)
                    assert oracle == chi.z_block(n), (k, b0, n)

    @pytest.mark.parametrize("r, b", [(2, (0,)), (3, (0, 1))], ids=["r2", "r3"])
    @pytest.mark.parametrize("q_order, n", [(5, -1), (-1, 1)], ids=["n", "q_order"])
    def test_oracle_block_refuses_a_negative_window(self, r, b, q_order, n):
        with pytest.raises(ValueError, match="q_max and z_max must be non-negative"):
            oracle_block(1, r, b, q_order, n)

    def test_regrade_refuses_a_negative_order(self):
        with pytest.raises(ValueError, match="q_max and z_max must be non-negative"):
            regrade_pair_sectors([[1, 2], [3]], -1)
        assert regrade_pair_sectors([[1, 2], [3]], 0) == [1]

    def test_signed_spec_matches_direct(self):
        for k in (1, 2, 3, 4):
            b0 = (k + 1) // 2
            chi = character_direct(k, 3, (b0, k), 12, 6)
            for n in range(7):
                dims = graded_dimension(vanishing_spec_r3_signed(n, k, b0, 12))
                assert TruncatedSeries([dims], 12) == chi.z_block(n), (k, n)

    def test_column_permutation_leaves_rank_invariant(self):
        spec = vanishing_spec_r2(4, 2, 1, 6)
        basis = _basis(spec, 6)
        rows = []
        for cond in spec.conditions:
            rows.extend(_condition_rows(spec, cond, basis))
        base_rank = _exact_rank(rows, len(basis))
        dense = [[row.get(c, 0) for c in range(len(basis))] for row in rows]
        assert base_rank == _bareiss_rank(dense)
        rng = random.Random(7)
        for _ in range(5):
            perm = list(range(len(basis)))
            rng.shuffle(perm)
            shuffled = [[row[i] for i in perm] for row in dense]
            assert _exact_rank(*_sparse(shuffled)) == base_rank

    @pytest.mark.parametrize(
        "spec",
        [vanishing_spec_r3_signed(5, 2, 1, 7), vanishing_spec_r3_pair(3, 2, 2, 1, 1, 6)],
        ids=["signed", "pair"],
    )
    def test_condition_rows_are_sparse_and_ascending(self, spec):
        # every degree's columns are the full basis, in the reference's
        # order, and its rows are the reference's, row for row
        cap = spec.degree_cap
        sizes, conditions = _pair_form(spec)
        blocks, ncols = _column_blocks(sizes, set(), cap)
        assert ncols == [len(_basis(spec, d)) for d in range(cap + 1)]
        for own, cond in zip(spec.conditions, conditions):
            rows = _rows_by_degree(blocks, sizes, cond, cap)
            assert len(rows) == cap + 1 and rows[cap]
            for d, degree_rows in enumerate(rows):
                assert degree_rows == _condition_rows(spec, own, _basis(spec, d)), (own, d)
                for row in degree_rows:
                    assert row and all(row.values())
                    assert list(row) == sorted(row)
                    assert all(0 <= c < ncols[d] for c in row)

    def test_each_second_partition_is_expanded_once_per_condition(self, monkeypatch):
        spec = vanishing_spec_r3_pair(3, 2, 2, 1, 1, 6)
        sizes, conditions = _pair_form(spec)
        assert sizes == (3, 2)  # so a call's n tells the families apart
        blocks, _ = _column_blocks(sizes, set(), spec.degree_cap)
        distinct = {rho2 for kept in blocks[2] for rho2 in kept}
        # the groups share partitions: one expansion per group would repeat them
        assert len(distinct) < sum(map(len, blocks[2]))
        real_image_codes, calls = polyspaces._image_codes, []

        def counted_image_codes(rho, n, pattern):
            calls.append((rho, n, pattern))
            return real_image_codes(rho, n, pattern)

        monkeypatch.setattr(polyspaces, "_image_codes", counted_image_codes)
        for cond in conditions:
            calls.clear()
            _rows_by_degree(blocks, sizes, cond, spec.degree_cap)
            seconds = [(rho, pattern) for rho, n, pattern in calls if n == sizes[1]]
            assert sorted(seconds) == sorted((rho2, cond[1]) for rho2 in distinct), cond


def _is_zero_condition(cond):
    return all(p == 0 and m == 0 for p, m, _ in cond)


def _rows_over_full_basis(spec):
    """Graded dimensions with every condition's rows built over the full basis."""
    dims = []
    for d in range(spec.degree_cap + 1):
        basis = _basis(spec, d)
        rows = [row for cond in spec.conditions for row in _condition_rows(spec, cond, basis)]
        dims.append(len(basis) - _exact_rank(rows, len(basis)))
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
    # no zero condition: only the t^0 terms of the conditions delete columns
    yield VanishingSpec((4,), (((2, 0, 0),),), 8)
    yield VanishingSpec((4,), (((1, 1, 0),),), 8)
    yield VanishingSpec((3, 3), (((1, 0, 0), (2, 0, 0)),), 6)


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
        # Every pattern of these specs' nonzero conditions has z = 0, and
        # every zero condition has a pattern with z > 0, so a substituted
        # pattern with a zero slot could only come from a zero condition.
        row_patterns = {
            pattern for cond in spec.conditions if not _is_zero_condition(cond)
            for pattern in cond
        }
        assert all(z == 0 for _, _, z in row_patterns)
        zero_conditions = [cond for cond in spec.conditions if _is_zero_condition(cond)]
        assert zero_conditions
        assert all(any(z for _, _, z in cond) for cond in zero_conditions)
        seen = _spy_on_images(monkeypatch)
        graded_dimension(spec)
        assert seen and all(z == 0 for _, _, z in seen)
        # (0, 0, 0) is also the empty first family of a one-family spec
        assert seen <= row_patterns | {(0, 0, 0)}


def _spy_on_images(monkeypatch):
    """The set of patterns polyspaces._image_codes substitutes from now on."""
    real_image_codes = polyspaces._image_codes
    seen = set()

    def spying_image_codes(rho, n, pattern):
        seen.add(pattern)
        return real_image_codes(rho, n, pattern)

    monkeypatch.setattr(polyspaces, "_image_codes", spying_image_codes)
    return seen


def _mirror(cond):
    return tuple((m, p, z) for p, m, z in cond)


class TestMirrorConditions:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signed_spec_builds_rows_for_one_condition_per_mirror_pair(self, monkeypatch, k):
        spec = vanishing_spec_r3_signed(k + 3, k, 1, 8)
        assert len([c for c in spec.conditions if not _is_zero_condition(c)]) == k + 2
        expected = _rows_over_full_basis(spec)  # every condition builds rows
        seen = _spy_on_images(monkeypatch)
        assert graded_dimension(spec) == expected
        # one signed pattern per mirror pair, and the empty first family's
        seen = {(pattern,) for pattern in seen - {(0, 0, 0)}}
        assert len(seen) == (k + 3) // 2  # ceil((k + 2) / 2)
        assert all(_mirror(cond) not in seen for cond in seen if _mirror(cond) != cond)


def _sparse(rows):
    """Dense rows as the sparse rows and column count _exact_rank takes."""
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
        st.just(0), st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6)
    )
    left = [[draw(entries) for _ in range(inner)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(inner)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [draw(entries) for _ in range(n)])
    return rows


class TestCertifiedRank:
    """_exact_rank is exact by construction; Bareiss is its slow reference."""

    def test_known_ranks(self):
        assert _exact_rank(*_sparse([])) == 0
        assert _exact_rank(*_sparse([[0, 0, 0]])) == 0
        assert _exact_rank(*_sparse([[1, 2], [2, 4], [1, 2]])) == 1
        assert _exact_rank(*_sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
        # wide: 2 x 5 at rank 2
        assert _exact_rank(*_sparse([[1, 0, 2, 0, 1], [0, 3, 0, 1, 1]])) == 2

    @pytest.mark.parametrize(
        "rows,rank",
        [
            ([[2, 0], [0, 1], [0, 0]], 2),  # rank 2, but 1 mod 2
            ([[1, 2], [2, 4], [3, 6]], 1),  # kernel entry -2 is 3 mod 5
        ],
        ids=["rank-drop", "no-lift"],
    )
    def test_fallback_cases(self, rows, rank):
        # matrices that defeat a modular rank: exact elimination needs no fallback
        assert _exact_rank(*_sparse(rows)) == rank == _bareiss_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(integer_matrices())
    def test_equals_bareiss(self, rows):
        assert _exact_rank(*_sparse(rows)) == _bareiss_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(sparse_integer_matrices())
    def test_sparse_equals_bareiss(self, rows):
        assert _exact_rank(*_sparse(rows)) == _bareiss_rank(rows)

    @settings(max_examples=50, deadline=None)
    @given(sparse_integer_matrices(), st.randoms(use_true_random=False))
    def test_row_shuffle_leaves_rank_invariant(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert _exact_rank(*_sparse(shuffled)) == _exact_rank(*_sparse(rows))

    def test_leaves_its_input_rows_unchanged(self):
        rows, ncols = _sparse([[2, 4, 0], [3, 0, 1], [1, 1, 1], [2, 4, 0]])
        before = [dict(row) for row in rows]
        assert _exact_rank(rows, ncols) == 3
        assert rows == before

    def test_tall_full_column_rank_stops_early(self):
        # Four short rows already reach rank 4 = ncols, so the longer rows
        # after them are never read: reading one's columns would raise.
        class Untouched(dict):
            def __iter__(self):
                raise AssertionError("row read after full column rank")

            keys = items = __iter__

        ncols = 4
        rows = [{c: c + 1} for c in reversed(range(ncols))]
        rows += [Untouched({c: v for c in range(ncols)}) for v in range(1, 4)]
        assert _exact_rank(rows, ncols) == ncols


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of a dense integer matrix by fraction-free (Bareiss) elimination:
    the slow reference that _exact_rank is checked against."""
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
        for n in range(5):
            total = fermionic_r2(k, b0, cap, n).z_block(n)
            assert total == oracle_series(k, 2, (b0,), cap, n), (k, b0, n)


class TestOracleBlocks:
    """oracle_blocks builds once at the largest b0 and reads every b0 off
    one elimination; each block built at its own b0, in build order
    (brute_force.oracle_block_alone), is its reference."""

    # r2 with k <= 4, n <= 7 through q^12; r3 with k <= 3, n <= 5 through
    # q^17, pair spaces to degree 8: 166 blocks
    SWEEP = [(2, k, n, 12) for k in range(1, 5) for n in range(8)] + [
        (3, k, n, 17) for k in range(1, 4) for n in range(6)
    ]

    def test_every_b0_at_once_equals_each_b0_alone(self):
        blocks = 0
        for r, k, n, q_order in self.SWEEP:
            bs = [(b0,) if r == 2 else (b0, k) for b0 in range(k + 1)]
            want = [oracle_block_alone(k, r, b, q_order, n) for b in bs]
            assert oracle_blocks(k, r, bs, q_order, n) == want, (r, k, n)
            assert [oracle_block(k, r, b, q_order, n) for b in bs] == want, (r, k, n)
            blocks += len(bs)
        assert blocks == 166

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_b0_list_equals_each_b0_alone(self, data):
        r = data.draw(st.sampled_from([2, 3]))
        k = data.draw(st.integers(1, 4 if r == 2 else 3))
        n = data.draw(st.integers(0, 7 if r == 2 else 5))
        q_order = data.draw(st.integers(0, 12 if r == 2 else 17))
        b0s = data.draw(st.lists(st.integers(0, k), min_size=1, max_size=k + 2))
        bs = [(b0,) if r == 2 else (b0, k) for b0 in b0s]
        want = [oracle_block_alone(k, r, b, q_order, n) for b in bs]
        assert oracle_blocks(k, r, bs, q_order, n) == want

    def test_conjectural_b1_below_k_nests_too(self):
        # b1 < k adds combined zero conditions on both families; the b0
        # condition still only raises the first family's part count
        for n in range(5):
            bs = [(b0, 2) for b0 in range(3)]
            want = [oracle_block_alone(3, 3, b, 13, n) for b in bs]
            assert oracle_blocks(3, 3, bs, 13, n) == want, n

    @pytest.mark.parametrize(
        "k, r, bs, q_order, n",
        [
            (2, 4, [(0, 1, 2)], 5, 2),  # r
            (2, 2, [(1,), (3,)], 5, 2),  # a b0 past k
            (2, 2, [(1,), (0.5,)], 5, 2),  # a b0 that is no whole number
            (2, 2, [(1,), (2,)], 5, -1),  # the window
            (2, 2, [(0,), (2,)], 5, 9),  # nine variables
            (2, 2, [(0,), (2,)], 17, 3),  # the degree cap
            (2, 3, [(0, 2), (1, 2)], 35, 3),  # the pair spaces' degree cap
            (2, 3, [(0, 2), (1, 2)], 5, 9),
        ],
        ids=["r", "b0-past-k", "b0-not-whole", "window", "vars", "cap", "pair-cap", "pair-vars"],
    )
    def test_refuses_as_each_b_alone(self, k, r, bs, q_order, n):
        # the first b that oracle_block refuses gives oracle_blocks' refusal
        for b in bs:
            try:
                oracle_block(k, r, b, q_order, n)
            except (ValueError, CapacityError) as exc:
                want = exc
                break
        with pytest.raises(type(want)) as got:
            oracle_blocks(k, r, bs, q_order, n)
        assert str(got.value) == str(want)

    @pytest.mark.parametrize("bs", [[], [(0, 1), (0, 2)]], ids=["none", "two-b1"])
    def test_refuses_b_that_differ_past_b0(self, bs):
        with pytest.raises(ValueError) as got:
            oracle_blocks(2, 3, bs, 5, 2)
        assert str(got.value) == (
            f"oracle blocks take one or more b that differ only in b0, got {bs}"
        )

    @settings(max_examples=100, deadline=None)
    @given(sparse_integer_matrices())
    def test_pivots_from_each_column_on_count_the_projection(self, rows):
        # the nesting argument: projected onto the columns from s on, the
        # row space has as many dimensions as there are pivots from s on
        sparse, ncols = _sparse(rows)
        pivots = _pivot_columns(sparse, ncols)
        assert len(pivots) == _bareiss_rank(rows)
        for s in range(ncols + 1):
            projected = [row[s:] for row in rows]
            assert sum(c >= s for c in pivots) == _bareiss_rank(projected), s


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
        with pytest.raises(ValueError, match="multiplicities must be non-negative"):
            weight_degree((-1,), "G2", 1, 0)
        with pytest.raises(ValueError, match="multiplicities must be non-negative"):
            weight_degree((1,), "G_pair", 2, 0, mu=(0, -1))


def _outcome(fn, *args, **kwargs):
    """fn's value, or the type and message of the ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


class TestWeightDegreeClosedSum:
    """weight_degree sums over multiplicity pairs; weight_degree_by_pairs,
    over pairs of variables, is its slow reference."""

    def test_g2_and_g3_equal_the_pairwise_walk(self):
        for k in range(1, 7):
            parts = [part for size in range(13) for part in level_restricted_partitions(size, k)]
            for b0 in range(k + 1):
                for part in parts:
                    for variant in ("G2", "G3"):
                        want = weight_degree_by_pairs(part, variant, k, b0)
                        assert weight_degree(part, variant, k, b0) == want, (variant, k, b0, part)

    def test_g_pair_equals_the_pairwise_walk(self):
        # every lam and mu with |lam| + |mu| <= 12; b0 enters only through
        # lam's linear factors, so three values of it suffice
        for k in range(1, 7):
            by_size = [list(level_restricted_partitions(size, k)) for size in range(13)]
            for b0 in sorted({0, k // 2, k}):
                for s1 in range(13):
                    for lam in by_size[s1]:
                        for mu in (mu for s2 in range(13 - s1) for mu in by_size[s2]):
                            want = weight_degree_by_pairs(lam, "G_pair", k, b0, mu=mu)
                            got = weight_degree(lam, "G_pair", k, b0, mu=mu)
                            assert got == want, (k, b0, lam, mu)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (((1, 0, 1), "G2", 2, 0), {}),  # part 3 over k = 2
            (((0, 0, 0, 2), "G3", 3, 1), {}),
            (((1,), "G_pair", 2, 0), {"mu": (0, 0, 0, 1)}),
            (((0, 0, 0, 1), "G_pair", 2, 0), {"mu": (0, 0, 1)}),  # lam's part first
            (((-1, 2), "G2", 2, 0), {}),
            (((1, 0, 5), "G3", 2, 1), {}),  # over k, not negative
            (((1, -1, 5), "G3", 2, 1), {}),  # negative before over k
            (((1,), "G_pair", 2, 0), {"mu": (0, -1)}),
            (((0, 0, 9), "G_pair", 2, 0), {"mu": (-1,)}),
            (((1,), "G2", 2, 3), {}),  # b0 past k
            (((1,), "G2", 0, 0), {}),  # k below 1
            (((1,), "G9", 1, 0), {}),
            (((1,), "G_pair", 1, 0), {}),
            (((1,), "G3", 1, 0), {"mu": (1,)}),
            (((0, 0, 0), "G2", 1, 0), {}),  # trailing zeros past k name no part
            (((2, 0, 0), "G_pair", 1, 1), {"mu": (3, 0)}),
        ],
    )
    def test_refusals_equal_the_pairwise_walk(self, args, kwargs):
        want = _outcome(weight_degree_by_pairs, *args, **kwargs)
        assert _outcome(weight_degree, *args, **kwargs) == want


class TestConjectureEvidence:
    def test_evidence_run_completes_and_reports(self, capsys):
        # experimental comparison: agreement recorded, never asserted
        k, b0, b1, cap = 2, 1, 1, 5
        chi = character_direct(k, 3, (b0, b1), 2 * cap + 1, 3)
        for n in range(4):
            oracle = oracle_series(k, 3, (b0, b1), 2 * cap + 1, n)
            block = chi.z_block(n)
            witness = first_mismatch(oracle, block)
            verdict = "agree" if witness is None else f"differ at {witness}"
            print(f"conjectural oracle n={n}: {verdict}")
        out = capsys.readouterr().out
        assert out.count("conjectural oracle") == 4
