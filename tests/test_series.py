import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import configurations
from admissible.configurations import CapacityError
from admissible.series import (
    TruncatedSeries,
    dumps,
    first_mismatch,
    pochhammer,
    pochhammer_inverse,
)


def S(coeffs, q=6, z=6):
    return TruncatedSeries(coeffs, q, z)


class TestAdd:
    def test_plain_sum(self):
        a = S({(0, 0): 1, (1, 0): 1})
        b = S({(1, 0): 1})
        assert (a + b) == S({(0, 0): 1, (1, 0): 2})

    def test_additive_identity(self):
        s = S({(2, 1): 5, (0, 3): -2})
        assert (s + TruncatedSeries.zero(6, 6)) == s

    def test_cancellation_is_canonical(self):
        a = S({(3, 1): 1})
        b = S({(3, 1): -1})
        total = a + b
        assert (3, 1) not in total.coeffs
        assert total.coeffs == TruncatedSeries.zero(6, 6).coeffs

    def test_window_is_componentwise_min(self):
        a = TruncatedSeries({(0, 0): 1}, 5, 9)
        b = TruncatedSeries({(0, 0): 1}, 7, 3)
        c = a + b
        assert (c.q_order, c.z_order) == (5, 3)


class TestMul:
    def test_telescoping(self):
        a = TruncatedSeries({(0, 0): 1, (1, 0): -1}, 3, 0)
        b = TruncatedSeries({(d, 0): 1 for d in range(4)}, 3, 0)
        assert (a * b) == TruncatedSeries.one(3, 0)

    def test_multiplicative_identity(self):
        s = S({(2, 2): 7, (5, 0): -1, (0, 4): 3})
        assert (s * TruncatedSeries.one(6, 6)) == s

    def test_binomial_square(self):
        s = TruncatedSeries({(0, 0): 1, (1, 1): 1}, 2, 2)
        sq = s * s
        assert sq == TruncatedSeries({(0, 0): 1, (1, 1): 2, (2, 2): 1}, 2, 2)

    def test_no_coefficient_escapes_window(self):
        a = TruncatedSeries({(3, 0): 1, (0, 2): 1}, 4, 3)
        b = TruncatedSeries({(2, 0): 1, (0, 2): 1}, 4, 3)
        prod = a * b
        assert all(dq <= 4 and dz <= 3 for dq, dz in prod.coeffs)
        assert (prod.q_order, prod.z_order) == (4, 3)


class TestEquality:
    def test_truncation_aware(self):
        # differ only beyond the common window
        a = TruncatedSeries({(0, 0): 1, (5, 0): 9}, 5, 0)
        b = TruncatedSeries({(0, 0): 1}, 3, 0)
        assert a == b
        assert b == a  # symmetric

    def test_disagreement_inside_window(self):
        a = TruncatedSeries({(2, 0): 1}, 5, 0)
        b = TruncatedSeries({(2, 0): 2}, 3, 0)
        assert a != b

    def test_first_mismatch_ordering(self):
        a = S({(1, 0): 1, (0, 2): 4})
        b = S({(1, 0): 2, (0, 2): 5})
        # (dz, dq) order puts (1, 0) before (0, 2)
        assert first_mismatch(a, b) == (1, 0, 1, 2)
        assert first_mismatch(a, a) is None


def brute_force_step_counts(m, step, q_order):
    """Count solutions of sum_j (step*j)*t_j = d with j = 1..m, t_j >= 0."""
    counts = [0] * (q_order + 1)

    def rec(j, total):
        if j > m:
            counts[total] += 1
            return
        t = 0
        while total + step * j * t <= q_order:
            rec(j + 1, total + step * j * t)
            t += 1

    rec(1, 0)
    return counts


class TestPochhammerInverse:
    def test_empty_product(self):
        for step in (1, 2, 3):
            assert pochhammer_inverse(0, step, 5) == TruncatedSeries.one(5, 0)

    def test_m2_step1_against_counting_oracle(self):
        oracle = brute_force_step_counts(2, 1, 4)
        assert oracle == [1, 1, 2, 2, 3]
        got = pochhammer_inverse(2, 1, 4)
        assert [got.coefficient(d) for d in range(5)] == oracle

    def test_m1_step2_geometric(self):
        got = pochhammer_inverse(1, 2, 4)
        assert [got.coefficient(d) for d in range(5)] == [1, 0, 1, 0, 1]
        # term-by-term check against the defining factor
        factor = TruncatedSeries({(0, 0): 1, (2, 0): -1}, 4, 0)
        assert got * factor == TruncatedSeries.one(4, 0)

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("m", range(9))
    def test_inverse_identity(self, m, step):
        q_order = 40
        inv = pochhammer_inverse(m, step, q_order)
        assert inv * pochhammer(m, step, q_order) == TruncatedSeries.one(q_order, 0)


class TestJson:
    def test_canonical_term_order(self):
        s = S({(2, 1): 3, (0, 1): 1, (5, 0): -2})
        obj = s.to_json_obj()
        assert obj["terms"] == [[5, 0, "-2"], [0, 1, "1"], [2, 1, "3"]]

    def test_coefficients_are_decimal_strings(self):
        big = 10**40 + 7
        s = S({(1, 1): big})
        obj = s.to_json_obj()
        assert obj["terms"] == [[1, 1, str(big)]]
        assert json.loads(s.to_json())["q_order"] == 6

    def test_round_trip(self):
        s = S({(2, 1): 3, (0, 1): 1, (5, 0): -(10**30)})
        assert TruncatedSeries.from_json(s.to_json()) == s


# Any code point, lone surrogates included, or only the ones the writer
# escapes: quotes, backslashes, control characters and non-ASCII.
_TEXT = st.text(st.characters(exclude_categories=())) | st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600')
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


class TestDumps:
    @settings(max_examples=200, deadline=None)
    @given(_JSON)
    def test_byte_equal_to_json_dumps(self, obj):
        # json stays here as the oracle the writer is held to.
        assert dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_edge_values(self):
        obj = {"": [], "b": {}, "a": [True, False, None, -(10**400), 0], "\ud800": "\\\"\x01"}
        assert dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_unserializable_value_raises_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps({"x": object()})


class TestWindowAccess:
    def test_coefficient_beyond_window_raises(self):
        s = TruncatedSeries({(1, 0): 1}, 3, 2)
        with pytest.raises(ValueError):
            s.coefficient(4, 0)
        with pytest.raises(ValueError):
            s.coefficient(0, 3)

    def test_z_block_beyond_window_raises(self):
        s = TruncatedSeries({(1, 1): 1}, 3, 2)
        with pytest.raises(ValueError):
            s.z_block(3)

    @pytest.mark.parametrize("dq, dz", [(-1, 0), (0, -1), (-1, -1)])
    def test_coefficient_at_negative_exponent_raises(self, dq, dz):
        s = TruncatedSeries({(0, 0): 1}, 3, 2)
        with pytest.raises(ValueError, match="outside the truncation window"):
            s.coefficient(dq, dz)

    def test_z_block_at_negative_exponent_raises(self):
        s = TruncatedSeries({(0, 0): 1}, 3, 2)
        with pytest.raises(ValueError, match="outside z_order"):
            s.z_block(-1)


class TestBigCoefficients:
    def test_exact_huge_products(self):
        a = TruncatedSeries({(0, 0): 10**30, (1, 0): 1}, 2, 0)
        b = TruncatedSeries({(0, 0): 10**30, (1, 0): -1}, 2, 0)
        prod = a * b
        assert prod.coefficient(0) == 10**60
        assert prod.coefficient(2) == -1


coeff_st = st.integers(min_value=-9, max_value=9)
key_st = st.tuples(st.integers(0, 5), st.integers(0, 5))
series_st = st.builds(
    TruncatedSeries,
    st.dictionaries(key_st, coeff_st, max_size=6),
    q_order=st.integers(0, 7),
    z_order=st.integers(0, 7),
)


@settings(max_examples=200)
@given(series_st, series_st, series_st)
def test_ring_axioms(a, b, c):
    assert (a + b) == (b + a)
    assert (a * b) == (b * a)
    assert ((a + b) + c) == (a + (b + c))
    assert ((a * b) * c) == (a * (b * c))
    assert (a * (b + c)) == (a * b + a * c)


class TestFromBlocks:
    def test_drops_zeros_and_terms_beyond_window(self):
        s = TruncatedSeries.from_blocks([[1, 0, 2, 7], [0, 0], [0, 3], [5]], 2, 2)
        assert s.coeffs == {(0, 0): 1, (2, 0): 2, (1, 2): 3}
        assert (s.q_order, s.z_order) == (2, 2)

    def test_ragged_rows_and_missing_rows(self):
        s = TruncatedSeries.from_blocks([[], [0, 4], [1, 0, -6]], 5, 4)
        assert s.coeffs == {(1, 1): 4, (0, 2): 1, (2, 2): -6}
        assert (s.q_order, s.z_order) == (5, 4)

    def test_equals_dict_built_series(self):
        coeffs = {(0, 0): 2, (3, 0): -1, (1, 1): 5, (4, 2): 10**25}
        blocks = [[coeffs.get((dq, dz), 0) for dq in range(5)] for dz in range(3)]
        assert TruncatedSeries.from_blocks(blocks, 4, 2) == TruncatedSeries(coeffs, 4, 2)


@settings(max_examples=200)
@given(series_st, series_st)
def test_equality_symmetric(a, b):
    assert (a == b) == (b == a)


class TestDenseRows:
    def test_ragged_rows_and_trailing_zeros_compare_equal(self):
        assert TruncatedSeries.from_blocks([[1, 0, 0]], 5) == TruncatedSeries.from_blocks([[1]], 5)
        padded = TruncatedSeries.from_blocks([[1, 2], [0, 0, 0], [], [0]], 5, 6)
        assert padded == TruncatedSeries.from_blocks([[1, 2]], 5, 6)
        assert padded.coeffs == {(0, 0): 1, (1, 0): 2}

    def test_first_mismatch_past_the_shorter_operands_rows(self):
        short = TruncatedSeries.from_blocks([[1]], 6, 6)
        long = TruncatedSeries.from_blocks([[1], [], [0, 0, 0, 3]], 6, 6)
        assert first_mismatch(short, long) == (3, 2, 0, 3)
        assert first_mismatch(long, short) == (3, 2, 3, 0)
        assert first_mismatch(TruncatedSeries.from_blocks([[1]], 6), long) is None  # z-window 0
        assert first_mismatch(TruncatedSeries.from_blocks([[1]], 2, 6), long) is None  # q-window 2

    def test_first_mismatch_past_the_shorter_row(self):
        a = TruncatedSeries.from_blocks([[1, 2]], 6)
        b = TruncatedSeries.from_blocks([[1, 2, 0, 0, 5]], 6)
        assert first_mismatch(a, b) == (4, 0, 0, 5)

    def test_z_block_beyond_the_stored_rows_is_zero(self):
        s = TruncatedSeries.from_blocks([[1, 1]], 4, 10**6)
        block = s.z_block(10**6)
        assert block == TruncatedSeries.zero(4, 0)
        assert (block.q_order, block.z_order, block.coeffs) == (4, 0, {})
        assert s.coefficient(3, 10**6 - 1) == 0

    def test_from_blocks_does_not_alias_the_callers_lists(self):
        blocks = [[1, 2, 3], [4]]
        s = TruncatedSeries.from_blocks(blocks, 5, 3)
        blocks[0][0] = 99
        blocks[1].append(7)
        blocks.append([8])
        assert s.coeffs == {(0, 0): 1, (1, 0): 2, (2, 0): 3, (0, 1): 4}

    @settings(max_examples=200)
    @given(series_st)
    def test_coeffs_view_is_canonical(self, s):
        again = TruncatedSeries(s.coeffs, s.q_order, s.z_order)
        assert again.coeffs == s.coeffs
        assert all(c and dq <= s.q_order and dz <= s.z_order for (dq, dz), c in s.coeffs.items())
        assert [(dq, dz, c) for (dq, dz), c in s.coeffs.items()] == s.terms()

    @settings(max_examples=200)
    @given(
        st.lists(st.lists(coeff_st, max_size=8), max_size=8),
        st.integers(0, 7),
        st.integers(0, 7),
    )
    def test_from_blocks_equals_the_sparse_constructor(self, blocks, q, z):
        coeffs = {(dq, dz): c for dz, row in enumerate(blocks) for dq, c in enumerate(row)}
        dense = TruncatedSeries.from_blocks(blocks, q, z)
        sparse = TruncatedSeries(coeffs, q, z)
        assert dense.coeffs == sparse.coeffs
        assert dense.to_json_obj() == sparse.to_json_obj()
        assert first_mismatch(dense, sparse) is None

    def test_high_degree_term_is_refused_before_allocating(self):
        with pytest.raises(CapacityError, match="dense rows need 1000000002 cells"):
            TruncatedSeries({(10**9, 0): 1}, 10**9)
        with pytest.raises(CapacityError, match="dense rows need 1000000002 cells"):
            TruncatedSeries({(0, 10**9): 1}, 0, 10**9)
        text = '{"q_order":1000000000,"terms":[[1000000000,0,"1"]],"z_order":0}'
        with pytest.raises(CapacityError):
            TruncatedSeries.from_json(text)
        # Terms past the window are dropped before they are counted.
        assert TruncatedSeries({(10**9, 0): 1}, 5) == TruncatedSeries.zero(5)

    def test_dense_size_is_rows_plus_slots(self, monkeypatch):
        monkeypatch.setattr(configurations, "MAX_CELLS", 10)
        # One row of nine slots, then three rows of 2 + 0 + 5 slots.
        assert TruncatedSeries({(8, 0): 1}, 20).rows == [[0] * 8 + [1]]
        assert TruncatedSeries({(1, 0): 1, (4, 2): 3}, 20, 20).rows == [
            [0, 1], [], [0, 0, 0, 0, 3]
        ]
        with pytest.raises(CapacityError, match="11 cells"):
            TruncatedSeries({(9, 0): 1}, 20)
        with pytest.raises(CapacityError, match="11 cells"):
            TruncatedSeries({(1, 0): 1, (5, 2): 3}, 20, 20)
