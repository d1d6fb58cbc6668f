import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import configurations
from admissible.configurations import CapacityError
from admissible.series import (
    TruncatedSeries,
    _add_shifted,
    _divide,
    _Overflow,
    _packed,
    _Packing,
    _unpack,
    dumps,
    first_mismatch,
    series_json,
)
from brute_force import _divide_by_one_minus, _pochhammer_inverse_coeffs


def S(coeffs, q=6, z=6):
    """The series with the terms {(dq, dz): c}, built from dense rows."""
    rows = []
    for (dq, dz), c in coeffs.items():
        rows += [[] for _ in range(dz + 1 - len(rows))]
        rows[dz] += [0] * (dq + 1 - len(rows[dz]))
        rows[dz][dq] = c
    return TruncatedSeries(rows, q, z)


def plus(a, b):
    """The sum on the common window, from the two coefficient maps."""
    out = a.coeffs
    for e, c in b.coeffs.items():
        out[e] = out.get(e, 0) + c
    return S(out, min(a.q_order, b.q_order), min(a.z_order, b.z_order))


def convolve(a, b):
    """The product on the common window, as a plain dict convolution."""
    q, z = min(a.q_order, b.q_order), min(a.z_order, b.z_order)
    out = {}
    for (aq, az), ca in a.coeffs.items():
        for (bq, bz), cb in b.coeffs.items():
            if aq + bq <= q and az + bz <= z:
                out[aq + bq, az + bz] = out.get((aq + bq, az + bz), 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class TestMul:
    def test_telescoping(self):
        a = S({(0, 0): 1, (1, 0): -1}, 3, 0)
        b = S({(d, 0): 1 for d in range(4)}, 3, 0)
        assert (a * b) == S({(0, 0): 1}, 3, 0)

    def test_multiplicative_identity(self):
        s = S({(2, 2): 7, (5, 0): -1, (0, 4): 3})
        assert (s * S({(0, 0): 1})) == s

    def test_binomial_square(self):
        s = S({(0, 0): 1, (1, 1): 1}, 2, 2)
        sq = s * s
        assert sq == S({(0, 0): 1, (1, 1): 2, (2, 2): 1}, 2, 2)

    def test_no_coefficient_escapes_window(self):
        a = S({(3, 0): 1, (0, 2): 1}, 4, 3)
        b = S({(2, 0): 1, (0, 2): 1}, 4, 3)
        prod = a * b
        assert all(dq <= 4 and dz <= 3 for dq, dz in prod.coeffs)
        assert all(len(row) <= 5 for row in prod.rows) and len(prod.rows) <= 4
        assert (prod.q_order, prod.z_order) == (4, 3)

    @settings(max_examples=200)
    @given(
        st.lists(st.lists(st.integers(-9, 9), max_size=8), max_size=8),
        st.lists(st.lists(st.integers(-9, 9), max_size=8), max_size=8),
        st.integers(0, 9),
        st.integers(0, 9),
        st.integers(0, 9),
        st.integers(0, 9),
    )
    def test_equals_a_dict_convolution(self, rows_a, rows_b, qa, za, qb, zb):
        # Empty rows, ragged rows and rows past either window included.
        a, b = TruncatedSeries(rows_a, qa, za), TruncatedSeries(rows_b, qb, zb)
        prod = a * b
        assert prod.coeffs == convolve(a, b)
        assert (prod.q_order, prod.z_order) == (min(qa, qb), min(za, zb))


class TestEquality:
    def test_truncation_aware(self):
        # differ only beyond the common window
        a = S({(0, 0): 1, (5, 0): 9}, 5, 0)
        b = S({(0, 0): 1}, 3, 0)
        assert a == b
        assert b == a  # symmetric

    def test_disagreement_inside_window(self):
        a = S({(2, 0): 1}, 5, 0)
        b = S({(2, 0): 2}, 3, 0)
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


def times_pochhammer(coeffs, m, step):
    """coeffs times prod_{j=1..m} (1 - q^(step*j)), truncated to its length."""
    out = list(coeffs)
    for j in range(1, m + 1):
        for d in range(len(out) - 1, step * j - 1, -1):
            out[d] -= out[d - step * j]
    return out


class TestPochhammerInverse:
    def test_empty_product(self):
        for step in (1, 2, 3):
            assert _pochhammer_inverse_coeffs((0,), step, 5) == [1, 0, 0, 0, 0, 0]

    def test_m2_step1_against_counting_oracle(self):
        oracle = brute_force_step_counts(2, 1, 4)
        assert oracle == [1, 1, 2, 2, 3]
        assert _pochhammer_inverse_coeffs((2,), 1, 4) == oracle

    def test_m1_step2_geometric(self):
        got = _pochhammer_inverse_coeffs((1,), 2, 4)
        assert got == [1, 0, 1, 0, 1]
        # term-by-term check against the defining factor
        factor = S({(0, 0): 1, (2, 0): -1}, 4, 0)
        assert TruncatedSeries([got], 4) * factor == S({(0, 0): 1}, 4, 0)

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("m", range(9))
    def test_inverse_identity(self, m, step):
        q_order = 40
        inv = _pochhammer_inverse_coeffs((m,), step, q_order)
        assert times_pochhammer(inv, m, step) == [1] + [0] * q_order


def pack(coeffs, width):
    """The packed integer of a q-list: coeffs[i] in bits [i width, (i+1) width)."""
    return sum(c << i * width for i, c in enumerate(coeffs))


def unpacked(coeffs):
    """A q-list as ``_unpack`` returns it: no trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# Every width a route can reach from a start of 8 or 64 bits, and clean
# q-lists for each: zeros, small values and values up to the guard.
width_st = st.sampled_from([8, 16, 32, 64, 128, 256])


@st.composite
def clean_lists(draw, width, max_size=12):
    top = 2 ** (min(width, 64) - 1) - 1
    value = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, top))
    return draw(st.lists(value, max_size=max_size))


class TestPackedKernel:
    """The packed kernel against the list references, overflow included:
    an operation raises ``_Overflow`` exactly when a true coefficient of
    its result reaches the guard bit, and is exact otherwise."""

    @settings(max_examples=200)
    @given(st.data(), width_st)
    def test_unpack_inverts_pack(self, data, width):
        coeffs = data.draw(clean_lists(width, max_size=40))
        assert _unpack(pack(coeffs, width), width) == unpacked(coeffs)

    def test_unpack_folds_wide_fields(self):
        coeffs = [0, 0, 2**127 - 1, 0, 5, 2**64, 0]
        for width in (128, 256):
            assert _unpack(pack(coeffs, width), width) == unpacked(coeffs)
        assert _unpack(0, 64) == [] and _unpack(1 << 64 * 3, 64) == [0, 0, 0, 1]

    @settings(max_examples=200)
    @given(st.data(), width_st)
    def test_add_shifted_equals_the_list_add(self, data, width):
        top = 12
        length = data.draw(st.integers(0, top))
        row = data.draw(clean_lists(width, max_size=length))
        x = data.draw(clean_lists(width))
        shift = data.draw(st.integers(0, top + 2))
        want = (row + [0] * top)[:length]
        for d, c in enumerate(x[: max(0, length - shift)], shift):
            want[d] += c
        packing = _Packing(width, top)
        if any(c >= 2 ** (width - 1) for c in want):
            with pytest.raises(_Overflow):
                _add_shifted(pack(row, width), pack(x, width), shift, length, packing)
        else:
            got = _add_shifted(pack(row, width), pack(x, width), shift, length, packing)
            assert _unpack(got, width) == unpacked(want)

    @settings(max_examples=200)
    @given(st.data(), width_st)
    def test_divide_equals_the_list_division(self, data, width):
        top = 12
        x = data.draw(clean_lists(width))
        length = data.draw(st.integers(0, top))
        stride = data.draw(st.integers(1, top + 2))
        want = (x + [0] * top)[:length]
        _divide_by_one_minus(want, stride)
        packing = _Packing(width, top)
        if any(c >= 2 ** (width - 1) for c in want):
            with pytest.raises(_Overflow):
                _divide(pack(x, width), stride, length, packing)
        else:
            got = _divide(pack(x, width), stride, length, packing)
            assert _unpack(got, width) == unpacked(want)

    @pytest.mark.parametrize("m, step", [(0, 1), (5, 1), (4, 2), (12, 1)])
    def test_pochhammer_inverse_by_repeated_division(self, m, step):
        packing = _Packing(64, 41)
        x = 1
        for j in range(1, m + 1):
            x = _divide(x, step * j, 41, packing)
        assert _unpack(x, 64) == unpacked(_pochhammer_inverse_coeffs((m,), step, 40))

    @pytest.mark.parametrize(
        "first, second, widths",
        [
            (2**63 - 1, 0, [64]),
            (2**62, 2**62 - 1, [64]),
            (2**63, 0, [64, 128]),
            (2**62, 2**62, [64, 128]),
        ],
    )
    def test_guard_boundary(self, first, second, widths):
        # 2^63 - 1 is the largest field a 64-bit width holds exactly.
        tried = []

        def build(packing):
            tried.append(packing.width)
            row = _add_shifted(0, first, 0, 1, packing)
            return _unpack(_add_shifted(row, second, 0, 1, packing), packing.width)

        assert _packed(build, 0) == [first + second]
        assert tried == widths


# Zeros, and small and 300-bit coefficients of either sign.
wide_coeff_st = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**300), 2**300))


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
        assert json.loads(dumps(obj))["q_order"] == 6

    def test_round_trip(self):
        s = S({(2, 1): 3, (0, 1): 1, (5, 0): -(10**30)})
        obj = json.loads(dumps(s.to_json_obj()))
        coeffs = {(dq, dz): int(c) for dq, dz, c in obj["terms"]}
        assert S(coeffs, obj["q_order"], obj["z_order"]) == s

    # Ragged rows that may be empty, end in zeros or run past q_order;
    # z_order may run past the last row, or cut rows off.
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(wide_coeff_st, max_size=10), max_size=8),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    def test_series_json_is_the_bytes_of_the_reference(self, rows, q, z):
        s = TruncatedSeries(rows, q, z)
        assert series_json(s) == dumps(s.to_json_obj())

    @pytest.mark.parametrize(
        "rows, q, z",
        [
            ([], 0, 0),
            ([[0, 0], [], [0]], 3, 5),
            ([[-(2**300), 0, 0], [], [0, 0, 7, 0]], 9, 9),
            ([[1, 2, 3], [4, 5, 6]], 1, 0),
        ],
        ids=["empty", "all-zero", "big-ragged", "clipped"],
    )
    def test_series_json_edge_cases(self, rows, q, z):
        s = TruncatedSeries(rows, q, z)
        text = series_json(s)
        assert text == dumps(s.to_json_obj())
        assert json.loads(text) == s.to_json_obj()

    def test_series_json_sizes_by_the_rows_not_the_window(self):
        # A short row in a huge q-window: the writer formats the dq of the
        # row's cells, not of every q-order up to 10^7.
        s = TruncatedSeries([[1, 0, 2]], 10**7)
        tracemalloc.start()
        try:
            text = series_json(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == dumps(s.to_json_obj())
        assert peak < 10**5


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
        s = S({(1, 0): 1}, 3, 2)
        with pytest.raises(ValueError):
            s.coefficient(4, 0)
        with pytest.raises(ValueError):
            s.coefficient(0, 3)

    def test_z_block_beyond_window_raises(self):
        s = S({(1, 1): 1}, 3, 2)
        with pytest.raises(ValueError):
            s.z_block(3)

    @pytest.mark.parametrize("dq, dz", [(-1, 0), (0, -1), (-1, -1)])
    def test_coefficient_at_negative_exponent_raises(self, dq, dz):
        s = S({(0, 0): 1}, 3, 2)
        with pytest.raises(ValueError, match="outside the truncation window"):
            s.coefficient(dq, dz)

    def test_z_block_at_negative_exponent_raises(self):
        s = S({(0, 0): 1}, 3, 2)
        with pytest.raises(ValueError, match="outside z_order"):
            s.z_block(-1)


class TestBigCoefficients:
    def test_exact_huge_products(self):
        a = TruncatedSeries([[10**30, 1]], 2)
        b = TruncatedSeries([[10**30, -1]], 2)
        prod = a * b
        assert prod.coefficient(0) == 10**60
        assert prod.coefficient(2) == -1


coeff_st = st.integers(min_value=-9, max_value=9)
key_st = st.tuples(st.integers(0, 5), st.integers(0, 5))
series_st = st.builds(
    S,
    st.dictionaries(key_st, coeff_st, max_size=6),
    q=st.integers(0, 7),
    z=st.integers(0, 7),
)


@settings(max_examples=200)
@given(series_st, series_st, series_st)
def test_ring_axioms(a, b, c):
    assert (a * b) == (b * a)
    assert ((a * b) * c) == (a * (b * c))
    assert (a * plus(b, c)) == plus(a * b, a * c)


class TestFromBlocks:
    """The constructor takes blocks[dz][dq] and clips them to the window."""

    def test_drops_zeros_and_terms_beyond_window(self):
        s = TruncatedSeries([[1, 0, 2, 7], [0, 0], [0, 3], [5]], 2, 2)
        assert s.coeffs == {(0, 0): 1, (2, 0): 2, (1, 2): 3}
        assert (s.q_order, s.z_order) == (2, 2)

    def test_ragged_rows_and_missing_rows(self):
        s = TruncatedSeries([[], [0, 4], [1, 0, -6]], 5, 4)
        assert s.coeffs == {(1, 1): 4, (0, 2): 1, (2, 2): -6}
        assert (s.q_order, s.z_order) == (5, 4)

    def test_equals_dict_built_series(self):
        coeffs = {(0, 0): 2, (3, 0): -1, (1, 1): 5, (4, 2): 10**25}
        blocks = [[coeffs.get((dq, dz), 0) for dq in range(5)] for dz in range(3)]
        assert TruncatedSeries(blocks, 4, 2) == S(coeffs, 4, 2)

    @pytest.mark.parametrize("rows", [{(0, 0): 1}, [{0: 1}], None, "1"])
    def test_rejects_what_is_not_dense_rows(self, rows):
        # the removed sparse form {(dq, dz): c} once failed on a slice
        with pytest.raises(TypeError, match=r"^rows must be a list of dense z-rows") as err:
            TruncatedSeries(rows, 4, 2)
        assert "\n" not in str(err.value)


@settings(max_examples=200)
@given(series_st, series_st)
def test_equality_symmetric(a, b):
    assert (a == b) == (b == a)


class TestDenseRows:
    def test_ragged_rows_and_trailing_zeros_compare_equal(self):
        assert TruncatedSeries([[1, 0, 0]], 5) == TruncatedSeries([[1]], 5)
        padded = TruncatedSeries([[1, 2], [0, 0, 0], [], [0]], 5, 6)
        assert padded == TruncatedSeries([[1, 2]], 5, 6)
        assert padded.coeffs == {(0, 0): 1, (1, 0): 2}

    def test_first_mismatch_past_the_shorter_operands_rows(self):
        short = TruncatedSeries([[1]], 6, 6)
        long = TruncatedSeries([[1], [], [0, 0, 0, 3]], 6, 6)
        assert first_mismatch(short, long) == (3, 2, 0, 3)
        assert first_mismatch(long, short) == (3, 2, 3, 0)
        assert first_mismatch(TruncatedSeries([[1]], 6), long) is None  # z-window 0
        assert first_mismatch(TruncatedSeries([[1]], 2, 6), long) is None  # q-window 2

    def test_first_mismatch_past_the_shorter_row(self):
        a = TruncatedSeries([[1, 2]], 6)
        b = TruncatedSeries([[1, 2, 0, 0, 5]], 6)
        assert first_mismatch(a, b) == (4, 0, 0, 5)

    def test_z_block_beyond_the_stored_rows_is_zero(self):
        s = TruncatedSeries([[1, 1]], 4, 10**6)
        block = s.z_block(10**6)
        assert block == TruncatedSeries([], 4)
        assert (block.q_order, block.z_order, block.coeffs) == (4, 0, {})
        assert s.coefficient(3, 10**6 - 1) == 0

    def test_from_blocks_does_not_alias_the_callers_lists(self):
        blocks = [[1, 2, 3], [4]]
        s = TruncatedSeries(blocks, 5, 3)
        blocks[0][0] = 99
        blocks[1].append(7)
        blocks.append([8])
        assert s.coeffs == {(0, 0): 1, (1, 0): 2, (2, 0): 3, (0, 1): 4}

    @settings(max_examples=200)
    @given(series_st)
    def test_coeffs_view_is_canonical(self, s):
        again = S(s.coeffs, s.q_order, s.z_order)
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
        coeffs = {
            (dq, dz): c
            for dz, row in enumerate(blocks)
            for dq, c in enumerate(row)
            if c and dq <= q and dz <= z
        }
        dense = TruncatedSeries(blocks, q, z)
        assert dense.coeffs == coeffs
        by_row = sorted(coeffs.items(), key=lambda term: term[0][::-1])
        assert dense.to_json_obj()["terms"] == [[dq, dz, str(c)] for (dq, dz), c in by_row]
        assert first_mismatch(dense, S(coeffs, q, z)) is None

    def test_high_degree_term_is_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(configurations, "MAX_CELLS", 10)
        high = TruncatedSeries([[0] * 6 + [1]], 20, 20)  # q^6, seven slots
        with pytest.raises(CapacityError, match="product's dense rows need 14 cells"):
            high * high
        tall = TruncatedSeries([[]] * 6 + [[1]], 20, 20)  # z^6, seven rows
        with pytest.raises(CapacityError, match="product's dense rows need 14 cells"):
            tall * tall
        # Terms past the window are dropped before they are counted.
        assert high * TruncatedSeries([[0] * 6 + [1]], 5) == TruncatedSeries([], 5)
        assert tall * TruncatedSeries(tall.rows, 20, 5) == TruncatedSeries([], 20, 5)

    def test_dense_size_is_rows_plus_slots(self, monkeypatch):
        monkeypatch.setattr(configurations, "MAX_CELLS", 10)
        q4, q5 = TruncatedSeries([[0] * 4 + [1]], 20), TruncatedSeries([[0] * 5 + [1]], 20)
        # One row of 5 + 5 - 1 = 9 slots, then one of 10: 11 cells.
        assert (q4 * q4).rows == [[0] * 8 + [1]]
        with pytest.raises(CapacityError, match="11 cells"):
            q4 * q5
        # Three rows of 2 + 0 + 5 slots, then of 2 + 0 + 6.
        q1 = TruncatedSeries([[0, 1]], 20, 20)
        a = TruncatedSeries([[1], [], [0, 0, 0, 1]], 20, 20)
        assert (a * q1).rows == [[0, 1], [], [0, 0, 0, 0, 1]]
        with pytest.raises(CapacityError, match="11 cells"):
            TruncatedSeries([[1], [], [0, 0, 0, 0, 1]], 20, 20) * q1
