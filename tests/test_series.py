import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import series
from admissible.configurations import character_direct
from admissible.fermionic import fermionic_r2, fermionic_r3, fermionic_r3_special
from admissible.series import (
    TruncatedSeries,
    _add_shifted,
    _divide,
    _Overflow,
    _Packing,
    _unpack,
    dumps,
    first_mismatch,
    series_json,
)
from brute_force import _divide_by_one_minus, _pochhammer_inverse_coeffs, partition_numbers


def S(coeffs, q=6, z=6):
    """The series with the terms {(dq, dz): c}, built from dense rows."""
    rows = []
    for (dq, dz), c in coeffs.items():
        rows += [[] for _ in range(dz + 1 - len(rows))]
        rows[dz] += [0] * (dq + 1 - len(rows[dz]))
        rows[dz][dq] = c
    return TruncatedSeries(rows, q, z)


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


def test_multiplying_two_series_raises_type_error():
    # No route multiplies two series, so there is no product to get wrong.
    a = S({(0, 0): 1, (1, 1): 2})
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*"):
        a * a


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


# Packed widths up to 256 bits (``series._width`` to q_max = 5,330), and clean
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
        "first, second, fits",
        [
            (2**63 - 1, 0, True),
            (2**62, 2**62 - 1, True),
            (2**63, 0, False),
            (2**62, 2**62, False),
        ],
    )
    def test_guard_boundary(self, first, second, fits):
        # 2^63 - 1 is the largest field a 64-bit width holds exactly.
        packing = _Packing(64, 1)

        def add_both():
            row = _add_shifted(0, first, 0, 1, packing)
            return _unpack(_add_shifted(row, second, 0, 1, packing), 64)

        if fits:
            assert add_both() == [first + second]
        else:
            with pytest.raises(_Overflow):
                add_both()


# p(0), ..., p(5331): one past the last row of the width table.
PARTITIONS = partition_numbers(series._WIDTHS[-1][0] + 1)


class TestWidthFromThePartitionBound:
    """``_width`` against the exact partition numbers: the table's rows, the
    Apostol bound past it, the bound on partitions into at most z_max parts,
    and the routes, which each build one packing."""

    def test_each_row_is_the_last_q_max_its_width_holds(self):
        # the least width that holds p(q_max) at every q_max through the
        # table and one past it, so each row's q_max is the last its width
        # holds; z_max = q_max leaves the bound p(q_max) alone
        for q_max, p in enumerate(PARTITIONS):
            width = series._width(q_max, q_max)
            assert p.bit_length() + 1 <= width
            assert width == 8 or p.bit_length() + 1 > width // 2, q_max

    def test_apostol_bound_is_at_least_p(self):
        for n, p in enumerate(PARTITIONS):
            assert series._partition_bits(n) >= p.bit_length(), n

    @pytest.mark.parametrize("q_max", [5331, 6000, 10**5, 10**7])
    def test_past_the_table_the_width_holds_the_apostol_bound(self, q_max):
        width = series._width(q_max, q_max)
        need = series._partition_bits(q_max) + 1
        assert width // 2 < need <= width
        assert width & (width - 1) == 0

    def test_parts_bound_is_at_least_the_exact_count(self):
        for z in range(0, 41):
            exact = _pochhammer_inverse_coeffs((z,), 1, 300)
            for n, count in enumerate(exact):
                bound = series._parts_bound(n, z)
                assert bound >= count, (n, z)
                assert bound == count or z not in (1, 2), (n, z)

    def test_the_z_max_bound_narrows_nothing_at_a_third_of_q_max_or_more(self):
        # why _width takes it only for 3 z_max < q_max
        for q_max in range(1, 201):
            p_width = series._width(q_max, q_max)
            for z_max in range(-(-q_max // 3), q_max):
                bits = series._parts_bound(q_max, z_max).bit_length()
                assert series._fit(bits) >= p_width, (q_max, z_max)

    def test_a_small_z_max_narrows_the_width(self):
        # at z_max = 0 every coefficient is 0 or 1, however long the q-list;
        # checked before the routes run, which at p(q_max)'s width would
        # pack 10^7 fields of 16,384 bits
        assert series._width(9_999_999, 0) == 8
        for call in (
            lambda: character_direct(1, 2, (0,), 9_999_999, 0),
            lambda: fermionic_r2(1, 0, 9_999_999, 0),
        ):
            widths, got = self._widths_of(call)
            assert widths == [8] and got.rows == [[1]]
        # 50-bit coefficients under p(1000)'s 105 bits
        widths, got = self._widths_of(lambda: character_direct(2, 2, (1,), 1000, 10))
        assert widths == [64]
        assert max(max(row) for row in got.rows).bit_length() == 50

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["direct-r2", "direct-r3", "r2", "r3", "r3-special"]),
        st.integers(1, 5),
        st.data(),
    )
    def test_every_route_builds_one_packing(self, route, k, data):
        q_max = data.draw(st.integers(0, 60 if route in ("direct-r2", "r2") else 36))
        z_max = data.draw(st.integers(0, 30))
        b0 = data.draw(st.integers(0, k))
        call = {
            "direct-r2": lambda: character_direct(k, 2, (b0,), q_max, z_max),
            "direct-r3": lambda: character_direct(
                k, 3, (b0, data.draw(st.integers(b0, k))), q_max, z_max
            ),
            "r2": lambda: fermionic_r2(k, b0, q_max, z_max),
            "r3": lambda: fermionic_r3(k, b0, q_max, z_max),
            "r3-special": lambda: fermionic_r3_special(k, q_max, z_max),
        }[route]
        widths, got = self._widths_of(call)
        assert widths == [series._width(q_max, z_max)]
        # the coefficient of q^a z^n is at most p(a, <= n parts) <= p(a)
        for n, row in enumerate(got.rows):
            bound = _pochhammer_inverse_coeffs((n,), 1, q_max)
            assert all(c <= bound[a] <= PARTITIONS[a] for a, c in enumerate(row)), n

    def test_direct_r2_reaching_p_of_q_max_takes_one_width(self):
        # b0 = k >= q_max admits every partition of 122 at z^122
        widths, got = self._widths_of(lambda: character_direct(200, 2, (200,), 122, 122))
        assert got.coefficient(122, 122) == PARTITIONS[122]
        assert PARTITIONS[122].bit_length() == 32
        assert widths == [64]

    @pytest.mark.parametrize(
        "window", [(6, 1, 400, 200), (4, 0, 405, 200), (4, 0, 406, 200)]
    )
    def test_each_r2_route_past_four_coordinates_builds_one_packing(self, window):
        # the fermionic fold keeps each state truncated to what the window
        # can still reach, so it never restarts; on both sides of the
        # q_max = 405 row of the width table
        k, b0, q_max, z_max = window
        want = series._width(q_max, z_max)
        folded_widths, folded = self._widths_of(lambda: fermionic_r2(*window))
        direct_widths, direct = self._widths_of(
            lambda: character_direct(k, 2, (b0,), q_max, z_max)
        )
        assert folded_widths == direct_widths == [want]
        assert folded == direct

    @staticmethod
    def _widths_of(call):
        """call() and the width of every ``_Packing`` it built."""
        widths = []
        packing = series._Packing

        def spied(width, length):
            widths.append(width)
            return packing(width, length)

        with mock.patch.object(series, "_Packing", spied):
            got = call()
        return widths, got


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


coeff_st = st.integers(min_value=-9, max_value=9)
key_st = st.tuples(st.integers(0, 5), st.integers(0, 5))
series_st = st.builds(
    S,
    st.dictionaries(key_st, coeff_st, max_size=6),
    q=st.integers(0, 7),
    z=st.integers(0, 7),
)


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
