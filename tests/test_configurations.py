import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import configurations
from admissible.configurations import CapacityError, character_direct, validate_b
from admissible.fermionic import (
    GordonData,
    boundary_c2,
    evaluate_gordon_sum,
    fermionic_r2,
    fermionic_r3,
    fermionic_r3_special,
    gordon_a2,
    gordon_data_r2,
    level_restricted_partitions,
)
from admissible.polyspaces import (
    VanishingSpec,
    graded_dimension,
    oracle_block,
    pair_sector_dims,
    regrade_pair_sectors,
    vanishing_spec_r2,
    vanishing_spec_r3_pair,
    vanishing_spec_r3_signed,
    weight_degree,
)
from admissible.series import TruncatedSeries
from admissible.vertexops import (
    _check_pair_terms,
    build_family,
    family_r3_mixed,
    pair_expansion,
    pair_function,
)
from brute_force import enumerate_configs, is_admissible


class TestIsAdmissible:
    def test_sparse_units_pass(self):
        assert is_admissible((0, 1, 0, 1), 1, 2, (0,))

    def test_initial_cap_rejects(self):
        assert not is_admissible((1,), 1, 2, (0,))

    def test_window_sum_rejects(self):
        assert not is_admissible((1, 1, 1), 2, 3, (1, 2))

    def test_entry_above_k_rejects(self):
        assert not is_admissible((0, 3), 2, 2, (2,))

    @pytest.mark.parametrize(
        "b", [(2, 1), (-1, 0), (0, 3), (0,), (0, 1, 1)]
    )
    def test_malformed_b_raises(self, b):
        with pytest.raises(ValueError):
            is_admissible((0,), 2, 3, b)


def entries_set(k, r, b, qmax, zmax):
    return list(enumerate_configs(k, r, b, qmax, zmax))


class TestEnumerate:
    def test_hand_enumeration_k1_r2(self):
        got = entries_set(1, 2, (0,), 2, 2)
        assert sorted(got) == [(), (0, 0, 1), (0, 1)]

    def test_zero_budget_leaves_empty_config(self):
        for (k, r, b) in [(1, 2, (0,)), (2, 3, (1, 2)), (3, 2, (3,))]:
            assert entries_set(k, r, b, 0, 0) == [()]

    def test_single_unit_r3(self):
        got = entries_set(1, 3, (0, 1), 3, 1)
        assert sorted(got) == [(), (0, 0, 0, 1), (0, 0, 1), (0, 1)]

    def test_lexicographic_order_and_uniqueness(self):
        got = entries_set(2, 3, (1, 2), 8, 5)
        length = max((len(e) for e in got), default=0)
        padded = [e + (0,) * (length - len(e)) for e in got]
        assert padded == sorted(padded)
        assert len(set(padded)) == len(padded)

    def test_every_yield_is_admissible(self):
        for cfg in enumerate_configs(3, 2, (1,), 8, 4):
            assert is_admissible(cfg, 3, 2, (1,))
        for cfg in enumerate_configs(2, 3, (0, 1), 8, 4):
            assert is_admissible(cfg, 2, 3, (0, 1))

    def test_exhaustive_against_filter(self):
        # independent oracle: filter all vectors of bounded length and entries
        k, r, b, qmax, zmax = 2, 3, (1, 2), 6, 4
        expected = set()
        maxlen = qmax + 1

        def all_vectors(length):
            if length == 0:
                yield ()
                return
            for rest in all_vectors(length - 1):
                for v in range(k + 1):
                    yield rest + (v,)

        for vec in all_vectors(maxlen):
            trimmed = vec
            while trimmed and trimmed[-1] == 0:
                trimmed = trimmed[:-1]
            qdeg = sum(j * a for j, a in enumerate(trimmed))
            zdeg = sum(trimmed)
            if qdeg <= qmax and zdeg <= zmax and is_admissible(trimmed, k, r, b):
                expected.add(trimmed)
        assert set(entries_set(k, r, b, qmax, zmax)) == expected


class TestCharacter:
    def test_constant_term_is_one(self):
        for (k, r, b) in [(1, 2, (0,)), (2, 3, (1, 2)), (3, 2, (2,))]:
            chi = character_direct(k, r, b, 6, 3)
            assert chi.coefficient(0, 0) == 1

    def test_z1_block_k1_b0(self):
        chi = character_direct(1, 2, (0,), 8, 3)
        assert [chi.z_block(1).coefficient(d) for d in range(9)] == [
            0, 1, 1, 1, 1, 1, 1, 1, 1,
        ]

    def test_z2_block_k1_b0(self):
        # oracle: pairs 1 <= i, j >= i + 2, weight q^(i+j)
        counts = [0] * 11
        for i in range(1, 11):
            for j in range(i + 2, 11):
                if i + j <= 10:
                    counts[i + j] += 1
        assert counts[4:9] == [1, 1, 2, 2, 3]
        chi = character_direct(1, 2, (0,), 10, 2)
        assert [chi.z_block(2).coefficient(d) for d in range(11)] == counts

    def test_monotone_in_b(self):
        small = character_direct(2, 2, (0,), 10, 5)
        mid = character_direct(2, 2, (1,), 10, 5)
        big = character_direct(2, 2, (2,), 10, 5)
        for key, c in small.coeffs.items():
            assert c <= mid.coeffs.get(key, 0)
        for key, c in mid.coeffs.items():
            assert c <= big.coeffs.get(key, 0)

    def test_monotone_in_b_rank3(self):
        chain = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
        chars = [character_direct(2, 3, b, 8, 4) for b in chain]
        for lo, hi in zip(chars, chars[1:]):
            for key, c in lo.coeffs.items():
                assert c <= hi.coeffs.get(key, 0)

    def test_truncation_stability(self):
        lo = character_direct(2, 3, (1, 2), 8, 4)
        hi = character_direct(2, 3, (1, 2), 14, 7)
        assert lo == hi  # equality compares on the common window

    def test_all_coefficients_non_negative(self):
        chi = character_direct(3, 2, (1,), 12, 6)
        assert all(c > 0 for c in chi.coeffs.values())


def dfs_tally(k, r, b, qmax, zmax):
    """(q-degree, z-degree) -> count over the brute-force enumeration."""
    tally = {}
    for cfg in enumerate_configs(k, r, b, qmax, zmax):
        key = (sum(j * a for j, a in enumerate(cfg)), sum(cfg))
        tally[key] = tally.get(key, 0) + 1
    return tally


@st.composite
def windows(draw):
    k = draw(st.integers(1, 4))
    r = draw(st.integers(2, 4))
    b = tuple(sorted(draw(st.lists(st.integers(0, k), min_size=r - 1, max_size=r - 1))))
    return k, r, b, draw(st.integers(0, 25)), draw(st.integers(0, 12))


def admissible_bs(k, r):
    """Every admissible initial-condition vector of length r - 1."""
    return list(itertools.combinations_with_replacement(range(k + 1), r - 1))


class TestRecursionAgainstEnumeration:
    """The first-entry recursion in character_direct against the DFS in
    enumerate_configs."""

    @settings(max_examples=40, deadline=None)
    @given(windows())
    def test_random_windows(self, window):
        k, r, b, qmax, zmax = window
        chi = character_direct(k, r, b, qmax, zmax)
        assert (chi.q_order, chi.z_order) == (qmax, zmax)
        assert chi.coeffs == dfs_tally(k, r, b, qmax, zmax)

    @pytest.mark.parametrize(
        "k, r, b", [(k, r, b) for k in (1, 2, 3) for r in (2, 3, 4) for b in admissible_bs(k, r)]
    )
    def test_every_small_b(self, k, r, b):
        for qmax, zmax in [(10, 5), (7, 12), (0, 3), (4, 0)]:
            chi = character_direct(k, r, b, qmax, zmax)
            assert (chi.q_order, chi.z_order) == (qmax, zmax)
            assert chi.coeffs == dfs_tally(k, r, b, qmax, zmax), (qmax, zmax)

    @pytest.mark.parametrize("k, r, b", [(2, 2, (1,)), (3, 3, (2, 3)), (1, 4, (0, 0, 1))])
    def test_z_far_past_the_reach_of_q(self, k, r, b):
        # no configuration has z-degree above q_max + b_0; the window stays z_max
        chi = character_direct(k, r, b, 6, 10**6)
        assert (chi.q_order, chi.z_order) == (6, 10**6)
        assert max(dz for _, dz in chi.coeffs) <= 6 + b[0]
        assert chi.coeffs == dfs_tally(k, r, b, 6, 10**6)


@st.composite
def plan_windows(draw):
    k = draw(st.integers(1, 6))
    r = draw(st.integers(2, 6))
    b = tuple(sorted(draw(st.lists(st.integers(0, k), min_size=r - 1, max_size=r - 1))))
    return k, b, draw(st.integers(0, 30)), draw(st.integers(0, 15))


class TestBlockPlan:
    """The plan of character_direct against the recurrence it solves."""

    @settings(max_examples=150, deadline=None)
    @given(plan_windows())
    def test_plan_is_the_least_solution(self, window):
        # Each block is read at the most any planned reader reads it, the
        # roots at q_max.  Every read lowers n or moves vec towards K, so a
        # plan that is read exactly as planned is the least solution.
        k, b, q_max, z_max = window
        top = min(z_max, q_max + b[0])
        plan = configurations._block_plan(k, b, top, q_max)
        planned = {
            (vec, n): base - a * n
            for vec, (a, base, last, _) in plan.items()
            for n in range(1, last + 1)
        }
        read = {(b, n): q_max for n in range(1, top + 1)}
        for vec, (a, base, last, terms) in plan.items():
            assert len(terms) == min(vec[0] + 1, last)
            for n in range(1, last + 1):
                demand = base - a * n
                for v in range(min(vec[0], n - 1) + 1):
                    child = tuple(x - v for x in vec[1:]) + (k - v,)
                    if v == 0 and child == vec:  # K(0) = K: the block divides itself
                        child = None
                    assert terms[v] == child, (vec, v)
                    m = n - v
                    if child is not None and m <= demand:
                        assert (child, m) in planned, (vec, n, v)
                        read[child, m] = max(read.get((child, m), -1), demand - m)
        assert read == planned


class TestCellBudget:
    def test_demand_pass_prunes(self, monkeypatch):
        # every block of every reachable b would be about 3 * 10**6 cells
        monkeypatch.setattr(configurations, "MAX_CELLS", 10**5)
        window = (10, 8, (0, 1, 2, 3, 4, 5, 10), 16, 8)
        assert character_direct(*window).coeffs == dfs_tally(*window)

    def test_demand_pass_refuses(self, monkeypatch):
        # the requested 151 x 301 cells fit, the blocks they read do not
        monkeypatch.setattr(configurations, "MAX_CELLS", 10**5)
        with pytest.raises(CapacityError, match="recursion's blocks"):
            character_direct(3, 2, (2,), 300, 150)

    def test_terms_stop_at_the_top_block(self):
        # block (vec, n) reads only terms v < n <= top, whatever vec_0 is
        plan = configurations._block_plan(50, (50,), 5, 5)
        assert plan and all(len(terms) <= last <= 5 for _, _, last, terms in plan.values())

    @pytest.mark.parametrize(
        "window, least",
        [
            ((10, 8, (0, 1, 2, 3, 4, 5, 10), 16, 8), 1230),
            ((3, 2, (2,), 300, 150), 134848),
            ((3, 3, (1, 3), 42, 21), 4780),
            ((50, 3, (10, 50), 60, 30), 157695),
        ],
    )
    def test_least_budget_is_pinned(self, monkeypatch, window, least):
        # the least budget counts every q-coefficient built: the z^0 row, the
        # requested blocks and every block they read
        monkeypatch.setattr(configurations, "MAX_CELLS", least)
        character_direct(*window)
        monkeypatch.setattr(configurations, "MAX_CELLS", least - 1)
        with pytest.raises(CapacityError, match="over the limit"):
            character_direct(*window)

    def test_huge_k_with_a_tiny_window(self):
        # z-degree <= 5 bounds every entry, so k and b_0 past 5 constrain nothing
        assert character_direct(10**7, 2, (10**7,), 5, 5) == character_direct(6, 2, (6,), 5, 5)

    @pytest.mark.parametrize(
        "compute",
        [
            lambda q, z: character_direct(3, 2, (1,), q, z),
            lambda q, z: fermionic_r2(3, 1, q, z),
            lambda q, z: fermionic_r3(3, 1, q, z),
            lambda q, z: fermionic_r3_special(3, q, z),
        ],
        ids=["direct", "fermionic-r2", "fermionic-r3", "fermionic-r3-special"],
    )
    def test_huge_window_is_refused_before_allocation(self, compute):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="over the limit"):
                compute(10**12, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_fermionic_limit_is_inclusive(self, monkeypatch):
        expected = character_direct(2, 2, (1,), 20, 10)
        monkeypatch.setattr(configurations, "MAX_CELLS", 11 * 21)
        assert fermionic_r2(2, 1, 20, 10) == expected
        with pytest.raises(CapacityError):
            fermionic_r2(2, 1, 20, 11)


class TestTransferMatrixAgainstEnumeration:
    """Edge windows of character_direct against the DFS in enumerate_configs.

    The class keeps the name it had when a transfer-matrix DP computed
    character_direct, so that its test ids stay the same."""

    @pytest.mark.parametrize(
        "k, r, b", [(1, 2, (0,)), (3, 2, (3,)), (2, 3, (1, 2)), (4, 4, (4, 4, 4))]
    )
    def test_empty_window_is_the_constant_one(self, k, r, b):
        chi = character_direct(k, r, b, 0, 0)
        assert (chi.coeffs, chi.q_order, chi.z_order) == ({(0, 0): 1}, 0, 0)
        assert character_direct(k, r, b, 9, 0).coeffs == {(0, 0): 1}

    def test_q_max_zero_keeps_only_position_zero(self):
        # a_0 = v carries weight z^v q^0, capped by b_0
        chi = character_direct(3, 3, (2, 3), 0, 5)
        assert chi.coeffs == {(0, 0): 1, (0, 1): 1, (0, 2): 1}

    @pytest.mark.parametrize("b", [(0, 1, 3), (1, 1, 2), (1, 2, 3), (2, 2, 2)])
    def test_rank4_prefix_caps(self, b):
        chi = character_direct(3, 4, b, 14, 7)
        assert chi.coeffs == dfs_tally(3, 4, b, 14, 7)
        # the prefix a_0 + a_1 + a_2 never exceeds b_2
        for cfg in enumerate_configs(3, 4, b, 14, 7):
            assert sum(cfg[:3]) <= b[2]

    @pytest.mark.parametrize("k, r, b", [(2, 2, (0,)), (3, 3, (0, 0)), (2, 4, (0, 0, 0))])
    def test_zero_initial_caps(self, k, r, b):
        chi = character_direct(k, r, b, 16, 8)
        assert chi.coeffs == dfs_tally(k, r, b, 16, 8)
        assert all(dq >= r - 1 for dq, dz in chi.coeffs if dz)

    @pytest.mark.parametrize(
        "args", [(0, 2, (0,), 4, 2), (2, 1, (), 4, 2), (2, 2, (3,), 4, 2), (2, 2, (1,), -1, 2)]
    )
    def test_bad_input_raises(self, args):
        with pytest.raises(ValueError):
            character_direct(*args)


def partitions_at_most_n_parts(d, n):
    """Independent partition counter (DP over largest part)."""
    table = [[0] * (n + 1) for _ in range(d + 1)]
    for parts in range(n + 1):
        table[0][parts] = 1
    for total in range(1, d + 1):
        for parts in range(1, n + 1):
            table[total][parts] = table[total][parts - 1] + (
                table[total - parts][parts] if total >= parts else 0
            )
    return table[d][n]


class TestStaircase:
    def test_z_blocks_are_shifted_bounded_partitions(self):
        # k=1, b=(0): z-degree-n block = q^(n^2) * (partitions into <= n parts)
        qmax = 40
        chi = character_direct(1, 2, (0,), qmax, 6)
        for n in range(7):
            block = chi.z_block(n)
            for d in range(qmax + 1):
                expect = (
                    partitions_at_most_n_parts(d - n * n, n) if d >= n * n else 0
                )
                assert block.coefficient(d) == expect, (n, d)


# Every entry point that takes k (and b0) checks it through validate_b or
# validate_k: the error is the validator's own.
_ENTRY_POINTS = {
    "gordon_a2": lambda k, b0: gordon_a2(k),
    "family_r3_mixed": lambda k, b0: family_r3_mixed(k),
    "boundary_c2": lambda k, b0: boundary_c2(k, b0),
    "vanishing_spec_r2": lambda k, b0: vanishing_spec_r2(3, k, b0, 4),
    "family_r2": lambda k, b0: build_family("r2", k, b0),
    "character_direct": lambda k, b0: character_direct(k, 2, (b0,), 4, 2),
    "fermionic_r2": lambda k, b0: fermionic_r2(k, b0, 4, 2),
}
_K_ONLY = ("gordon_a2", "family_r3_mixed")


@pytest.mark.parametrize(
    "name,k,b0",
    [(name, 0, 0) for name in _ENTRY_POINTS]
    + [(name, 2.5, 0) for name in _ENTRY_POINTS]
    + [(name, 2, 3) for name in _ENTRY_POINTS if name not in _K_ONLY]
    + [(name, 2, 1.5) for name in _ENTRY_POINTS if name not in _K_ONLY],
)
def test_entry_points_share_the_validator(name, k, b0):
    with pytest.raises(ValueError) as expected:
        validate_b(k, 2, (b0,))
    with pytest.raises(ValueError) as got:
        _ENTRY_POINTS[name](k, b0)
    assert str(got.value) == str(expected.value)


def _pair_call(route, trunc=2.5):
    family = build_family("r2", 2)
    spec = dict(family.specs)["gamma1"]
    return lambda: route(spec, spec, family.table, trunc)


# Every entry point that takes a truncation order refuses one that is not an
# int, whole floats included, with its validator's one-line ValueError.
_WINDOW = "q_max and z_max must be integers, got "
_NON_INT_ORDERS = {
    "character_direct": (lambda: character_direct(2, 2, (1,), 5.5, 2), _WINDOW + "5.5 and 2"),
    "character_direct_whole": (
        lambda: character_direct(2, 2, (1,), 5.0, 2), _WINDOW + "5.0 and 2"
    ),
    "fermionic_r2": (lambda: fermionic_r2(2, 1, 5, 2.5), _WINDOW + "5 and 2.5"),
    "fermionic_r3": (lambda: fermionic_r3(2, 1, 5.5, 2), _WINDOW + "5.5 and 2"),
    "fermionic_r3_special": (lambda: fermionic_r3_special(3, 5, 2.5), _WINDOW + "5 and 2.5"),
    "evaluate_gordon_sum": (
        lambda: evaluate_gordon_sum(gordon_data_r2(2, 1), 5.5, 2), _WINDOW + "5.5 and 2"
    ),
    "oracle_block": (lambda: oracle_block(2, 2, (1,), 5.5, 2), _WINDOW + "5.5 and 2"),
    "regrade_pair_sectors": (
        lambda: regrade_pair_sectors([[1, 2]], 2.5), _WINDOW + "2.5 and 0"
    ),
    "TruncatedSeries": (
        lambda: TruncatedSeries([[1]], 2.5), "truncation orders must be integers, got 2.5 and 0"
    ),
    "pair_expansion": (_pair_call(pair_expansion), "truncation order must be an integer, got 2.5"),
    "pair_function": (_pair_call(pair_function), "truncation order must be an integer, got 2.5"),
    "_check_pair_terms": (
        lambda: _check_pair_terms(1, 2, 2.5), "truncation order must be an integer, got 2.5"
    ),
    "graded_dimension": (
        lambda: graded_dimension(VanishingSpec((2,), (), 2.5)),
        "degree_cap must be an integer, got 2.5",
    ),
}


@pytest.mark.parametrize("name", _NON_INT_ORDERS)
def test_entry_points_refuse_a_non_int_order(name):
    call, message = _NON_INT_ORDERS[name]
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


# A bool passes isinstance(x, int), but is no level or order: let through,
# True would run as 1 and print back as a z_order of True.  Each is refused
# with the message of any other non-int.
_BOOLS = {
    "character_direct": (lambda: character_direct(2, 2, (1,), 2, True), _WINDOW + "2 and True"),
    "fermionic_r2": (lambda: fermionic_r2(2, 1, 2, True), _WINDOW + "2 and True"),
    "fermionic_r2_folded": (lambda: fermionic_r2(6, 1, False, 10), _WINDOW + "False and 10"),
    "validate_k": (
        lambda: character_direct(True, 2, (1,), 2, 2), "k must be a positive integer, got True"
    ),
    "TruncatedSeries": (
        lambda: TruncatedSeries([[1]], 3, True),
        "truncation orders must be integers, got 3 and True",
    ),
    "graded_dimension": (
        lambda: graded_dimension(VanishingSpec((2,), (), True)),
        "degree_cap must be an integer, got True",
    ),
    "VanishingSpec_count": (
        lambda: VanishingSpec((True,), (), 3), "variable counts must be integers, got (True,)"
    ),
    "VanishingSpec_pattern": (
        lambda: VanishingSpec((2,), (((True, 0, 0),),), 3),
        "pattern counts must be integers, got (True,0,0)",
    ),
    "coefficient": (
        lambda: TruncatedSeries([[1, 2]], 3).coefficient(True),
        "exponents must be integers, got True and 0",
    ),
    "z_block": (
        lambda: TruncatedSeries([[1], [2]], 3, 2).z_block(True),
        "the z exponent must be an integer, got True",
    ),
    "GordonData_matrix": (
        lambda: GordonData(((True,),), (0,), 1, (1,), (0,)),
        "matrix entries must be integers, got ((True,),)",
    ),
    "GordonData_q_step": (
        lambda: GordonData(((2,),), (0,), True, (1,), (0,)), "q_step must be an integer, got True"
    ),
    "GordonData_vectors": (
        lambda: GordonData(((2,),), (0,), 1, (True,), (0,)),
        "z_weights entries must be integers, got (True,)",
    ),
    "validate_b_r": (
        lambda: character_direct(2, True, (1,), 5, 2), "r must be an integer, got True"
    ),
    "level_restricted_partitions": (
        lambda: list(level_restricted_partitions(True, 2)), "n must be an integer, got True"
    ),
    "vanishing_spec_r3_pair": (
        lambda: vanishing_spec_r3_pair(True, 1, 2, 1, 2, 4),
        "variable counts must be integers, got (True, 1)",
    ),
    "pair_sector_dims": (
        lambda: pair_sector_dims(True, 1, 0, 1, 2), "variable counts must be integers, got True"
    ),
    "pair_function": (
        _pair_call(pair_function, True), "truncation order must be an integer, got True"
    ),
}


@pytest.mark.parametrize("name", _BOOLS)
def test_entry_points_refuse_a_bool(name):
    call, message = _BOOLS[name]
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


def _gordon(**fields):
    """The 1 x 1 Gordon data of q^(m(m-1)) z^m / (q)_m, with fields replaced."""
    data = dict(matrix=((2,),), boundary=(0,), q_step=1, z_weights=(1,), extra_q_weights=(0,))
    return lambda: evaluate_gordon_sum(GordonData(**{**data, **fields}), 4, 2)


# Every other integer input refuses a value that is not an int, whole floats
# included, with a one-line ValueError, before it reaches arithmetic that
# would fail on it or silently read it: series exponents, Gordon data, the
# counts of a vanishing pattern, and r.
_NON_INT_ENTRIES = {
    "coefficient": (
        lambda: TruncatedSeries([[1]], 3).coefficient(1.5),
        "exponents must be integers, got 1.5 and 0",
    ),
    "coefficient_long_row": (
        lambda: TruncatedSeries([[1, 2, 3]], 3).coefficient(1.5),
        "exponents must be integers, got 1.5 and 0",
    ),
    "coefficient_z": (
        lambda: TruncatedSeries([[1], [2]], 3, 2).coefficient(0, 1.0),
        "exponents must be integers, got 0 and 1.0",
    ),
    "z_block": (
        lambda: TruncatedSeries([[1], [2]], 3, 2).z_block(1.0),
        "the z exponent must be an integer, got 1.0",
    ),
    "gordon_matrix": (
        _gordon(matrix=((2.5,),)), "matrix entries must be integers, got ((2.5,),)"
    ),
    "gordon_q_step": (_gordon(q_step=1.5), "q_step must be an integer, got 1.5"),
    "gordon_boundary": (
        _gordon(boundary=(1.0,)), "boundary entries must be integers, got (1.0,)"
    ),
    "gordon_z_weights": (
        _gordon(z_weights=(1.5,)), "z_weights entries must be integers, got (1.5,)"
    ),
    "gordon_extra_q_weights": (
        _gordon(extra_q_weights=(0.5,)),
        "extra_q_weights entries must be integers, got (0.5,)",
    ),
    "VanishingSpec_pattern": (
        lambda: VanishingSpec((2,), (((1.5, 0, 0),),), 3),
        "pattern counts must be integers, got (1.5,0,0)",
    ),
    "validate_b_whole_r": (
        lambda: character_direct(2, 3.0, (1, 2), 5, 2), "r must be an integer, got 3.0"
    ),
    "validate_b_r": (
        lambda: character_direct(2, 2.5, (1,), 5, 2), "r must be an integer, got 2.5"
    ),
}


@pytest.mark.parametrize("name", _NON_INT_ENTRIES)
def test_entry_points_refuse_a_non_int_entry(name):
    call, message = _NON_INT_ENTRIES[name]
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


# Every entry point that takes a variable count (or, for the partitions, a
# size) refuses one that is not an int with a one-line ValueError.
_COUNTS = "variable counts must be integers, got "
_NON_INT_COUNTS = {
    "VanishingSpec": (lambda: VanishingSpec((2.5,), (), 3), _COUNTS + "(2.5,)"),
    "graded_dimension": (
        lambda: graded_dimension(vanishing_spec_r2(2.5, 2, 1, 4)), _COUNTS + "(2.5,)"
    ),
    "vanishing_spec_r3_pair": (
        lambda: vanishing_spec_r3_pair(2.5, 1, 2, 1, 2, 4), _COUNTS + "(2.5, 1)"
    ),
    "pair_sector_dims": (lambda: pair_sector_dims(2.5, 2, 1, 2, 4), _COUNTS + "2.5"),
    "level_restricted_partitions": (
        lambda: list(level_restricted_partitions(2.5, 2)), "n must be an integer, got 2.5"
    ),
}


@pytest.mark.parametrize("name", _NON_INT_COUNTS)
def test_entry_points_refuse_a_non_int_count(name):
    call, message = _NON_INT_COUNTS[name]
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


def test_negative_orders_keep_their_messages():
    with pytest.raises(ValueError, match=r"^q_max and z_max must be non-negative$"):
        fermionic_r3_special(3, 5, -1)
    with pytest.raises(ValueError, match=r"^truncation orders must be non-negative$"):
        TruncatedSeries([[1]], -1)
    with pytest.raises(ValueError, match=r"^truncation order must be non-negative, got -1$"):
        _check_pair_terms(1, 2, -1)
    with pytest.raises(ValueError, match=r"^degree_cap must be non-negative$"):
        VanishingSpec((2,), (), -1)


# Every route that takes b0 reads a whole float as the int validate_b
# returns, and gives what the int gives.
_WHOLE_B0 = {
    "fermionic_r2_folded": (lambda b0: fermionic_r2(5, b0, 12, 6), 2),
    "fermionic_r2_walked": (lambda b0: fermionic_r2(2, b0, 5, 2), 2),
    "fermionic_r3": (lambda b0: fermionic_r3(3, b0, 5, 2), 1),
    "boundary_c2": (lambda b0: boundary_c2(2, b0), 2),
    "weight_degree": (lambda b0: weight_degree((1, 1), "G2", 2, b0), 1),
    "vanishing_spec_r2": (lambda b0: _fields(vanishing_spec_r2(3, 2, b0, 4)), 1),
    "vanishing_spec_r3_pair": (lambda b0: _fields(vanishing_spec_r3_pair(2, 1, 2, b0, 1, 4)), 1),
    "vanishing_spec_r3_signed": (lambda b0: _fields(vanishing_spec_r3_signed(3, 2, b0, 4)), 0),
}


def _fields(spec):
    return spec.family_sizes, spec.conditions, spec.degree_cap


@pytest.mark.parametrize("name", _WHOLE_B0)
def test_a_whole_float_b0_is_read_as_its_int(name):
    route, b0 = _WHOLE_B0[name]
    want = route(b0)
    got = route(float(b0))
    assert got == want
    assert repr(got) == repr(want)  # no float left inside


def test_whole_b_entries_are_read_as_ints():
    # a float or Fraction equal to an integer is that integer; k must be an int
    b = validate_b(3, 3, (1.0, Fraction(3)))
    assert b == (1, 3) and {type(x) for x in b} == {int}
    with pytest.raises(ValueError, match=r"^b entries must be whole numbers: \(1, 2.5\)$"):
        validate_b(3, 3, [1, 2.5])
    with pytest.raises(ValueError, match=r"^k must be a positive integer, got 2.0$"):
        validate_b(2.0, 2, (1,))
