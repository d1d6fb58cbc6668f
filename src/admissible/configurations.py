"""Enumeration of (k, r)-admissible configurations and their bivariate character.

A configuration is a finitely supported sequence a_0, a_1, ... of non-negative
integers in which every window of r consecutive entries sums to at most k,
subject to initial caps a_0 <= b_0, a_0 + a_1 <= b_1, ..., up to b_{r-2}.
Each configuration is weighted q^(sum j*a_j) z^(sum a_j); summing the weights
over all configurations within a truncation window gives the character, the
ground truth every formula here is checked against.

``character_direct`` computes that sum by the first-entry recursion
chi_b(q, z) = sum_{v=0}^{b_0} z^v chi_{b(v)}(q, qz), with
b(v) = (b_1 - v, ..., b_{r-2} - v, k - v), Andrews' route to Gordon's
theorem (The Theory of Partitions, 1976, ch. 7).  The z-blocks the
requested window reads, and the highest q-degree read from each, are read
off each vector b(v), b(v)(v'), ... and its number of steps from b; only
those blocks are built, as packed q-lists of the one series kernel
(``series._Packing``) at the one width ``series._width`` picks from
the window: each block is one integer, its terms are added in with
shifted adds in C, and only the requested rows are unpacked.

Every direct and fermionic character is refused with ``CapacityError``
before it allocates more than ``MAX_CELLS`` q-coefficients.
"""

from __future__ import annotations

from . import series
from .series import TruncatedSeries, _add_shifted, _divide, _is_int, _unpack, _width

# The most q-coefficients the direct recursion or a fermionic sum may
# allocate; both count them before allocating any.
MAX_CELLS = 10**7


class CapacityError(Exception):
    """Problem size exceeds the configured limits; nothing was truncated."""


class _Record:
    """Base of the package's immutable records, compared and hashed by identity.

    A subclass names its fields, in order, in ``__slots__`` and may check
    them in ``_validate``.  The fields are given by position or keyword,
    the repr lists them, ``_values()`` returns them as a tuple, and
    assigning or deleting one raises AttributeError.  Plain slotted
    classes keep ``dataclasses`` (and the ``inspect`` it loads) out of the
    start-up of every command.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls} got an unexpected or repeated field {name!r}")
            values[name] = value
        if len(values) < len(names):
            missing = ", ".join(name for name in names if name not in values)
            raise TypeError(f"{cls} is missing the fields {missing}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({inner})"


def _check_cells(cells: int, what: str) -> None:
    """Refuse (CapacityError) a computation of more than MAX_CELLS cells.

    what says what needs them, with {} for their count, as in "the
    direct character's z-blocks need {} q-coefficients".
    """
    if cells > MAX_CELLS:
        raise CapacityError(f"{what.format(cells)}, over the limit of {MAX_CELLS}")


def validate_k(k: int) -> None:
    """Check the level: a positive int, not a bool."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def validate_b(k: int, r: int, b) -> tuple[int, ...]:
    """Check k, r and the initial-condition vector: k and r ints, b whole
    numbers, length r-1, monotone, within [0, k]; return b as a tuple of
    ints.  The one validator of every k, r, b input."""
    validate_k(k)
    if not _is_int(r):
        raise ValueError(f"r must be an integer, got {r}")
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    b = tuple(b)
    ints = tuple(map(int, b))
    if ints != b:
        raise ValueError(f"b entries must be whole numbers: {b}")
    if len(ints) != r - 1:
        raise ValueError(f"b must have r-1 = {r - 1} entries, got {len(ints)}")
    if min(ints) < 0 or max(ints) > k:
        raise ValueError(f"b entries must lie in [0, {k}]: {ints}")
    if list(ints) != sorted(ints):
        raise ValueError(f"b must be weakly increasing: {ints}")
    return ints


def validate_window(q_max: int, z_max: int) -> None:
    """Check a truncation window: both orders non-negative ints, not bools."""
    if not (_is_int(q_max) and _is_int(z_max)):
        raise ValueError(f"q_max and z_max must be integers, got {q_max} and {z_max}")
    if q_max < 0 or z_max < 0:
        raise ValueError("q_max and z_max must be non-negative")


def character_direct(k: int, r: int, b, q_max: int, z_max: int) -> TruncatedSeries:
    """Character of admissible configurations by the first-entry recursion.

    Coefficient of q^i z^j counts configurations with q-degree i and
    z-degree j; the constant term is 1 (the empty configuration).

    Fixing a_0 = v and shifting the rest one place left gives
    chi_b(q, z) = sum_{v=0}^{b_0} z^v chi_{b(v)}(q, qz) with
    b(v) = (b_1 - v, ..., b_{r-2} - v, k - v) (Andrews, The Theory of
    Partitions, 1976, ch. 7).  On the z^n blocks c_{b,n} this reads
    c_{b,n} = sum_v q^(n-v) c_{b(v),n-v}.  The v = 0 term keeps n and moves
    b one step towards K = (k, ..., k), where b(0) = K: there the block is
    the rest of the sum divided by (1 - q^n).  Since a_0 <= b_0 and
    a_1 + a_2 + ... <= q_max, no block above z^(q_max + b_0) is needed; the
    result still reports z_order = z_max.

    ``_block_plan`` finds the blocks that the requested ones read and the
    highest q-degree read from each.  They are built level by level as
    packed q-lists by the shifted adds and the one division of the series
    kernel.  Block coefficients count configurations, so they are >= 0, as
    the kernel requires, and the coefficient of q^d z^n is at most the
    number of partitions of d into at most n parts: the packed width
    chosen from the window (``series._width``) holds every block.  More
    than MAX_CELLS q-coefficients, counted first for the requested blocks
    and then over the plan, raise CapacityError before any block is
    allocated.
    """
    b = validate_b(k, r, b)
    validate_window(q_max, z_max)
    top = min(z_max, q_max + b[0])
    _check_cells(
        (top + 1) * (q_max + 1), "the direct character's z-blocks need {} q-coefficients"
    )
    plan = _block_plan(k, b, top, q_max)
    packing = series._Packing(_width(q_max, z_max), q_max + 1)
    return TruncatedSeries(_build_blocks(b, top, plan, packing), q_max, z_max)


def _build_blocks(b, top, plan, packing) -> list[list[int]]:
    """The rows of the direct character: the planned blocks built level by
    level as packed q-lists, and the roots unpacked.  vec(0) is entrywise
    larger than vec, so the vectors go in descending order, K first."""
    order = sorted(plan.items(), reverse=True)
    blocks = {}
    for n in range(1, top + 1):
        for vec, (a, base, last, terms) in order:
            if n > last:
                continue
            demand = base - a * n
            acc = 0
            for v, child in enumerate(terms[:n]):
                m = n - v
                if m <= demand and child is not None:
                    acc = _add_shifted(acc, blocks[child, m], m, demand + 1, packing)
            if n <= vec[0]:  # the v = n term, 1: no other term reaches q^0
                acc += 1
            if terms[0] is None:  # vec is K: the v = 0 term is the block itself
                acc = _divide(acc, n, demand + 1, packing)
            blocks[vec, n] = acc
    return [[1]] + [_unpack(blocks[b, n], packing.width) for n in range(1, top + 1)]


def _block_plan(k: int, b: tuple[int, ...], top: int, q_max: int):
    """The blocks that the roots (b, n), 1 <= n <= top, read.

    plan[vec] = (a, base, last, terms): block (vec, n) is read for
    1 <= n <= last through q^(base - a n), and terms[v] = vec(v) for
    v < min(vec_0 + 1, last), None for K(0) = K.  Block (vec, n) read
    through q^d reads (vec(v), m = n - v) through q^(d - m) if 1 <= m <= d.

    The walk goes breadth first from b, a steps away, and expands only the
    vectors it plans.  A step appends k - v, so s_j = k - vec[r1 - j]
    (s_0 = 0, r1 = r - 1) is the sum of the last j values of v on every
    chain into vec.  Raising an entry only widens what a vector reads, so
    a shortest chain may take v = 0 before its last r1 steps, and reads
    most: through q^(q_max - a n - w), w = sum_{0<i<a} s_min(i, r1), for
    n <= top - s_min(a, r1) while that degree is >= 0.
    """
    r1 = len(b)
    plan = {}
    cells = q_max + 1  # the z^0 row
    steps = {b: 0}
    queue = [b]
    for vec in queue:  # the loop reads what it appends: breadth first
        a = steps[vec]
        s = [0] + [k - x for x in reversed(vec)]
        w = sum(s[min(i, r1)] for i in range(1, a))
        last = min(top - s[min(a, r1)], (q_max - w) // a if a else top)
        if last < 1:
            continue
        cells += last * (q_max - w + 1) - a * last * (last + 1) // 2
        _check_cells(cells, "the direct recursion's blocks need {} q-coefficients")
        terms = [vec[1:] + (k,) if vec[0] < k else None] + [
            tuple(x - v for x in vec[1:]) + (k - v,) for v in range(1, min(vec[0] + 1, last))
        ]
        plan[vec] = (a, q_max - w, last, terms)
        for child in terms:
            if child is not None and child not in steps:
                steps[child] = a + 1
                queue.append(child)
    return plan
