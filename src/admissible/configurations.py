"""Enumeration of (k, r)-admissible configurations and their bivariate character.

A configuration is a finitely supported sequence a_0, a_1, ... of non-negative
integers in which every window of r consecutive entries sums to at most k,
subject to initial caps a_0 <= b_0, a_0 + a_1 <= b_1, ..., up to b_{r-2}.
Each configuration is weighted q^(sum j*a_j) z^(sum a_j); summing the weights
over all configurations within a truncation window gives the character, the
ground truth every formula here is checked against.  A configuration is
passed around as its entry tuple (a_0, a_1, ..., a_l), ending at its last
nonzero entry; the empty configuration is ().

``character_direct`` computes that sum by the first-entry recursion
chi_b(q, z) = sum_{v=0}^{b_0} z^v chi_{b(v)}(q, qz), with
b(v) = (b_1 - v, ..., b_{r-2} - v, k - v), Andrews' route to Gordon's
theorem (The Theory of Partitions, 1976, ch. 7).  A demand pass first finds
each z-block the requested window reads and the highest q-degree it reads
there; only those blocks are built, as dense q-lists.  ``enumerate_configs``
walks the configurations one at a time by depth-first search; it is the
enumeration API and the brute-force check of the recursion.

Every direct and fermionic character is refused with ``CapacityError``
before it allocates more than ``MAX_CELLS`` q-coefficients.
"""

from __future__ import annotations

from operator import add

from .series import TruncatedSeries, _divide_by_one_minus

# The most q-coefficients the direct recursion or a fermionic sum may
# allocate; both count them before allocating any.
MAX_CELLS = 10**7


class CapacityError(Exception):
    """Problem size exceeds the configured limits; nothing was truncated."""


class _Record:
    """Base of the package's immutable records, compared by identity.

    A subclass names its fields, in order, in ``__slots__`` and may check
    them in ``_validate``.  The fields are given by position or keyword,
    the repr lists them, and assigning or deleting one raises
    AttributeError.  Plain slotted classes keep ``dataclasses`` (and the
    ``inspect`` it loads) out of the start-up of every command.
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

    def __reduce__(self):
        return type(self), self._values()


class _ValueRecord(_Record):
    """An immutable record compared and hashed by its field values."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


def _check_cells(cells: int, what: str) -> None:
    """Refuse (CapacityError) a computation of more than MAX_CELLS cells.

    what says what needs them, with {} for their count, as in "the
    direct character's z-blocks need {} q-coefficients".
    """
    if cells > MAX_CELLS:
        raise CapacityError(f"{what.format(cells)}, over the limit of {MAX_CELLS}")


def validate_k(k: int) -> None:
    """Check the level: a positive integer."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def validate_b(k: int, r: int, b) -> tuple[int, ...]:
    """Check k, r and the initial-condition vector: length r-1, monotone,
    within [0, k].  The one validator of every k, r, b input."""
    validate_k(k)
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    b = tuple(int(x) for x in b)
    if len(b) != r - 1:
        raise ValueError(f"b must have r-1 = {r - 1} entries, got {len(b)}")
    if any(x < 0 or x > k for x in b):
        raise ValueError(f"b entries must lie in [0, {k}]: {b}")
    if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
        raise ValueError(f"b must be weakly increasing: {b}")
    return b


def validate_window(q_max: int, z_max: int) -> None:
    """Check a truncation window: both orders non-negative."""
    if q_max < 0 or z_max < 0:
        raise ValueError("q_max and z_max must be non-negative")


def is_admissible(a, k: int, r: int, b) -> bool:
    """True iff the vector satisfies all window-sum and initial constraints."""
    b = validate_b(k, r, b)
    a = tuple(int(x) for x in a)
    if any(x < 0 or x > k for x in a):
        return False
    padded = a + (0,) * r
    for i in range(len(a)):
        if sum(padded[i : i + r]) > k:
            return False
    prefix = 0
    for t in range(r - 1):
        prefix += padded[t]
        if prefix > b[t]:
            return False
    return True


def enumerate_configs(k: int, r: int, b, q_max: int, z_max: int):
    """Every admissible configuration with q-degree <= q_max and z-degree <= z_max.

    Each configuration is yielded as its entry tuple, exactly once, in
    lexicographic order on the entry vectors, by a depth-first search.  Each
    step appends the next nonzero entry; positions are tried from high to low
    so that the overall yield order is lexicographic on the (zero-padded)
    vectors.  Window sums are enforced on the window ending at each placed
    position, which covers every window once all entries are placed.
    """
    b = validate_b(k, r, b)
    validate_window(q_max, z_max)
    stack = [((), 0, 0, 0)]
    while stack:
        acc, start, qdeg, zdeg = stack.pop()
        yield acc
        if zdeg >= z_max:
            continue
        children = []
        for j in range(q_max, start - 1, -1):
            if j > 0 and qdeg + j > q_max:
                continue
            lo = max(0, j - r + 1)
            window = sum(acc[lo : min(j, len(acc))])
            vmax = k - window
            if j > 0:
                vmax = min(vmax, (q_max - qdeg) // j)
            vmax = min(vmax, z_max - zdeg)
            for v in range(1, vmax + 1):
                if j <= r - 2:
                    prefix = sum(acc[:j]) + v
                    if any(prefix > b[t] for t in range(j, r - 1)):
                        break
                child = acc + (0,) * (j - len(acc)) + (v,)
                children.append((child, j + 1, qdeg + j * v, zdeg + v))
        # LIFO stack: push in reverse so children come out in generation order
        stack.extend(reversed(children))


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

    The demand pass ``_block_demands`` first finds every block the
    requested ones read and the highest q-degree read from each; a block
    whose shift q^m already passes that degree is never built.  The blocks
    are then built as dense q-lists with C-level slice adds, each after its
    terms.  More than MAX_CELLS q-coefficients, counted first for the
    requested blocks and then over the demand pass, raise CapacityError
    before any block is allocated.  ``enumerate_configs`` is the
    brute-force check of this count.
    """
    b = validate_b(k, r, b)
    validate_window(q_max, z_max)
    top = min(z_max, q_max + b[0])
    _check_cells(
        (top + 1) * (q_max + 1), "the direct character's z-blocks need {} q-coefficients"
    )
    levels, terms = _block_demands(k, b, top, q_max)
    blocks: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for n, depth in sorted(levels):
        for vec, demand in levels[n, depth].items():
            acc = [0] * (demand + 1)
            for v, child in enumerate(terms[vec][: n + 1]):
                m = n - v
                if m == 0:
                    acc[0] += 1
                elif m <= demand and child is not None:
                    acc[m:] = map(add, acc[m:], blocks[child, m])
            if depth == 0:  # vec is K: the v = 0 term is the block itself
                _divide_by_one_minus(acc, n)
            blocks[vec, n] = acc
    rows = [[1]] + [blocks[b, n] for n in range(1, top + 1)]
    return TruncatedSeries(rows, q_max, z_max)


def _block_demands(k: int, b: tuple[int, ...], top: int, q_max: int):
    """The blocks the roots read, and the terms of each vector read.

    levels[n, depth][vec] is the highest q-degree read from block (vec, n);
    the depth of vec is its number of entries below k, so K alone has depth
    0.  terms[vec][v] is vec(v) for v = 0, ..., min(vec_0, top), with None
    for the v = 0 term of K, which is the block itself; a block (vec, n)
    reads only v <= n <= top.

    The roots (b, n), 1 <= n <= top, are read through q^q_max.  A block
    read through q^d reads its term (vec(v), m = n - v) through q^(d - m),
    and not at all when m > d or m = 0 (that term is the constant 1).  Each
    term has a smaller n, or the same n and depth one less, so walking n
    and the depth downwards visits every block after all of its readers.
    The running cell count is checked against MAX_CELLS as blocks are
    added, before any of them is built.
    """
    r1 = len(b)
    root = sum(1 for x in b if x < k)
    levels = {(n, root): {b: q_max} for n in range(1, top + 1)}
    terms = {}
    cells = (top + 1) * (q_max + 1)
    for n in range(top, 0, -1):
        for depth in range(r1, -1, -1):
            for vec, demand in levels.get((n, depth), {}).items():
                if vec not in terms:
                    terms[vec] = [None if depth == 0 else vec[1:] + (k,)] + [
                        tuple(x - v for x in vec[1:]) + (k - v,)
                        for v in range(1, min(vec[0], top) + 1)
                    ]
                for v, child in enumerate(terms[vec][: n + 1]):
                    m = n - v
                    if m == 0 or m > demand or child is None:
                        continue
                    need = demand - m
                    bucket = levels.setdefault((m, depth - 1 if v == 0 else r1), {})
                    old = bucket.get(child, -1)
                    if need > old:
                        cells += need - old
                        _check_cells(
                            cells, "the direct recursion's blocks need {} q-coefficients"
                        )
                        bucket[child] = need
    return levels, terms
