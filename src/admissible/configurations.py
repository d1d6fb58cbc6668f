"""Enumeration of (k, r)-admissible configurations and their bivariate character.

A configuration is a finitely supported sequence a_0, a_1, ... of non-negative
integers in which every window of r consecutive entries sums to at most k,
subject to initial caps a_0 <= b_0, a_0 + a_1 <= b_1, ..., up to b_{r-2}.
Each configuration is weighted q^(sum j*a_j) z^(sum a_j); summing the weights
over all configurations within a truncation window gives the character, the
ground truth every formula here is checked against.

``character_direct`` computes that sum by a transfer-matrix DP over positions
whose state is the last r-1 entries (Stanley, Enumerative Combinatorics I,
section 4.7).  ``enumerate_configs`` walks the configurations one at a time by
depth-first search; it is the enumeration API and the brute-force check of
the DP.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import TruncatedSeries


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


@dataclass(frozen=True)
class AdmissibleConfig:
    """One admissible configuration; entries beyond the stored vector are 0."""

    entries: tuple[int, ...]
    k: int
    r: int
    b: tuple[int, ...]

    @property
    def q_degree(self) -> int:
        return sum(j * a for j, a in enumerate(self.entries))

    @property
    def z_degree(self) -> int:
        return sum(self.entries)


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

    Each configuration is yielded exactly once, in lexicographic order on the
    entry vectors, by a depth-first search.  Each step appends the next
    nonzero entry; positions are tried from high to low so that the overall
    yield order is lexicographic on the (zero-padded) vectors.  Window sums are
    enforced on the window ending at each placed position, which covers every
    window once all entries are placed.
    """
    b = validate_b(k, r, b)
    validate_window(q_max, z_max)
    stack = [((), 0, 0, 0)]
    while stack:
        acc, start, qdeg, zdeg = stack.pop()
        yield AdmissibleConfig(acc, k, r, b)
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
    """Character of admissible configurations by a transfer-matrix DP.

    Coefficient of q^i z^j counts configurations with q-degree i and
    z-degree j; the constant term is 1 (the empty configuration).

    Positions j = 0, 1, ... are filled one at a time.  The state is the last
    r-1 entries, which fixes the room left in the next window; for j <= r-2
    it still holds the whole prefix, so the initial caps b apply to it too.
    Each state carries its (q-degree, z-degree) -> count terms.  A term that
    can take no further nonzero entry within the window (z == z_max, or
    q + j + 1 > q_max) is moved to the finished total, and the walk stops
    when no active term is left.  ``enumerate_configs`` is the brute-force
    check of this count.
    """
    b = validate_b(k, r, b)
    validate_window(q_max, z_max)
    total: dict[tuple[int, int], int] = {}
    active = {(0,) * (r - 1): {(0, 0): 1}}
    j = 0
    while active:
        step: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for state, terms in active.items():
            used = sum(state)
            room = k - used
            if j <= r - 2:
                room = min(room, b[j] - used)
            tail = state[1:]
            children = [step.setdefault(tail + (v,), {}) for v in range(room + 1)]
            for (q, z), c in terms.items():
                for v in range(room + 1):
                    q2, z2 = q + j * v, z + v
                    if q2 > q_max or z2 > z_max:
                        break
                    out = total if z2 == z_max or q2 + j + 1 > q_max else children[v]
                    out[q2, z2] = out.get((q2, z2), 0) + c
        active = {state: terms for state, terms in step.items() if terms}
        j += 1
    return TruncatedSeries(total, q_max, z_max)
