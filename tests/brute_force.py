"""Brute-force references that the tests check the package against.

No command runs these: ``enumerate_configs`` and ``is_admissible`` walk and
test configurations one at a time, the slow side of ``character_direct``;
``_multiplicity_vectors`` lists the multiplicity vectors of a given weighted
total, the slow side of the fermionic walk and of
``level_restricted_partitions``.  A configuration is its entry tuple
(a_0, a_1, ..., a_l), ending at its last nonzero entry; the empty
configuration is ().
"""

from admissible.configurations import validate_b, validate_window


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


def _multiplicity_vectors(weights, total):
    """All non-negative integer vectors m with sum(weights[i]*m[i]) = total."""
    yield from _vectors_after(weights, 0, total, ())


def _vectors_after(weights, i, remaining, prefix):
    """prefix + t for each vector t with sum(weights[i+j]*t[j]) = remaining."""
    if i == len(weights):
        if remaining == 0:
            yield prefix
        return
    w = weights[i]
    if i == len(weights) - 1:
        if remaining % w == 0:
            yield prefix + (remaining // w,)
        return
    for v in range(remaining // w + 1):
        yield from _vectors_after(weights, i + 1, remaining - v * w, prefix + (v,))
