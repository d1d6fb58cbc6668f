"""Truncated bivariate power series in q and z with exact integer coefficients.

Every series carries explicit truncation orders: coefficients of q^i z^j with
i > q_order or j > z_order are unknown (not zero).  Arithmetic keeps exact
int coefficients and propagates truncation as the componentwise minimum of
the operand windows, so "equal up to order" is a total, decidable relation.
The character routes work on dense q-lists: they divide by one Pochhammer
factor at a time with ``_divide_by_one_minus``, accumulate rows by slice adds
and wrap the result with ``TruncatedSeries.from_blocks``.  No command calls
``TruncatedSeries.__mul__``, a plain sparse product of two coefficient maps.
"""

from __future__ import annotations

import _json


def _unserializable(obj):
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# CPython's C encoder, set up as json.dumps(obj, sort_keys=True,
# separators=(",", ":")) sets it up (ASCII escapes, sorted keys), less the
# circular-reference check, which no value printed here needs.  Calling it
# directly keeps json, and the re it imports, out of the start-up of every
# command.
_encode = _json.make_encoder(
    None, _unserializable, _json.encode_basestring_ascii, None, ":", ",", True, False, True
)


def dumps(obj) -> str:
    """Canonical JSON of obj: the bytes of json.dumps(obj, sort_keys=True,
    separators=(",", ":"))."""
    return "".join(_encode(obj, 0))


class TruncatedSeries:
    """Sparse polynomial in (q, z), exact on the window [0, q_order] x [0, z_order].

    The coefficient map stores no zeros and no keys outside the window
    (canonical form).  Instances are treated as immutable; all operations
    return new series.
    """

    __slots__ = ("coeffs", "q_order", "z_order")

    def __init__(self, coeffs=None, q_order: int = 0, z_order: int = 0):
        if q_order < 0 or z_order < 0:
            raise ValueError("truncation orders must be non-negative")
        clean: dict[tuple[int, int], int] = {}
        if coeffs:
            for (dq, dz), c in coeffs.items():
                if dq < 0 or dz < 0:
                    raise ValueError("exponents must be non-negative")
                if c and dq <= q_order and dz <= z_order:
                    clean[(dq, dz)] = c
        self.coeffs = clean
        self.q_order = q_order
        self.z_order = z_order

    @classmethod
    def from_blocks(cls, blocks, q_order: int, z_order: int = 0) -> "TruncatedSeries":
        """Series with coefficient blocks[dz][dq] at q^dq z^dz; rows may be ragged."""
        terms = {
            (dq, dz): c for dz, row in enumerate(blocks) for dq, c in enumerate(row) if c
        }
        return cls(terms, q_order, z_order)

    @classmethod
    def zero(cls, q_order: int, z_order: int = 0) -> "TruncatedSeries":
        return cls({}, q_order, z_order)

    @classmethod
    def one(cls, q_order: int, z_order: int = 0) -> "TruncatedSeries":
        return cls({(0, 0): 1}, q_order, z_order)

    def coefficient(self, dq: int, dz: int = 0) -> int:
        """Coefficient of q^dq z^dz.  Raises outside the truncation window."""
        if not (0 <= dq <= self.q_order and 0 <= dz <= self.z_order):
            raise ValueError(
                f"coefficient ({dq},{dz}) is outside the truncation window "
                f"({self.q_order},{self.z_order})"
            )
        return self.coeffs.get((dq, dz), 0)

    def z_block(self, n: int) -> "TruncatedSeries":
        """The q-series multiplying z^n, as a series with z_order 0.  Raises
        outside the truncation window."""
        if not 0 <= n <= self.z_order:
            raise ValueError(f"z^{n} is outside z_order={self.z_order}")
        block = {(dq, 0): c for (dq, dz), c in self.coeffs.items() if dz == n}
        return TruncatedSeries(block, self.q_order, 0)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        q = min(self.q_order, other.q_order)
        z = min(self.z_order, other.z_order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TruncatedSeries(out, q, z)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        q = min(self.q_order, other.q_order)
        z = min(self.z_order, other.z_order)
        out: dict[tuple[int, int], int] = {}
        for (aq, az), ca in self.coeffs.items():
            for (bq, bz), cb in other.coeffs.items():
                key = (aq + bq, az + bz)
                if key[0] <= q and key[1] <= z:
                    out[key] = out.get(key, 0) + ca * cb
        return TruncatedSeries(out, q, z)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return first_mismatch(self, other) is None

    __hash__ = None  # window-relative equality is incompatible with hashing

    def terms(self):
        """Nonzero terms as (dq, dz, coeff), sorted by (dz, dq)."""
        return sorted(
            ((dq, dz, c) for (dq, dz), c in self.coeffs.items()),
            key=lambda t: (t[1], t[0]),
        )

    def __repr__(self):
        parts = []
        for dq, dz, c in self.terms()[:8]:
            mono = "".join(
                s
                for s in (
                    f"q^{dq}" if dq else "",
                    f"z^{dz}" if dz else "",
                )
                if s
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        body = " + ".join(parts) if parts else "0"
        if len(self.coeffs) > 8:
            body += " + ..."
        return f"<series {body} | O(q^{self.q_order}, z^{self.z_order})>"

    def to_json_obj(self) -> dict:
        """Canonical JSON object: terms sorted by (dz, dq), coefficients as strings."""
        return {
            "q_order": self.q_order,
            "z_order": self.z_order,
            "terms": [[dq, dz, str(c)] for dq, dz, c in self.terms()],
        }

    def to_json(self) -> str:
        return dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TruncatedSeries":
        coeffs = {(int(dq), int(dz)): int(c) for dq, dz, c in obj["terms"]}
        return cls(coeffs, int(obj["q_order"]), int(obj["z_order"]))

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        import json  # only a reader needs the parser; keep it out of start-up

        return cls.from_json_obj(json.loads(text))


def pochhammer_inverse(
    m: int, step: int, q_order: int, z_order: int = 0
) -> TruncatedSeries:
    """Truncated expansion of 1 / prod_{j=1..m} (1 - q^(step*j)).

    step=1 gives the inverse of the usual finite q-Pochhammer (q)_m,
    step=2 the inverse of its q^2 analogue.  m=0 is the empty product 1.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if step < 1:
        raise ValueError("step must be positive")
    return TruncatedSeries.from_blocks(
        [_pochhammer_inverse_coeffs((m,), step, q_order)], q_order, z_order
    )


def _pochhammer_inverse_coeffs(ms, step: int, q_order: int) -> list[int]:
    """Dense coefficients of prod_i 1/(q^step; q^step)_{ms[i]} through q^q_order."""
    out = [1] + [0] * q_order
    for m in ms:
        for j in range(1, min(m, q_order // step) + 1):
            _divide_by_one_minus(out, step * j)
    return out


def _divide_by_one_minus(coeffs: list[int], stride: int) -> None:
    """Divide the dense q-list by (1 - q^stride) in place, keeping its length.

    1/(1 - q^stride) is the geometric series in q^stride; multiplying by it
    in increasing degree is coeffs[d] += coeffs[d - stride].
    """
    for d in range(stride, len(coeffs)):
        lower = coeffs[d - stride]
        if lower:
            coeffs[d] += lower


def pochhammer(m: int, step: int, q_order: int, z_order: int = 0) -> TruncatedSeries:
    """The finite product prod_{j=1..m} (1 - q^(step*j)), truncated."""
    acc = TruncatedSeries.one(q_order, z_order)
    for j in range(1, m + 1):
        factor = TruncatedSeries(
            {(0, 0): 1, (step * j, 0): -1}, q_order, z_order
        )
        acc = acc * factor
    return acc


def first_mismatch(a: TruncatedSeries, b: TruncatedSeries):
    """First disagreeing term on the common window, ordered by (dz, dq).

    Returns (dq, dz, coeff_a, coeff_b) or None when the series agree.
    """
    q = min(a.q_order, b.q_order)
    z = min(a.z_order, b.z_order)
    keys = set(a.coeffs) | set(b.coeffs)
    for dq, dz in sorted(keys, key=lambda e: (e[1], e[0])):
        if dq > q or dz > z:
            continue
        ca = a.coeffs.get((dq, dz), 0)
        cb = b.coeffs.get((dq, dz), 0)
        if ca != cb:
            return (dq, dz, ca, cb)
    return None
