"""Truncated bivariate power series in q and z with exact integer coefficients.

Every series carries explicit truncation orders: coefficients of q^i z^j with
i > q_order or j > z_order are unknown (not zero).  Arithmetic keeps exact
int coefficients and propagates truncation as the componentwise minimum of
the operand windows, so "equal up to order" is a total, decidable relation.
A series stores its coefficients as dense z-rows, rows[dz][dq]; the
sparse map {(dq, dz): c} is a read-only view, ``coeffs``, built on demand.
The character routes work on dense q-lists too: they divide by one
Pochhammer factor at a time with ``_divide_by_one_minus``, accumulate rows
by slice adds and hand the rows to ``TruncatedSeries.from_blocks``, which
only clips and copies them.  Printing, ``terms`` and ``first_mismatch`` scan
the rows in (dz, dq) order, so none of them sorts.  No command calls
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
    """Polynomial in (q, z), exact on the window [0, q_order] x [0, z_order].

    The coefficients live in dense z-rows: rows[dz][dq] is the coefficient of
    q^dq z^dz.  Rows may be ragged and may hold zeros; a missing row or a
    missing tail counts as zero, so a large window costs nothing.  No row
    reaches past the window.  ``coeffs`` is the canonical sparse view: a
    dict {(dq, dz): c} of the nonzero terms.  Instances are treated as
    immutable; all operations return new series.

    Built from a sparse map, a series holds one row per z-degree up to the
    highest nonzero one, each as long as its highest nonzero q-degree plus
    one: a single term at (dq, dz) costs dz + 1 rows and dq + 1 slots.  More
    than MAX_CELLS rows and slots together are refused with CapacityError
    before anything is allocated.
    """

    __slots__ = ("rows", "q_order", "z_order")

    def __init__(self, coeffs=None, q_order: int = 0, z_order: int = 0):
        if q_order < 0 or z_order < 0:
            raise ValueError("truncation orders must be non-negative")
        terms = []
        widths: dict[int, int] = {}  # dz -> length of its dense row
        for (dq, dz), c in (coeffs or {}).items():
            if dq < 0 or dz < 0:
                raise ValueError("exponents must be non-negative")
            if c and dq <= q_order and dz <= z_order:
                terms.append((dq, dz, c))
                widths[dz] = max(widths.get(dz, 0), dq + 1)
        rows: list[list[int]] = []
        if widths:
            from .configurations import _check_cells  # configurations imports this module

            height = max(widths) + 1
            _check_cells(height + sum(widths.values()), "the series' dense rows need {} cells")
            rows = [[0] * widths.get(dz, 0) for dz in range(height)]
            for dq, dz, c in terms:
                rows[dz][dq] = c
        self.rows = rows
        self.q_order = q_order
        self.z_order = z_order

    @classmethod
    def from_blocks(cls, blocks, q_order: int, z_order: int = 0) -> "TruncatedSeries":
        """Series with coefficient blocks[dz][dq] at q^dq z^dz; rows may be
        ragged.  The rows are clipped to the window and copied."""
        series = cls(None, q_order, z_order)
        series.rows = [row[: q_order + 1] for row in blocks[: z_order + 1]]
        return series

    @classmethod
    def zero(cls, q_order: int, z_order: int = 0) -> "TruncatedSeries":
        return cls(None, q_order, z_order)

    @classmethod
    def one(cls, q_order: int, z_order: int = 0) -> "TruncatedSeries":
        return cls.from_blocks([[1]], q_order, z_order)

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
        """The nonzero terms as a fresh dict {(dq, dz): c}, in (dz, dq) order."""
        return {(dq, dz): c for dq, dz, c in self.terms()}

    def coefficient(self, dq: int, dz: int = 0) -> int:
        """Coefficient of q^dq z^dz.  Raises outside the truncation window."""
        if not (0 <= dq <= self.q_order and 0 <= dz <= self.z_order):
            raise ValueError(
                f"coefficient ({dq},{dz}) is outside the truncation window "
                f"({self.q_order},{self.z_order})"
            )
        row = self.rows[dz] if dz < len(self.rows) else ()
        return row[dq] if dq < len(row) else 0

    def z_block(self, n: int) -> "TruncatedSeries":
        """The q-series multiplying z^n, as a series with z_order 0.  Raises
        outside the truncation window."""
        if not 0 <= n <= self.z_order:
            raise ValueError(f"z^{n} is outside z_order={self.z_order}")
        return TruncatedSeries.from_blocks(self.rows[n : n + 1], self.q_order)

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
        """Nonzero terms as (dq, dz, coeff), in (dz, dq) order."""
        return [(dq, dz, c) for dz, row in enumerate(self.rows) for dq, c in enumerate(row) if c]

    def __repr__(self):
        parts = []
        terms = self.terms()
        for dq, dz, c in terms[:8]:
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
        if len(terms) > 8:
            body += " + ..."
        return f"<series {body} | O(q^{self.q_order}, z^{self.z_order})>"

    def to_json_obj(self) -> dict:
        """Canonical JSON object: terms in (dz, dq) order, coefficients as strings."""
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

    Returns (dq, dz, coeff_a, coeff_b) or None when the series agree.  The
    rows are compared as dense lists; a row or a tail that one operand lacks
    counts as zero.
    """
    q = min(a.q_order, b.q_order)
    z = min(a.z_order, b.z_order)
    for dz in range(min(z + 1, max(len(a.rows), len(b.rows)))):
        ra = a.rows[dz][: q + 1] if dz < len(a.rows) else []
        rb = b.rows[dz][: q + 1] if dz < len(b.rows) else []
        if ra == rb:
            continue
        for dq in range(max(len(ra), len(rb))):
            ca = ra[dq] if dq < len(ra) else 0
            cb = rb[dq] if dq < len(rb) else 0
            if ca != cb:
                return (dq, dz, ca, cb)
    return None
