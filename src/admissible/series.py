"""Truncated bivariate power series in q and z with exact integer coefficients.

Every series carries explicit truncation orders: coefficients of q^i z^j with
i > q_order or j > z_order are unknown (not zero).  Arithmetic keeps exact
int coefficients and propagates truncation as the componentwise minimum of
the operand windows, so "equal up to order" is a total, decidable relation.
A series stores its coefficients as dense z-rows, rows[dz][dq], and its one
constructor takes such rows; the sparse map {(dq, dz): c} is a read-only
view, ``coeffs``, built on demand.  The character routes share one packed
q-series kernel: a q-list c_0, ..., c_(L-1) is the one integer
sum_i c_i 2^(i W), with W-bit fields whose top bits are guard bits (see
``_Packing``), so a shifted add (``_add_shifted``) and a division by one
factor (1 - q^s) (``_divide``) are a few big-integer operations in C, and
``_packed`` restarts a route at twice the width when a guard bit shows.
Each route unpacks its rows once, at the end (``_unpack``), and hands them
to ``TruncatedSeries``, which only clips and copies them.  ``series_json``,
``terms`` and ``first_mismatch`` scan the rows in (dz, dq) order, so none of
them sorts.  ``char`` prints ``series_json``, which writes the canonical JSON
text straight from the rows; ``to_json_obj`` builds the same object for
callers that embed it, and is the reference ``series_json`` is tested
against.  No command multiplies two series; ``TruncatedSeries.__mul__`` stays
because the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

import _json
import sys
from itertools import compress, repeat
from operator import add, lshift, or_


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
    missing tail counts as zero, so a large window costs nothing.  The
    constructor clips the given rows to the window and copies them, so no
    row reaches past it and no caller's list is shared.  ``coeffs`` is the
    canonical sparse view: a dict {(dq, dz): c} of the nonzero terms.
    Instances are treated as immutable.
    """

    __slots__ = ("rows", "q_order", "z_order")

    def __init__(self, rows, q_order: int, z_order: int = 0):
        if q_order < 0 or z_order < 0:
            raise ValueError("truncation orders must be non-negative")
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows[: z_order + 1]
        ):
            raise TypeError(
                "rows must be a list of dense z-rows, rows[dz][dq] the coefficient of "
                "q^dq z^dz, not a sparse {(dq, dz): c} map"
            )
        self.rows = [row[: q_order + 1] for row in rows[: z_order + 1]]
        self.q_order = q_order
        self.z_order = z_order

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
        return TruncatedSeries(self.rows[n : n + 1], self.q_order)

    def __mul__(self, other):
        """The product on the common window.  Each output row is as long as
        its operand rows allow; more than MAX_CELLS rows and slots together
        are refused with CapacityError before anything is allocated."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        from .configurations import _check_cells  # configurations imports this module

        q = min(self.q_order, other.q_order)
        z = min(self.z_order, other.z_order)
        a = [row[: q + 1] for row in self.rows[: z + 1]]
        b = [row[: q + 1] for row in other.rows[: z + 1]]
        widths = [0] * min(z + 1, len(a) + len(b) - 1)
        for az, ra in enumerate(a):
            for bz, rb in enumerate(b[: z + 1 - az]):
                if ra and rb:
                    widths[az + bz] = max(widths[az + bz], min(q + 1, len(ra) + len(rb) - 1))
        _check_cells(len(widths) + sum(widths), "the product's dense rows need {} cells")
        rows = [[0] * width for width in widths]
        for az, ra in enumerate(a):
            for bz, rb in enumerate(b[: z + 1 - az]):
                out = rows[az + bz]
                for dq, c in enumerate(ra):
                    if c:
                        top = min(len(rb), q + 1 - dq) + dq
                        out[dq:top] = map(add, out[dq:top], [c * x for x in rb[: top - dq]])
        return TruncatedSeries(rows, q, z)

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


def series_json(series: TruncatedSeries) -> str:
    """The bytes of dumps(series.to_json_obj()), written in one pass over the
    rows: one string per nonzero term, in (dz, dq) order, joined once.

    ``compress`` skips the zero cells in C, each row formats its dz once,
    and each dq is formatted once, in a table as long as the longest row
    (not the q_order, which may be far larger).
    """
    rows = series.rows
    heads = [f"[{dq}," for dq in range(max(map(len, rows), default=0))]
    terms = []
    for dz, row in enumerate(rows):
        mid = f'{dz},"'
        terms += [f'{heads[dq]}{mid}{c}"]' for dq, c in compress(enumerate(row), row)]
    return f'{{"q_order":{series.q_order},"terms":[{",".join(terms)}],"z_order":{series.z_order}}}'


class _Overflow(Exception):
    """A packed field reached its guard bit: the route restarts at twice the width."""


class _Packing:
    """The packed form of the q-lists of one route, at one width.

    A q-list c_0, ..., c_(L-1) is the integer sum_i c_i 2^(i width): one
    field of ``width`` bits per coefficient, width a multiple of 8.  Every
    value packed here is >= 0 (counts, Pochhammer inverses and their sums),
    and the top bit of each field is its guard; a value is clean when every
    guard bit is clear.  Two clean operands sum field by field without a
    carry between fields, so a clear guard after an add proves every field
    of the sum exact, and a set one raises ``_Overflow`` before any carry
    can happen; ``_divide`` proves its result the same way with one test.
    This is an exactness certificate, not a modulus: a route that finishes
    at any width has every coefficient exact.  ``guard`` covers ``length``
    fields, the longest q-list of the route.
    """

    __slots__ = ("width", "length", "guard")

    def __init__(self, width: int, length: int):
        self.width = width
        self.length = length
        self.guard = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * length, "little")


# The width every route starts at.  A coefficient that outgrows it costs
# one restart per doubling; starting wider would slow every window whose
# coefficients fit, since each packed operation costs its bit count.
_START_WIDTH = 64


def _packed(build, q_max: int, *args):
    """build(*args, packing) for q-lists of at most q_max + 1 fields, at
    ``_START_WIDTH`` and again at twice the width after every ``_Overflow``."""
    width = _START_WIDTH
    while True:
        try:
            return build(*args, _Packing(width, q_max + 1))
        except _Overflow:
            width *= 2


def _add_shifted(row: int, x: int, shift: int, length: int, packing: _Packing) -> int:
    """row + q^shift x, truncated to its first length fields; row and x
    clean.  Carries run upwards only, so dropping the fields past length
    after the add leaves the lower ones exact."""
    bits = length * packing.width
    row += x << shift * packing.width
    if row.bit_length() > bits:
        row &= (1 << bits) - 1
    if row & packing.guard:
        raise _Overflow
    return row


def _divide(x: int, stride: int, length: int, packing: _Packing) -> int:
    """x / (1 - q^stride), through its first length fields; x clean.

    1/(1 - q^s) = (1 + q^s)(1 + q^2s)(1 + q^4s)..., and the factors with
    exponent at least length change no kept field, so the division takes
    ceil(log2(length / stride)) shifted adds, each under one mask.  One
    guard test, at the end, certifies them all: whatever the steps carried,
    the result is sum_i y_i 2^(i width) mod 2^(length width) for the true
    quotient y, and y_i = y_(i-stride) + x_i.  So the lowest y_i that
    reaches the guard is still below 2^width, every field under it is
    exact, and its guard bit is set.
    """
    width = packing.width
    mask = (1 << length * width) - 1
    x &= mask
    while stride < length:
        x = (x + (x << stride * width)) & mask
        stride *= 2
    if x & packing.guard:
        raise _Overflow
    return x


# memoryview formats of the machine words a field is read in.
_WORD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"


def _unpack(x: int, width: int) -> list[int]:
    """The q-list of packed x, with no trailing zero fields.

    The fields are read from the bytes of x in C, one machine word each; a
    field wider than 64 bits is read as 64-bit words, and the words above
    the lowest are folded in where any of them is nonzero.  Leading zero
    fields are read like the rest: skipping them (from the lowest set bit)
    costs more than reading them.
    """
    word = 64 if width > 64 else width
    data = x.to_bytes(-(-x.bit_length() // width) * width // 8, sys.byteorder)
    words = memoryview(data).cast(_WORD_FORMATS[word]).tolist()
    if _BIG_ENDIAN:
        words.reverse()
    if word == width:
        return words
    per = width // word
    fields = words[::per]
    for j in range(1, per):
        high = words[j::per]
        if any(high):
            fields = list(map(or_, fields, map(lshift, high, repeat(word * j))))
    return fields


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
