"""Exact rational scalars, fixed-dimension vectors, and rank primitives.

Scalars are ``fractions.Fraction`` values: arbitrary precision, always in
canonical form (positive denominator, gcd(|num|, den) = 1), with exact
arithmetic.  A vector stores integer numerators over one common denominator
(``nums``, ``den``), in lowest terms: den > 0 and gcd(*nums, den) = 1, so
equal vectors have equal storage.  Vector arithmetic, rank, independence
and collinearity run on those integers, and map images stay unreduced rows
(nums, den) until a value is kept (the fraction-free idea of Bareiss,
Math. Comp. 1968); ``coords`` reads the coordinates back as Fractions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, PreconditionError

Scalar = Fraction
#: A point as integers over one positive denominator, not necessarily reduced
Row = tuple[Sequence[int], int]

#: Largest vector dimension accepted by the package.  Elimination cost and
#: probe sizes are tuned for desk-scale dimensions.
MAX_DIM = 8

ZERO = Fraction(0)
ONE = Fraction(1)

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


def _scalar_pair(text: str) -> tuple[int, int]:
    """(p, q), q > 0 and not yet reduced, for the ``p/q`` or ``p`` text form."""
    t = text.strip()
    if not _SCALAR_RE.match(t):
        raise ValueError(f"not a rational scalar: {text!r} (expected p or p/q, q > 0)")
    p, _, q = t.partition("/")
    return int(p), int(q) if q else 1


def parse_scalar(text: str) -> Fraction:
    """Parse the ``p/q`` or ``p`` text form (optional leading sign)."""
    return Fraction(*_scalar_pair(text))


def format_scalar(s: Fraction) -> str:
    """Render a scalar as ``p/q``, or ``p`` when the denominator is 1."""
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def _ratio(s) -> tuple[int, int]:
    """(p, q) with s = p/q, q > 0, for an int, a Fraction or Fraction's input."""
    if type(s) is not int and type(s) is not Fraction:
        s = Fraction(s)
    return s.numerator, s.denominator


# bound once: from_ints runs for every vector the arithmetic builds
_new = object.__new__
_set = object.__setattr__
_gcd = math.gcd


class Vector:
    """Immutable fixed-dimension coordinate tuple over the rational field,
    stored as integer numerators ``nums`` over one denominator ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, coords: Iterable[Fraction]):
        v = from_pairs([_ratio(c) for c in coords])
        _set(self, "nums", v.nums)
        _set(self, "den", v.den)

    @classmethod
    def of(cls, *values) -> "Vector":
        """Build a vector from ints, strings, or Fractions (test/CLI sugar)."""
        return cls(Fraction(v) for v in values)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return from_ints([0] * dim, 1)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Vector":
        if not 0 <= index < dim:
            raise DimensionMismatch(f"basis index {index} outside 0..{dim - 1}")
        return cls([ONE if i == index else ZERO for i in range(dim)])

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _combine(self, other: "Vector", sign: int) -> "Vector":
        """self + sign·other over the lcm of the two denominators."""
        if len(self.nums) != len(other.nums):
            raise DimensionMismatch(
                f"dimension mismatch: {len(self.nums)} vs {len(other.nums)}"
            )
        return from_ints(*add_rows((self.nums, self.den), (other.nums, other.den), sign))

    def __add__(self, other: "Vector") -> "Vector":
        return self._combine(other, 1)

    def __sub__(self, other: "Vector") -> "Vector":
        return self._combine(other, -1)

    def __neg__(self) -> "Vector":
        return from_ints([-a for a in self.nums], self.den)

    def __mul__(self, s) -> "Vector":
        p, q = _ratio(s)
        return from_ints([a * p for a in self.nums], self.den * q)

    __rmul__ = __mul__

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Vector{self.coords!r}"

    def __str__(self) -> str:
        return format_vector(self)


def from_ints(nums: Sequence[int], den: int) -> Vector:
    """The vector nums/den (den ≠ 0), reduced once to lowest terms."""
    n = len(nums)
    if not 1 <= n <= MAX_DIM:
        raise DimensionMismatch(f"vector dimension {n} outside 1..{MAX_DIM}")
    if den != 1:
        g = _gcd(*nums, den)
        if den < 0:
            g = -g
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
    v = _new(Vector)
    _set(v, "nums", tuple(nums))
    _set(v, "den", den)
    return v


def from_pairs(pairs: Sequence[tuple[int, int]]) -> Vector:
    """The vector (p0/q0, p1/q1, ...) from integer pairs with q > 0."""
    den = math.lcm(*[q for _, q in pairs])
    return from_ints([p * (den // q) for p, q in pairs], den)


def add_rows(r0: Row, r1: Row, sign: int = 1) -> tuple[list[int], int]:
    """The row of r0 + sign·r1, over the lcm of their denominators and not reduced."""
    (n0, d0), (n1, d1) = r0, r1
    g = _gcd(d0, d1)
    m0, m1 = d1 // g, sign * (d0 // g)
    return [a * m0 + b * m1 for a, b in zip(n0, n1)], d0 * m0


def format_vector(v: Vector) -> str:
    """Text form ``(s1, s2, ..., sn)`` used in the DSL, CLI, and reports."""
    den = v.den
    parts = []
    for a in v.nums:
        g = _gcd(a, den)
        parts.append(str(a // g) if g == den else f"{a // g}/{den // g}")
    return "(" + ", ".join(parts) + ")"


def parse_vector(text: str) -> Vector:
    """Parse the ``(s1, ..., sn)`` text form straight into integer pairs."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"not a vector: {text!r} (expected (s1, ..., sn))")
    return from_pairs([_scalar_pair(part) for part in t[1:-1].split(",")])


# -- integer rank and collinearity ----------------------------------------------
#
# Rank, independence, and collinearity are integer computations on the
# stored numerators (scaling a row by a nonzero constant does not change
# rank), so the inner loops never build a Fraction.


def _int_rank(rows: list[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            factor = ri[col]
            if factor:
                for c in range(col, ncols):
                    ri[c] = ri[c] * pval - prow[c] * factor
        rank += 1
        if rank == len(rows):
            break
    return rank


def linearly_independent(v: Vector, w: Vector) -> bool:
    """Exact independence test: no (α, β) ≠ (0, 0) gives αv + βw = 0."""
    if v.dim != w.dim:
        raise DimensionMismatch(f"dimension mismatch: {v.dim} vs {w.dim}")
    return _int_rank([v.nums, w.nums]) == 2


def _diff_rows(points: Sequence[Row]) -> list[list[int]]:
    """Integer rows of p_i − p_0 (i ≥ 1), each scaled by a positive factor."""
    if not points:
        raise PreconditionError("affine_rank of empty point set")
    n0, d0 = points[0]
    dim = len(n0)
    rows = []
    for ni, di in points[1:]:
        if len(ni) != dim:
            raise DimensionMismatch(f"dimension mismatch: {dim} vs {len(ni)}")
        # p_i − p_0 scaled by di·d0/gcd: a nonzero factor, same rank
        g = _gcd(di, d0)
        mi, m0 = d0 // g, di // g
        rows.append([a * mi - b * m0 for a, b in zip(ni, n0)])
    return rows


def affine_rank(points: Sequence[Vector]) -> int:
    """Rank of {p_i − p_0}: 0 for a repeated point, 1 collinear, 2 coplanar, ..."""
    return _int_rank(_diff_rows([(p.nums, p.den) for p in points]))


def same_point(r0: Row, r1: Row) -> bool:
    """Whether two rows are one point, decided by cross-multiplication."""
    (n0, d0), (n1, d1) = r0, r1
    return [a * d1 for a in n0] == [b * d0 for b in n1]


def collinearity_scalar(v: Vector, w: Vector) -> Optional[Fraction]:
    """The unique s with v = s·w, or None if no such scalar exists.

    Raises for w = 0 (the scalar would not be unique).
    """
    if v.dim != w.dim:
        raise DimensionMismatch(f"dimension mismatch: {v.dim} vs {w.dim}")
    vn, wn = v.nums, w.nums
    j = next((i for i, c in enumerate(wn) if c), None)
    if j is None:
        raise PreconditionError("collinearity_scalar with w = 0: scalar not unique")
    # with s = vn[j]·w.den / (wn[j]·v.den), vk == s·wk reduces to the
    # cross-multiplied vn[k]·wn[j] == vn[j]·wn[k]: both denominators cancel
    vj, wj = vn[j], wn[j]
    for vk, wk in zip(vn, wn):
        if vk * wj != vj * wk:
            return None
    return Fraction(vj * w.den, wj * v.den)


# -- small exact matrices -----------------------------------------------------

Matrix = tuple[tuple[Fraction, ...], ...]


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if not out or not out[0]:
        raise DimensionMismatch("matrix must have at least one row and column")
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise DimensionMismatch("ragged matrix rows")
    return out


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def matrix_rank(a: Matrix) -> int:
    return _int_rank([Vector(row).nums for row in a])


def parse_matrix(text: str) -> Matrix:
    """Rows of whitespace-separated scalars, one row per nonblank line."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_scalar(tok) for tok in line.split()])
    if not rows:
        raise ValueError("matrix text contains no rows")
    return matrix(rows)
