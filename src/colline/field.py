"""Exact rational scalars, fixed-dimension vectors, and rank primitives.

Scalars are ``fractions.Fraction`` values: arbitrary precision, always in
canonical form (positive denominator, gcd(|num|, den) = 1), with exact
arithmetic.  Vectors are immutable coordinate tuples over that field.  Rank
and collinearity questions are decided exactly by integer elimination after
clearing denominators.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, PreconditionError

Scalar = Fraction

#: Largest vector dimension accepted by the package.  Elimination cost and
#: probe sizes are tuned for desk-scale dimensions.
MAX_DIM = 8

ZERO = Fraction(0)
ONE = Fraction(1)

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


def parse_scalar(text: str) -> Fraction:
    """Parse the ``p/q`` or ``p`` text form (optional leading sign)."""
    t = text.strip()
    if not _SCALAR_RE.match(t):
        raise ValueError(f"not a rational scalar: {text!r} (expected p or p/q, q > 0)")
    return Fraction(t)


def format_scalar(s: Fraction) -> str:
    """Render a scalar as ``p/q``, or ``p`` when the denominator is 1."""
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


class Vector:
    """Immutable fixed-dimension coordinate tuple over the rational field."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Fraction]):
        object.__setattr__(self, "coords", tuple(coords))
        n = len(self.coords)
        if not 1 <= n <= MAX_DIM:
            raise DimensionMismatch(f"vector dimension {n} outside 1..{MAX_DIM}")

    @classmethod
    def of(cls, *values) -> "Vector":
        """Build a vector from ints, strings, or Fractions (test/CLI sugar)."""
        return cls(Fraction(v) for v in values)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([ZERO] * dim)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Vector":
        if not 0 <= index < dim:
            raise DimensionMismatch(f"basis index {index} outside 0..{dim - 1}")
        return cls([ONE if i == index else ZERO for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_dim(self, other: "Vector") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.coords)

    def __mul__(self, s) -> "Vector":
        s = Fraction(s)
        return Vector(a * s for a in self.coords)

    __rmul__ = __mul__

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Vector{self.coords!r}"

    def __str__(self) -> str:
        return format_vector(self)


def format_vector(v: Vector) -> str:
    """Text form ``(s1, s2, ..., sn)`` used in the DSL, CLI, and reports."""
    return "(" + ", ".join(format_scalar(c) for c in v.coords) + ")"


def parse_vector(text: str) -> Vector:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"not a vector: {text!r} (expected (s1, ..., sn))")
    parts = t[1:-1].split(",")
    return Vector(parse_scalar(p) for p in parts)


# -- integer fast paths -------------------------------------------------------
#
# Rank, independence, and collinearity reduce to integer computations after
# clearing denominators row by row (scaling a row by a nonzero constant does
# not change rank).  Keeping the inner loops on Python ints avoids Fraction
# overhead, which dominates otherwise.


def _int_pair(v: Vector) -> tuple[list[int], int]:
    """Return (numerators, common denominator) with v = numerators/den."""
    den = 1
    for c in v.coords:
        d = c.denominator
        den = den // math.gcd(den, d) * d
    return [c.numerator * (den // c.denominator) for c in v.coords], den


def _int_row(v: Vector) -> list[int]:
    return _int_pair(v)[0]


def _int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [r[:] for r in rows if any(r)]
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
    return _int_rank([_int_row(v), _int_row(w)]) == 2


def affine_rank(points: Sequence[Vector]) -> int:
    """Rank of {p_i − p_0}: 0 for a repeated point, 1 collinear, 2 coplanar, ..."""
    if not points:
        raise PreconditionError("affine_rank of empty point set")
    dim = points[0].dim
    pairs = []
    for p in points:
        if p.dim != dim:
            raise DimensionMismatch(f"dimension mismatch: {dim} vs {p.dim}")
        pairs.append(_int_pair(p))
    n0, d0 = pairs[0]
    rows = []
    for ni, di in pairs[1:]:
        g = math.gcd(di, d0)
        lcm = di // g * d0
        mi, m0 = lcm // di, lcm // d0
        rows.append([a * mi - b * m0 for a, b in zip(ni, n0)])
    return _int_rank(rows)


def collinearity_scalar(v: Vector, w: Vector) -> Optional[Fraction]:
    """The unique s with v = s·w, or None if no such scalar exists.

    Raises for w = 0 (the scalar would not be unique).
    """
    if v.dim != w.dim:
        raise DimensionMismatch(f"dimension mismatch: {v.dim} vs {w.dim}")
    if w.is_zero():
        raise PreconditionError("collinearity_scalar with w = 0: scalar not unique")
    j = next(i for i, c in enumerate(w.coords) if c != 0)
    s = v.coords[j] / w.coords[j]
    sn, sd = s.numerator, s.denominator
    for vk, wk in zip(v.coords, w.coords):
        # vk == s*wk, cross-multiplied to integers
        if vk.numerator * sd * wk.denominator != sn * wk.numerator * vk.denominator:
            return None
    return s


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


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if len(a[0]) != v.dim:
        raise DimensionMismatch(f"matrix width {len(a[0])} vs vector dim {v.dim}")
    return Vector(
        sum((x * c for x, c in zip(row, v.coords)), ZERO) for row in a
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"matrix shapes {len(a)}x{len(a[0])} vs {len(b)}x{len(b[0])}")
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0])))
        for i in range(len(a))
    )


def matrix_rank(a: Matrix) -> int:
    rows = [_int_row(Vector(row)) for row in a]
    return _int_rank(rows)


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
