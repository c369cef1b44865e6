"""Points, lines, planes, intervals, ratio division, and parallelism.

Lines are stored unnormalized as (origin, direction); equality is
extensional (same point set).  All predicates are decided exactly over the
rational field, so every answer here is a certainty, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DegenerateGeometry, DimensionMismatch, PreconditionError
from .field import (
    Row,
    Vector,
    format_vector,
    from_ints,
    linearly_independent,
    _KERNELS,
    _dependent_rows,
    _int_rank,
    _ratio,
)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Line:
    """Affine subspace of dimension 1: {origin + t·direction : t ∈ ℚ}."""

    origin: Vector
    direction: Vector

    def __post_init__(self):
        if self.origin.dim != self.direction.dim:
            raise DimensionMismatch(
                f"line origin dim {self.origin.dim} vs direction dim {self.direction.dim}"
            )
        if self.direction.is_zero():
            raise DegenerateGeometry("line direction must be nonzero")

    @property
    def dim(self) -> int:
        return self.origin.dim

    def point_at(self, t) -> Vector:
        o, d = self.origin, self.direction
        return from_ints(*line_point_row((o.nums, o.den), (d.nums, d.den), *_ratio(t)))

    def contains(self, p: Vector) -> bool:
        """Exact membership: p − origin must be a multiple of direction."""
        o = self.origin
        diff = _KERNELS[len(p.nums)].comb(p.nums, o.nums, o.den, -p.den)  # (p − origin)·pd·od
        return _dependent_rows(diff, self.direction.nums)

    def canonical(self) -> tuple[Vector, Vector]:
        """Canonical (origin, direction) pair shared by all representations."""
        j = next(i for i, c in enumerate(self.direction.coords) if c != 0)
        d = (Fraction(1) / self.direction.coords[j]) * self.direction
        o = self.origin - (self.origin.coords[j] / self.direction.coords[j]) * self.direction
        return o, d

    def __eq__(self, other) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        if self.origin.dim != other.origin.dim:
            return False
        return (
            not linearly_independent(self.direction, other.direction)
            and self.contains(other.origin)
        )

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"Line({self.origin!r}, {self.direction!r})"

    def __str__(self) -> str:
        return format_line(self)


def line_point_row(origin: Row, direction: Row, p: int, q: int) -> tuple[list[int], int]:
    """(row, den), den > 0 and not reduced, with origin + (p/q)·direction = row/den, q > 0."""
    (on, od), (dn, dd) = origin, direction
    # o + (p/q)·d over the denominator od·dd·q
    mo, md = dd * q, od * p
    return _KERNELS[len(on)].comb(on, dn, mo, md), od * mo


def format_line(line: Line) -> str:
    """Text form ``line (origin) dir (direction)`` used in certificates."""
    return f"line {format_vector(line.origin)} dir {format_vector(line.direction)}"


def line_through(a: Vector, b: Vector) -> Line:
    """The unique line containing the two distinct points a and b."""
    if a == b:
        raise DegenerateGeometry(f"line_through needs distinct points, got {a} twice")
    return Line(a, b - a)


def divides_in_ratio(a: Vector, b: Vector, r, s) -> Vector:
    """The point (r/(r+s))·(b − a) + a; may lie outside the closed interval."""
    rp, rq = _ratio(r)
    sp, sq = _ratio(s)
    # t = r/(r+s) = tn/td after multiplying both by rq·sq
    tn, td = rp * sq, rp * sq + sp * rq
    if td == 0:
        raise PreconditionError("divides_in_ratio with r + s = 0")
    return from_ints(*dividing_row((a.nums, a.den), (b.nums, b.den), tn, td))


def dividing_row(a: Row, b: Row, tn: int, td: int) -> tuple[list[int], int]:
    """(row, den), not reduced, with a + (tn/td)·(b − a) = row/den, td ≠ 0; den
    has td's sign."""
    (an, ad), (bn, bd) = a, b
    # ((td − tn)·a + tn·b) / td over the denominator ad·bd·td
    ma, mb = bd * (td - tn), ad * tn
    return _KERNELS[len(an)].comb(an, bn, ma, mb), ad * bd * td


def in_interval(a: Vector, b: Vector, c: Vector) -> bool:
    """Exact membership of c in the open interval between a and b (empty for a = b)."""
    return a != b and in_interval_rows((a.nums, a.den), (b.nums, b.den), (c.nums, c.den))


def in_interval_rows(a: Row, b: Row, c: Row) -> bool:
    """``in_interval`` for three rows (nums, den): with u = (c − a)·cd·ad and
    v = (b − a)·bd·ad integer rows, c is inside iff u is a multiple of v ≠ 0
    and c − a = t·(b − a) for t = u_j·bd / (v_j·cd) in (0, 1), v_j the first
    nonzero entry of v."""
    return _KERNELS[len(a[0])].in_interval(a, b, c)


def lines_parallel(l0: Line, l1: Line) -> bool:
    """Parallel = dependent directions; the lines are then equal or disjoint."""
    if l0.dim != l1.dim:
        raise DimensionMismatch(f"line dims {l0.dim} vs {l1.dim}")
    return not linearly_independent(l0.direction, l1.direction)


def _solve_two_unknowns(c0: Vector, c1: Vector, rhs: Vector) -> Optional[tuple[Fraction, Fraction]]:
    """Solve t·c0 + u·c1 = rhs exactly; None when inconsistent or underdetermined."""
    n = c0.dim
    pivot = None
    for i in range(n):
        for j in range(i + 1, n):
            det = c0.coords[i] * c1.coords[j] - c0.coords[j] * c1.coords[i]
            if det != 0:
                pivot = (i, j, det)
                break
        if pivot:
            break
    if pivot is None:
        return None
    i, j, det = pivot
    t = (rhs.coords[i] * c1.coords[j] - rhs.coords[j] * c1.coords[i]) / det
    u = (c0.coords[i] * rhs.coords[j] - c0.coords[j] * rhs.coords[i]) / det
    for k in range(n):
        if t * c0.coords[k] + u * c1.coords[k] != rhs.coords[k]:
            return None
    return t, u


def line_intersection(l0: Line, l1: Line) -> Optional[Vector]:
    """The unique common point of two lines, or None (parallel, equal, or skew)."""
    if l0.dim != l1.dim:
        raise DimensionMismatch(f"line dims {l0.dim} vs {l1.dim}")
    if not linearly_independent(l0.direction, l1.direction):
        return None
    sol = _solve_two_unknowns(l0.direction, -l1.direction, l1.origin - l0.origin)
    if sol is None:
        return None
    t, _ = sol
    return l0.point_at(t)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Plane:
    """Affine subspace of dimension 2: origin + span{dir1, dir2}."""

    origin: Vector
    dir1: Vector
    dir2: Vector

    def __post_init__(self):
        if not (self.origin.dim == self.dir1.dim == self.dir2.dim):
            raise DimensionMismatch("plane origin/direction dims differ")
        if not linearly_independent(self.dir1, self.dir2):
            raise DegenerateGeometry("plane directions must be linearly independent")

    @property
    def dim(self) -> int:
        return self.origin.dim

    def point_at(self, s, t) -> Vector:
        o, d1, d2 = self.origin, self.dir1, self.dir2
        on_line = line_point_row((o.nums, o.den), (d1.nums, d1.den), *_ratio(s))  # o + s·d1
        return from_ints(*line_point_row(on_line, (d2.nums, d2.den), *_ratio(t)))

    def contains(self, p: Vector) -> bool:
        return _int_rank([self.dir1.nums, self.dir2.nums, (p - self.origin).nums]) == 2

    def canonical(self) -> tuple[Vector, Vector, Vector]:
        """Canonical (origin, dir1, dir2): directions in reduced row echelon form,
        the origin zero at their pivots."""
        lead = lambda v: next(i for i, c in enumerate(v.nums) if c)
        at = lambda v, i: Fraction(v.nums[i], v.den)
        a, b = sorted((self.dir1, self.dir2), key=lead)
        a = a * (1 / at(a, j := lead(a)))
        b = b - at(b, j) * a
        b = b * (1 / at(b, k := lead(b)))
        a = a - at(a, k) * b
        return self.origin - at(self.origin, j) * a - at(self.origin, k) * b, a, b

    def __eq__(self, other) -> bool:
        """The same point set, which has one canonical form."""
        if not isinstance(other, Plane):
            return NotImplemented
        return self.dim == other.dim and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"Plane({self.origin!r}, {self.dir1!r}, {self.dir2!r})"


def containing_plane(l0: Line, l1: Line) -> Optional[Plane]:
    """The unique plane holding both lines, or None (equal lines or skew lines)."""
    if l0 == l1:
        return None
    if lines_parallel(l0, l1):
        return Plane(l0.origin, l0.direction, l1.origin - l0.origin)
    p = line_intersection(l0, l1)
    if p is None:
        return None
    return Plane(p, l0.direction, l1.direction)


class Crossing(NamedTuple):
    line: Line
    on_l0: Vector
    on_l1: Vector


def crossing_line(p: Vector, l0: Line, l1: Line) -> Optional[Crossing]:
    """A line through p meeting l0 and l1 at two distinct points.

    Requires l0 and l1 to be distinct, non-parallel, coplanar lines with p in
    their common plane.  Returns None only when p is the intersection point of
    l0 and l1 (every candidate line then meets both at that single point).
    """
    if l0 == l1:
        raise PreconditionError("crossing_line needs two distinct lines")
    if lines_parallel(l0, l1):
        raise PreconditionError("crossing_line needs non-parallel lines")
    meet = line_intersection(l0, l1)
    if meet is None:
        raise PreconditionError("crossing_line needs coplanar (intersecting) lines")
    plane = Plane(meet, l0.direction, l1.direction)
    if not plane.contains(p):
        raise PreconditionError("crossing_line needs p in the plane of the two lines")

    if p == meet:
        return None
    if l0.contains(p):
        for q1 in (l1.point_at(1), l1.point_at(0)):
            if q1 != meet:
                return Crossing(line_through(p, q1), p, q1)
    if l1.contains(p):
        for q0 in (l0.point_at(1), l0.point_at(0)):
            if q0 != meet:
                return Crossing(line_through(p, q0), q0, p)
    # p on neither line: aim at candidate points of l0, preferring origin+dir,
    # then origin, extending deterministically until non-degenerate (at most
    # two candidates can fail: one hitting the intersection point, one making
    # the candidate line parallel to l1).
    ks = [1, 0, 2, -1, 3, -2]
    for k in ks:
        q0 = l0.point_at(k)
        if q0 == meet:
            continue
        if not linearly_independent(q0 - p, l1.direction):
            continue
        cand = line_through(p, q0)
        q1 = line_intersection(cand, l1)
        if q1 is None:
            continue
        return Crossing(cand, q0, q1)
    raise DegenerateGeometry("crossing_line found no candidate; malformed input")
