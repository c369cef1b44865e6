import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colline.errors import DegenerateGeometry, DimensionMismatch, PreconditionError
from colline.field import Vector, collinearity_scalar, linearly_independent
from colline.geometry import (
    Crossing,
    Line,
    Plane,
    containing_plane,
    crossing_line,
    divides_in_ratio,
    format_line,
    in_interval,
    line_intersection,
    line_through,
    lines_parallel,
)

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)
vec2 = st.tuples(rationals, rationals).map(lambda t: Vector(t))


def vec(*values):
    return Vector.of(*values)


class TestLine:
    def test_line_through_basics(self):
        l = line_through(vec(0, 0), vec(1, 0))
        assert l.origin == vec(0, 0) and l.direction == vec(1, 0)
        l2 = line_through(vec(1, 1), vec(3, 5))
        assert l2.direction == vec(2, 4)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            line_through(vec(1, 1), vec(1, 1))
        with pytest.raises(DegenerateGeometry):
            Line(vec(0, 0), vec(0, 0))

    def test_membership(self):
        l = line_through(vec(1, 1), vec(3, 5))
        assert l.contains(vec(1, 1)) and l.contains(vec(3, 5)) and l.contains(vec(2, 3))
        assert not l.contains(vec(0, 1))

    def test_extensional_equality_and_hash(self):
        l1 = line_through(vec(0, 0), vec(2, 2))
        l2 = Line(vec(3, 3), vec(-1, -1))
        assert l1 == l2
        assert hash(l1) == hash(l2)
        assert l1 != line_through(vec(0, 1), vec(2, 3))

    @given(vec2, vec2, st.lists(rationals, min_size=5, max_size=20))
    @settings(max_examples=40)
    def test_reversed_endpoints_same_point_set(self, a, b, params):
        if a == b:
            return
        fwd, back = line_through(a, b), line_through(b, a)
        for t in params:
            assert back.contains(fwd.point_at(t))
            assert fwd.contains(back.point_at(t))

    def test_text_form(self):
        l = line_through(vec(1, 0), vec(1, 2))
        assert format_line(l) == "line (1, 0) dir (0, 2)"


same_dim = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(rationals, min_size=n, max_size=n)] * 2)
)


class TestIntegerStorage:
    """point_at and divides_in_ratio against arithmetic on Fraction coordinates."""

    @given(same_dim, rationals)
    @settings(max_examples=80)
    def test_point_at_matches_fractions(self, pair, t):
        os_, ds = pair
        if not any(ds):
            return
        got = Line(Vector(os_), Vector(ds)).point_at(t)
        assert got.coords == tuple(o + t * d for o, d in zip(os_, ds))
        assert got.den > 0 and math.gcd(*got.nums, got.den) == 1

    @given(same_dim, rationals, rationals)
    @settings(max_examples=80)
    def test_divides_in_ratio_matches_fractions(self, pair, r, s):
        xs, ys = pair
        if r + s == 0:
            with pytest.raises(PreconditionError):
                divides_in_ratio(Vector(xs), Vector(ys), r, s)
            return
        got = divides_in_ratio(Vector(xs), Vector(ys), r, s)
        t = r / (r + s)
        assert got.coords == tuple(x + t * (y - x) for x, y in zip(xs, ys))
        assert got.den > 0 and math.gcd(*got.nums, got.den) == 1


class TestRatios:
    def test_midpoint(self):
        assert divides_in_ratio(vec(0, 0), vec(2, 0), 1, 1) == vec(1, 0)

    def test_scaling_from_origin(self):
        # dividing 0‾b in ratio c : 1−c lands on c·b
        b = vec(3, 7)
        for c in (Fraction(2, 5), Fraction(-1), Fraction(3)):
            assert divides_in_ratio(Vector.zero(2), b, c, 1 - c) == c * b

    def test_two_to_one(self):
        assert divides_in_ratio(vec(1, 1), vec(4, 7), 2, 1) == vec(3, 5)

    def test_sum_zero_errors(self):
        with pytest.raises(PreconditionError):
            divides_in_ratio(vec(0, 0), vec(1, 0), 1, -1)


class TestIntervals:
    def test_open_excludes_endpoints(self):
        assert not in_interval(vec(0, 0), vec(2, 0), vec(0, 0))
        assert not in_interval(vec(0, 0), vec(2, 0), vec(2, 0))
        assert in_interval(vec(0, 0), vec(2, 0), vec(1, 0))
        assert not in_interval(vec(0, 0), vec(2, 0), vec(3, 0))

    def test_degenerate_interval(self):
        p = vec(1, 1)
        assert not in_interval(p, p, p)
        assert not in_interval(p, p, vec(0, 0))

    @staticmethod
    def reference(a, b, c):
        """in_interval as it was decided on Vector differences and a Fraction."""
        if a == b:
            return False
        t = collinearity_scalar(c - a, b - a)
        return t is not None and 0 < t < 1

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except DimensionMismatch:
            return DimensionMismatch

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference(self, data):
        dim = data.draw(st.integers(1, 4))
        point = st.lists(rationals, min_size=dim, max_size=dim).map(Vector)
        a = data.draw(point)
        b = data.draw(st.one_of(st.just(a), point))
        t = data.draw(st.sampled_from([0, 1, Fraction(1, 2), -1, 2]) | rationals)
        c = data.draw(st.sampled_from([a, b, a + t * (b - a)]) | point)
        assert in_interval(a, b, c) == self.reference(a, b, c)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mixed_dimensions_match_the_reference(self, data):
        a, b, c = (data.draw(st.lists(rationals, min_size=1, max_size=4).map(Vector))
                   for _ in range(3))
        if data.draw(st.booleans()):
            b = a
        assert self.outcome(in_interval, a, b, c) == self.outcome(self.reference, a, b, c)


class TestParallel:
    def test_equal_lines_are_parallel(self):
        l = line_through(vec(0, 0), vec(1, 0))
        assert lines_parallel(l, l)
        assert lines_parallel(l, Line(vec(5, 0), vec(-2, 0)))

    def test_shifted_lines(self):
        assert lines_parallel(Line(vec(0, 0), vec(1, 0)), Line(vec(0, 1), vec(2, 0)))

    def test_crossing_lines_not_parallel(self):
        assert not lines_parallel(Line(vec(0, 0), vec(1, 0)), Line(vec(0, 0), vec(0, 1)))

    @given(vec2, vec2, vec2, st.integers(min_value=-6, max_value=6))
    @settings(max_examples=60)
    def test_equivalence_relation_on_coplanar_lines(self, o, d, o2, k):
        # reflexive, symmetric, and transitive through a shared direction
        if d.is_zero():
            return
        l0, l1, l2 = Line(o, d), Line(o2, Fraction(2) * d), Line(o + o2, Fraction(-1) * d)
        assert lines_parallel(l0, l0)
        assert lines_parallel(l0, l1) == lines_parallel(l1, l0)
        if lines_parallel(l0, l1) and lines_parallel(l1, l2):
            assert lines_parallel(l0, l2)

    @given(vec2, vec2, vec2)
    @settings(max_examples=100)
    def test_agrees_with_plane_based_definition(self, o0, d0, o1):
        """Dependent directions must coincide with "equal or coplanar and
        disjoint", the containing plane built explicitly."""
        if d0.is_zero():
            return
        l0, l1 = Line(o0, d0), Line(o1, d0)
        assert lines_parallel(l0, l1)
        if l0 == l1:
            return
        plane = containing_plane(l0, l1)
        assert plane is not None
        assert all(plane.contains(p) for p in (o0, o0 + d0, o1, o1 + d0))
        assert line_intersection(l0, l1) is None

    @given(vec2, vec2, vec2)
    @example(Vector.of(0, 0), Vector.of(0, -1), Vector.of(0, 0))
    @settings(max_examples=60)
    def test_parallel_postulate(self, o, d, p):
        # the line through p with the same direction is the only parallel
        if d.is_zero():
            return
        l = Line(o, d)
        through_p = Line(p, d)
        assert lines_parallel(l, through_p)
        # any other direction through p crosses l inside their common plane;
        # d = (0, -1) makes this one zero, which no line may carry
        e = Vector((d.coords[1] + 1, d.coords[0]))
        if not linearly_independent(d, e):
            return
        other = Line(p, e)
        if containing_plane(l, other) is not None:
            assert not lines_parallel(l, other)


def plane_through(a, b, c):
    return Plane(a, b - a, c - a)


class TestPlane:
    def test_plane_through_contains_generators(self):
        pl = plane_through(vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0))
        for p in (vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)):
            assert pl.contains(p)
        assert pl.contains(pl.origin + 3 * pl.dir1 - 2 * pl.dir2)
        assert not pl.contains(vec(0, 0, 1))

    def test_degenerate_plane(self):
        with pytest.raises(DegenerateGeometry):
            plane_through(vec(0, 0), vec(1, 0), vec(2, 0))

    @given(st.permutations([Vector.of(0, 0, 0), Vector.of(1, 0, 0), Vector.of(1, 1, 1)]),
           rationals, rationals)
    @settings(max_examples=30)
    def test_permuted_arguments_same_point_set(self, pts, u, v):
        pl = plane_through(*pts)
        base = plane_through(Vector.of(0, 0, 0), Vector.of(1, 0, 0), Vector.of(1, 1, 1))
        assert base.contains(pl.point_at(u, v))
        assert pl.contains(base.point_at(u, v))

    @given(st.permutations([Vector.of(0, 0, 0), Vector.of(1, 0, 0), Vector.of(1, 1, 1)]),
           st.tuples(*[rationals] * 4).filter(lambda t: t[0] * t[3] != t[1] * t[2]))
    @settings(max_examples=40)
    def test_equality_and_hash_follow_the_point_set(self, pts, coeffs):
        base = plane_through(Vector.of(0, 0, 0), Vector.of(1, 0, 0), Vector.of(1, 1, 1))
        pl = plane_through(*pts)
        a, b, c, d = coeffs
        moved = Plane(base.point_at(b, c), a * base.dir1 + b * base.dir2,
                      c * base.dir1 + d * base.dir2)
        for same in (pl, moved):
            assert same == base and hash(same) == hash(base)

    def test_different_point_sets_differ(self):
        base = plane_through(vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0))
        shifted = Plane(vec(0, 0, 1), base.dir1, base.dir2)
        tilted = Plane(base.origin, base.dir1, vec(0, 1, 1))
        assert base != shifted and base != tilted and shifted != tilted
        assert base != plane_through(vec(0, 0), vec(1, 0), vec(0, 1))
        assert base != Line(vec(0, 0, 0), vec(1, 0, 0))


class TestLineIntersection:
    def test_unique_point(self):
        l0 = Line(vec(0, 0), vec(1, 0))
        l1 = Line(vec(0, 0), vec(0, 1))
        assert line_intersection(l0, l1) == vec(0, 0)

    def test_parallel_gives_none(self):
        assert line_intersection(Line(vec(0, 0), vec(1, 0)), Line(vec(0, 1), vec(1, 0))) is None

    def test_skew_gives_none(self):
        l0 = Line(vec(0, 0, 0), vec(1, 0, 0))
        l1 = Line(vec(0, 1, 1), vec(0, 0, 1))
        assert line_intersection(l0, l1) is None


class TestCrossingLine:
    def _setup(self):
        l0 = Line(vec(0, 0), vec(1, 0))
        l1 = Line(vec(0, 0), vec(0, 1))
        return l0, l1

    def test_generic_point(self):
        l0, l1 = self._setup()
        cross = crossing_line(vec(2, 3), l0, l1)
        assert isinstance(cross, Crossing)
        assert cross.line.contains(vec(2, 3))
        assert l0.contains(cross.on_l0) and l1.contains(cross.on_l1)
        assert cross.on_l0 != cross.on_l1
        assert cross.line.contains(cross.on_l0) and cross.line.contains(cross.on_l1)

    def test_point_on_one_line(self):
        l0, l1 = self._setup()
        p = vec(3, 0)  # on l0, not l1
        cross = crossing_line(p, l0, l1)
        assert cross.on_l0 == p
        assert cross.on_l1 != p
        assert l1.contains(cross.on_l1)

    def test_point_at_intersection_is_absent(self):
        l0, l1 = self._setup()
        assert crossing_line(vec(0, 0), l0, l1) is None

    def test_precondition_violations(self):
        l0, l1 = self._setup()
        with pytest.raises(PreconditionError):
            crossing_line(vec(1, 1), l0, l0)
        with pytest.raises(PreconditionError):
            crossing_line(vec(1, 1), l0, Line(vec(0, 1), vec(1, 0)))
        l3d_a = Line(vec(0, 0, 0), vec(1, 0, 0))
        l3d_b = Line(vec(0, 1, 1), vec(0, 0, 1))
        with pytest.raises(PreconditionError):
            crossing_line(vec(0, 0, 0), l3d_a, l3d_b)
        with pytest.raises(PreconditionError):
            crossing_line(
                vec(0, 0, 5), Line(vec(0, 0, 0), vec(1, 0, 0)), Line(vec(0, 0, 0), vec(0, 1, 0))
            )

    @given(vec2, st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=80)
    def test_construct_then_verify(self, p, k0, k1):
        l0 = Line(vec(0, 0), vec(1, k0))
        l1 = Line(vec(0, 0), vec(-k1, 1))
        if not linearly_independent(l0.direction, l1.direction):
            return
        cross = crossing_line(p, l0, l1)
        if p == vec(0, 0):
            assert cross is None
            return
        assert cross.line.contains(p)
        assert l0.contains(cross.on_l0) and l1.contains(cross.on_l1)
        assert cross.on_l0 != cross.on_l1
