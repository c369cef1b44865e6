import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colline.errors import DimensionMismatch, PreconditionError
from colline.field import (
    MAX_DIM,
    Vector,
    _dependent_rows,
    _int_rank,
    _line_rank,
    affine_rank,
    collinearity_scalar,
    format_scalar,
    format_vector,
    identity_matrix,
    linearly_independent,
    matrix,
    matrix_rank,
    parse_matrix,
    parse_scalar,
    parse_vector,
)
from colline.zoo import make_linear

# Independent oracle: rank of a small matrix via brute-force minor expansion.
# Deliberately avoids elimination so the production path is cross-checked.


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _minor_rank(rows):
    rows = [list(r) for r in rows]
    best = 0
    n, m = len(rows), len(rows[0])
    from itertools import combinations

    for k in range(min(n, m), 0, -1):
        for ris in combinations(range(n), k):
            for cis in combinations(range(m), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if _det(sub) != 0:
                    return k
    return best


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def vec(*values) -> Vector:
    return Vector.of(*values)


class TestScalarText:
    def test_parse_forms(self):
        assert parse_scalar("-3/4") == Fraction(-3, 4)
        assert parse_scalar("7") == Fraction(7)
        assert parse_scalar(" 5/10 ") == Fraction(1, 2)

    def test_format_round_trip(self):
        for s in (Fraction(-3, 4), Fraction(7), Fraction(0), Fraction(22, 7)):
            assert parse_scalar(format_scalar(s)) == s

    def test_rejects_floats_and_junk(self):
        for bad in ("1.5", "", "x", "3/", "/4", "1/2/3"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    @given(rationals)
    def test_canonical_form(self, s):
        # Fraction keeps gcd(|num|, den) = 1 and den > 0 through arithmetic
        t = (s + Fraction(1, 3)) * Fraction(-7, 5) - s / Fraction(9, 2)
        assert t.denominator > 0
        assert math.gcd(abs(t.numerator), t.denominator) == 1


SCALAR_MESSAGE = "not a rational scalar: {!r} (expected p or p/q, q > 0)"
_blanks = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def scalar_texts(draw):
    """Text in the accepted grammar: a sign, leading zeros, p/q not reduced, blanks."""
    k = draw(st.integers(1, 60))  # a common factor of p and q
    text = draw(st.sampled_from(["", "+", "-"]))
    text += "0" * draw(st.integers(0, 2)) + str(k * draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        text += "/" + "0" * draw(st.integers(0, 2)) + str(k * draw(st.integers(1, 10**6)))
    return draw(_blanks) + text + draw(_blanks)


class TestTextParsersAgainstFraction:
    """parse_scalar and parse_vector convert the text with int(); Fraction(str)
    is the oracle for what they accept and return."""

    @given(st.lists(scalar_texts(), min_size=1, max_size=MAX_DIM), _blanks, _blanks)
    @example(["-0", "0/007", " +012/0036 "], "", " ")
    def test_accepted_grammar_matches_fraction(self, parts, before, after):
        got = parse_vector(f"{before}({','.join(parts)}){after}")
        expected = Vector(Fraction(t) for t in parts)
        assert (got.nums, got.den) == (expected.nums, expected.den)
        for t in parts:
            s = parse_scalar(t)
            assert type(s) is Fraction and s == Fraction(t)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "1_0", "", "(1,)", "(1 2)", "1/2/3"])
    def test_scalar_rejections_keep_their_message(self, bad):
        with pytest.raises(ValueError) as exc:
            parse_scalar(bad)
        assert str(exc.value) == SCALAR_MESSAGE.format(bad)

    @pytest.mark.parametrize("text, part", [
        ("(1/0)", "1/0"), ("(1.5)", "1.5"), ("(1_0)", "1_0"), ("()", ""),
        ("(1,)", ""), ("(1 2)", "1 2"), ("(1/2/3)", "1/2/3"), ("( 1, 2/ 3)", " 2/ 3"),
    ])
    def test_vector_rejections_name_the_coordinate(self, text, part):
        with pytest.raises(ValueError) as exc:
            parse_vector(text)
        assert str(exc.value) == SCALAR_MESSAGE.format(part)

    @pytest.mark.parametrize("bad", ["", "1", "(1, 2", "1, 2)"])
    def test_vector_needs_parentheses(self, bad):
        with pytest.raises(ValueError) as exc:
            parse_vector(bad)
        assert str(exc.value) == f"not a vector: {bad!r} (expected (s1, ..., sn))"

    def test_too_many_coordinates(self):
        with pytest.raises(DimensionMismatch):
            parse_vector("(" + ", ".join(["1"] * (MAX_DIM + 1)) + ")")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no limit on int() digits")
    def test_huge_numerator_is_a_value_error(self):
        digits = "7" * 5000  # beyond int()'s default limit on decimal digits
        with pytest.raises(ValueError):
            parse_scalar(digits)
        with pytest.raises(ValueError):
            parse_vector(f"({digits}, 1)")


class TestVector:
    def test_text_round_trip(self):
        v = vec("1/2", -3, "7/5")
        assert parse_vector(format_vector(v)) == v
        assert format_vector(v) == "(1/2, -3, 7/5)"

    def test_dim_bounds(self):
        with pytest.raises(DimensionMismatch):
            Vector([])
        with pytest.raises(DimensionMismatch):
            Vector.of(*range(MAX_DIM + 1))

    def test_arithmetic_requires_matching_dims(self):
        with pytest.raises(DimensionMismatch):
            vec(1, 2) + vec(1, 2, 3)

    def test_arithmetic(self):
        assert vec(1, 2) + vec(3, 4) == vec(4, 6)
        assert vec(1, 2) - vec(3, 4) == vec(-2, -2)
        assert Fraction(1, 2) * vec(4, 6) == vec(2, 3)
        assert -vec(1, -2) == vec(-1, 2)
        assert Vector.zero(3).is_zero()
        assert not vec(0, 1).is_zero()

    def test_immutable_and_hashable(self):
        v = vec(1, 2)
        with pytest.raises(AttributeError):
            v.coords = ()
        assert len({vec(1, 2), vec(1, 2), vec(2, 1)}) == 2


def assert_canonical(v: Vector) -> None:
    assert v.den > 0 and math.gcd(*v.nums, v.den) == 1


same_dim_pair = st.integers(1, MAX_DIM).flatmap(
    lambda n: st.tuples(*[st.lists(rationals, min_size=n, max_size=n)] * 2)
)


class TestIntegerStorage:
    """The (nums, den) storage against arithmetic on Fraction coordinates."""

    @given(same_dim_pair, rationals)
    @settings(max_examples=80)
    def test_arithmetic_matches_fractions(self, pair, s):
        xs, ys = pair
        v, w = Vector(xs), Vector(ys)
        cases = [
            (v + w, [x + y for x, y in zip(xs, ys)]),
            (v - w, [x - y for x, y in zip(xs, ys)]),
            (-v, [-x for x in xs]),
            (s * v, [s * x for x in xs]),
            (v * s, [x * s for x in xs]),
        ]
        for got, want in cases:
            assert got.coords == tuple(want)
            assert got == Vector(want)
            assert_canonical(got)

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 40)),
                    min_size=1, max_size=MAX_DIM))
    @settings(max_examples=80)
    def test_two_spellings_are_one_vector(self, pairs):
        # p/q unreduced versus the reduced Fraction, and versus its text
        unreduced = Vector(Fraction(2 * p, 2 * q) for p, q in pairs)
        reduced = Vector.of(*(format_scalar(Fraction(p, q)) for p, q in pairs))
        assert unreduced == reduced and hash(unreduced) == hash(reduced)
        assert unreduced.nums == reduced.nums and unreduced.den == reduced.den
        assert_canonical(unreduced)
        assert format_vector(unreduced) == (
            "(" + ", ".join(format_scalar(Fraction(p, q)) for p, q in pairs) + ")"
        )

    def test_half_spelled_two_ways(self):
        v, w = Vector((Fraction(2, 4), Fraction(3))), vec("1/2", 3)
        assert v == w and hash(v) == hash(w)
        assert (v.nums, v.den) == ((1, 6), 2)

    @given(same_dim_pair, rationals)
    @settings(max_examples=80)
    def test_collinearity_scalar_matches_fractions(self, pair, s):
        xs, ws = pair
        w = Vector(ws)
        if w.is_zero():
            return
        j = next(i for i, c in enumerate(ws) if c != 0)
        for v in (Vector(xs), s * w):
            t = v.coords[j] / ws[j]
            want = t if all(x == t * c for x, c in zip(v.coords, ws)) else None
            assert collinearity_scalar(v, w) == want


class TestLinearlyIndependent:
    def test_standard_basis(self):
        assert linearly_independent(vec(1, 0), vec(0, 1))

    def test_scalar_multiples(self):
        assert not linearly_independent(vec(2, 4), vec(1, 2))

    def test_three_dim_pair_against_minor_oracle(self):
        v, w = vec(1, 2, 3), vec(2, 4, 7)
        assert _minor_rank([v.coords, w.coords]) == 2
        assert linearly_independent(v, w)

    def test_zero_vector_is_dependent(self):
        assert not linearly_independent(vec(0, 0), vec(1, 2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linearly_independent(vec(1, 0), vec(1, 0, 0))

    @given(st.lists(rationals, min_size=2, max_size=4),
           st.lists(rationals, min_size=2, max_size=4))
    @settings(max_examples=60)
    def test_matches_minor_oracle(self, xs, ys):
        n = min(len(xs), len(ys))
        v, w = Vector(xs[:n]), Vector(ys[:n])
        expected = _minor_rank([v.coords, w.coords]) == 2
        assert linearly_independent(v, w) == expected


# integer entries with zero rows and 100+ digit entries drawn often
_big = st.integers(10**100, 10**130)
_entries = st.one_of(st.integers(-3, 3), _big, _big.map(lambda x: -x))


@st.composite
def _row_pairs(draw):
    """Two integer rows of one length 1..MAX_DIM: free, multiples of one row, or zero."""
    n = draw(st.integers(1, MAX_DIM))
    row = st.lists(_entries, min_size=n, max_size=n)
    kind = draw(st.sampled_from(["free", "multiples", "zero v", "zero w"]))
    if kind == "multiples":
        base, p, q = draw(row), draw(_entries), draw(_entries)
        return [p * x for x in base], [q * x for x in base]
    v, w = draw(row), draw(row)
    if kind == "zero v":
        v = [0] * n
    elif kind == "zero w":
        w = [0] * n
    return v, w


class TestDependentRows:
    """The one two-row dependence test, against the elimination rank."""

    @given(_row_pairs())
    @settings(max_examples=300)
    @example(([0, 0], [0, 0]))
    @example(([1, 2], [0, 0]))
    @example(([0, 5], [0, 7]))
    @example(([10**120, 1], [10**120 + 1, 1]))
    def test_matches_int_rank(self, rows):
        v, w = rows
        assert _dependent_rows(v, w) == (_int_rank([v, w]) <= 1)
        assert _dependent_rows(v, w) == _dependent_rows(w, v)

    @given(_row_pairs(), _entries, _entries)
    @settings(max_examples=100)
    def test_multiples_are_dependent(self, rows, p, q):
        _, w = rows
        assert _dependent_rows([p * x for x in w], [q * x for x in w])


@st.composite
def _row_lists(draw):
    """0..6 integer rows of one length 1..MAX_DIM, each free, zero, a repeat of
    an earlier row or a multiple of one base row."""
    n = draw(st.integers(1, MAX_DIM))
    row = st.lists(_entries, min_size=n, max_size=n)
    base = draw(row)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "zero", "repeat", "multiple"]))
        if kind == "free":
            rows.append(draw(row))
        elif kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            p = draw(_entries)
            rows.append([p * x for x in base])
    return rows


class TestLineRank:
    """The rank capped at 2 that line judges read, against the elimination rank."""

    @given(_row_lists())
    @settings(max_examples=300)
    @example([])
    @example([[0, 0], [0, 0]])
    @example([[0, 0], [1, 2], [0, 0], [2, 4]])
    @example([[0, 3], [0, 0], [1, 3]])
    @example([[10**120, 1], [10**120, 1], [10**120 + 1, 1]])
    def test_matches_int_rank_capped_at_2(self, rows):
        assert _line_rank(rows) == min(_int_rank(rows), 2)


class TestAffineRank:
    def test_single_point(self):
        assert affine_rank([vec(5, 5)]) == 0

    def test_collinear(self):
        assert affine_rank([vec(0, 0), vec(1, 0), vec(2, 0)]) == 1

    def test_unit_square_against_minor_oracle(self):
        pts = [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)]
        diffs = [(p - pts[0]).coords for p in pts[1:]]
        assert _minor_rank(diffs) == 2
        assert affine_rank(pts) == 2

    def test_empty_errors(self):
        with pytest.raises(PreconditionError):
            affine_rank([])

    @given(st.lists(st.tuples(rationals, rationals, rationals), min_size=1, max_size=5),
           st.tuples(rationals, rationals, rationals))
    @settings(max_examples=60)
    def test_permutation_and_translation_invariance(self, pts, shift):
        points = [Vector(p) for p in pts]
        t = Vector(shift)
        base = affine_rank(points)
        assert affine_rank(list(reversed(points))) == base
        assert affine_rank([p + t for p in points]) == base

    @given(st.lists(rationals, min_size=2, max_size=4),
           st.lists(rationals, min_size=2, max_size=4))
    @settings(max_examples=60)
    def test_independence_iff_affine_rank_with_origin(self, xs, ys):
        n = min(len(xs), len(ys))
        v, w = Vector(xs[:n]), Vector(ys[:n])
        assert linearly_independent(v, w) == (
            affine_rank([Vector.zero(n), v, w]) == 2
        )


class TestCollinearityScalar:
    def test_exact_multiple(self):
        assert collinearity_scalar(vec(6, 9), vec(2, 3)) == 3

    def test_zero_vector(self):
        assert collinearity_scalar(vec(0, 0), vec(2, 3)) == 0

    def test_no_solution(self):
        assert collinearity_scalar(vec(1, 1), vec(2, 3)) is None

    def test_zero_divisor_errors(self):
        with pytest.raises(PreconditionError):
            collinearity_scalar(vec(1, 1), vec(0, 0))

    @given(rationals, st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=80)
    def test_left_inverse_of_scaling(self, s, ws):
        w = Vector(ws)
        if w.is_zero():
            return
        assert collinearity_scalar(s * w, w) == s


class TestMatrices:
    def test_parse_and_apply(self):
        a = parse_matrix("1 2\n3 4\n")
        assert make_linear(a)(vec(1, 1)) == vec(3, 7)

    def test_parse_skips_comments_and_blanks(self):
        a = parse_matrix("# rows\n1/2 0\n\n0 1\n")
        assert a == matrix([["1/2", 0], [0, 1]])

    def test_matrix_rank(self):
        assert matrix_rank(matrix([[1, 2], [2, 4]])) == 1
        assert matrix_rank(identity_matrix(3)) == 3

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            matrix([[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            matrix([])
