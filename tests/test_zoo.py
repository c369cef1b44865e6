from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colline import dsl
from colline.dsl import MAX_DEPTH, MapSpec, parse_map
from colline.engine import shift_reduce
from colline.errors import ConstructionError, DimensionMismatch, MapEvalError
from colline.field import MAX_DIM, Vector, from_ints, identity_matrix, same_point
from colline.geometry import line_point_row
from colline.predicates import ProbeConfig, _Sampler
from colline.zoo import (
    AffineMap,
    ComposeMap,
    DslMap,
    Lemma23Map,
    LinearMap,
    MapHandle,
    default_psi,
    from_source,
    make_affine,
    make_dsl,
    make_lemma23,
    make_linear,
    parse_builtin,
)
from test_dsl import DEEP_PREFIX, _expr_strategy


def vec(*values):
    return Vector.of(*values)


def probe_vectors(dim, count, seed=0):
    sampler = _Sampler(ProbeConfig(seed=seed, count=count))
    return [from_ints(*sampler.vector(dim)) for _ in range(count)]


class TestLinear:
    def test_identity(self):
        f = make_linear(identity_matrix(2))
        assert f(vec(3, 4)) == vec(3, 4)

    def test_matrix_vector_product(self):
        f = make_linear([[1, 2], [3, 4]])
        assert f(vec(1, 1)) == vec(3, 7)

    def test_rational_entries_exact(self):
        f = make_linear([["1/3", "1/6"]])
        assert f(vec("3/2", 6)) == vec(Fraction(3, 2))

    def test_affine_form(self):
        f = make_linear([[2, 0], [0, 2]])
        a, b = f.affine_form()
        assert a == ((2, 0), (0, 2))
        assert b.is_zero()

    def test_dim_check(self):
        with pytest.raises(DimensionMismatch):
            make_linear([[1, 2]])(vec(1))


class TestAffine:
    def test_offset(self):
        g = make_affine(identity_matrix(2), vec(1, 1))
        assert g(vec(0, 0)) == vec(1, 1)

    def test_zero_matrix_collapses(self):
        g = make_affine([[0, 0], [0, 0]], vec(5, 5))
        for x in probe_vectors(2, 10):
            assert g(x) == vec(5, 5)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            make_affine([[1, 0]], vec(1, 2))


class TestLemma23:
    def default(self):
        return make_lemma23(2, 2, None, 0, vec(0, 1))

    def test_spec_values(self):
        f = self.default()
        assert f(vec(1, 5)) == vec(0, 2)
        assert f(vec(-1, 5)) == vec(0, -1)
        assert f(Vector.zero(2)).is_zero()

    def test_psi_must_fix_zero(self):
        bad_psi = parse_map("map p : 1 -> 1 { y0 = x0 + 1 }").outputs[0]
        with pytest.raises(ConstructionError):
            make_lemma23(2, 2, bad_psi, 0, vec(0, 1))

    def test_d0_nonzero(self):
        with pytest.raises(ConstructionError):
            make_lemma23(2, 2, None, 0, vec(0, 0))

    def test_index_bounds(self):
        with pytest.raises(ConstructionError):
            make_lemma23(2, 2, None, 5, vec(0, 1))

    def test_default_psi_is_a_rational_bijection_on_probes(self):
        psi = default_psi()
        f = make_lemma23(1, 1, psi, 0, vec(1))
        seen = {}
        for x in probe_vectors(1, 200):
            y = f(x)
            assert seen.setdefault(y, x) == x  # injective on the sample
        # piecewise inverse exists: t for t <= 0, t/2 for t > 0
        for y in list(seen)[:50]:
            t = y.coords[0]
            pre = t if t <= 0 else t / 2
            assert f(vec(pre)) == y

    def test_image_spans_single_direction(self):
        f = self.default()
        for x in probe_vectors(2, 50):
            assert f(x).coords[0] == 0


class TestCompose:
    """``ComposeMap`` evaluation; no source kind or command builds one."""

    def test_agrees_with_matrix_product(self):
        lhs = ComposeMap(make_linear([[1, 2], [0, 1]]), make_linear([[2, 0], [1, 1]]))
        rhs = make_linear([[4, 2], [1, 1]])
        for x in probe_vectors(2, 50):
            assert lhs(x) == rhs(x)

    def test_identity_neutral(self):
        ident = make_linear(identity_matrix(2))
        f = make_affine([[1, 1], [0, 1]], vec(2, 3))
        for x in probe_vectors(2, 50):
            assert ComposeMap(ident, f)(x) == f(x)

    def test_affine_composition_law(self):
        # (A·(C·x + d) + b) = A·C·x + (A·d + b)
        g1 = ComposeMap(make_affine([[1, 2], [3, 4]], vec(1, 0)),
                        make_affine([[0, 1], [1, 0]], vec(0, 2)))
        g2 = make_affine([[2, 1], [4, 3]], vec(5, 8))
        for x in probe_vectors(2, 50):
            assert g1(x) == g2(x)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ComposeMap(make_linear([[1, 0]]), make_linear([[1], [2], [3]]))


class TestBuiltinSpecs:
    def test_linear_from_matrix_file(self, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("1 1/2\n0 1\n")
        f = parse_builtin(f"linear:{path}")
        assert f(vec(2, 2)) == vec(3, 2)

    def test_lemma23_spec(self):
        f = parse_builtin("lemma23:m=2,n=2,e0=0,d0=(0,1)")
        assert f(vec(1, 5)) == vec(0, 2)

    def test_affine_spec(self, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("1 0\n0 1\n")
        f = parse_builtin(f"affine:{path},b=(1,1)")
        assert f(vec(0, 0)) == vec(1, 1)

    def test_bad_specs(self):
        for bad in ("unknown:x", "lemma23:m=2", "lemma23:m=2,n=2,e0=0,d0=(0,1),x=3", "noargs"):
            with pytest.raises(ConstructionError):
                parse_builtin(bad)


class TestSourceRoundTrip:
    def test_all_kinds_reconstruct(self):
        handles = [
            make_linear([[1, 2], [3, 4]]),
            make_affine([[1, 0], [0, 1]], vec(1, -1)),
            make_lemma23(2, 2, None, 0, vec(0, 1)),
            make_dsl(parse_map("map f : 2 -> 1 { y0 = x0 * x1 }")),
        ]
        for handle in handles:
            clone = from_source(handle.source())
            assert (clone.m, clone.n) == (handle.m, handle.n)
            probes = probe_vectors(handle.m, 20)
            for x in probes:
                assert clone(x) == handle(x)


class TestIntegerEntryPoint:
    """``f.at(nums, den)`` is the row (n integers over a positive denominator,
    not necessarily reduced) of ``f`` at the point nums/den, also when the pair
    is not in lowest terms, and fails at a zero divisor as ``f`` does."""

    WARP = make_dsl(parse_map(
        "map warp : 2 -> 2 { y0 = if x0 <= 1 then x0 * x1 else x0 + 5; y1 = x1 / (x0 - 1) + 1 }"
    ))
    LINEAR = make_linear([[1, 2], [Fraction(-1, 3), 4]])
    AFFINE = make_affine([[1, -1], [Fraction(1, 2), 3]], vec(5, Fraction(-7, 2)))
    MAPS = {
        "linear": LINEAR,
        "affine": AFFINE,
        "lemma23": make_lemma23(2, 2, None, 0, vec(0, 1)),
        "dsl": WARP,
        "compose": ComposeMap(WARP, AFFINE),
        "shift_reduce": shift_reduce(WARP, vec(2, Fraction(-1, 3))),
        "shift_reduce at 0": shift_reduce(LINEAR, Vector.zero(2)),
    }

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except MapEvalError as exc:
            return str(exc), exc.output_index, exc.at

    @pytest.mark.parametrize("kind", sorted(MAPS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_at_equals_the_call_at_the_point(self, kind, data):
        f = self.MAPS[kind]
        den = data.draw(st.integers(1, 12))
        # x0 = 1 and x0 = -1 are the zero divisors of warp and of its shift by (2, -1/3)
        x0 = data.draw(st.sampled_from([den, -den]) | st.integers(-12, 12))
        nums = [x0, data.draw(st.integers(-12, 12))]
        k = data.draw(st.integers(2, 6))
        want = self.outcome(f, from_ints(nums, den))
        assert self.outcome(self.row_vector, f, [k * a for a in nums], k * den) == want
        assert self.outcome(self.row_vector, f, nums, den) == want

    @staticmethod
    def row_vector(f, nums, den):
        """The vector of the row ``f.at(nums, den)``, once its shape is checked."""
        row, row_den = f.at(nums, den)
        assert len(row) == f.n and all(type(a) is int for a in row)
        assert type(row_den) is int and row_den > 0
        return from_ints(row, row_den)


def _line_loop(f, origin, direction, params):
    """The reference: ``at`` at each point of the line, one call per point."""
    return [f.at(*line_point_row(origin, direction, p, q)) for p, q in params]


@st.composite
def _lines(draw, m):
    """(origin, direction, params): two rows of dimension m and up to 6 (p, q)."""
    row = st.tuples(st.lists(st.integers(-12, 12), min_size=m, max_size=m), st.integers(1, 12))
    params = st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=6)
    return draw(row), draw(row), draw(params)


# conditionals nested past the depth at which the generated code hoists them
_NESTED = (DEEP_PREFIX + "if x0 <= 1 then " * (MAX_DEPTH - 2) + "x0"
           + " else 2 * x0" * (MAX_DEPTH - 2) + " }")


class TestLineAt:
    """``f.line_at(o, d, params)`` gives, point for point, what ``at`` gives at
    o + (p/q)·d; a handle with generated code runs the whole line in its line
    function, and a zero divisor fails there as the point-by-point loop does."""

    NESTED = make_dsl(parse_map(_NESTED))
    SPLIT = make_dsl(parse_map("map split : 2 -> 2 { y0 = x0 * x1; y1 = x0 / 3 }"))
    MAPS = {
        **TestIntegerEntryPoint.MAPS,
        "nested": NESTED,
        "split": SPLIT,
        "shift_reduce affine": shift_reduce(TestIntegerEntryPoint.AFFINE, vec(-1, 4)),
        "shift_reduce split": shift_reduce(SPLIT, vec(Fraction(1, 2), 3)),
    }

    @staticmethod
    def assert_same_rows(f, origin, direction, params):
        want = TestIntegerEntryPoint.outcome(_line_loop, f, origin, direction, params)
        got = TestIntegerEntryPoint.outcome(f.line_at, origin, direction, params)
        if isinstance(want, tuple):  # the loop's MapEvalError: message, output index, point
            assert got == want
            return
        assert len(got) == len(want) == len(params)
        for (row, den), want_row in zip(got, want):
            assert len(row) == f.n and all(type(a) is int for a in row)
            assert type(den) is int and den > 0 and same_point((row, den), want_row)

    @pytest.mark.parametrize("kind", sorted(MAPS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_line_at_gives_the_rows_of_at(self, kind, data):
        f = self.MAPS[kind]
        self.assert_same_rows(f, *data.draw(_lines(f.m)))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_maps_give_the_rows_of_at(self, data):
        m = data.draw(st.integers(1, 3))
        outputs = data.draw(st.lists(_expr_strategy(m), min_size=1, max_size=3))
        f = make_dsl(MapSpec("r", m, len(outputs), tuple(outputs)))
        self.assert_same_rows(f, *data.draw(_lines(m)))

    def test_the_kinds_with_generated_code_run_their_line_function(self):
        for kind in ("linear", "affine", "dsl", "nested", "split"):
            f = self.MAPS[kind]  # x0 misses 1, warp's zero divisor, on this line
            line = ([5, 7][:f.m], 3), ([1, -2][:f.m], 4), [(0, 1), (1, 2), (-3, 1)]
            with mock.patch.object(MapHandle, "line_at") as loop:
                assert f.line_at(*line) == _line_loop(f, *line)
            assert not loop.called, kind
        assert not self.SPLIT.spec.compiled.one  # its outputs are over different denominators

    def test_the_line_function_shares_the_hoisted_functions(self):
        f = make_dsl(parse_map(_NESTED))  # a fresh spec, so both compiles are seen
        with mock.patch.object(dsl, "compile", wraps=compile, create=True) as spy:
            f(vec(3))
            f.line_at(([0], 1), ([1], 1), [(1, 1), (2, 1)])
        (point, _, _), (line, _, _) = [call.args for call in spy.call_args_list]
        assert point.count("def ") > 2 and "def line" not in point
        assert line.count("def ") == 1 and line.startswith("def line(o, u, params):")
        hoisted = [name for name in f.spec.compiled.namespace if name[0] == "f" and name != "f"]
        assert hoisted and any(f"{name}(x0, d)" in line for name in hoisted)

    def test_a_zero_divisor_at_the_third_point_fails_as_the_loop_does(self):
        f = make_dsl(parse_map("map inv : 2 -> 2 { y0 = 1/x0; y1 = x1 }"))
        line = ([2, 0], 1), ([-1, 1], 1), [(0, 1), (1, 1), (2, 1), (3, 1)]
        with pytest.raises(ZeroDivisionError):  # the line function meets x0 = 0
            dsl.generated(f.spec).line(*line)
        with pytest.raises(MapEvalError) as loop:
            _line_loop(f, *line)
        with pytest.raises(MapEvalError) as twin:
            f.line_at(*line)
        assert str(twin.value) == str(loop.value) == (
            "map inv: division by zero in output y0 at input (0, 2)")
        assert (twin.value.output_index, twin.value.at) == (loop.value.output_index,
                                                            loop.value.at) == (0, vec(0, 2))


HUGE = 7 * 10**4400 + 3  # past the 4,300-digit limit of int-to-decimal text


def _entries(den):
    """Matrix entries: small fractions of both signs, zeros and huge ones."""
    return (st.builds(Fraction, st.integers(-9, 9), den) | st.just(0)
            | st.sampled_from([HUGE, -HUGE, Fraction(1, HUGE), Fraction(-2, HUGE)]))


@st.composite
def _affine_handles(draw):
    m, n = draw(st.integers(1, MAX_DIM)), draw(st.integers(1, MAX_DIM))
    entries = _entries(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1))):  # zero rows, at times every row
        rows[i] = [0] * m
    if draw(st.booleans()):
        return make_linear(rows)
    return make_affine(rows, Vector(draw(st.lists(entries, min_size=n, max_size=n))))


class TestGeneratedKernel:
    """An affine handle's ``at`` runs the function generated from its integer
    rows, built on the first call: its row is the one the dot-product loop it
    replaced gave, with the same integers over the same unreduced denominator."""

    @staticmethod
    def loop(f, nums, den):
        return ([sum(map(mul, row, nums)) + off * den for row, off in zip(f._rows, f._offsets)],
                f._den * den)

    @given(f=_affine_handles(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_at_is_the_dot_product_row(self, f, data):
        for _ in range(3):
            nums = data.draw(st.lists(st.integers(-10**20, 10**20), min_size=f.m, max_size=f.m))
            den = data.draw(st.integers(1, 10**20))
            row, row_den = f.at(nums, den)
            assert (list(row), row_den) == self.loop(f, nums, den)
            assert all(type(a) is int for a in row) and type(row_den) is int

    @pytest.mark.parametrize("make", [
        lambda: make_linear([[0, 0], [0, 0]]),
        lambda: make_affine([[0], [0]], vec(0, Fraction(-1, 3))),
        lambda: make_linear([[HUGE, Fraction(-1, HUGE)], [0, -1]]),
        lambda: make_affine([[-HUGE]], Vector.of(Fraction(HUGE, 7))),
    ], ids=["zero-matrix", "zero-rows", "huge-linear", "huge-affine"])
    def test_edge_matrices(self, make):
        f = make()
        for nums, den in (([0] * f.m, 1), ([-3] * f.m, 2), ([HUGE] * f.m, HUGE + 1)):
            row, row_den = f.at(nums, den)
            assert (list(row), row_den) == self.loop(f, nums, den)

    @pytest.mark.parametrize("make", [
        lambda: make_linear([[1, 2], [3, 4]]),
        lambda: make_affine([[1, 2], [3, 4]], vec(5, 6)),
    ], ids=["linear", "affine"])
    def test_building_a_handle_compiles_nothing_until_its_first_at(self, make, monkeypatch):
        built = []
        monkeypatch.setattr(dsl, "compile_rows",
                            lambda *args, build=dsl.compile_rows: built.append(args) or build(*args))
        f = make()
        f.affine_form(), f.source(), repr(f)
        assert built == []
        first = f(vec(1, 1))
        assert len(built) == 1
        assert f.at([2, 2], 2) == ((2 * first.nums[0], 2 * first.nums[1]), 2)
        assert f(vec(1, 1)) == first and len(built) == 1


class _NoAt(MapHandle):
    pass


class TestEvaluationMethod:
    """``at`` is the one method a handle implements; calling a handle checks
    the dimension and then runs ``at``."""

    def test_a_handle_without_at_is_not_implemented(self):
        with pytest.raises(NotImplementedError):
            _NoAt(1, 1, "none")(vec(1))

    def test_dsl_map_at_the_wrong_dimension(self):
        f = make_dsl(parse_map("map warp : 2 -> 1 { y0 = x0 * x1 }"))
        with pytest.raises(DimensionMismatch, match=r"^map warp takes dim 2, got 3$"):
            f(vec(1, 2, 3))

    @pytest.mark.parametrize("cls", [LinearMap, AffineMap, Lemma23Map, DslMap, ComposeMap],
                             ids=lambda cls: cls.__name__)
    def test_each_kind_binds_the_shared_call(self, cls):
        # a class-level alias per kind, so each kind's evaluations can be wrapped apart
        assert vars(cls)["__call__"] is MapHandle.__call__
        assert "at" in vars(cls)
