from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colline.dsl import parse_map
from colline.engine import shift_reduce
from colline.errors import ConstructionError, DimensionMismatch, MapEvalError
from colline.field import Vector, from_ints, identity_matrix
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
