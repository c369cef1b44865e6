import random
import signal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colline.dsl import MapSpec, parse_map, render_map
from colline.errors import DimensionMismatch, MapEvalError, ProbeEvaluationError
from colline.field import Vector, affine_rank, from_ints, from_pairs, identity_matrix
from colline.geometry import (Line, Plane, divides_in_ratio, in_interval, line_through,
                              lines_parallel)
from colline.predicates import (
    _SKIP,
    CHECKS,
    MAX_LINE_POINTS,
    MAX_PARAMS_PER_LINE,
    MAX_PROBES,
    CheckOutcome,
    ProbeConfig,
    Witness,
    _canonical_inputs,
    _drawn,
    _Sampler,
    _ScalarPair,
    _shrink,
    _violation_line_image,
    _violation_line_injectivity,
    _violation_ratio,
    check_additivity,
    check_betweenness,
    check_homogeneity,
    check_line_image,
    check_line_injectivity,
    check_lines,
    check_parallelism_preservation,
    check_ratio_preservation,
    check_scalar_monotone,
    check_scalar_multiplicative,
    check_zero_fixed,
    classify_plane_image,
    find_independence_witness,
    revalidate_witness,
    run_check,
)
from colline.serialize import OUTCOME
from colline.zoo import MapHandle, make_affine, make_dsl, make_lemma23, make_linear
from test_dsl import _expr_strategy

CFG = ProbeConfig(seed=0, count=200)


def vec(*values):
    return Vector.of(*values)


def lemma23_default():
    return make_lemma23(2, 2, None, 0, vec(0, 1))


def dsl(text):
    return make_dsl(parse_map(text))


def _timeout(signum, frame):
    raise TimeoutError("did not return")


def assert_sound_failure(f, outcome: CheckOutcome):
    """Every Fail witness must re-evaluate to a genuine violation."""
    assert not outcome.passed and outcome.witness is not None
    assert revalidate_witness(f, outcome.witness)


class TestHomogeneity:
    def test_linear_passes(self):
        out = check_homogeneity(make_linear([[1, 2], [3, 4]]), CFG)
        assert out.passed and out.probes == CFG.count

    def test_zero_map_passes(self):
        assert check_homogeneity(make_linear([[0, 0], [0, 0]]), CFG).passed

    def test_lemma23_fails_with_sound_witness(self):
        f = lemma23_default()
        out = check_homogeneity(f, CFG)
        assert_sound_failure(f, out)
        # the canonical counterexample: scaling across the warp's kink
        a, c = vec(1, 0), Fraction(-1)
        assert f(c * a) == vec(0, -1)
        assert c * f(a) == vec(0, -2)


class TestAdditivity:
    def test_linear_passes(self):
        assert check_additivity(make_linear([[2, 0], [0, 2]]), CFG).passed

    def test_lemma23_fails(self):
        f = lemma23_default()
        out = check_additivity(f, CFG)
        assert_sound_failure(f, out)
        a, b = vec(1, 0), vec(-1, 0)
        assert f(a + b).is_zero()
        assert f(a) + f(b) == vec(0, 1)

    def test_translation_fails_with_zero_witness(self):
        g = make_affine(identity_matrix(2), vec(1, 0))
        out = check_additivity(g, CFG)
        assert_sound_failure(g, out)
        # f(0) = b ≠ 2b, and shrinking drives the witness to the origin
        inputs = dict(out.witness.inputs)
        assert inputs["a"].is_zero() and inputs["b"].is_zero()


class TestZeroFixed:
    def test_linear_passes(self):
        out = check_zero_fixed(make_linear([[1, 0], [0, 1]]))
        assert out.passed and out.probes == 1

    def test_affine_fails_at_origin(self):
        g = make_affine(identity_matrix(2), vec(1, 0))
        out = check_zero_fixed(g)
        assert_sound_failure(g, out)
        assert dict(out.witness.inputs)["x"].is_zero()

    def test_lemma23_passes(self):
        assert check_zero_fixed(lemma23_default()).passed


class TestLineImage:
    def test_linear_passes(self):
        assert check_line_image(make_linear([[1, 2], [0, 1]]), CFG).passed

    def test_lemma23_passes(self):
        assert check_line_image(lemma23_default(), CFG).passed

    def test_parabola_fails(self):
        f = dsl("map parabola : 1 -> 2 { y0 = x0; y1 = x0 * x0 }")
        out = check_line_image(f, CFG)
        assert_sound_failure(f, out)

    def test_parabola_explicit_witness(self):
        # the x-axis with parameters 0, 1, 2 maps to non-collinear points
        f = dsl("map parabola : 1 -> 2 { y0 = x0; y1 = x0 * x0 }")
        values = _violation_line_image(
            f, {"line": Line(vec(0), vec(1)), "params": (Fraction(0), Fraction(1), Fraction(2))}
        )
        assert values is not None
        assert values["images"] == (vec(0, 0), vec(1, 1), vec(2, 4))


class TestLineInjectivity:
    def test_linear_trivial_kernel_passes(self):
        assert check_line_injectivity(make_linear([[1, 0], [0, 1]]), CFG).passed

    def test_lemma23_passes(self):
        assert check_line_injectivity(lemma23_default(), CFG).passed

    def test_cubic_collision(self):
        f = dsl("map cube : 1 -> 1 { y0 = x0 * x0 * x0 - x0 }")
        values = _violation_line_injectivity(
            f,
            {
                "line": Line(vec(0), vec(1)),
                "params": (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3)),
            }
        )
        assert values is not None
        assert values["common image"] == vec(0)
        out = check_line_injectivity(f, CFG)
        assert_sound_failure(f, out)


def _outcomes_or_error(check):
    """The outcomes ``check()`` returns, or the (check, probe) its
    ProbeEvaluationError names."""
    try:
        return check()
    except ProbeEvaluationError as exc:
        return exc.check, exc.inputs


class TestCheckLines:
    """The one-pass driver gives what two run_check calls give, field for field."""

    @staticmethod
    def _both(f, cfg):
        fused = _outcomes_or_error(lambda: check_lines(f, cfg))
        separate = _outcomes_or_error(
            lambda: (check_line_image(f, cfg), check_line_injectivity(f, cfg)))
        assert fused == separate
        return fused

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_maps_match_the_separate_checks(self, data):
        m = data.draw(st.integers(1, 2))
        outputs = data.draw(st.lists(_expr_strategy(m), min_size=1, max_size=2))
        f = dsl(render_map(MapSpec("r", m, len(outputs), tuple(outputs))))
        cfg = ProbeConfig(
            seed=data.draw(st.integers(0, 1000)),
            count=data.draw(st.integers(1, 25)),
            coordinate_range=data.draw(st.integers(1, 12)),
            params_per_line=data.draw(st.integers(3, 7)),
        )
        self._both(f, cfg)

    def test_image_fails_where_injectivity_passes(self):
        image, injectivity = self._both(
            dsl("map cube : 2 -> 2 { y0 = x0; y1 = x1 * x1 * x1 }"), CFG)
        assert not image.passed and injectivity.passed and injectivity.probes > 0

    def test_injectivity_fails_where_image_passes(self):
        image, injectivity = self._both(dsl("map square : 1 -> 1 { y0 = x0 * x0 }"), CFG)
        assert image.passed and image.probes == CFG.count and not injectivity.passed

    def test_error_while_both_rows_judge_names_line_image(self):
        # 1/x is one-to-one and every image of a 1-dim map is collinear
        check, _ = self._both(dsl("map inverse : 1 -> 1 { y0 = 1/x0 }"), CFG)
        assert check == "line-image"

    def test_error_after_line_image_failed_names_line_injectivity(self):
        # three points of a hyperbola are never collinear, so line-image fails at
        # the first probe; at seed 1 a later line passes through 0
        f = dsl("map hyperbola : 1 -> 2 { y0 = x0; y1 = 1/x0 }")
        cfg = ProbeConfig(seed=1, count=50)
        check, _ = self._both(f, cfg)
        assert check == "line-injectivity"
        assert not check_line_image(f, cfg).passed


def _scan_line_image(params, imgs):
    """The line-image scan as a search over every triple (the reference)."""
    if affine_rank(imgs) <= 1:
        return None
    for i, j, k in combinations(range(len(imgs)), 3):
        if affine_rank([imgs[i], imgs[j], imgs[k]]) == 2:
            return {
                "witness params": (params[i], params[j], params[k]),
                "images": (imgs[i], imgs[j], imgs[k]),
            }
    return None


def _scan_line_injectivity(params, imgs):
    """The line-injectivity scan as a search over every pair (the reference)."""
    if affine_rank(imgs) != 1:
        return _SKIP
    for i, j in combinations(range(len(imgs)), 2):
        if params[i] != params[j] and imgs[i] == imgs[j]:
            return {"t0": params[i], "t1": params[j], "common image": imgs[i]}
    return None


class _Table(MapHandle):
    """A map of the x-axis given by a table of its values at integer points."""

    def __init__(self, values: dict):
        super().__init__(m=1, n=2, name="table")
        self.values = values

    def at(self, nums, den):
        v = self.values[Fraction(nums[0], den)]
        return v.nums, v.den


_GRID = [vec(a, b) for a in range(3) for b in range(3)]


class TestLineScans:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_scans_return_the_witness_of_the_exhaustive_search(self, data):
        # few param values and few image points, so params and images repeat
        values = data.draw(st.lists(st.integers(-2, 2), min_size=3, max_size=12))
        points = data.draw(st.lists(st.sampled_from(_GRID), min_size=5, max_size=5))
        f = _Table({Fraction(v): points[v + 2] for v in range(-2, 3)})
        params = tuple(Fraction(v) for v in values)
        imgs = [f(vec(v)) for v in values]
        inputs = {"line": Line(vec(0), vec(1)), "params": params}
        assert _violation_line_image(f, inputs) == _scan_line_image(params, imgs)
        assert _violation_line_injectivity(f, inputs) == _scan_line_injectivity(params, imgs)

    def _bounded(self, violation, f, params):
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(20)
        try:
            return violation(f, {"line": Line(vec(0), vec(1)), "params": params})
        finally:
            signal.alarm(0)

    def test_injectivity_at_ten_thousand_params(self):
        # t ↦ t² is one-to-one on 1..9999; only the last param, −9999, collides
        f = dsl("map square : 1 -> 1 { y0 = x0 * x0 }")
        params = tuple(Fraction(t) for t in range(1, 10_000)) + (Fraction(-9999),)
        assert len(params) == 10_000
        values = self._bounded(_violation_line_injectivity, f, params)
        assert values == {"t0": 9999, "t1": -9999, "common image": vec(9999 * 9999)}

    def test_line_image_at_ten_thousand_params(self):
        # every image is the origin but the last two, so the first triple is (0, 9998, 9999)
        f = dsl("map parabola : 1 -> 2 { y0 = x0; y1 = x0 * x0 }")
        params = (Fraction(0),) * 9998 + (Fraction(1), Fraction(2))
        values = self._bounded(_violation_line_image, f, params)
        assert values["witness params"] == (0, 1, 2)
        assert values["images"] == (vec(0, 0), vec(1, 1), vec(2, 4))


class _RandintSampler:
    """The probe sampler written on ``random.Random.randint``: the reference
    for the stream contract of ``_Sampler``."""

    def __init__(self, seed, r):
        self.rng, self.range = random.Random(seed), r

    def scalar(self):
        return Fraction(self.rng.randint(-self.range, self.range), self.rng.randint(1, self.range))

    def nonzero_scalar(self):
        while True:
            s = self.scalar()
            if s != 0:
                return s

    def vector(self, dim):
        randint, r = self.rng.randint, self.range
        return from_pairs([(randint(-r, r), randint(1, r)) for _ in range(dim)])

    def nonzero_vector(self, dim):
        while True:
            v = self.vector(dim)
            if not v.is_zero():
                return v

    def line(self, dim):
        return Line(self.vector(dim), self.nonzero_vector(dim))

    def params(self, k):
        fixed = (Fraction(0), Fraction(1), Fraction(-1))
        return fixed + tuple(self.scalar() for _ in range(k - 3))

    def unit_interval(self):
        q = self.rng.randint(2, max(2, self.range))
        return Fraction(self.rng.randint(1, q - 1), q)


def _storage(value):
    if isinstance(value, Vector):
        return (value.nums, value.den)
    if isinstance(value, Line):
        return (_storage(value.origin), _storage(value.direction))
    return value


def _point(row):
    return from_ints(*row)


def _line_of_rows(rows):
    return Line(*map(_point, rows))


def _fractions(pairs):
    return tuple(Fraction(p, q) for p, q in pairs)


def _scalar(pair):
    return Fraction(*pair)


class TestSamplerStream:
    CALLS = [("scalar",), ("nonzero_scalar",), ("vector", 1), ("vector", 3),
             ("nonzero_vector", 2), ("line", 2), ("params", 7), ("unit_interval",)]
    # the canonical value of each draw that comes out as rows or (p, q) pairs
    CANONICAL = {"vector": _point, "nonzero_vector": _point, "line": _line_of_rows,
                 "params": _fractions, "unit_interval": _scalar}

    # R = 1 still spends getrandbits(1) draws on the denominator; k > 32 spans words
    @pytest.mark.parametrize("coordinate_range", [1, 2, 3, 12, 2**31, 2**40 + 3])
    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_every_draw_equals_randint_on_the_same_seed(self, seed, coordinate_range):
        sampler = _Sampler(ProbeConfig(seed=seed, coordinate_range=coordinate_range))
        reference = _RandintSampler(seed, coordinate_range)
        for _ in range(40):
            for name, *args in self.CALLS:
                got = self.CANONICAL.get(name, lambda x: x)(getattr(sampler, name)(*args))
                want = getattr(reference, name)(*args)
                assert got == want and _storage(got) == _storage(want), (name, args)
        assert sampler.rng.getstate() == reference.rng.getstate()


def _filtered_ratio_draw(f, cfg, s):
    """Reference ratio stream: the degenerate draws (a = b or r + s = 0) come
    out as None, before any evaluation."""
    a, b = from_ints(*s.vector(f.m)), from_ints(*s.vector(f.m))
    r, t = s.scalar(), s.scalar()
    if a == b or r + t == 0:
        return None
    return {"a": a, "b": b, "r": r, "s": t}


class TestRatioPreservation:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_degenerate_draws_skip_as_in_a_filtering_stream(self, data):
        # at coordinate ranges 1-3, a = b and r + s = 0 are frequent draws
        m = data.draw(st.integers(1, 2))
        outputs = data.draw(st.lists(_expr_strategy(m), min_size=1, max_size=2))
        f = dsl(render_map(MapSpec("r", m, len(outputs), tuple(outputs))))
        cfg = ProbeConfig(
            seed=data.draw(st.integers(0, 1000)),
            count=data.draw(st.integers(1, 25)),
            coordinate_range=data.draw(st.integers(1, 3)),
        )
        row = CHECKS["ratio-preservation"]
        assert _outcomes_or_error(lambda: check_ratio_preservation(f, cfg)) == (
            _outcomes_or_error(lambda: run_check(row, f, cfg, _drawn(_filtered_ratio_draw))))

    def test_linear_passes(self):
        assert check_ratio_preservation(make_linear([[1, 2], [3, 4]]), CFG).passed

    def test_translation_passes(self):
        g = make_affine(identity_matrix(2), vec(1, 1))
        out = check_ratio_preservation(g, CFG)
        assert out.passed

    def test_lemma23_fails(self):
        f = lemma23_default()
        out = check_ratio_preservation(f, CFG)
        assert_sound_failure(f, out)

    def test_lemma23_explicit_midpoint_violation(self):
        f = lemma23_default()
        values = _violation_ratio(
            f, {"a": vec(-1, 0), "b": vec(1, 0), "r": Fraction(1), "s": Fraction(1)}
        )
        assert values is not None
        assert values["f(c)"] == vec(0, 0)
        assert values["point dividing f(a),f(b)"] == vec(0, Fraction(1, 2))

    JUMP2 = "map jump2 : 2 -> 2 { y0 = if x0 <= 1 then x0 else x0 + 5; y1 = x1 }"

    def test_jump2_witness_where_r_plus_s_is_negative(self):
        # the stored witness of `check ratio demos/jump2.map`: t = r/(r+s) = (-1/2)/(-1/3)
        # over td < 0, drawn as (p, q) pairs or stored as Fractions
        f = _DenominatorLog(dsl(self.JUMP2))
        a, b = vec(0, 0), vec(Fraction(3, 2), 0)
        want = {"c": vec(Fraction(9, 4), 0), "f(c)": vec(Fraction(29, 4), 0),
                "point dividing f(a),f(b)": vec(Fraction(39, 4), 0)}
        for r, s in [(Fraction(-1, 2), Fraction(1, 6)), (_ScalarPair((-2, 4)), _ScalarPair((2, 12))),
                     (_ScalarPair((-6, 12)), Fraction(1, 6))]:
            inputs = {"a": a, "b": b, "r": r, "s": s}
            assert _fields(_violation_ratio(f, inputs)) == _fields(want), (r, s)
        assert _fields(_ref_ratio(f, _canonical_probe(inputs))) == _fields(want)
        assert f.dens and min(f.dens) > 0  # every point reaches the map over den > 0
        # s = 1/2 makes r + s = 0: the probe does not apply in either form
        for s in (Fraction(1, 2), _ScalarPair((3, 6))):
            assert _violation_ratio(f, {"a": a, "b": b, "r": Fraction(-1, 2), "s": s}) is _SKIP


class _DenominatorLog(MapHandle):
    """A map that records the denominator of every point it is evaluated at."""

    def __init__(self, inner: MapHandle):
        super().__init__(inner.m, inner.n, inner.name)
        self.inner, self.dens = inner, []

    def at(self, nums, den):
        self.dens.append(den)
        return self.inner.at(nums, den)


class TestIndependenceWitness:
    def test_identity_finds_basis_pair(self):
        pair = find_independence_witness(make_linear(identity_matrix(2)), CFG)
        assert pair == (vec(1, 0), vec(0, 1))

    def test_lemma23_has_none(self):
        assert find_independence_witness(lemma23_default(), CFG) is None

    def test_zero_map_has_none(self):
        assert find_independence_witness(make_linear([[0, 0], [0, 0]]), CFG) is None


def _betweenness_scan_1d(f, grid):
    """Independent oracle: exhaustive scan for a strict-betweenness violation."""
    violations = []
    for a, b, c in product(grid, repeat=3):
        va, vb, vc = vec(a), vec(b), vec(c)
        if va == vb or not in_interval(va, vb, vc):
            continue
        ga, gb, gc = f(va), f(vb), f(vc)
        if ga == gb == gc or in_interval(ga, gb, gc):
            continue
        violations.append((va, vb, vc))
    return violations


class TestBetweenness:
    def test_linear_passes_both_variants(self):
        f = make_linear([[1, 2], [0, 1]])
        assert check_betweenness(f, CFG, "cor43").passed
        assert check_betweenness(f, CFG, "prop44").passed

    def test_sign_flip_passes_prop44(self):
        f = make_linear([[-1]])
        assert check_betweenness(f, CFG, "prop44").passed

    def test_monotone_jump_1d_has_no_violation(self):
        # an increasing 1D jump preserves strict betweenness everywhere:
        # the exhaustive scan agrees with the sampled Pass
        f = dsl("map jump : 1 -> 1 { y0 = if x0 <= 1 then x0 else x0 + 5 }")
        grid = [Fraction(n, 2) for n in range(-6, 7)]
        assert _betweenness_scan_1d(f, grid) == []
        assert check_betweenness(f, CFG, "cor43").passed

    def test_jump_2d_fails(self):
        f = dsl(
            "map jump2 : 2 -> 2 { y0 = if x0 <= 1 then x0 else x0 + 5; y1 = x1 }"
        )
        out = check_betweenness(f, CFG, "cor43")
        assert_sound_failure(f, out)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            check_betweenness(make_linear([[1]]), CFG, "classic")


class TestScalarChecks:
    def test_multiplicative_identity_and_zero_pass(self):
        assert check_scalar_multiplicative(make_linear([[1]]), CFG).passed
        assert check_scalar_multiplicative(make_linear([[0]]), CFG).passed

    def test_multiplicative_doubling_fails_at_one(self):
        h = make_linear([[2]])
        out = check_scalar_multiplicative(h, CFG)
        assert_sound_failure(h, out)
        inputs = dict(out.witness.inputs)
        assert (inputs["r"], inputs["s"]) == (1, 1)

    def test_requires_scalar_map(self):
        for check in (check_scalar_multiplicative, check_scalar_monotone):
            with pytest.raises(DimensionMismatch, match="needs a 1->1 map, got 2->2"):
                check(make_linear(identity_matrix(2)), CFG)

    @pytest.mark.parametrize("check, body", [
        (check_scalar_multiplicative, "2*x0"),
        (check_scalar_monotone, "if x0 <= 0 then x0 else -x0"),
    ], ids=["multiplicative", "monotone"])
    def test_scalar_witness_revalidates_on_1_to_1_maps_only(self, check, body):
        h = dsl(f"map h : 1 -> 1 {{ y0 = {body} }}")
        witness = check(h, CFG).witness
        assert revalidate_witness(h, witness)
        # the first output of this 1 -> 2 map still violates, but it is no scalar map
        assert not revalidate_witness(dsl(f"map w : 1 -> 2 {{ y0 = {body}; y1 = 0 }}"), witness)
        assert not revalidate_witness(make_linear(identity_matrix(2)), witness)

    def test_monotone_increasing_and_decreasing_pass(self):
        assert check_scalar_monotone(make_linear([[3]]), CFG).passed
        assert check_scalar_monotone(make_linear([[-1]]), CFG).passed

    def test_monotone_eval_error_names_the_probe(self):
        with pytest.raises(ProbeEvaluationError) as err:
            check_scalar_monotone(dsl("map inv : 1 -> 1 { y0 = 1/x0 }"), CFG)
        assert err.value.check == "scalar-monotone"
        assert err.value.inputs == {"x": 0}

    def test_a_fall_before_a_rise_gives_the_lowest_middle_point(self):
        h = dsl("map sq : 1 -> 1 { y0 = x0*x0 }")
        out = check_scalar_monotone(h, ProbeConfig(seed=0, count=20))
        assert_sound_failure(h, out)
        assert dict(out.witness.inputs) == {"x": -1, "y": 0, "z": Fraction(1, 6)}

    def test_tent_map_fails_with_triple(self):
        h = dsl("map tent : 1 -> 1 { y0 = if x0 <= 0 then x0 else -x0 }")
        out = check_scalar_monotone(h, CFG)
        assert_sound_failure(h, out)
        inputs = dict(out.witness.inputs)
        x, y, z = inputs["x"], inputs["y"], inputs["z"]
        assert x < y < z
        # rise on the left of the kink, fall on the right
        assert x < 0 <= y and z > 0
        values = [c for _, c in out.witness.values]
        assert values[0] < values[1] > values[2]


class TestPlaneImage:
    def plane2d(self):
        return Plane(vec(0, 0), vec(1, 0), vec(0, 1))

    def test_identity_gives_injective_plane(self):
        res = classify_plane_image(make_linear(identity_matrix(2)), self.plane2d(), CFG)
        assert (res.shape, res.injective) == ("plane", True)
        assert res.outcome.passed

    def test_zero_map_gives_point(self):
        res = classify_plane_image(make_linear([[0, 0], [0, 0]]), self.plane2d(), CFG)
        assert res.shape == "point"

    def test_lemma23_gives_line(self):
        res = classify_plane_image(lemma23_default(), self.plane2d(), CFG)
        assert res.shape == "line"

    def test_rank_one_matrix_gives_line(self):
        res = classify_plane_image(make_linear([[1, 0], [1, 0]]), self.plane2d(), CFG)
        assert res.shape == "line"

    def test_trichotomy_violation_detected(self):
        f = dsl("map twist : 2 -> 3 { y0 = x0; y1 = x1; y2 = x0 * x1 }")
        res = classify_plane_image(f, self.plane2d(), CFG)
        assert res.shape is None
        assert_sound_failure(f, res.outcome)

    def test_eval_error_names_the_point(self):
        f = dsl("map g : 2 -> 2 { y0 = 1/x0; y1 = x1 }")
        plane = self.plane2d()
        with pytest.raises(ProbeEvaluationError) as info:
            classify_plane_image(f, plane, CFG)
        assert info.value.check == "plane-image"
        assert info.value.inputs == {"plane": plane, "p": vec(0, 0)}
        assert "division by zero in output y0 at input (0, 0)" in str(info.value)

    @pytest.mark.parametrize("coordinate_range, pairs", [(1, 9), (2, 49)])
    def test_small_coordinate_range_terminates(self, coordinate_range, pairs):
        # only 3 (range 1) or 7 (range 2) distinct scalars exist, so fewer
        # than 60 distinct (u, v) pairs; the grid takes all of them
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(20)
        try:
            cfg = ProbeConfig(seed=0, count=200, coordinate_range=coordinate_range)
            res = classify_plane_image(make_linear(identity_matrix(2)), self.plane2d(), cfg)
        finally:
            signal.alarm(0)
        assert (res.shape, res.injective) == ("plane", True)
        assert res.outcome.probes == pairs

    def test_collapse_on_plane_image_detected(self):
        # squares the first coordinate: the plane image stays rank 2 but
        # +x and -x collide, violating the one-to-one consequence
        f = dsl("map fold : 2 -> 2 { y0 = x0 * x0; y1 = x1 }")
        res = classify_plane_image(f, self.plane2d(), CFG)
        assert res.shape == "plane"
        assert res.injective is False
        assert_sound_failure(f, res.outcome)


class TestParallelismPreservation:
    def test_linear_passes(self):
        assert check_parallelism_preservation(make_linear([[1, 2], [3, 4]]), CFG).passed

    def test_affine_passes(self):
        g = make_affine([[1, 1], [0, 1]], vec(1, -2))
        assert check_parallelism_preservation(g, CFG).passed

    def test_partial_parabola_skips_nonline_images(self):
        f = dsl("map halfpar : 2 -> 2 { y0 = x0; y1 = x1 * x1 }")
        out = check_parallelism_preservation(f, CFG)
        assert out.passed
        assert out.skipped > 0

    # (probes, skipped) and the two witness lines, each as (origin, direction),
    # taken from the implementation that built every sampled point as a Vector
    SQ_FAILS = {
        0: ((1, 0), (("0", "0"), ("1/6", "0")), (("0", "0"), ("1/6", "1/12"))),
        1: ((1, 18), (("0", "0"), ("1/11", "0")), (("0", "0"), ("1/11", "-1/11"))),
        2: ((1, 21), (("0", "0"), ("1/7", "0")), (("0", "0"), ("1/7", "-1/7"))),
    }

    @pytest.mark.parametrize("seed", sorted(SQ_FAILS))
    def test_product_map_fails_with_the_recorded_witness(self, seed):
        f = dsl("map sq : 2 -> 2 { y0 = x0; y1 = x0 * x1 }")
        out = check_parallelism_preservation(f, ProbeConfig(seed=seed, count=200))
        counts, line0, line1 = self.SQ_FAILS[seed]
        assert not out.passed
        assert (out.probes, out.skipped) == counts
        values = dict(out.witness.values)
        assert list(values) == ["image line 0", "image line 1"]
        for got, (origin, direction) in zip(values.values(), (line0, line1)):
            assert (got.origin, got.direction) == (vec(*origin), vec(*direction))
        assert revalidate_witness(f, out.witness)


class TestOutcomeMechanics:
    def test_determinism_same_config_same_outcome(self):
        f = lemma23_default()
        o1 = check_additivity(f, CFG)
        o2 = check_additivity(f, CFG)
        assert o1 == o2

    def test_different_seed_may_differ_but_stays_sound(self):
        f = lemma23_default()
        for seed in range(5):
            out = check_additivity(f, ProbeConfig(seed=seed, count=100))
            assert_sound_failure(f, out)

    def test_outcome_json_round_trip(self):
        f = lemma23_default()
        out = check_additivity(f, CFG)
        clone = OUTCOME.decode(OUTCOME.encode(out))
        assert clone == out
        assert revalidate_witness(f, clone.witness)

    def test_eval_error_propagates_with_probe(self):
        f = dsl("map inv : 1 -> 1 { y0 = 1 / x0 }")
        cases = [
            (check_homogeneity, "homogeneity", {"a", "c"}),
            (check_additivity, "additivity", {"a", "b"}),
        ]
        for check, name, input_names in cases:
            with pytest.raises(ProbeEvaluationError) as err:
                check(f, CFG)
            assert err.value.check == name
            assert set(err.value.inputs) == input_names

    def test_probe_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(count=0)
        with pytest.raises(ValueError):
            ProbeConfig(params_per_line=2)
        with pytest.raises(ValueError):
            ProbeConfig(coordinate_range=0)
        assert ProbeConfig(count=MAX_PROBES).count == 10**6  # builds no probe
        with pytest.raises(ValueError, match="probe count must be at most 1000000"):
            ProbeConfig(count=MAX_PROBES + 1)
        assert ProbeConfig(params_per_line=MAX_PARAMS_PER_LINE).params_per_line == 10**4
        with pytest.raises(ValueError, match="params_per_line must be at most 10000"):
            ProbeConfig(params_per_line=MAX_PARAMS_PER_LINE + 1)
        assert ProbeConfig(count=MAX_LINE_POINTS // 10, params_per_line=10).count == 500_000
        with pytest.raises(ValueError,
                           match=r"probe count \* params_per_line must be at most 5000000"):
            ProbeConfig(count=MAX_PROBES, params_per_line=6)

    def test_shrinker_halves_one_scalar_at_most_64_times(self):
        calls = []

        def violation(f, inputs):  # holds whatever the inputs
            calls.append(inputs)
            return {}

        assert _shrink(violation, None, {"c": Fraction(2**200, 3)}) == {"c": Fraction(2**136, 3)}
        assert len(calls) == 64

    def test_witness_tampering_detected(self):
        f = lemma23_default()
        out = check_additivity(f, CFG)
        tampered = Witness(
            check=out.witness.check,
            equation=out.witness.equation,
            inputs=(("a", vec(1, 0)), ("b", vec(1, 0))),  # not a violation
            values=out.witness.values,
        )
        assert not revalidate_witness(f, tampered)

    def test_witness_values_must_be_what_the_row_gives(self):
        f = lemma23_default()
        witness = check_additivity(f, CFG).witness
        assert revalidate_witness(f, witness)
        # the two sides still differ, but f(a)+f(b) is not what f gives at a and b
        lhs, (label, rhs) = witness.values
        edited = Witness(check=witness.check, equation=witness.equation,
                         inputs=witness.inputs,
                         values=(lhs, (label, rhs + vec(1, 0))))
        assert not revalidate_witness(f, edited)


# -- the rows that decide on integer rows, against their Vector-based bodies ------------


def _ref_homogeneity(f, inp):
    a, c = inp["a"], inp["c"]
    lhs = f(c * a)
    rhs = c * f(a)
    if lhs != rhs:
        return {"f(c*a)": lhs, "c*f(a)": rhs}
    return None


def _ref_additivity(f, inp):
    a, b = inp["a"], inp["b"]
    lhs = f(a + b)
    rhs = f(a) + f(b)
    if lhs != rhs:
        return {"f(a+b)": lhs, "f(a)+f(b)": rhs}
    return None


def _ref_zero_fixed(f, inp):
    fx = f(inp["x"])
    if not fx.is_zero():
        return {"f(0)": fx, "0": Vector.zero(f.n)}
    return None


def _ref_judged_line(f, inp):
    params = inp["params"]
    imgs = [f(inp["line"].point_at(t)) for t in params]
    return params, imgs, affine_rank(imgs)


def _ref_line_image(f, inp):
    params, imgs, rank = _ref_judged_line(f, inp)
    if rank <= 1:
        return None
    a = imgs[0]
    j = next(j for j, b in enumerate(imgs) if b != a)
    b = imgs[j]
    k = next(k for k in range(j + 1, len(imgs)) if affine_rank([a, b, imgs[k]]) == 2)
    return {"witness params": (params[0], params[j], params[k]), "images": (a, b, imgs[k])}


def _ref_line_injectivity(f, inp):
    params, imgs, rank = _ref_judged_line(f, inp)
    if rank != 1:
        return _SKIP
    groups = {}
    for i, img in enumerate(imgs):
        groups.setdefault(img, []).append(i)
    for img, group in groups.items():
        if len(group) > 1:
            t0 = params[group[0]]
            for j in group[1:]:
                if params[j] != t0:
                    return {"t0": t0, "t1": params[j], "common image": img}
    return None


def _ref_parallelism(f, inp):
    line0, params = inp["line"], inp["params"]
    line1 = Line(line0.origin + inp["offset"], line0.direction)
    imgs0, imgs1 = ([f(line.point_at(t)) for t in params] for line in (line0, line1))
    if affine_rank(imgs0) != 1 or affine_rank(imgs1) != 1:
        return _SKIP
    span0, span1 = (line_through(imgs[0], next(p for p in imgs if p != imgs[0]))
                    for imgs in (imgs0, imgs1))
    if lines_parallel(span0, span1):
        return None
    return {"image line 0": span0, "image line 1": span1}


def _ref_betweenness_cor43(f, inp):
    a, b, c = inp["a"], inp["b"], inp["c"]
    if a == b or not in_interval(a, b, c):
        return _SKIP
    ga, gb, gc = f(a), f(b), f(c)
    if ga == gb == gc:
        return None
    if in_interval(ga, gb, gc):
        return None
    return {"g(a)": ga, "g(b)": gb, "g(c)": gc}


def _ref_betweenness_prop44(f, inp):
    a, c = inp["a"], inp["c"]
    zero_in = Vector.zero(f.m)
    if a.is_zero() or not in_interval(a, zero_in, c):
        return _SKIP
    fa, fc = f(a), f(c)
    if fa.is_zero() and fc.is_zero():
        return None
    if in_interval(fa, Vector.zero(f.n), fc):
        return None
    return {"f(a)": fa, "f(c)": fc}


def _ref_ratio(f, inp):
    a, b, r, s = inp["a"], inp["b"], inp["r"], inp["s"]
    if a == b or r + s == 0:
        return _SKIP
    fa, fb = f(a), f(b)
    if fa == fb:
        return _SKIP
    c = divides_in_ratio(a, b, r, s)
    fc = f(c)
    want = divides_in_ratio(fa, fb, r, s)
    if fc != want:
        return {"c": c, "f(c)": fc, "point dividing f(a),f(b)": want}
    return None


def _fields(result):
    """A violation's result with every Vector and Line as its stored integers."""
    if not isinstance(result, dict):
        return result
    return {name: tuple(map(_storage, value)) if isinstance(value, tuple) else _storage(value)
            for name, value in result.items()}


def _canonical_probe(inputs):
    """A drawn probe as the values a witness stores: every row built with from_ints,
    the line with Line, the params and a ratio's drawn r and s (p, q) pairs with
    Fraction; a Fraction or a Vector as it is."""
    def canonical(name, value):
        if isinstance(value, (Fraction, Vector)):
            return value
        return {"line": _line_of_rows, "params": _fractions, "r": _scalar,
                "s": _scalar}.get(name, _point)(value)

    return {name: canonical(name, value) for name, value in inputs.items()}


def _random_map_and_config(data):
    m = data.draw(st.integers(1, 2))
    outputs = data.draw(st.lists(_expr_strategy(m), min_size=1, max_size=2))
    f = dsl(render_map(MapSpec("r", m, len(outputs), tuple(outputs))))
    cfg = ProbeConfig(
        seed=data.draw(st.integers(0, 1000)),
        count=8,
        coordinate_range=data.draw(st.integers(1, 4)),
        params_per_line=data.draw(st.integers(3, 6)),
    )
    return f, cfg


class TestRowViolations:
    """Each row that decides on integer rows gives what its Vector-based body
    gave, field for field: None, _SKIP, the Fail values, or a MapEvalError at
    the same probe.  The rows that draw rows give that on the drawn probe and
    on its canonical form alike, so the probe loop and --revalidate agree."""

    REFERENCES = {
        "homogeneity": _ref_homogeneity,
        "additivity": _ref_additivity,
        "zero-fixed": _ref_zero_fixed,
        "line-image": _ref_line_image,
        "line-injectivity": _ref_line_injectivity,
        "parallelism-preservation": _ref_parallelism,
        "ratio-preservation": _ref_ratio,
        "betweenness-cor43": _ref_betweenness_cor43,
        "betweenness-prop44": _ref_betweenness_prop44,
    }
    DRAWING_ROWS = sorted(set(REFERENCES) - {"zero-fixed"})

    @staticmethod
    def outcome(violation, f, inputs):
        try:
            return _fields(violation(f, inputs))
        except MapEvalError as exc:
            return str(exc), exc.output_index, exc.at

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_vector_based_body(self, name, data):
        f, cfg = _random_map_and_config(data)
        # zero-fixed also judges points other than 0, as a tampered report holds them
        stream = (_drawn(lambda f, cfg, s: {"x": s.vector(f.m)}) if name == "zero-fixed"
                  else CHECKS[name].stream)
        for inputs in stream(f, cfg):
            if inputs is not None:
                reference = self.outcome(self.REFERENCES[name], f, _canonical_probe(inputs))
                assert self.outcome(CHECKS[name].violation, f, inputs) == reference, inputs

    @pytest.mark.parametrize("name", DRAWING_ROWS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_and_canonical_probes_agree(self, name, data):
        f, cfg = _random_map_and_config(data)
        violation = CHECKS[name].violation
        for inputs in CHECKS[name].stream(f, cfg):
            if inputs is not None:
                canonical = _canonical_inputs(inputs)
                assert _fields(canonical) == _fields(_canonical_probe(inputs))
                assert (self.outcome(violation, f, inputs)
                        == self.outcome(violation, f, canonical)), inputs
