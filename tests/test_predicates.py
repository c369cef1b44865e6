import signal
from fractions import Fraction
from itertools import product

import pytest

from colline.dsl import parse_map
from colline.errors import DimensionMismatch, ProbeEvaluationError
from colline.field import Vector, identity_matrix
from colline.geometry import Line, Plane, in_interval
from colline.predicates import (
    MAX_PROBES,
    CheckOutcome,
    ProbeConfig,
    Witness,
    _violation_line_image,
    _violation_line_injectivity,
    _violation_ratio,
    check_additivity,
    check_betweenness,
    check_homogeneity,
    check_line_image,
    check_line_injectivity,
    check_parallelism_preservation,
    check_ratio_preservation,
    check_scalar_monotone,
    check_scalar_multiplicative,
    check_zero_fixed,
    classify_plane_image,
    find_independence_witness,
    revalidate_witness,
)
from colline.serialize import OUTCOME
from colline.zoo import make_affine, make_dsl, make_lemma23, make_linear, make_table

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


class TestRatioPreservation:
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
        if va == vb or not in_interval(va, vb, vc, "open"):
            continue
        ga, gb, gc = f(va), f(vb), f(vc)
        if ga == gb == gc or in_interval(ga, gb, gc, "open"):
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

    def test_table_miss_raises_probe_evaluation_error(self):
        t = make_table({vec(1): vec(1), vec(2): vec(2)})
        with pytest.raises(ProbeEvaluationError) as err:
            check_additivity(t, CFG)
        assert err.value.check == "additivity"
        assert set(err.value.inputs) == {"a", "b"}
        assert "outside table domain" in str(err.value)

    def test_eval_error_propagates_with_probe(self):
        f = dsl("map inv : 1 -> 1 { y0 = 1 / x0 }")
        with pytest.raises(ProbeEvaluationError) as err:
            check_homogeneity(f, CFG)
        assert err.value.inputs

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
