import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colline import engine
from colline.dsl import MapSpec, parse_map, render_map
from colline.errors import (
    DimensionMismatch, MapEvalError, PreconditionError, ProbeEvaluationError, ViolationError,
)
from colline.field import Vector, collinearity_scalar, from_ints, identity_matrix
from colline.geometry import Plane
from colline.predicates import (
    CHECKS,
    CheckOutcome,
    ProbeConfig,
    Witness,
    check_additivity,
    check_betweenness,
    check_homogeneity,
    check_line_image,
    check_line_injectivity,
    check_lines,
    check_parallelism_preservation,
    check_ratio_preservation,
    check_zero_fixed,
    classify_plane_image,
    find_independence_witness,
    revalidate_witness,
    run_check,
    _drawn,
    _Sampler,
)
from colline.engine import (
    additivity_certificate,
    affine_reduce,
    check_affine_reconstruction,
    classify_map,
    decide,
    extract_phi,
    find_affine_witnesses,
    homogeneity_certificate,
    phi_consistency,
    scalar_dichotomy,
    shift_reduce,
)
from colline.serialize import CERTIFICATE, PHI_TABLE
from colline.zoo import (
    MapHandle,
    make_affine,
    make_dsl,
    make_lemma23,
    make_linear,
)
from test_dsl import _expr_strategy

CFG = ProbeConfig(seed=0, count=150)


def vec(*values):
    return Vector.of(*values)


def dsl(text):
    return make_dsl(parse_map(text))


def lemma23_default():
    return make_lemma23(2, 2, None, 0, vec(0, 1))


def probe_vectors(dim, count, seed=3):
    sampler = _Sampler(ProbeConfig(seed=seed, count=count))
    return [from_ints(*sampler.vector(dim)) for _ in range(count)]


class TestExtractPhi:
    def test_scaled_identity(self):
        f = make_linear([[3, 0], [0, 3]])
        assert extract_phi(f, vec(1, 0), 5) == 5

    def test_zero_scale(self):
        f = make_linear([[1, 2], [3, 4]])
        assert extract_phi(f, vec(1, 0), 0) == 0

    def test_lemma23_negative_scale(self):
        assert extract_phi(lemma23_default(), vec(1, 0), -1) == Fraction(-1, 2)

    def test_zero_image_anchor_rejected(self):
        with pytest.raises(PreconditionError):
            extract_phi(lemma23_default(), vec(0, 1), 2)

    def test_off_ray_image_raises_violation_with_witness(self):
        f = dsl("map bend : 1 -> 2 { y0 = x0; y1 = x0 * x0 }")
        with pytest.raises(ViolationError) as err:
            extract_phi(f, vec(1), 2)
        assert revalidate_witness(f, err.value.witness)


def _extract_phi_on_vectors(f, a, r):
    """``extract_phi`` as it was written on Vectors, kept as the reference."""
    r = Fraction(r)
    fa = f(a)
    if fa.is_zero():
        raise PreconditionError("extract_phi needs an anchor with f(a) != 0")
    fra = f(r * a)
    s = collinearity_scalar(fra, fa)
    if s is None:
        witness = CHECKS["phi-extract"].witness({"a": a, "r": r}, {"f(a)": fa, "f(r*a)": fra})
        raise ViolationError(f"images of the line through 0 and {a} are not collinear", witness)
    return s


def _phi_result(extract, f, a, r):
    """What one extraction gives: its value, or its error's type, message and witness."""
    try:
        return extract(f, a, r)
    except (MapEvalError, PreconditionError, ViolationError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


class TestExtractPhiOnRows:
    """``extract_phi`` on integer rows gives what the Vector version gave."""

    @pytest.mark.parametrize("text, a, r", [
        ("map z : 2 -> 1 { y0 = x0 - x1 }", (3, 3), 2),  # f(a) = 0
        ("map d : 1 -> 1 { y0 = 1 / (x0 - 2) }", (1,), 2),  # division by zero at r*a
        ("map d : 1 -> 1 { y0 = 1 / (x0 - 2) }", (2,), 3),  # division by zero at a
        ("map b : 1 -> 2 { y0 = x0; y1 = x0 * x0 }", (1,), 2),  # not collinear
        ("map s : 2 -> 2 { y0 = 3 * x0 / 4; y1 = x1 - x0 }", ("1/2", "-2/3"), "-5/7"),
        ("map c : 2 -> 2 { y0 = x0; y1 = x1 }", (1, 1), 0),
    ], ids=["zero-image", "div-at-ra", "div-at-a", "violation", "value", "r-zero"])
    def test_fixed_cases(self, text, a, r):
        f, a = dsl(text), vec(*a)
        assert _phi_result(extract_phi, f, a, r) == _phi_result(_extract_phi_on_vectors, f, a, r)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_the_vector_version(self, data):
        m = data.draw(st.integers(1, 3))
        outputs = data.draw(st.lists(_expr_strategy(m), min_size=1, max_size=2))
        f = dsl(render_map(MapSpec("r", m, len(outputs), tuple(outputs))))
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=8)
        a = Vector(data.draw(st.lists(entry, min_size=m, max_size=m)))
        r = data.draw(entry)
        assert _phi_result(extract_phi, f, a, r) == _phi_result(_extract_phi_on_vectors, f, a, r)


class TestPhiConsistency:
    def test_linear_full_rank_gives_identity_table(self):
        f = make_linear([[1, 2], [3, 4]])
        outcome, table = phi_consistency(f, CFG)
        assert outcome.passed
        assert table.is_identity()
        assert table.validate(f) == []

    def test_anchor_dependent_scale_fails(self):
        f = dsl("map cube : 2 -> 2 { y0 = x0; y1 = x1 * x1 * x1 }")
        # the two basis anchors disagree already at r = 2: scale 2 vs 8
        assert extract_phi(f, vec(1, 0), 2) == 2
        assert extract_phi(f, vec(0, 1), 2) == 8
        outcome, table = phi_consistency(f, CFG)
        assert not outcome.passed and table is None
        assert revalidate_witness(f, outcome.witness)

    def test_rank_one_image_rejected(self):
        with pytest.raises(PreconditionError):
            phi_consistency(make_linear([[1, 0], [1, 0]]), CFG)

    def test_one_probe_evaluates_the_map_four_times(self):
        # f(a), f(r*a), f(a') and f(r*a'): the zero-image test is extract_phi's own
        f = _CountingMap(make_linear([[1, 2], [3, 4]]))
        a, other, r = vec(1, 1), vec(1, 0), Fraction(-3, 2)
        assert engine.CHECKS["phi-consistency"].violation(f, {"a": a, "a'": other, "r": r}) is None
        assert f.points == [a, r * a, other, r * other]

    def test_nonzero_scale_at_zero_fails_with_a_witness_that_rechecks(self):
        # f(0) = (1, 0) is collinear with f(a0) = f((1, 0)) but not with f(a1)
        f = dsl("map q : 2 -> 2 { y0 = x0 * x0 - x0 + 1; y1 = x1 }")
        outcome, table = phi_consistency(f, ProbeConfig(seed=0, count=60))
        assert not outcome.passed and table is None
        assert outcome.witness.check == "phi-consistency"
        assert revalidate_witness(f, outcome.witness)

    def test_translation_fails_under_its_own_name_with_a_shrunk_witness(self):
        f = dsl("map translate : 2 -> 2 { y0 = x0 + 1; y1 = x1 + 1 }")
        outcome, _ = phi_consistency(f, ProbeConfig(seed=3, count=60))
        assert (outcome.passed, outcome.probes) == (False, 1)
        assert outcome.witness.check == "phi-consistency"
        assert dict(outcome.witness.inputs) == {"a": vec(0, 0), "a'": vec(0, 1), "r": 0}
        assert revalidate_witness(f, outcome.witness)


class TestHomogeneityCertificate:
    def test_identity_conclusion(self):
        f = make_linear(identity_matrix(2))
        cert = homogeneity_certificate(f, vec(1, 0), vec(0, 1), 2)
        assert cert.kind == "homogeneity"
        assert [(e.label, e.scale) for e in cert.equations] == [
            ("f(r*a) = s*f(a)", 2), ("f(r*b) = s*f(b)", 2)]
        assert cert.validate(f) == []

    def test_shear_conclusion(self):
        f = make_linear([[1, 1], [0, 1]])
        cert = homogeneity_certificate(f, vec(1, 0), vec(0, 1), 3)
        assert [e.scale for e in cert.equations] == [3, 3]
        assert cert.validate(f) == []

    def test_unit_scale_merges_chord_lines(self):
        f = make_linear(identity_matrix(2))
        cert = homogeneity_certificate(f, vec(1, 0), vec(0, 1), 1)
        assert len(cert.lines) == 3  # chord and its copy coincide
        assert cert.validate(f) == []
        obj = CERTIFICATE.encode(cert)
        (group,) = [fact for fact in obj["parallels"] if len(fact["lines"]) == 1]
        group["lines"] = ["L9"]  # a one-line group must still name a line
        assert CERTIFICATE.decode(obj).validate(f) == ["unknown line in parallel fact"]

    def test_preconditions(self):
        f = make_linear(identity_matrix(2))
        with pytest.raises(PreconditionError):
            homogeneity_certificate(f, vec(1, 0), vec(2, 0), 2)  # dependent images
        with pytest.raises(PreconditionError):
            homogeneity_certificate(f, vec(1, 0), vec(0, 1), 0)


class TestAdditivityCertificate:
    def ind2(self):
        return (vec(1, 0), vec(0, 1))

    def test_case1_parallelogram(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, vec(1, 0), vec(0, 1))
        assert cert.kind == "additivity-case1"
        assert len(cert.lines) == 4
        assert cert.validate(f) == []
        assert dict((l, i) for l, _, i in cert.points)["a+b"] == vec(1, 1)

    def test_case2_seven_lines(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, vec(1, 0), vec(2, 0), self.ind2())
        assert cert.kind == "additivity-case2"
        assert [cl.name for cl in cert.lines] == [f"L{i}" for i in range(7)]
        # one triple meet at the far corner of the chained parallelograms
        triple = [fact for fact in cert.intersections if len(fact.lines) == 3]
        corner = vec(0, 1) + vec(1, 0) + vec(2, 0)
        assert any(fact.point == corner for fact in triple)
        assert cert.validate(f) == []
        assert dict((l, i) for l, _, i in cert.points)["a+b"] == vec(3, 0)

    def test_a_re_added_line_stores_each_anchor_once(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, vec(1, 0), vec(2, 0), self.ind2())
        assert all(len(set(cl.anchors)) == len(cl.anchors) for cl in cert.lines)
        (l1,) = [cl for cl in cert.lines if cl.name == "L1"]
        assert l1.anchors == (vec(1, 0), vec(0, 0), vec(2, 0), vec(3, 0))

    def test_case2_cancelling_sum(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, vec(0, 1), vec(0, -1), self.ind2())
        assert cert.kind == "additivity-case2"
        assert cert.validate(f) == []

    def test_case3_projection(self):
        f = make_linear([[1, 0, 0], [0, 1, 0]])
        ind = (vec(1, 0, 0), vec(0, 1, 0))
        cert = additivity_certificate(f, vec(1, 0, 0), vec(1, 0, 1), ind)
        assert cert.kind == "additivity-case3"
        assert cert.validate(f) == []
        assert dict((l, i) for l, _, i in cert.points)["a+b"] == vec(2, 0)

    def test_case3_both_images_zero_uses_transversal(self):
        f = make_linear([[1, 0, 0], [1, 0, 0]])
        cert = additivity_certificate(f, vec(0, 1, 0), vec(0, 0, 1))
        assert cert.kind == "additivity-case3"
        assert len(cert.lines) == 3
        assert cert.validate(f) == []

    def test_case3_transversal_runs_through_twice_each_summand(self):
        f = make_linear([[1, 0, 0], [1, 0, 0]])
        a, b = vec(0, 2, Fraction(-1, 3)), vec(0, 1, 5)
        cert = additivity_certificate(f, a, b)
        assert cert.kind == "additivity-case3"
        points = {label: p for label, p, _ in cert.points}
        assert (points["p0"], points["p1"]) == (2 * a, 2 * b)
        assert (points["p0"] + points["p1"]) * Fraction(1, 2) == points["a+b"]

    def test_lemma32_dispatch(self):
        projection = make_linear([[1, 0, 0], [0, 1, 0]])
        ind = (vec(1, 0, 0), vec(0, 1, 0))
        cases = [
            (projection, vec(0, 0, 1), vec(1, 0, 0), ind),
            # the warped ray sends (0, 1) to 0 and (1, 0) off it
            (lemma23_default(), vec(0, 1), vec(1, 0), None),
        ]
        for f, a, b, pair in cases:
            cert = additivity_certificate(f, a, b, pair)
            assert cert.kind == "lemma32"
            assert cert.validate(f) == []

    def test_lemma32_refutes_with_a_witness_that_rechecks(self):
        # f(a) = 0 and f(b) = (1, 0), but f(a+b) = (2, 0)
        f = dsl("map g : 2 -> 2 { y0 = x1 + x0 * x1; y1 = 0 }")
        with pytest.raises(ViolationError) as err:
            additivity_certificate(f, vec(1, 0), vec(0, 1))
        assert str(err.value) == "equation fails: f(a+b) = f(b)"
        assert err.value.witness.check == "certificate"
        assert revalidate_witness(f, err.value.witness)

    def test_a_witness_equation_must_be_the_one_its_row_states(self):
        # a row's own equation, a certificate's failing fact, a plane collision's sentence
        lemma23 = make_lemma23(2, 2, None, 0, vec(0, 1))
        g = dsl("map g : 2 -> 2 { y0 = x1 + x0 * x1; y1 = 0 }")
        with pytest.raises(ViolationError) as err:
            additivity_certificate(g, vec(1, 0), vec(0, 1))
        fold = dsl("map fold : 2 -> 2 { y0 = x0 * x0; y1 = x1 }")
        plane = Plane(vec(0, 0), vec(1, 0), vec(0, 1))
        witnesses = [(lemma23, check_additivity(lemma23, CFG).witness),
                     (g, err.value.witness),
                     (fold, classify_plane_image(fold, plane, CFG).outcome.witness)]
        assert [w.equation for _, w in witnesses] == [
            CHECKS["additivity"].equation, "equation fails: f(a+b) = f(b)",
            "a map spreading a plane onto a plane is one-to-one on it"]
        for f, witness in witnesses:
            assert revalidate_witness(f, witness)
            for equation in {witness.equation + "x", CHECKS[witness.check].equation} - {
                    witness.equation}:
                assert not revalidate_witness(f, dataclasses.replace(witness, equation=equation))

    def test_trivial_zero_summand(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, Vector.zero(2), vec(1, 1))
        assert cert.kind == "additivity-case2"
        assert cert.lines == ()
        assert cert.validate(f) == []

    def test_dishonest_map_raises_violation(self):
        f = dsl("map warp : 2 -> 2 { y0 = x0; y1 = x1 * x1 * x1 }")
        ind = (vec(1, 0), vec(0, 1))
        with pytest.raises(ViolationError) as err:
            additivity_certificate(f, vec(0, 1), vec(0, 2), ind)
        assert revalidate_witness(f, err.value.witness)

    def test_json_round_trip_revalidates(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, vec(1, 0), vec(2, 0), self.ind2())
        clone = CERTIFICATE.decode(CERTIFICATE.encode(cert))
        assert clone.validate(f) == []
        assert CERTIFICATE.encode(clone) == CERTIFICATE.encode(cert)

    def test_tampered_certificate_detected(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, vec(1, 0), vec(0, 1))
        obj = CERTIFICATE.encode(cert)
        obj["intersections"][0]["point"] = "(5, 5)"
        assert CERTIFICATE.decode(obj).validate(f) == [
            "no stored evaluation of (5, 5)", "L0 does not contain (5, 5)",
            "L1 does not contain (5, 5)"]

    # one edited fact of an encoded certificate of f = (2x + y, 3y) at a time: the
    # exact failures it causes; a stored image is read wherever a fact uses it, so
    # an edited one fails on each image line and each equation through it as well as on f
    TAMPERED = {
        "additivity-case1": [
            (("lines", 1, "anchors", 0), "(7, 3)",
             ["no stored evaluation of (7, 3)", "L1: anchor (7, 3) off the line"]),
            (("lines", 0, "anchors", 1), "(1, 0)", ["L0: an anchor is repeated"]),
            (("intersections", 0, "point"), "(5, 5)",
             ["no stored evaluation of (5, 5)", "L0 does not contain (5, 5)",
              "L1 does not contain (5, 5)"]),
            # L2 turned onto L0
            (("lines", 2, "direction"), "(1, 0)",
             ["L2: anchor (1, 1) off the line", "L0 and L2 are the same line",
              "L2 does not contain (1, 1)", "L1 and L2 are not parallel"]),
            (("lines", 3, "direction"), "(1, 1)",
             ["L3: anchor (1, 1) off the line", "L3 does not contain (1, 1)",
              "L0 and L3 are not parallel"]),
            (("points", 2, "image"), "(3, 4)",
             ["L2: anchor image (3, 4) off the image line",
              "L3: anchor image (3, 4) off the image line",
              "image of L2 does not contain (3, 4)", "image of L3 does not contain (3, 4)",
              "equation fails: f(a+b) = f(a) + f(b)", "stored evaluation of a+b is stale"]),
        ],
        "additivity-case2": [
            (("lines", 1, "anchors", 2), "(2, 1)",
             ["no stored evaluation of (2, 1)", "L1: anchor (2, 1) off the line"]),
            # L1 is re-added through 0, b and a+b: a copied anchor is caught
            (("lines", 1, "anchors", 3), "(2, 0)", ["L1: an anchor is repeated"]),
            (("intersections", 0, "point"), "(1, 2)",
             ["no stored evaluation of (1, 2)", "L0 does not contain (1, 2)",
              "L1 does not contain (1, 2)", "L4 does not contain (1, 2)"]),
            # L3 turned onto L1
            (("lines", 3, "direction"), "(1, 0)",
             ["L3: anchor (1, 1) off the line", "L1 and L3 are the same line",
              "L3 does not contain (1, 1)", "L0 and L3 are not parallel",
              "L3 and L6 are not parallel"]),
            (("lines", 6, "direction"), "(1, 2)",
             ["L6: anchor (3, 1) off the line", "L6 does not contain (3, 1)",
              "L0 and L6 are not parallel", "L3 and L6 are not parallel"]),
            (("points", 6, "image"), "(6, 1)",
             ["L1: anchor image (6, 1) off the image line",
              "L6: anchor image (6, 1) off the image line",
              "image of L1 does not contain (6, 1)", "image of L6 does not contain (6, 1)",
              "equation fails: f(ai+a+b) = f(ai) + f(a+b)",
              "equation fails: f(a+b) = f(a) + f(b)", "stored evaluation of a+b is stale"]),
        ],
    }

    @pytest.mark.parametrize("kind, path, value, failures", [
        pytest.param(kind, *case, id=f"{kind}-{'.'.join(map(str, case[0]))}")
        for kind, cases in TAMPERED.items() for case in cases
    ])
    def test_each_tampered_fact_fails_exactly(self, kind, path, value, failures):
        f = make_linear([[2, 1], [0, 3]])
        a, b = (vec(1, 0), vec(0, 1)) if kind == "additivity-case1" else (vec(1, 0), vec(2, 0))
        cert = additivity_certificate(f, a, b, self.ind2())
        assert cert.kind == kind and cert.validate(f) == []
        obj = CERTIFICATE.encode(cert)
        *head, last = path
        target = obj
        for key in head:
            target = target[key]
        target[last] = value
        assert CERTIFICATE.decode(obj).validate(f) == failures


class TestScalarDichotomy:
    def test_identity_and_zero(self):
        assert scalar_dichotomy(make_linear([[1]]), CFG).kind == "identity"
        assert scalar_dichotomy(make_linear([[0]]), CFG).kind == "zero"

    @pytest.mark.parametrize("c", [Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)])
    def test_scaling_fails_with_unit_witness(self, c):
        h = make_linear([[c]])
        result = scalar_dichotomy(h, CFG)
        assert result.kind == "fail"
        inputs = dict(result.witness.inputs)
        assert (inputs["r"], inputs["s"]) == (1, 1)
        assert revalidate_witness(h, result.witness)

    # h(-1) = -2 and h(r) = r elsewhere: multiplicative, and additive and monotone at
    # one probe, so only the dichotomy's own sweep can see it, unless additivity does
    @pytest.mark.parametrize("seed", [*range(4), *range(5, 12)])
    def test_its_own_witness_when_every_hypothesis_passes(self, seed):
        h = dsl("map d : 1 -> 1 { y0 = if x0 <= -1 then (if -1 <= x0 then -2 else x0) else x0 }")
        result = scalar_dichotomy(h, ProbeConfig(seed=seed, count=1))
        assert result.kind == "fail" and all(o.passed for o in result.checks)
        assert result.witness.check == "scalar-dichotomy"
        assert dict(result.witness.inputs) == {"r": -1}
        assert revalidate_witness(h, result.witness)

    def test_a_failed_hypothesis_gives_the_witness_first(self):
        h = dsl("map d : 1 -> 1 { y0 = if x0 <= -1 then (if -1 <= x0 then -2 else x0) else x0 }")
        result = scalar_dichotomy(h, ProbeConfig(seed=4, count=1))
        assert result.kind == "fail" and result.witness.check == "additivity"

    def test_requires_a_scalar_map(self):
        with pytest.raises(DimensionMismatch, match="scalar check needs a 1->1 map, got 2->2"):
            scalar_dichotomy(make_linear(identity_matrix(2)), CFG)

    def test_cross_links_hypothesis_checks(self):
        result = scalar_dichotomy(make_linear([[2]]), CFG)
        by_name = {o.check: o for o in result.checks}
        assert not by_name["scalar-multiplicative"].passed
        assert by_name["additivity"].passed


class TestAffineReduce:
    def test_reduction_recovers_linear_part(self):
        a = [[1, 2], [3, 4]]
        g = make_affine(a, vec(5, -1))
        f = affine_reduce(g, (Vector.zero(2), vec(1, 0), vec(0, 1)))
        lin = make_linear(a)
        for x in probe_vectors(2, 50):
            assert f(x) == lin(x)
        assert f(Vector.zero(2)).is_zero()

    def test_linear_map_reduces_to_itself_at_origin(self):
        g = make_linear([[2, 1], [1, 1]])
        f = affine_reduce(g, (Vector.zero(2), vec(1, 0), vec(0, 1)))
        for x in probe_vectors(2, 50):
            assert f(x) == g(x)

    def test_reconstruction_identity(self):
        g = make_affine([[1, 1], [0, 1]], vec(3, 4))
        base = vec(2, 2)
        f = shift_reduce(g, base)
        g0 = g(Vector.zero(2))
        for x in probe_vectors(2, 50):
            assert g(x) == f(x) + g0
        assert check_affine_reconstruction(g, base, CFG).passed

    def test_reconstruction_evaluates_g_at_a_star_and_at_0_once(self):
        g = _CountingMap(dsl("map t : 2 -> 2 { y0 = x0 + 1; y1 = x1 + 1 }"))
        a_star = vec(1, 2)
        assert check_affine_reconstruction(g, a_star, ProbeConfig(seed=0, count=100)).passed
        assert len(g.points) == 202  # g(x) and g(x + a*) per probe, g(a*) and g(0) once
        assert g.points.count(a_star) == 1 and g.points.count(Vector.zero(2)) == 1

    @pytest.mark.parametrize("text, a_star", [
        ("map sq : 2 -> 2 { y0 = x0 * x1 + 1; y1 = x1 }", vec(1, 2)),
        ("map jump : 2 -> 2 { y0 = if x0 <= 3 then x0 + 1 else 2 * x0; y1 = x1 }", vec(5, 0)),
    ])
    def test_reconstruction_witness_is_the_rows_own(self, text, a_star):
        # the same witness as the row's own violation gives, which revalidation calls
        g, cfg = dsl(text), ProbeConfig(seed=4, count=60)
        row = CHECKS["affine-reconstruction"]
        stream = _drawn(lambda g, cfg, s: {"x": from_ints(*s.vector(g.m)), "a*": a_star})
        outcome = check_affine_reconstruction(g, a_star, cfg)
        assert not outcome.passed
        assert outcome == run_check(row, g, cfg, stream)
        assert revalidate_witness(g, outcome.witness)

    def test_reconstruction_eval_error_names_the_probe(self):
        g = dsl("map pole : 1 -> 1 { y0 = x0 + 1 + 0/(x0 - 100) }")
        with pytest.raises(ProbeEvaluationError) as err:
            check_affine_reconstruction(g, vec(100), CFG)
        assert err.value.check == "affine-reconstruction"

    def test_precondition(self):
        g = make_affine([[1, 0], [1, 0]], vec(1, 1))  # rank 1
        with pytest.raises(PreconditionError):
            affine_reduce(g, (Vector.zero(2), vec(1, 0), vec(0, 1)))

    def test_witness_search(self):
        g = make_affine([[1, 2], [3, 4]], vec(1, 1))
        found = find_affine_witnesses(g, CFG)
        assert found is not None
        a_star, a0, a1 = found
        f = affine_reduce(g, found)
        assert f(Vector.zero(2)).is_zero()
        assert find_affine_witnesses(make_affine([[1, 0], [1, 0]], vec(1, 1)), CFG) is None


class _CountingMap(MapHandle):
    """Wraps a handle and records every point it is evaluated at; ``at``
    returns the wrapped handle's row."""

    def __init__(self, g):
        super().__init__(g.m, g.n, g.name)
        self.g, self.points = g, []

    def at(self, nums, den):
        self.points.append(from_ints(nums, den))
        return self.g.at(nums, den)


def _phi_after_the_search(f, cfg):
    ind = find_independence_witness(f, cfg)
    f.points.clear()  # the independence search is not the row's
    return phi_consistency(f, cfg, ind=ind)


class TestEvaluationBudget:
    """Map evaluations of each row at 500 probes over one linear map; a change that
    adds evaluations fails here, not as a benchmark drift."""

    @pytest.mark.parametrize("check, evaluations", [
        (check_homogeneity, 1000),
        (check_additivity, 1500),
        (lambda f, cfg: check_betweenness(f, cfg, "cor43"), 1500),
        (lambda f, cfg: check_betweenness(f, cfg, "prop44"), 1000),
        (check_ratio_preservation, 1491),  # 497 probes, 3 skipped
        (check_parallelism_preservation, 5000),
        (check_line_image, 2500),
        (check_line_injectivity, 2500),
        (check_lines, 2500),  # both line rows from one draw
        (_phi_after_the_search, 1463),
    ], ids=["homogeneity", "additivity", "betweenness-cor43", "betweenness-prop44",
            "ratio-preservation", "parallelism-preservation", "line-image",
            "line-injectivity", "check_lines", "phi-consistency"])
    def test_evaluations_per_row(self, check, evaluations):
        f = _CountingMap(make_linear([[1, 2], [3, 4]]))
        check(f, ProbeConfig(seed=0, count=500))
        assert len(f.points) == evaluations

    @pytest.mark.parametrize("a, b", [(vec(1, 0), vec(0, 1)), (vec(1, 0), vec(2, 0))],
                             ids=["additivity-case1", "additivity-case2"])
    def test_certificate_validate_evaluates_each_stored_point_once(self, a, b):
        g = make_linear([[1, 2], [3, 4]])
        cert = additivity_certificate(g, a, b, (vec(1, 0), vec(0, 1)))
        f = _CountingMap(g)
        assert cert.validate(f) == []
        assert f.points == [inp for _, inp, _ in cert.points]


class TestShiftReduceHandle:
    MAPS = {
        "linear": make_linear([[1, 2], [3, 4]]),
        "affine": make_affine([[1, -1], [Fraction(1, 2), 3]], vec(5, -7)),
        "dsl": make_dsl(parse_map(
            "map warp : 2 -> 2 { y0 = if x0 <= 1 then x0 * x1 else x0 + 5; y1 = x1 / 3 + 1 }"
        )),
        "lemma23": lemma23_default(),
    }

    @pytest.mark.parametrize("kind", sorted(MAPS))
    def test_equals_the_shifted_map_on_random_points(self, kind):
        g = self.MAPS[kind]
        for a_star in [Vector.zero(2)] + probe_vectors(2, 4, seed=7):
            f = shift_reduce(g, a_star)
            assert f.name == f"reduced({g.name})"
            assert (f.m, f.n) == (g.m, g.n)
            assert f(Vector.zero(2)).is_zero()
            for x in probe_vectors(2, 40):
                assert f(x) == g(x + a_star) - g(a_star)

    def test_evaluates_g_at_a_star_once_when_built(self):
        g = _CountingMap(self.MAPS["dsl"])
        a_star = vec(2, Fraction(-1, 3))
        f = shift_reduce(g, a_star)
        assert g.points == [a_star]
        xs = probe_vectors(2, 5)
        for x in xs:
            f(x)
        assert g.points == [a_star] + [x + a_star for x in xs]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_reduction_fixes_the_origin(self, data):
        # at 0 the reduction repeats the evaluation of g(a*) it was built from, so
        # the classifier's reduced pass never finds the origin moved again
        m = data.draw(st.integers(1, 3))
        outputs = data.draw(st.lists(_expr_strategy(m), min_size=1, max_size=2))
        g = dsl(render_map(MapSpec("r", m, len(outputs), tuple(outputs))))
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=8)
        a_star = Vector(data.draw(st.lists(entry, min_size=m, max_size=m)))
        try:
            f = shift_reduce(g, a_star)
        except MapEvalError:  # g has no value at a*
            assume(False)
        assert check_zero_fixed(f).passed


def _affine_case(a, offset, as_dsl):
    if not as_dsl:
        return make_affine(a, offset)
    rows = [
        " + ".join(f"({c})*x{j}" for j, c in enumerate(row)) + f" + ({offset.coords[i]})"
        for i, row in enumerate(a)
    ]
    n, m = len(a), len(a[0])
    body = "; ".join(f"y{i} = {row}" for i, row in enumerate(rows))
    return dsl(f"map h : {m} -> {n} {{ {body} }}")


@st.composite
def _affine_maps(draw):
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    a = [[draw(entry) for _ in range(m)] for _ in range(n)]
    offset = Vector(draw(st.lists(entry, min_size=n, max_size=n)))
    if offset.is_zero():
        offset = Vector.basis(n, 0)
    return _affine_case(a, offset, draw(st.booleans()))


class TestNoFalseRefutationOfAffineMaps:
    """A map with a symbolic affine form is affine, so a Fail of a geometric row,
    or of any row when the offset is zero, would be a checker bug."""

    GEOMETRIC = ("line-image", "line-injectivity", "parallelism-preservation",
                 "ratio-preservation", "betweenness-cor43")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16), count=st.integers(1, 20),
           params=st.integers(3, 5))
    def test_classify_never_refutes_an_affine_dsl_map(self, data, seed, count, params):
        # two or more inputs and outputs, so that line images can span a plane
        m = data.draw(st.integers(2, 3))
        outputs = data.draw(st.lists(_expr_strategy(m), min_size=2, max_size=3))
        h = dsl(render_map(MapSpec("r", m, len(outputs), tuple(outputs))))
        form = h.affine_form()
        assume(form is not None)
        cls = classify_map(h, ProbeConfig(seed=seed, count=count, params_per_line=params),
                           use_symbolic=False)
        assert cls.verdict != "non_linear"
        failed = [o.check for o in cls.outcomes if not o.passed]
        assert not [c for c in failed if c.removeprefix("reduced:") in self.GEOMETRIC]
        if form[1].is_zero():
            assert failed == []


class TestReusedGeometricOutcomes:
    ROWS = ("line-image", "line-injectivity", "parallelism-preservation",
            "ratio-preservation", "betweenness-cor43")

    @settings(max_examples=25, deadline=None)
    @given(h=_affine_maps(), seed=st.integers(0, 2**16), count=st.integers(1, 12),
           params=st.integers(3, 5))
    def test_reused_outcomes_equal_a_fresh_run_on_the_reduction(self, h, seed, count, params):
        cfg = ProbeConfig(seed=seed, count=count, params_per_line=params)
        cls = classify_map(h, cfg, use_symbolic=False)
        if cls.affine_base is None:  # linear part of rank < 2: no reduction
            assert cls.verdict == "inconclusive"
            return
        assert cls.affine_base.is_zero()
        reduced = shift_reduce(h, cls.affine_base)
        fresh = [*check_lines(reduced, cfg), check_parallelism_preservation(reduced, cfg),
                 check_ratio_preservation(reduced, cfg), check_betweenness(reduced, cfg, "cor43")]
        by_name = {o.check: o for o in cls.outcomes}
        assert [o.check for o in fresh] == list(self.ROWS)
        for outcome in fresh:
            name = f"reduced:{outcome.check}"
            assert by_name[name] == dataclasses.replace(outcome, check=name)

    def _count_line_passes(self, monkeypatch):
        calls = []

        def counting(f, cfg):
            calls.append(f.name)
            return check_lines(f, cfg)

        monkeypatch.setattr(engine, "check_lines", counting)
        return calls

    def test_lines_run_once_when_a_star_is_zero(self, monkeypatch):
        calls = self._count_line_passes(monkeypatch)
        g = make_affine([[1, 2], [3, 4]], vec(1, -1))
        c = classify_map(g, CFG, use_symbolic=False)
        assert c.verdict == "empirically_affine" and c.affine_base.is_zero()
        assert calls == ["affine"]

    def test_lines_run_again_when_a_star_is_not_zero(self, monkeypatch):
        calls = self._count_line_passes(monkeypatch)
        a_star = vec(2, -1)
        monkeypatch.setattr(
            engine, "find_affine_witnesses",
            lambda g, cfg: (a_star, a_star + vec(1, 0), a_star + vec(0, 1)),
        )
        g = make_affine([[1, 2], [3, 4]], vec(1, -1))
        c = classify_map(g, CFG, use_symbolic=False)
        assert c.verdict == "empirically_affine" and c.affine_base == a_star
        assert calls == ["affine", "reduced(affine)"]
        assert all(o.passed for o in c.outcomes if o.check.startswith("reduced:")
                   and o.check.removeprefix("reduced:") in self.ROWS)


class TestClassify:
    def test_symbolic_linear(self):
        c = classify_map(dsl("map f : 2 -> 2 { y0 = 2*x0 + x1; y1 = x1 }"), CFG)
        assert c.verdict == "exact_linear"
        assert c.matrix == ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(1)))

    def test_symbolic_affine(self):
        c = classify_map(dsl("map t : 2 -> 2 { y0 = x0 + 1; y1 = x1 + 1 }"), CFG)
        assert c.verdict == "exact_affine"
        assert c.offset == vec(1, 1)

    def test_lemma23_non_linear_with_additivity_witness(self):
        c = classify_map(lemma23_default(), CFG)
        assert c.verdict == "non_linear"
        assert c.witness.check == "additivity"
        assert any("independen" in r for r in c.reasons)

    def test_empirical_linear_without_symbolic(self):
        c = classify_map(make_linear([[1, 2], [3, 4]]), CFG, use_symbolic=False)
        assert c.verdict == "empirically_linear"
        assert c.phi is not None and c.phi.is_identity()
        assert len(c.certificates) >= 3
        kinds = {cert.kind for cert in c.certificates}
        assert "additivity-case1" in kinds and "additivity-case2" in kinds

    def test_empirical_affine_without_symbolic(self):
        g = make_affine([[1, 2], [3, 4]], vec(1, -1))
        c = classify_map(g, CFG, use_symbolic=False)
        assert c.verdict == "empirically_affine"
        assert c.offset == vec(1, -1)
        assert c.affine_base is not None
        assert c.certificate_scope == "reduced"

    def test_rank_one_is_inconclusive(self):
        c = classify_map(make_linear([[1, 0], [1, 0]]), CFG, use_symbolic=False)
        assert c.verdict == "inconclusive"
        assert any("independent images" in r for r in c.reasons)

    def test_planted_betweenness_jump_never_linear_or_affine(self):
        f = dsl(
            "map jump2 : 2 -> 2 { y0 = if x0 <= 1 then x0 else x0 + 5; y1 = x1 }"
        )
        c = classify_map(f, CFG)
        assert c.verdict == "non_linear"
        assert revalidate_witness(f, c.witness)

    def test_division_error_folds_to_inconclusive(self):
        c = classify_map(dsl("map inv : 1 -> 1 { y0 = 1 / x0 }"), CFG)
        assert c.verdict == "inconclusive"
        assert c.reasons == (
            "probe evaluation failed during zero-fixed:"
            " map inv: division by zero in output y0 at input (0)",
        )

    def test_phi_table_json_round_trip(self):
        c = classify_map(make_linear([[1, 2], [3, 4]]), CFG, use_symbolic=False)
        clone = PHI_TABLE.decode(PHI_TABLE.encode(c.phi))
        assert clone == c.phi


_BASE_ROWS = ("zero-fixed", "line-image", "line-injectivity", "parallelism-preservation",
              "ratio-preservation", "betweenness-cor43", "betweenness-prop44", "additivity",
              "homogeneity")


def _outcomes(*failed, ran=(), prefix=""):
    """The base rows of one classifier pass, then ``ran``; a row in ``failed``
    fails with a stand-in witness (the zero-fixed one carries f(0) = (1, 2))."""
    def row(name):
        witness = Witness(name, "eq", (), (("f(0)", vec(1, 2)),)) if name in failed else None
        return CheckOutcome(prefix + name, witness is None, 1, witness)
    return [row(name) for name in _BASE_ROWS + ran]


class TestDecide:
    """The decision table on hand-made outcomes: decide evaluates no map."""
    MOVED = _outcomes("zero-fixed", "additivity", "homogeneity", ran=("affine-reconstruction",))
    CERT = CheckOutcome("certificate", False, 2,
                        Witness("certificate", "images collapse", (), ()))

    @pytest.mark.parametrize("outcomes, independent, want", [
        ([], True, ("inconclusive", None, "primary", ())),
        (_outcomes(), True, ("inconclusive", None, "primary", (
            "no probe pair with linearly independent images; the image looks at most"
            " one-dimensional, where sampling cannot separate linear from merely"
            " line-preserving",))),
        (_outcomes(ran=("phi-consistency",)), True,
         ("empirically_linear", None, "primary", ())),
        (_outcomes("line-image", "additivity"), False,
         ("non_linear", "additivity", "primary", ("origin is fixed but additivity fails",
                                                  "independence hypothesis also unsatisfied: no"
                                                  " probe pair has linearly independent images"))),
        (_outcomes("phi-consistency", ran=("phi-consistency",)), True,
         ("non_linear", "phi-consistency", "primary", ("the scale factor depends on the anchor",))),
        (_outcomes(ran=("phi-consistency",)) + [CERT], True,
         ("non_linear", "certificate", "primary", (
             "additivity certificate construction failed: images collapse",))),
        (_outcomes("zero-fixed", "additivity"), True, ("inconclusive", None, "primary", (
            "origin not fixed and no shift witnesses with independent difference images"
            " were found",))),
        (_outcomes("zero-fixed", "ratio-preservation", "additivity"), True,
         ("non_linear", "ratio-preservation", "primary", ("ratio-preservation fails, which every"
                                                          " affine (hence every linear) map"
                                                          " satisfies",))),
        (MOVED + _outcomes("homogeneity", prefix="reduced:"), False,
         ("non_linear", "homogeneity", "reduced", (
             "the shift-reduced map is not linear", "origin is fixed but homogeneity fails",
             "independence hypothesis also unsatisfied: no probe pair has linearly"
             " independent images"))),
        (MOVED + _outcomes(prefix="reduced:"), True, ("inconclusive", None, "primary", (
            "shift-reduced map stayed inconclusive", "no probe pair with linearly independent"
            " images; the image looks at most one-dimensional, where sampling cannot separate"
            " linear from merely line-preserving"))),
        (MOVED + _outcomes(prefix="reduced:", ran=("phi-consistency",))
         + [dataclasses.replace(CERT, check="reduced:certificate")], True,
         ("non_linear", "certificate", "reduced", ("the shift-reduced map is not linear",
                                                   "additivity certificate construction"
                                                   " failed: images collapse"))),
    ])
    def test_table(self, outcomes, independent, want):
        got = decide(outcomes, independent)
        witness = got["witness"] and got["witness"].check
        assert (got["verdict"], witness, got["witness_scope"], got["reasons"]) == want
        assert (got["offset"], got["certificate_scope"]) == (None, "primary")

    def test_a_moved_origin_that_reduces_to_linear_is_affine_with_the_stored_offset(self):
        got = decide(self.MOVED + _outcomes(prefix="reduced:", ran=("phi-consistency",)))
        assert got == {"verdict": "empirically_affine", "witness": None, "offset": vec(1, 2),
                       "witness_scope": "primary", "certificate_scope": "reduced",
                       "reasons": ()}


class TestClassifyEvaluationErrors:
    HOLE = "map hole : 2 -> 2 { y0 = x0 * (x0 - 1) / (x0 - 1); y1 = x1 }"

    def test_singular_point_outside_the_checks_is_inconclusive(self):
        # at seed 1 every probe check passes; the independence search then
        # evaluates the basis vector (1, 0), where the map divides by zero
        c = classify_map(dsl(self.HOLE), ProbeConfig(seed=1, count=2), use_symbolic=False)
        assert c.verdict == "inconclusive"
        assert c.reasons == (
            "map evaluation failed: map hole: division by zero in output y0 at input (1, 0)",
        )


class TestCrossModuleInvariants:
    def test_exact_linear_matrix_agrees_on_fresh_probes(self):
        f = dsl("map w : 2 -> 2 { y0 = 2*x0 + x1; y1 = x1 - x0 }")
        c = classify_map(f, CFG)
        assert c.verdict == "exact_linear"
        lin = make_linear(c.matrix)
        for x in probe_vectors(2, 200, seed=99):
            assert f(x) == lin(x)

    def test_linear_handles_pass_every_predicate(self):
        from colline.predicates import (
            check_additivity,
            check_betweenness,
            check_homogeneity,
            check_line_image,
            check_line_injectivity,
            check_parallelism_preservation,
            check_ratio_preservation,
            check_zero_fixed,
        )

        f = make_linear([[1, 2], [0, 1]])
        assert check_zero_fixed(f).passed
        for check in (
            check_additivity,
            check_homogeneity,
            check_line_image,
            check_line_injectivity,
            check_parallelism_preservation,
            check_ratio_preservation,
        ):
            assert check(f, CFG).passed, check.__name__
        assert check_betweenness(f, CFG, "cor43").passed
        assert check_betweenness(f, CFG, "prop44").passed

    def test_exact_linear_satisfies_additivity_and_order_property(self):
        from colline.predicates import check_additivity, check_betweenness

        for rows in ([[1, 2], [3, 4]], [[2, 0], [0, 2]], [[0, 1], [1, 0]]):
            f = make_linear(rows)
            assert classify_map(f, CFG).verdict == "exact_linear"
            assert check_additivity(f, CFG).passed
            assert check_betweenness(f, CFG, "prop44").passed
            # the extracted scale table is the identity, hence increasing
            _, table = phi_consistency(f, CFG)
            entries = sorted(table.entries)
            values = [v for _, v in entries]
            assert values == sorted(values)

    def test_certificate_validates_from_stored_data_alone(self):
        f = make_linear(identity_matrix(2))
        cert = additivity_certificate(f, vec(1, 0), vec(2, 0), (vec(1, 0), vec(0, 1)))
        clone = CERTIFICATE.decode(CERTIFICATE.encode(cert))
        assert clone.validate(f) == []
