import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colline import engine
from colline.dsl import parse_map
from colline.errors import PreconditionError, ProbeEvaluationError, ViolationError
from colline.field import Vector, from_ints, identity_matrix
from colline.predicates import (
    ProbeConfig,
    check_betweenness,
    check_lines,
    check_parallelism_preservation,
    check_ratio_preservation,
    revalidate_witness,
    _Sampler,
)
from colline.engine import (
    additivity_certificate,
    affine_reduce,
    check_affine_reconstruction,
    classify_map,
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

CFG = ProbeConfig(seed=0, count=150)


def vec(*values):
    return Vector.of(*values)


def dsl(text):
    return make_dsl(parse_map(text))


def lemma23_default():
    return make_lemma23(2, 2, None, 0, vec(0, 1))


def probe_vectors(dim, count, seed=3):
    sampler = _Sampler(ProbeConfig(seed=seed, count=count))
    return [sampler.vector(dim) for _ in range(count)]


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
        assert cert.holds and cert.kind == "homogeneity"
        (eq,) = [e for e in cert.equations if "phi0" in e.label]
        assert eq.lhs == 2 and eq.rhs == 2
        assert cert.validate(f) == []

    def test_shear_conclusion(self):
        f = make_linear([[1, 1], [0, 1]])
        cert = homogeneity_certificate(f, vec(1, 0), vec(0, 1), 3)
        (eq,) = [e for e in cert.equations if "phi0" in e.label]
        assert eq.lhs == 3 and eq.rhs == 3
        assert cert.validate(f) == []

    def test_unit_scale_merges_chord_lines(self):
        f = make_linear(identity_matrix(2))
        cert = homogeneity_certificate(f, vec(1, 0), vec(0, 1), 1)
        assert len(cert.lines) == 3  # chord and its copy coincide
        assert any(fact.equal for fact in cert.parallels)
        assert cert.validate(f) == []

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
        assert CERTIFICATE.decode(obj).validate(f) != []


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
