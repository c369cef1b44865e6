"""Acceptance gate: one test per criterion, exact (zero-tolerance) arithmetic
throughout, with a printed PASS line per criterion (run with -s or -v).

Every expected value here is either fixed by construction (ground-truth map
families built with known rank/kernel) or re-validated through the witness
machinery; nothing is tuned after the fact.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from colline.cli import run
from colline.dsl import parse_map_file, render_map_file
from colline.errors import MapParseError
from colline.field import Vector, matrix_rank
from colline.geometry import Plane
from colline.predicates import (
    ProbeConfig,
    check_betweenness,
    check_additivity,
    check_line_image,
    check_line_injectivity,
    check_lines,
    check_parallelism_preservation,
    check_ratio_preservation,
    check_zero_fixed,
    classify_plane_image,
    find_independence_witness,
    revalidate_witness,
)
from colline.engine import (
    additivity_certificate,
    affine_reduce,
    classify_map,
    find_affine_witnesses,
    phi_consistency,
    scalar_dichotomy,
)
from colline.zoo import make_affine, make_dsl, make_lemma23, make_linear

DATA = Path(__file__).parent / "data" / "parser"

LINEAR_VERDICTS = {"exact_linear", "empirically_linear"}
AFFINE_VERDICTS = {"exact_affine", "empirically_affine"}


def _rand_scalar(rng, bound=12):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _rand_matrix(rng, rows, cols, bound=12):
    return [[_rand_scalar(rng, bound) for _ in range(cols)] for _ in range(rows)]


def _rand_matrix_min_rank(rng, rows, cols, min_rank):
    while True:
        a = _rand_matrix(rng, rows, cols)
        if matrix_rank(tuple(tuple(r) for r in a)) >= min_rank:
            return a


def _rand_vector(rng, dim, bound=12):
    return Vector(_rand_scalar(rng, bound) for _ in range(dim))


def _rand_nonzero_vector(rng, dim, bound=12):
    while True:
        v = _rand_vector(rng, dim, bound)
        if not v.is_zero():
            return v


def test_criterion_1_line_and_ratio_suite_on_random_linear_maps():
    """Sampled line images stay collinear, stay injective when moving, and
    ratios are carried over, for 200 random rational matrices at 500 probes,
    in under 60 seconds."""
    rng = random.Random(101)
    start = time.perf_counter()
    for i in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        f = make_linear(_rand_matrix(rng, n, m))
        cfg = ProbeConfig(seed=i, count=500)
        image, injectivity = check_lines(f, cfg)
        assert image.passed and injectivity.passed
        assert check_ratio_preservation(f, cfg).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"
    print(f"\n[acceptance 1] PASS — 200 maps x 3 checks x 500 probes in {elapsed:.1f}s")


def test_criterion_2_warped_ray_family():
    """50 warped-ray maps: line image/injectivity/zero-fix all pass, every one
    fails additivity with a self-validating witness, and no pair of probe
    images is linearly independent."""
    rng = random.Random(202)
    for i in range(50):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        f = make_lemma23(m, n, None, rng.randrange(m), _rand_nonzero_vector(rng, n))
        cfg = ProbeConfig(seed=1000 + i, count=200)
        assert check_line_image(f, cfg).passed
        assert check_line_injectivity(f, cfg).passed
        assert check_zero_fixed(f).passed
        additivity = check_additivity(f, cfg)
        assert not additivity.passed
        assert revalidate_witness(f, additivity.witness)
        assert find_independence_witness(f, cfg) is None
    print("[acceptance 2] PASS — 50 warped-ray maps behave per the family contract")


def test_criterion_3_certificate_machinery_on_linear_maps():
    """100 linear maps of image rank >= 2: anchor-independent scale factor is
    the identity on every sampled value, 100 certificates (all three cases,
    >= 10 each) self-validate, and the classifier returns the exact verdict
    symbolically and the empirical one with the symbolic path disabled."""
    rng = random.Random(303)
    cfg = ProbeConfig(seed=7, count=100)
    classify_cfg = ProbeConfig(seed=7, count=60)
    case_counts = {"additivity-case1": 0, "additivity-case2": 0, "additivity-case3": 0}
    for i in range(100):
        if i < 70:
            m = rng.randint(2, 4)
            n = rng.randint(2, 4)
            f = make_linear(_rand_matrix_min_rank(rng, n, m, 2))
        else:
            # rank-2 maps from dimension 3 with a one-dimensional kernel,
            # built so the dependent-image case has honest instances
            f = make_linear(_rand_matrix_min_rank(rng, 2, 3, 2))

        outcome, table = phi_consistency(f, cfg)
        assert outcome.passed
        assert table.is_identity()

        ind = find_independence_witness(f, cfg)
        assert ind is not None
        a0, a1 = ind
        if i < 40:
            a, b = a0, a1  # independent images
        elif i < 70:
            a, b = a0, Fraction(2) * a0  # dependent inputs
        else:
            r0, r1 = f.a[0], f.a[1]
            kernel = Vector(
                (
                    r0[1] * r1[2] - r0[2] * r1[1],
                    r0[2] * r1[0] - r0[0] * r1[2],
                    r0[0] * r1[1] - r0[1] * r1[0],
                )
            )
            assert f(kernel).is_zero() and not kernel.is_zero()
            a, b = a0, a0 + kernel  # independent inputs, dependent images
        cert = additivity_certificate(f, a, b, ind)
        assert cert.validate(f) == []
        case_counts[cert.kind] += 1

        assert classify_map(f, classify_cfg).verdict == "exact_linear"
        empirical = classify_map(f, classify_cfg, use_symbolic=False)
        assert empirical.verdict == "empirically_linear"
    assert all(count >= 10 for count in case_counts.values()), case_counts
    print(f"[acceptance 3] PASS — phi identity + 100 certificates {case_counts}")


def test_criterion_4_affine_round_trip_and_planted_violations():
    """100 random affine maps: shift reduction classifies linear and the
    reconstruction g(x) = f(x) + g(0) holds exactly on 200 probes each;
    planted strict-betweenness violations never classify linear or affine."""
    rng = random.Random(404)
    cfg = ProbeConfig(seed=11, count=60)
    for i in range(100):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        a = _rand_matrix_min_rank(rng, n, m, 2)
        g = make_affine(a, _rand_vector(rng, n))
        witnesses = find_affine_witnesses(g, cfg)
        assert witnesses is not None
        reduced = affine_reduce(g, witnesses)
        verdict = classify_map(reduced, cfg).verdict
        assert verdict in LINEAR_VERDICTS
        if i < 10:
            assert classify_map(reduced, cfg, use_symbolic=False).verdict == "empirically_linear"
        g0 = g(Vector.zero(m))
        probe_rng = random.Random(5000 + i)
        for _ in range(200):
            x = _rand_vector(probe_rng, m)
            assert g(x) == reduced(x) + g0

    planted = [
        "map j{k} : 2 -> 2 {{ y0 = if x0 <= {guard} then x0 else x0 + {jump}; y1 = x1 }}".format(
            k=k, guard=guard, jump=jump
        )
        for k, (guard, jump) in enumerate(
            [(1, 5), (0, 1), (-2, 3), (1, -4), (2, 7), ("1/2", "7/2"), (0, 2), (3, 1), (-1, 2), (1, 9)]
        )
    ]
    for text in planted:
        f = make_dsl(parse_map_file(text)[0])
        bet = check_betweenness(f, ProbeConfig(seed=13, count=300), "cor43")
        assert not bet.passed and revalidate_witness(f, bet.witness)
        verdict = classify_map(f, cfg).verdict
        assert verdict not in LINEAR_VERDICTS | AFFINE_VERDICTS
    print("[acceptance 4] PASS — 100 affine round trips + 10 planted violations rejected")


def test_criterion_5_scalar_dichotomy():
    """Scalar maps that are additive and multiplicative can only be zero or
    the identity; scalings by c not in {0, 1} fail with the unit witness."""
    cfg = ProbeConfig(seed=0, count=200)
    assert scalar_dichotomy(make_linear([[1]]), cfg).kind == "identity"
    assert scalar_dichotomy(make_linear([[0]]), cfg).kind == "zero"
    for c in (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)):
        h = make_linear([[c]])
        result = scalar_dichotomy(h, cfg)
        assert result.kind == "fail"
        inputs = dict(result.witness.inputs)
        assert (inputs["r"], inputs["s"]) == (1, 1)
        assert revalidate_witness(h, result.witness)
    print("[acceptance 5] PASS — dichotomy verdicts and unit witnesses as required")


def test_criterion_6_plane_trichotomy_and_parallelism():
    """Plane images classify as point/line/plane matching construction-side
    ground truth on 100 pairs; parallel lines keep parallel images on every
    linear and affine sample."""
    rng = random.Random(606)
    cfg = ProbeConfig(seed=17, count=60)
    handled = 0
    for i in range(100):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        origin = _rand_vector(rng, m)
        while True:
            d1, d2 = _rand_nonzero_vector(rng, m), _rand_nonzero_vector(rng, m)
            try:
                plane = Plane(origin, d1, d2)
                break
            except Exception:
                continue
        family = i % 3
        if family == 0:
            f = make_linear([[Fraction(0)] * m for _ in range(n)])
            expected = "point"
        elif family == 1:
            u = _rand_nonzero_vector(rng, n)
            v = _rand_nonzero_vector(rng, m)
            f = make_linear([[ui * vj for vj in v.coords] for ui in u.coords])
            moving = any(
                sum(vj * dj for vj, dj in zip(v.coords, d.coords)) != 0
                for d in (d1, d2)
            )
            expected = "line" if moving else "point"
        else:
            size = m
            f = make_linear(_rand_matrix_min_rank(rng, size, size, size))
            expected = "plane"
        result = classify_plane_image(f, plane, cfg)
        assert result.shape == expected, (i, expected, result.shape)
        if expected == "plane":
            assert result.injective is True
        handled += 1

        aff = make_affine(f.a, _rand_vector(rng, f.n))
        assert check_parallelism_preservation(f, cfg).passed
        assert check_parallelism_preservation(aff, cfg).passed
    assert handled == 100
    print("[acceptance 6] PASS — 100 plane classifications + parallelism preserved")


def test_criterion_7_parser_corpus():
    """30 valid sources round-trip through render+parse; 20 invalid sources
    report the golden 1-based positions."""
    valid = sorted((DATA / "valid").glob("*.map"))
    assert len(valid) == 30
    for path in valid:
        specs = parse_map_file(path.read_text())
        assert parse_map_file(render_map_file(specs)) == specs

    golden = json.loads((DATA / "expected_errors.json").read_text())
    invalid = sorted((DATA / "invalid").glob("*.map"))
    assert len(invalid) == 20
    for path in invalid:
        expected = golden[path.name]
        with pytest.raises(MapParseError) as err:
            parse_map_file(path.read_text())
        assert (err.value.line, err.value.col) == (expected["line"], expected["col"]), path.name
        assert err.value.message == expected["message"], path.name
    print("[acceptance 7] PASS — 30 valid round-trips, 20 golden error positions")


def test_criterion_8_report_determinism_and_revalidation(tmp_path):
    """Identical argv and inputs give byte-identical reports apart from wall
    time, and every produced report revalidates with exit code 0."""
    maps = tmp_path / "suite.map"
    maps.write_text(
        "map id : 2 -> 2 { y0 = x0; y1 = x1 }\n"
        "map translate : 2 -> 2 { y0 = x0 + 1; y1 = x1 + 1 }\n"
        "map psi : 1 -> 1 { y0 = if x0 <= 0 then x0 else 2*x0 }\n"
        "map jump2 : 2 -> 2 { y0 = if x0 <= 1 then x0 else x0 + 5; y1 = x1 }\n"
    )
    invocations = [
        ["classify", str(maps), "--probes", "80", "--seed", "3"],
        ["classify", str(maps), "--probes", "80", "--seed", "3", "--no-symbolic"],
        ["classify", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)", "--probes", "80"],
        ["check", "ratio", str(maps), "--probes", "80"],
        ["certify", "additivity", str(maps), "--map", "id"],
    ]
    for k, argv in enumerate(invocations):
        texts = []
        for attempt in ("x", "y"):
            out = tmp_path / f"report_{k}_{attempt}.json"
            assert run(argv + ["--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            for report in payload if isinstance(payload, list) else [payload]:
                report["wall_time_ms"] = 0.0
            texts.append(json.dumps(payload, indent=2))
        assert texts[0] == texts[1], f"nondeterministic report for {argv}"
        assert run(["--revalidate", str(tmp_path / f"report_{k}_x.json")]) == 0
    print("[acceptance 8] PASS — deterministic reports, all revalidations exit 0")
