"""Constructive machinery behind the classifier: scale-function extraction,
line-constellation certificates, affine reduction, scalar dichotomy, and the
top-level map classification pipeline.

A certificate is a named set of lines with their image lines plus exact
intersection/parallelism facts; re-validating those stored facts (and the
conclusion equation) witnesses one additivity or homogeneity instance
without re-running the construction.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DimensionMismatch,
    MapEvalError,
    PreconditionError,
    ProbeEvaluationError,
    ViolationError,
)
from .field import (
    Matrix,
    Vector,
    add_rows,
    collinearity_scalar,
    format_scalar,
    format_vector,
    linearly_independent,
)
from .geometry import Line, line_through, lines_parallel, crossing_line
from .predicates import (
    CHECKS,
    Check,
    CheckOutcome,
    ProbeConfig,
    Witness,
    _basis_then_sampled_pairs,
    _drawn,
    _Sampler,
    _SKIP,
    _scalar_eval,
    _scalar_sweep,
    check_additivity,
    check_betweenness,
    check_homogeneity,
    check_line_image,  # not called here; bench/test_bench.py patches this binding
    check_lines,
    check_parallelism_preservation,
    check_ratio_preservation,
    check_scalar_monotone,
    check_scalar_multiplicative,
    check_zero_fixed,
    find_independence_witness,
    run_check,
)
from .zoo import MapHandle


# -- scale-function extraction ---------------------------------------------------


def extract_phi(f: MapHandle, a: Vector, r) -> Fraction:
    """The scalar s with f(r·a) = s·f(a); requires f(a) ≠ 0.

    Non-collinear images mean f sends the line through 0 and a outside every
    single output line; that violation is raised with its witness.
    """
    r = Fraction(r)
    fa = f(a)
    if fa.is_zero():
        raise PreconditionError("extract_phi needs an anchor with f(a) != 0")
    fra = f(r * a)
    s = collinearity_scalar(fra, fa)
    if s is None:
        witness = CHECKS["phi-extract"].witness({"a": a, "r": r}, {"f(a)": fa, "f(r*a)": fra})
        raise ViolationError(
            f"images of the line through 0 and {a} are not collinear", witness
        )
    return s


def _violation_phi_extract(f: MapHandle, inp: dict):
    try:
        extract_phi(f, inp["a"], inp["r"])
    except PreconditionError:
        return _SKIP
    except ViolationError as exc:
        return dict(exc.witness.values)
    return None


@dataclass(frozen=True)
class PhiTable:
    """Finite table r → φ(r) with the anchor vector witnessing each entry."""

    entries: tuple[tuple[Fraction, Fraction], ...]
    anchors: tuple[tuple[Fraction, Vector], ...]

    def value(self, r) -> Optional[Fraction]:
        r = Fraction(r)
        for key, val in self.entries:
            if key == r:
                return val
        return None

    def is_identity(self) -> bool:
        return all(val == key for key, val in self.entries)

    def validate(self, f: MapHandle) -> list[str]:
        failures = []
        anchor_of = dict(self.anchors)
        for r, phi in self.entries:
            a = anchor_of.get(r)
            if a is None:
                failures.append(f"no anchor recorded for r = {format_scalar(r)}")
                continue
            fa = f(a)
            if fa.is_zero():
                failures.append(f"anchor for r = {format_scalar(r)} has f(a) = 0")
                continue
            if f(r * a) != phi * fa:
                failures.append(
                    f"entry phi({format_scalar(r)}) = {format_scalar(phi)} fails its anchor"
                )
        zero_val = self.value(0)
        if zero_val is not None and zero_val != 0:
            failures.append("phi(0) != 0")
        one_val = self.value(1)
        if one_val is not None and one_val != 1:
            failures.append("phi(1) != 1")
        return failures


def _phi_table(f: MapHandle, anchor: Vector, keys) -> PhiTable:
    """The table r → φ(r) read off the ray through ``anchor``, in first-seen key order."""
    fa = f(anchor)
    table: dict[Fraction, Fraction] = {}
    for r in keys:
        if r not in table:
            table[r] = collinearity_scalar(f(r * anchor), fa)
    return PhiTable(tuple(table.items()), tuple((r, anchor) for r in table))


def _violation_phi_consistency(f: MapHandle, inp: dict):
    a, other, r = inp["a"], inp["a'"], inp["r"]
    if f(a).is_zero() or f(other).is_zero():
        return _SKIP
    try:
        phi_a = extract_phi(f, a, r)
        phi_other = extract_phi(f, other, r)
    except ViolationError as exc:
        return dict(exc.witness.values)
    if phi_a != phi_other:
        return {"phi0(a,r)": phi_a, "phi0(a',r)": phi_other}
    return None


def phi_consistency(
    f: MapHandle, cfg: ProbeConfig, ind: Optional[tuple[Vector, Vector]] = None
) -> tuple[CheckOutcome, Optional[PhiTable]]:
    """Check that the extracted scale factor does not depend on the anchor.

    Every sampled anchor is compared, at every sampled r, against the one
    independence witness whose image is independent of the anchor's image;
    the first anchor is a0 itself, so a0 is compared against a1 first.  Pass
    returns the r → φ(r) table sourced at a0.
    """
    row = CHECKS["phi-consistency"]
    if ind is None:
        ind = find_independence_witness(f, cfg)
    if ind is None:
        raise PreconditionError(
            "phi_consistency needs a pair with linearly independent images; "
            "run find_independence_witness first"
        )
    a0, a1 = ind
    fa0 = f(a0)
    sampler = _Sampler(cfg)
    n = max(4, math.isqrt(cfg.count))
    rs = [Fraction(0), Fraction(1), Fraction(-1)]
    while len(rs) < n:
        rs.append(sampler.scalar())
    rs = list(dict.fromkeys(rs))
    anchors = [a0, a1]
    while len(anchors) < n:
        anchors.append(sampler.vector(f.m))

    def stream(f: MapHandle, cfg: ProbeConfig):
        for a in anchors:
            try:
                fa = f(a)
            except MapEvalError as exc:
                raise ProbeEvaluationError(row.name, {"a": a}, exc) from exc
            if fa.is_zero():  # no scale factor at this anchor: one skip
                yield None
                continue
            other = a0 if linearly_independent(fa, fa0) else a1
            for r in rs:
                yield {"a": a, "a'": other, "r": r}

    outcome = run_check(row, f, cfg, stream)
    return outcome, _phi_table(f, a0, rs) if outcome.passed else None


# -- certificates ------------------------------------------------------------------


@dataclass(frozen=True)
class CertLine:
    name: str
    line: Line
    image: Optional[Line]
    anchors: tuple[Vector, ...]
    anchor_images: tuple[Vector, ...]


@dataclass(frozen=True)
class PointFact:
    lines: tuple[str, ...]
    point: Vector
    image_point: Vector


@dataclass(frozen=True)
class ParallelFact:
    lines: tuple[str, ...]
    equal: bool = False


@dataclass(frozen=True)
class Equation:
    label: str
    lhs: object  # Vector or Fraction
    rhs: object


@dataclass(frozen=True)
class Certificate:
    kind: str
    lines: tuple[CertLine, ...]
    intersections: tuple[PointFact, ...]
    parallels: tuple[ParallelFact, ...]
    points: tuple[tuple[str, Vector, Vector], ...]  # (label, input, image)
    equations: tuple[Equation, ...]
    conclusion: str
    holds: bool
    note: str = ""

    def validate(self, f: MapHandle) -> list[str]:
        """Re-check every stored fact and re-run every stored evaluation on f;
        an empty list means the certificate holds."""
        failures: list[str] = []
        by_name = {cl.name: cl for cl in self.lines}
        for cl in self.lines:
            for anchor, img in zip(cl.anchors, cl.anchor_images):
                if not cl.line.contains(anchor):
                    failures.append(f"{cl.name}: anchor {anchor} off the line")
                if cl.image is not None and not cl.image.contains(img):
                    failures.append(f"{cl.name}: anchor image {img} off the image line")
        for fact in self.intersections:
            names = fact.lines
            for name in names:
                cl = by_name.get(name)
                if cl is None:
                    failures.append(f"unknown line {name} in intersection fact")
                    continue
                if not cl.line.contains(fact.point):
                    failures.append(f"{name} does not contain {fact.point}")
                if cl.image is not None and not cl.image.contains(fact.image_point):
                    failures.append(
                        f"image of {name} does not contain {fact.image_point}"
                    )
            # distinct domain lines sharing the point pin the intersection to
            # exactly that point; image lines may legitimately coincide (maps
            # with dependent images send several lines into one).
            for n1, n2 in itertools.combinations(names, 2):
                c1, c2 = by_name.get(n1), by_name.get(n2)
                if c1 is not None and c2 is not None and c1.line == c2.line:
                    failures.append(f"{n1} and {n2} are the same line")
        for fact in self.parallels:
            for n1, n2 in itertools.combinations(fact.lines, 2):
                c1, c2 = by_name.get(n1), by_name.get(n2)
                if c1 is None or c2 is None:
                    failures.append("unknown line in parallel fact")
                    continue
                if not lines_parallel(c1.line, c2.line):
                    failures.append(f"{n1} and {n2} are not parallel")
                if c1.image is not None and c2.image is not None:
                    if not lines_parallel(c1.image, c2.image):
                        failures.append(f"images of {n1} and {n2} are not parallel")
        for eq in self.equations:
            if eq.lhs != eq.rhs:
                failures.append(f"equation fails: {eq.label}")
        for label, inp, img in self.points:
            if f(inp) != img:
                failures.append(f"stored evaluation of {label} is stale")
        if not self.holds:
            failures.append("certificate is marked as not holding")
        return failures


class _CertBuilder:
    """Accumulates named lines, facts, and equations, then seals a Certificate.

    Lines are deduplicated extensionally; re-adding a line verifies that the
    new anchors' images stay on the stored image line, which is exactly the
    "one input line, one output line" discipline the certificates rely on.
    """

    def __init__(self, f: MapHandle, kind: str, conclusion: str,
                 construction_inputs: dict):
        self.f = f
        self.kind = kind
        self.conclusion = conclusion
        self.construction_inputs = construction_inputs
        self._evals: dict[Vector, Vector] = {}
        self._labels: dict[Vector, str] = {}
        self._lines: list[CertLine] = []
        self._point_facts: dict[Vector, list[str]] = {}
        self._parallel_pairs: list[tuple[str, str]] = []
        self._equations: dict[str, Equation] = {}
        self.note = ""

    def eval(self, p: Vector) -> Vector:
        if p not in self._evals:
            self._evals[p] = self.f(p)
        return self._evals[p]

    def label(self, p: Vector, name: Optional[str] = None) -> str:
        if name is not None:
            self._labels.setdefault(p, name)
        return self._labels.get(p, format_vector(p))

    def violation(self, message: str) -> ViolationError:
        witness = CHECKS["certificate"].witness(
            self.construction_inputs, {"failing fact": message}, message
        )
        return ViolationError(message, witness)

    def add_line(self, p: Vector, q: Vector, with_image: bool = True) -> str:
        if p == q:
            raise self.violation(f"degenerate construction line through {p} twice")
        line = line_through(p, q)
        fp, fq = self.eval(p), self.eval(q)
        for i, cl in enumerate(self._lines):
            if cl.line == line:
                if cl.image is not None:
                    for pt, img in ((p, fp), (q, fq)):
                        if not cl.image.contains(img):
                            raise self.violation(
                                f"map sends {self.label(pt)} off the image line of {cl.name}"
                            )
                self._lines[i] = dataclasses.replace(
                    cl, anchors=cl.anchors + (p, q), anchor_images=cl.anchor_images + (fp, fq)
                )
                return cl.name
        image = None
        if with_image:
            if fp == fq:
                raise self.violation(
                    f"image of the line through {self.label(p)} and {self.label(q)}"
                    " collapses to a point"
                )
            image = line_through(fp, fq)
        name = f"L{len(self._lines)}"
        self._lines.append(CertLine(name, line, image, (p, q), (fp, fq)))
        return name

    def point_fact(self, names: list[str], point: Vector) -> None:
        bucket = self._point_facts.setdefault(point, [])
        for name in names:
            if name not in bucket:
                bucket.append(name)
        self.eval(point)

    def parallel_fact(self, name1: str, name2: str) -> None:
        self._parallel_pairs.append((name1, name2))

    def equation(self, label: str, lhs, rhs) -> None:
        self._equations.setdefault(label, Equation(label, lhs, rhs))

    def _merge_parallel_groups(self) -> list[ParallelFact]:
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for n1, n2 in self._parallel_pairs:
            if n1 != n2:
                parent[find(n1)] = find(n2)
        groups: dict[str, list[str]] = {}
        order = [cl.name for cl in self._lines]
        for n1, n2 in self._parallel_pairs:
            for n in (n1, n2):
                root = find(n)
                groups.setdefault(root, [])
                if n not in groups[root]:
                    groups[root].append(n)
        facts = []
        for root in sorted(groups, key=order.index):
            members = sorted(groups[root], key=order.index)
            facts.append(ParallelFact(tuple(members), equal=len(members) == 1))
        return facts

    def seal(self) -> Certificate:
        order = [cl.name for cl in self._lines]
        intersections = tuple(
            PointFact(tuple(sorted(names, key=order.index)), point, self.eval(point))
            for point, names in self._point_facts.items()
        )
        points = tuple(
            (self.label(p), p, img)
            for p, img in self._evals.items()
        )
        cert = Certificate(
            kind=self.kind,
            lines=tuple(self._lines),
            intersections=intersections,
            parallels=tuple(self._merge_parallel_groups()),
            points=points,
            equations=tuple(self._equations.values()),
            conclusion=self.conclusion,
            holds=True,
            note=self.note,
        )
        failures = cert.validate(self.f)
        if failures:
            raise self.violation(failures[0])
        return cert


def _pgram(builder: _CertBuilder, u: Vector, v: Vector) -> None:
    """Four-line constellation certifying f(u+v) = f(u) + f(v) for a pair
    with independent images: the two sides through 0 and the two translated
    sides through u+v, with both parallelisms carried to the images."""
    f = builder.f
    zero = Vector.zero(u.dim)
    w = u + v
    fu, fv, fw = builder.eval(u), builder.eval(v), builder.eval(w)
    if u.is_zero() or v.is_zero():
        raise builder.violation("parallelogram needs nonzero summands")
    if not linearly_independent(fu, fv):
        raise builder.violation(
            f"images of {builder.label(u)} and {builder.label(v)} are dependent"
        )
    if not linearly_independent(u, v):
        raise builder.violation(
            f"{builder.label(u)} and {builder.label(v)} are dependent"
            " while their images are independent"
        )
    p0 = builder.add_line(u, zero)
    p1 = builder.add_line(v, zero)
    p2 = builder.add_line(u, w)
    p3 = builder.add_line(v, w)
    builder.point_fact([p0, p1], zero)
    builder.point_fact([p0, p2], u)
    builder.point_fact([p1, p3], v)
    builder.point_fact([p2, p3], w)
    builder.parallel_fact(p0, p3)
    builder.parallel_fact(p1, p2)
    fzero = builder.eval(zero)
    builder.equation("f(0) = 0", fzero, Vector.zero(f.n))
    builder.equation(
        f"f({builder.label(w)}) = f({builder.label(u)}) + f({builder.label(v)})",
        fw,
        fu + fv,
    )


def homogeneity_certificate(f: MapHandle, a: Vector, b: Vector, r) -> Certificate:
    """Four-line constellation forcing the scale factors of a and b at r to
    agree: both rays from 0, the chord a‾b, and its scaled copy ra‾rb."""
    r = Fraction(r)
    fa, fb = f(a), f(b)
    if not linearly_independent(fa, fb):
        raise PreconditionError("homogeneity certificate needs independent images")
    if r == 0:
        raise PreconditionError("homogeneity certificate needs r != 0")
    if a.is_zero() or b.is_zero():
        raise PreconditionError("homogeneity certificate needs nonzero a and b")
    inputs = {"kind": "homogeneity", "a": a, "b": b, "r": r}
    builder = _CertBuilder(
        f, "homogeneity", "phi0(a, r) = phi0(b, r)", inputs
    )
    zero = Vector.zero(f.m)
    ra, rb = r * a, r * b
    builder.label(zero, "0")
    builder.label(a, "a")
    builder.label(b, "b")
    builder.label(ra, "r*a")
    builder.label(rb, "r*b")
    if not linearly_independent(a, b):
        raise builder.violation("a and b are dependent while their images are independent")
    l0 = builder.add_line(a, zero)
    l1 = builder.add_line(b, zero)
    l2 = builder.add_line(a, b)
    l3 = builder.add_line(ra, rb)
    builder.point_fact([l0, l1], zero)
    builder.point_fact([l0, l2], a)
    builder.point_fact([l1, l2], b)
    builder.point_fact([l0, l3], ra)
    builder.point_fact([l1, l3], rb)
    builder.parallel_fact(l2, l3)
    phi_a = extract_phi(f, a, r)
    phi_b = extract_phi(f, b, r)
    builder.equation("phi0(a, r) = phi0(b, r)", phi_a, phi_b)
    return builder.seal()


def _pick_helper(f: MapHandle, fa: Vector, ind: Optional[tuple[Vector, Vector]]):
    if ind is None:
        raise PreconditionError(
            "this additivity case needs an independence witness pair"
        )
    a0, a1 = ind
    if not linearly_independent(f(a0), f(a1)):
        raise PreconditionError("supplied witness pair does not have independent images")
    for cand in (a0, a1):
        if linearly_independent(f(cand), fa):
            return cand
    raise PreconditionError("no witness with image independent of f(a)")


def additivity_certificate(
    f: MapHandle, a: Vector, b: Vector, ind: Optional[tuple[Vector, Vector]] = None
) -> Certificate:
    """Line-constellation certificate for f(a+b) = f(a) + f(b).

    Routing mirrors the constructive argument: independent images use one
    parallelogram; a helper point with independent image chains three
    parallelograms when a, b are dependent, or independent with dependent
    images; zero images dispatch to the collapsing-line scenarios.
    """
    fa, fb = f(a), f(b)
    w = a + b
    inputs: dict = {"kind": "additivity", "a": a, "b": b}
    if ind is not None:
        inputs["i0"], inputs["i1"] = ind
    conclusion = "f(a+b) = f(a) + f(b)"

    def base_builder(kind: str) -> _CertBuilder:
        builder = _CertBuilder(f, kind, conclusion, inputs)
        builder.label(Vector.zero(f.m), "0")
        builder.label(a, "a")
        builder.label(b, "b")
        builder.label(w, "a+b")
        return builder

    if a.is_zero() or b.is_zero():
        builder = base_builder("additivity-case2")
        builder.note = "degenerate: one summand is zero, so the identity is zero-fixedness"
        fzero = builder.eval(Vector.zero(f.m))
        builder.equation("f(0) = 0", fzero, Vector.zero(f.n))
        builder.equation(conclusion, builder.eval(w), fa + fb)
        return builder.seal()

    if linearly_independent(fa, fb):
        builder = base_builder("additivity-case1")
        _pgram(builder, a, b)
        return builder.seal()

    if not linearly_independent(a, b):
        if fa.is_zero() or fb.is_zero():
            builder = base_builder("additivity-case2")
            builder.note = (
                "a and b span one line through 0 whose image collapses to the origin"
            )
            builder.equation("f(a) = 0", fa, Vector.zero(f.n))
            builder.equation("f(b) = 0", fb, Vector.zero(f.n))
            builder.equation("f(0) = 0", builder.eval(Vector.zero(f.m)), Vector.zero(f.n))
            builder.equation(conclusion, builder.eval(w), fa + fb)
            return builder.seal()
        helper = _pick_helper(f, fa, ind)
        builder = base_builder("additivity-case2")
        return _chained_certificate(builder, a, b, helper)

    if fa.is_zero() and fb.is_zero():
        return _collapsing_plane_certificate(base_builder("additivity-case3"), a, b)

    if fa.is_zero() or fb.is_zero():
        z, nz = (a, b) if fa.is_zero() else (b, a)
        builder = base_builder("lemma32")
        builder.note = (
            "one summand is sent to the origin while the other is not;"
            " the translated line must keep the nonzero value"
        )
        builder.equation(f"f({builder.label(z)}) = 0", builder.eval(z), Vector.zero(f.n))
        builder.equation(
            f"f(a+b) = f({builder.label(nz)})", builder.eval(w), builder.eval(nz)
        )
        builder.equation(conclusion, builder.eval(w), fa + fb)
        return builder.seal()

    helper = _pick_helper(f, fa, ind)
    builder = base_builder("additivity-case3")
    return _chained_certificate(builder, a, b, helper)


def _chained_certificate(builder: _CertBuilder, a: Vector, b: Vector, helper: Vector) -> Certificate:
    f = builder.f
    w = a + b
    builder.label(helper, "ai")
    builder.label(helper + a, "ai+a")
    builder.label(helper + a + b, "ai+a+b")
    _pgram(builder, helper, a)
    _pgram(builder, helper + a, b)
    if not w.is_zero():
        _pgram(builder, helper, w)
    builder.equation(
        "f(a+b) = f(a) + f(b)", builder.eval(w), builder.eval(a) + builder.eval(b)
    )
    return builder.seal()


def _collapsing_plane_certificate(builder: _CertBuilder, a: Vector, b: Vector) -> Certificate:
    """Both summands vanish under f: a transversal line through a+b meets the
    two collapsed rays at points with equal images, so f(a+b) vanishes too."""
    f = builder.f
    zero = Vector.zero(f.m)
    w = a + b
    builder.note = "both images vanish; the plane through 0, a, b collapses"
    ray_a = Line(zero, a)
    ray_b = Line(zero, b)
    cross = crossing_line(w, ray_a, ray_b)
    if cross is None:
        raise builder.violation("no transversal line through a+b exists")
    la = builder.add_line(a, zero, with_image=False)
    lb = builder.add_line(b, zero, with_image=False)
    lt = builder.add_line(cross.on_l0, cross.on_l1, with_image=False)
    builder.label(cross.on_l0, "p0")
    builder.label(cross.on_l1, "p1")
    builder.point_fact([la, lb], zero)
    builder.point_fact([la, lt], cross.on_l0)
    builder.point_fact([lb, lt], cross.on_l1)
    builder.point_fact([lt], w)
    zero_out = Vector.zero(f.n)
    builder.equation("f(a) = 0", builder.eval(a), zero_out)
    builder.equation("f(b) = 0", builder.eval(b), zero_out)
    builder.equation("f(p0) = 0", builder.eval(cross.on_l0), zero_out)
    builder.equation("f(p1) = 0", builder.eval(cross.on_l1), zero_out)
    builder.equation("f(0) = 0", builder.eval(zero), zero_out)
    builder.equation(
        "f(a+b) = f(a) + f(b)", builder.eval(w), builder.eval(a) + builder.eval(b)
    )
    return builder.seal()


def _violation_certificate(f: MapHandle, inp: dict):
    kind = inp["kind"]
    ind = (inp["i0"], inp["i1"]) if "i0" in inp else None
    try:
        if kind == "homogeneity":
            homogeneity_certificate(f, inp["a"], inp["b"], inp["r"])
        else:
            additivity_certificate(f, inp["a"], inp["b"], ind)
    except ViolationError as exc:
        return {"failing fact": str(exc)}
    except PreconditionError:
        return _SKIP
    return None


# -- scalar dichotomy -----------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyResult:
    kind: str  # "zero" | "identity" | "fail"
    witness: Optional[Witness]
    checks: tuple[CheckOutcome, ...]


def _violation_scalar_dichotomy(f: MapHandle, inp: dict):
    r = inp["r"]
    val = _scalar_eval(f, r)
    if val != 0 and val != r:
        return {"h(r)": val}
    return None


def scalar_dichotomy(h: MapHandle, cfg: ProbeConfig) -> DichotomyResult:
    """A multiplicative additive scalar map can only be zero or the identity;
    report which, or fail with the witness of the broken hypothesis."""
    if h.m != 1 or h.n != 1:
        raise DimensionMismatch(f"scalar_dichotomy needs a 1->1 map, got {h.m}->{h.n}")
    checks = (
        check_scalar_multiplicative(h, cfg),
        check_additivity(h, cfg),
        check_scalar_monotone(h, cfg),
    )
    values = _scalar_sweep(h, cfg)
    if values and all(v == 0 for v in values.values()):
        return DichotomyResult("zero", None, checks)
    if values and all(v == r for r, v in values.items()):
        return DichotomyResult("identity", None, checks)
    witness = None
    for outcome in checks:
        if not outcome.passed:
            witness = outcome.witness
            break
    if witness is None:
        r = next(r for r, v in values.items() if v != 0 and v != r)
        row = CHECKS["scalar-dichotomy"]
        witness = row.shrunk_witness(h, {"r": r})
    return DichotomyResult("fail", witness, checks)


# -- affine reduction -----------------------------------------------------------------


class _ShiftReduced(MapHandle):
    def __init__(self, g: MapHandle, a_star: Vector):
        super().__init__(m=g.m, n=g.n, name=f"reduced({g.name})")
        self.g, self.a_star, self.ga = g, a_star, g(a_star)  # an a* of the wrong dim raises here

    def at(self, nums, den):
        a, ga = self.a_star, self.ga  # x + a* over den·a*.den
        image = self.g.at([p * a.den + q * den for p, q in zip(nums, a.nums)], den * a.den)
        return add_rows(image, (ga.nums, ga.den), -1)


def shift_reduce(g: MapHandle, a_star: Vector) -> MapHandle:
    """The handle x ↦ g(x + a*) − g(a*), which fixes the origin by construction.

    It shifts g's images by a constant, which no row that compares images only
    with one another can see; at a* = 0 it also probes g's own points."""
    return _ShiftReduced(g, a_star)


def affine_reduce(g: MapHandle, witnesses: tuple[Vector, Vector, Vector]) -> MapHandle:
    """``shift_reduce`` at a*, given witness differences g(a0*) − g(a*) and
    g(a1*) − g(a*) that are linearly independent: they are the reduced map's
    images of a0* − a* and a1* − a*."""
    a_star, a0, a1 = witnesses
    reduced = shift_reduce(g, a_star)
    if not linearly_independent(reduced(a0 - a_star), reduced(a1 - a_star)):
        raise PreconditionError(
            "affine_reduce needs witnesses with independent shifted images"
        )
    return reduced


def _violation_affine_reconstruction(g: MapHandle, inp: dict):
    x, a_star = inp["x"], inp["a*"]
    lhs = g(x)
    rhs = (g(x + a_star) - g(a_star)) + g(Vector.zero(g.m))
    if lhs != rhs:
        return {"g(x)": lhs, "f(x) + g(0)": rhs}
    return None


def check_affine_reconstruction(
    g: MapHandle, a_star: Vector, cfg: ProbeConfig
) -> CheckOutcome:
    """g(x) must equal the shift-reduced map at x plus g(0), exactly."""
    return run_check(
        CHECKS["affine-reconstruction"], g, cfg,
        _drawn(lambda g, cfg, s: {"x": s.vector(g.m), "a*": a_star}),
    )


def find_affine_witnesses(
    g: MapHandle, cfg: ProbeConfig
) -> Optional[tuple[Vector, Vector, Vector]]:
    """First (a*, a0*, a1*) whose shifted images are linearly independent."""
    sampler = _Sampler(cfg)
    bases = [Vector.zero(g.m)]
    for _ in range(8):
        bases.append(sampler.vector(g.m))
    for a_star in bases:
        ga = g(a_star)
        for x, y in _basis_then_sampled_pairs(sampler, g.m, max(1, cfg.count // len(bases))):
            if linearly_independent(g(x) - ga, g(y) - ga):
                return a_star, x, y
    return None


# -- the engine's rows of the check table ---------------------------------------------

CHECKS.update((row.name, row) for row in (
    Check("phi-extract", "f(r*a) lies on the line spanned by f(a)", _violation_phi_extract),
    Check("phi-consistency", "phi0(a, r) is independent of the anchor a",
          _violation_phi_consistency),
    # a certificate witness states the failing fact as its equation
    Check("certificate", "the line constellation re-validates", _violation_certificate),
    Check("scalar-dichotomy", "h(r) = 0 for all r, or h(r) = r for all r",
          _violation_scalar_dichotomy),
    Check("affine-reconstruction", "g(x) = f(x) + g(0) for the shift-reduced f",
          _violation_affine_reconstruction),
))


# -- classification ---------------------------------------------------------------------

VERDICT_EXACT_LINEAR = "exact_linear"
VERDICT_EXACT_AFFINE = "exact_affine"
VERDICT_EMP_LINEAR = "empirically_linear"
VERDICT_EMP_AFFINE = "empirically_affine"
VERDICT_NON_LINEAR = "non_linear"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Classification:
    verdict: str
    matrix: Optional[Matrix] = None
    offset: Optional[Vector] = None
    witness: Optional[Witness] = None
    reasons: tuple[str, ...] = ()
    outcomes: tuple[CheckOutcome, ...] = ()
    certificates: tuple[Certificate, ...] = ()
    phi: Optional[PhiTable] = None
    affine_base: Optional[Vector] = None
    # which map the witness/certificates talk about: the map itself, or its
    # shift reduction (classification of a non-zero-fixed map goes through it)
    witness_scope: str = "primary"
    certificate_scope: str = "primary"


def _certificate_pairs(ind: tuple[Vector, Vector], cfg: ProbeConfig, dim: int):
    a0, a1 = ind
    sampler = _Sampler(cfg)
    pairs = [
        (a0, a1),
        (a0, Fraction(2) * a0),
        (a1, -a1),
        (a0 + a1, a0 - a1),
    ]
    pairs.append((sampler.vector(dim), sampler.vector(dim)))
    return pairs


# failure precedence: with the origin fixed, the defining identities come
# first so their witnesses lead the report; with the origin moved, only the
# geometric checks, which bind every affine map, are terminal
_FIXED_ORIGIN_ORDER = (
    "additivity", "homogeneity", "betweenness-prop44", "line-image", "line-injectivity",
    "parallelism-preservation", "ratio-preservation", "betweenness-cor43",
)
_MOVED_ORIGIN_ORDER = (
    "line-image", "line-injectivity", "parallelism-preservation", "ratio-preservation",
    "betweenness-cor43",
)


def _geometric_outcomes(h: MapHandle, cfg: ProbeConfig) -> list[CheckOutcome]:
    return [*check_lines(h, cfg), check_parallelism_preservation(h, cfg),
            check_ratio_preservation(h, cfg), check_betweenness(h, cfg, "cor43")]


def _classify_empirical(h: MapHandle, cfg: ProbeConfig, depth: int = 0,
                        geometric: Optional[list[CheckOutcome]] = None) -> Classification:
    """Classify h from probes; its shift reduction is classified at depth 1.

    A constant added to h changes no outcome of ``_geometric_outcomes``, and the
    reduction at a* = 0, x ↦ h(x) − h(0), probes the points h passed, so it gets
    h's outcomes as ``geometric``. ``zero-fixed`` still runs first, so errors name the same row."""
    outcomes = [
        check_zero_fixed(h),
        *(geometric or _geometric_outcomes(h, cfg)),
        check_betweenness(h, cfg, "prop44"),
        check_additivity(h, cfg),
        check_homogeneity(h, cfg),
    ]
    by_name = {o.check: o for o in outcomes}

    def first_failure(order) -> Optional[CheckOutcome]:
        return next((by_name[name] for name in order if not by_name[name].passed), None)

    def done(**kw) -> Classification:
        return Classification(outcomes=tuple(outcomes), **kw)

    if by_name["zero-fixed"].passed:
        failed = first_failure(_FIXED_ORIGIN_ORDER)
        if failed is not None:
            reasons = [f"origin is fixed but {failed.check} fails"]
            if find_independence_witness(h, cfg) is None:
                reasons.append(
                    "independence hypothesis also unsatisfied: no probe pair has"
                    " linearly independent images"
                )
            return done(
                verdict=VERDICT_NON_LINEAR,
                witness=failed.witness,
                reasons=tuple(reasons),
            )
        ind = find_independence_witness(h, cfg)
        if ind is None:
            return done(
                verdict=VERDICT_INCONCLUSIVE,
                reasons=(
                    "no probe pair with linearly independent images;"
                    " the image looks at most one-dimensional, where sampling"
                    " cannot separate linear from merely line-preserving",
                ),
            )
        phi_outcome, phi_table = phi_consistency(h, cfg, ind=ind)
        outcomes.append(phi_outcome)
        if not phi_outcome.passed:
            return done(
                verdict=VERDICT_NON_LINEAR,
                witness=phi_outcome.witness,
                reasons=("the scale factor depends on the anchor",),
            )
        certificates = []
        for pair in _certificate_pairs(ind, cfg, h.m):
            try:
                certificates.append(additivity_certificate(h, pair[0], pair[1], ind))
            except ViolationError as exc:
                return done(
                    verdict=VERDICT_NON_LINEAR,
                    witness=exc.witness,
                    reasons=(f"additivity certificate construction failed: {exc}",),
                )
            except PreconditionError:
                continue
        return done(
            verdict=VERDICT_EMP_LINEAR,
            certificates=tuple(certificates),
            phi=phi_table,
        )

    # origin not fixed: additivity/homogeneity failures are expected
    failed = first_failure(_MOVED_ORIGIN_ORDER)
    if failed is not None:
        return done(
            verdict=VERDICT_NON_LINEAR,
            witness=failed.witness,
            reasons=(
                f"{failed.check} fails, which every affine (hence every"
                " linear) map satisfies",
            ),
        )
    if depth > 0:
        return done(
            verdict=VERDICT_INCONCLUSIVE,
            reasons=("shift-reduced map does not fix the origin; reduction is unsound",),
        )
    witnesses = find_affine_witnesses(h, cfg)
    if witnesses is None:
        return done(
            verdict=VERDICT_INCONCLUSIVE,
            reasons=(
                "origin not fixed and no shift witnesses with independent"
                " difference images were found",
            ),
        )
    a_star = witnesses[0]
    recon = check_affine_reconstruction(h, a_star, cfg)
    outcomes.append(recon)
    if not recon.passed:
        return done(
            verdict=VERDICT_NON_LINEAR,
            witness=recon.witness,
            reasons=("the map disagrees with its own shift reduction plus g(0)",),
            affine_base=a_star,
        )
    reduced = affine_reduce(h, witnesses)
    reused = outcomes[1:6] if a_star.is_zero() else None  # the _MOVED_ORIGIN_ORDER rows
    sub = _classify_empirical(reduced, cfg, depth=depth + 1, geometric=reused)
    outcomes.extend(
        dataclasses.replace(o, check=f"reduced:{o.check}") for o in sub.outcomes
    )
    if sub.verdict == VERDICT_EMP_LINEAR:
        return done(
            verdict=VERDICT_EMP_AFFINE,
            offset=h(Vector.zero(h.m)),
            certificates=sub.certificates,
            phi=sub.phi,
            affine_base=a_star,
            certificate_scope="reduced",
        )
    if sub.verdict == VERDICT_NON_LINEAR:
        return done(
            verdict=VERDICT_NON_LINEAR,
            witness=sub.witness,
            reasons=("the shift-reduced map is not linear",) + sub.reasons,
            affine_base=a_star,
            witness_scope="reduced",
        )
    return done(
        verdict=VERDICT_INCONCLUSIVE,
        reasons=("shift-reduced map stayed inconclusive",) + sub.reasons,
        affine_base=a_star,
    )


def classify_map(h: MapHandle, cfg: ProbeConfig, use_symbolic: bool = True) -> Classification:
    """Classify a map handle.

    The symbolic fast path yields exact verdicts from structural knowledge
    only; everything else runs the falsification suite and can at best return
    an empirical verdict or a witnessed refutation.
    """
    if use_symbolic:
        form = h.affine_form()
        if form is not None:
            a, b = form
            if b.is_zero():
                return Classification(VERDICT_EXACT_LINEAR, matrix=a, offset=b)
            return Classification(VERDICT_EXACT_AFFINE, matrix=a, offset=b)
    try:
        return _classify_empirical(h, cfg)
    except ProbeEvaluationError as exc:
        reason = f"probe evaluation failed during {exc.check}: {exc.cause}"
    except MapEvalError as exc:  # raised outside the probe checks, e.g. by a search
        reason = f"map evaluation failed: {exc}"
    return Classification(VERDICT_INCONCLUSIVE, reasons=(reason,))
