"""Constructive machinery behind the classifier: scale-function extraction,
line-constellation certificates, affine reduction, scalar dichotomy, and the
top-level map classification pipeline.

A certificate is a named set of lines with their image lines plus exact
intersection/parallelism facts, and one table of the evaluations they use;
re-validating those stored facts (and the conclusion equation) witnesses one
additivity or homogeneity instance without re-running the construction. Each
image a fact needs is read from that table, the one place it is stored, and
each entry of the table is re-run on the map.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    MapEvalError,
    PreconditionError,
    ProbeEvaluationError,
    ViolationError,
)
from .field import (
    Matrix,
    Vector,
    _dependent_rows,
    add_rows,
    format_scalar,
    format_vector,
    from_ints,
    linearly_independent,
    same_point,
)
from .geometry import Line, line_through, lines_parallel
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
    an, ad = f.row(a)
    fa_nums, fa_den = f.at(an, ad)
    if not any(fa_nums):
        raise PreconditionError("extract_phi needs an anchor with f(a) != 0")
    fra_nums, fra_den = f.at([r.numerator * x for x in an], r.denominator * ad)
    if not _dependent_rows(fra_nums, fa_nums):
        witness = CHECKS["phi-extract"].witness(
            {"a": a, "r": r},
            {"f(a)": from_ints(fa_nums, fa_den), "f(r*a)": from_ints(fra_nums, fra_den)})
        raise ViolationError(
            f"images of the line through 0 and {a} are not collinear", witness
        )
    # f(r·a) = s·f(a): s is the ratio of the two rows at f(a)'s first nonzero entry
    for j, x in enumerate(fa_nums):
        if x:
            return Fraction(fra_nums[j] * fa_den, x * fra_den)


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
    """Finite table r → φ(r), every entry witnessed by the one anchor vector."""

    entries: tuple[tuple[Fraction, Fraction], ...]
    anchor: Vector

    def is_identity(self) -> bool:
        return all(val == key for key, val in self.entries)

    def validate(self, f: MapHandle) -> list[str]:
        failures = []
        for r, phi in self.entries:
            try:
                holds = extract_phi(f, self.anchor, r) == phi
            except PreconditionError:
                failures.append(f"anchor {self.anchor} has f(a) = 0")
                break
            except ViolationError:
                holds = False
            if not holds:
                failures.append(
                    f"entry phi({format_scalar(r)}) = {format_scalar(phi)} fails its anchor"
                )
        table = dict(self.entries)
        if table.get(0, 0) != 0:
            failures.append("phi(0) != 0")
        if table.get(1, 1) != 1:
            failures.append("phi(1) != 1")
        return failures


def _violation_phi_consistency(f: MapHandle, inp: dict):
    try:
        phi_a, phi_other = (extract_phi(f, a, inp["r"]) for a in (inp["a"], inp["a'"]))
    except PreconditionError:  # f(a) = 0 or f(a') = 0: no scale factor to compare
        return _SKIP
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
    fa0 = f.at(*f.row(a0))[0]
    sampler = _Sampler(cfg)
    n = max(4, math.isqrt(cfg.count))
    rs = [Fraction(0), Fraction(1), Fraction(-1)]
    while len(rs) < n:
        rs.append(sampler.scalar())
    rs = list(dict.fromkeys(rs))
    anchors = [a0, a1]
    while len(anchors) < n:
        anchors.append(from_ints(*sampler.vector(f.m)))

    def stream(f: MapHandle, cfg: ProbeConfig):
        for a in anchors:
            try:
                fa = f.at(*f.row(a))[0]
            except MapEvalError as exc:
                raise ProbeEvaluationError(row.name, {"a": a}, exc) from exc
            if not any(fa):  # no scale factor at this anchor: one skip
                yield None
                continue
            other = a1 if _dependent_rows(fa, fa0) else a0
            for r in rs:
                yield {"a": a, "a'": other, "r": r}

    outcome = run_check(row, f, cfg, stream)
    if not outcome.passed:
        return outcome, None
    return outcome, PhiTable(tuple((r, extract_phi(f, a0, r)) for r in rs), a0)


# -- certificates ------------------------------------------------------------------


@dataclass(frozen=True)
class CertLine:
    name: str
    line: Line
    image: Optional[Line]
    anchors: tuple[Vector, ...]


@dataclass(frozen=True)
class PointFact:
    lines: tuple[str, ...]
    point: Vector


@dataclass(frozen=True)
class ParallelFact:
    lines: tuple[str, ...]


@dataclass(frozen=True)
class Equation:
    """The images of the ``lhs`` points sum to ``scale`` times the sum of the
    images of the ``rhs`` points; an empty side is 0."""
    label: str
    lhs: tuple[Vector, ...]
    rhs: tuple[Vector, ...]
    scale: Fraction


@dataclass(frozen=True)
class Certificate:
    kind: str
    lines: tuple[CertLine, ...]
    intersections: tuple[PointFact, ...]
    parallels: tuple[ParallelFact, ...]
    points: tuple[tuple[str, Vector, Vector], ...]  # (label, input, image)
    equations: tuple[Equation, ...]
    conclusion: str
    note: str = ""

    def validate(self, f: MapHandle) -> list[str]:
        """Re-check every stored fact and re-run every stored evaluation on f;
        an empty list means the certificate holds. Each image an anchor, an
        intersection point or an equation needs is read from ``points``, its one
        store: a point with no entry there fails, and is still checked on its
        lines."""
        by_name = {cl.name: cl for cl in self.lines}
        image_of = {inp: img for _, inp, img in self.points}
        used = [a for cl in self.lines for a in cl.anchors] + [x.point for x in self.intersections]
        used += [p for eq in self.equations for p in eq.lhs + eq.rhs]
        failures = [f"no stored evaluation of {p}" for p in dict.fromkeys(used)
                    if p not in image_of]
        for cl in self.lines:
            if len(set(cl.anchors)) != len(cl.anchors):
                failures.append(f"{cl.name}: an anchor is repeated")
            for anchor in cl.anchors:
                if not cl.line.contains(anchor):
                    failures.append(f"{cl.name}: anchor {anchor} off the line")
                img = image_of.get(anchor)
                if cl.image is not None and img is not None and not cl.image.contains(img):
                    failures.append(f"{cl.name}: anchor image {img} off the image line")
        for fact in self.intersections:
            names = fact.lines
            img = image_of.get(fact.point)
            for name in names:
                cl = by_name.get(name)
                if cl is None:
                    failures.append(f"unknown line {name} in intersection fact")
                    continue
                if not cl.line.contains(fact.point):
                    failures.append(f"{name} does not contain {fact.point}")
                if cl.image is not None and img is not None and not cl.image.contains(img):
                    failures.append(f"image of {name} does not contain {img}")
            # distinct domain lines sharing the point pin the intersection to
            # exactly that point; image lines may legitimately coincide (maps
            # with dependent images send several lines into one).
            for n1, n2 in itertools.combinations(names, 2):
                c1, c2 = by_name.get(n1), by_name.get(n2)
                if c1 is not None and c2 is not None and c1.line == c2.line:
                    failures.append(f"{n1} and {n2} are the same line")
        for fact in self.parallels:  # a one-line group states only that its line exists
            if not by_name.keys() >= set(fact.lines):
                failures.append("unknown line in parallel fact")
                continue
            for n1, n2 in itertools.combinations(fact.lines, 2):
                c1, c2 = by_name[n1], by_name[n2]
                if not lines_parallel(c1.line, c2.line):
                    failures.append(f"{n1} and {n2} are not parallel")
                if c1.image is not None and c2.image is not None:
                    if not lines_parallel(c1.image, c2.image):
                        failures.append(f"images of {n1} and {n2} are not parallel")
        for eq in self.equations:  # lhs images − scale·rhs images, summed as one integer row
            p, q = -eq.scale.numerator, eq.scale.denominator
            try:
                terms = [(img.nums, img.den) for img in map(image_of.__getitem__, eq.lhs)]
                terms += [([p * a for a in img.nums], q * img.den)
                          for img in map(image_of.__getitem__, eq.rhs)]
            except KeyError:  # failed above, as a point with no stored evaluation
                continue
            if terms and any(functools.reduce(add_rows, terms)[0]):
                failures.append(f"equation fails: {eq.label}")
        for label, inp, img in self.points:
            if not same_point(f.at(*f.row(inp)), (img.nums, img.den)):
                failures.append(f"stored evaluation of {label} is stale")
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
        witness = CHECKS["certificate"].witness(self.construction_inputs, {"failing fact": message})
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
                    cl, anchors=tuple(dict.fromkeys(cl.anchors + (p, q))))
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
        self._lines.append(CertLine(name, line, image, (p, q)))
        return name

    def point_fact(self, names: list[str], point: Vector) -> None:
        bucket = self._point_facts.setdefault(point, [])
        for name in names:
            if name not in bucket:
                bucket.append(name)
        self.eval(point)

    def parallel_fact(self, name1: str, name2: str) -> None:
        self._parallel_pairs.append((name1, name2))

    def equation(self, label: str, lhs: tuple, rhs: tuple, scale=Fraction(1)) -> None:
        for p in lhs + rhs:  # every point an equation names is stored in `points`
            self.eval(p)
        self._equations.setdefault(label, Equation(label, lhs, rhs, scale))

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
            facts.append(ParallelFact(tuple(members)))
        return facts

    def seal(self) -> Certificate:
        order = [cl.name for cl in self._lines]
        intersections = tuple(
            PointFact(tuple(sorted(names, key=order.index)), point)
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
    zero = Vector.zero(u.dim)
    w = u + v
    fu, fv, _ = builder.eval(u), builder.eval(v), builder.eval(w)  # points: u, v, u+v first
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
    builder.equation("f(0) = 0", (zero,), ())
    builder.equation(
        f"f({builder.label(w)}) = f({builder.label(u)}) + f({builder.label(v)})", (w,), (u, v))


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
    s = extract_phi(f, a, r)  # f(r·a) = s·f(a), and b must share the scale factor s
    builder.equation("f(r*a) = s*f(a)", (ra,), (a,), s)
    builder.equation("f(r*b) = s*f(b)", (rb,), (b,), s)
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
        builder.equation("f(0) = 0", (Vector.zero(f.m),), ())
        builder.equation(conclusion, (w,), (a, b))
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
            builder.equation("f(a) = 0", (a,), ())
            builder.equation("f(b) = 0", (b,), ())
            builder.equation("f(0) = 0", (Vector.zero(f.m),), ())
            builder.equation(conclusion, (w,), (a, b))
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
        builder.equation(f"f({builder.label(z)}) = 0", (z,), ())
        builder.equation(f"f(a+b) = f({builder.label(nz)})", (w,), (nz,))
        builder.equation(conclusion, (w,), (a, b))
        return builder.seal()

    helper = _pick_helper(f, fa, ind)
    builder = base_builder("additivity-case3")
    return _chained_certificate(builder, a, b, helper)


def _chained_certificate(builder: _CertBuilder, a: Vector, b: Vector, helper: Vector) -> Certificate:
    w = a + b
    builder.label(helper, "ai")
    builder.label(helper + a, "ai+a")
    builder.label(helper + a + b, "ai+a+b")
    _pgram(builder, helper, a)
    _pgram(builder, helper + a, b)
    if not w.is_zero():
        _pgram(builder, helper, w)
    builder.equation("f(a+b) = f(a) + f(b)", (w,), (a, b))
    return builder.seal()


def _collapsing_plane_certificate(builder: _CertBuilder, a: Vector, b: Vector) -> Certificate:
    """Both summands vanish under f: the transversal through p0 = 2a and
    p1 = 2b, whose midpoint is a+b, meets the two collapsed rays at points
    with equal images, so f(a+b) vanishes too."""
    zero = Vector.zero(a.dim)
    w = a + b
    p0, p1 = 2 * a, 2 * b
    builder.note = "both images vanish; the plane through 0, a, b collapses"
    la = builder.add_line(a, zero, with_image=False)
    lb = builder.add_line(b, zero, with_image=False)
    lt = builder.add_line(p0, p1, with_image=False)
    builder.label(p0, "p0")
    builder.label(p1, "p1")
    builder.point_fact([la, lb], zero)
    builder.point_fact([la, lt], p0)
    builder.point_fact([lb, lt], p1)
    builder.point_fact([lt], w)
    for p, name in ((a, "a"), (b, "b"), (p0, "p0"), (p1, "p1"), (zero, "0")):
        builder.equation(f"f({name}) = 0", (p,), ())
    builder.equation("f(a+b) = f(a) + f(b)", (w,), (a, b))
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
    checks = (  # the first raises DimensionMismatch unless h is 1->1
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
        ga = g(a_star)  # an a* of the wrong dim raises here
        self.g, self.a_star, self.ga = g, a_star, (ga.nums, ga.den)

    def _shifted(self, nums, den):  # the row of x + a*, over den·a*.den
        a = self.a_star
        return [p * a.den + q * den for p, q in zip(nums, a.nums)], den * a.den

    def at(self, nums, den):
        return add_rows(self.g.at(*self._shifted(nums, den)), self.ga, -1)

    def line_at(self, origin, direction, params):
        # the line through the shifted origin has the shifted points, row for row
        return [add_rows(image, self.ga, -1)
                for image in self.g.line_at(self._shifted(*origin), direction, params)]


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
    lhs = g(inp["x"])
    rhs = shift_reduce(g, inp["a*"])(inp["x"]) + g(Vector.zero(g.m))
    if lhs != rhs:
        return {"g(x)": lhs, "f(x) + g(0)": rhs}
    return None


def check_affine_reconstruction(g: MapHandle, a_star: Vector, cfg: ProbeConfig) -> CheckOutcome:
    """g(x) must equal the shift-reduced map at x plus g(0), exactly.

    g(a*) and g(0) are evaluated once, at the first probe; a failed probe, and
    any probe with another a*, is judged by the row's own violation."""
    row, fixed = CHECKS["affine-reconstruction"], []

    def violation(g: MapHandle, inp: dict):
        if inp["a*"] == a_star:
            gx = g(inp["x"])
            fixed[:] = fixed or (shift_reduce(g, a_star), g(Vector.zero(g.m)))
            if gx == fixed[0](inp["x"]) + fixed[1]:
                return None
        return row.violation(g, inp)

    return run_check(dataclasses.replace(row, violation=violation), g, cfg,
                     _drawn(lambda g, cfg, s: {"x": from_ints(*s.vector(g.m)), "a*": a_star}))


def find_affine_witnesses(
    g: MapHandle, cfg: ProbeConfig
) -> Optional[tuple[Vector, Vector, Vector]]:
    """First (a*, a0*, a1*) whose shifted images are linearly independent."""
    sampler = _Sampler(cfg)
    bases = [Vector.zero(g.m)]
    for _ in range(8):
        bases.append(from_ints(*sampler.vector(g.m)))
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
VERDICTS = (VERDICT_EXACT_LINEAR, VERDICT_EXACT_AFFINE, VERDICT_EMP_LINEAR, VERDICT_EMP_AFFINE,
            VERDICT_NON_LINEAR, VERDICT_INCONCLUSIVE)


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

    def __post_init__(self):  # a witness comes with non_linear only, a φ table with empirically_*
        witnessed = self.verdict == VERDICT_NON_LINEAR
        if (self.verdict not in VERDICTS or (self.witness is not None) != witnessed
                or self.verdict.startswith("empirically_") and self.phi is None):
            raise ValueError(f"verdict {self.verdict!r} is unknown or disagrees with its evidence")


def _certificate_pairs(ind: tuple[Vector, Vector], cfg: ProbeConfig, dim: int):
    (a0, a1), sampler = ind, _Sampler(cfg)
    return [(a0, a1), (a0, Fraction(2) * a0), (a1, -a1), (a0 + a1, a0 - a1),
            (from_ints(*sampler.vector(dim)), from_ints(*sampler.vector(dim)))]


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
_FAIL_REASONS = {  # templates of the reason; a certificate's names its failing fact
    "phi-consistency": "the scale factor depends on the anchor",
    "certificate": "additivity certificate construction failed: {equation}",
    "affine-reconstruction": "the map disagrees with its own shift reduction plus g(0)",
}
# the one reason that states a fact no outcome holds, so --revalidate reads it back
REASON_NOT_INDEPENDENT = ("independence hypothesis also unsatisfied: no probe pair has"
                          " linearly independent images")


def decide(outcomes, independent: bool = True) -> dict:
    """The verdict, witness, offset, scopes and reasons that the outcomes of
    one classifier run support, as keywords of ``Classification``; it evaluates
    no map. One fact is not an outcome: ``independent``, whether a pair with
    independent images was found, which only adds a reason. A ``certificate``
    row, read after ``phi-consistency``, is an additivity certificate that
    failed to build. A map that moves the origin is decided again from its
    ``reduced:`` rows."""
    def out(verdict, *reasons, **kw):
        return {"verdict": verdict, "witness": None, "offset": None, "witness_scope": "primary",
                "certificate_scope": "primary", "reasons": reasons, **kw}

    def first_failure(order, *reached):  # every row of order ran; the others if reached
        rows = [by_name[name] for name in order] + [by_name[n] for n in reached if n in by_name]
        return next((o for o in rows if not o.passed), None)

    by_name = {o.check: o for o in outcomes}
    if "zero-fixed" not in by_name:  # an evaluation error stopped the run
        return out(VERDICT_INCONCLUSIVE)
    if by_name["zero-fixed"].passed:
        failed = first_failure(_FIXED_ORIGIN_ORDER, "phi-consistency", "certificate")
        if failed is not None:
            return out(VERDICT_NON_LINEAR,
                       _FAIL_REASONS.get(failed.check, f"origin is fixed but {failed.check} fails")
                       .format(equation=failed.witness.equation),
                       *() if independent else (REASON_NOT_INDEPENDENT,),
                       witness=failed.witness)
        if "phi-consistency" not in by_name:
            return out(VERDICT_INCONCLUSIVE, "no probe pair with linearly independent images;"
                       " the image looks at most one-dimensional, where sampling cannot"
                       " separate linear from merely line-preserving")
        return out(VERDICT_EMP_LINEAR)
    failed = first_failure(_MOVED_ORIGIN_ORDER, "affine-reconstruction")
    if failed is not None:
        return out(VERDICT_NON_LINEAR, _FAIL_REASONS.get(
            failed.check, f"{failed.check} fails, which every affine (hence every linear)"
            " map satisfies"), witness=failed.witness)
    if "affine-reconstruction" not in by_name:
        return out(VERDICT_INCONCLUSIVE, "origin not fixed and no shift witnesses with"
                   " independent difference images were found")
    sub = decide([dataclasses.replace(o, check=o.check[len("reduced:"):]) for o in outcomes
                  if o.check.startswith("reduced:")], independent)
    if sub["verdict"] == VERDICT_EMP_LINEAR:
        return out(VERDICT_EMP_AFFINE, offset=dict(by_name["zero-fixed"].witness.values)["f(0)"],
                   certificate_scope="reduced")
    if sub["verdict"] == VERDICT_NON_LINEAR:
        return out(VERDICT_NON_LINEAR, "the shift-reduced map is not linear", *sub["reasons"],
                   witness=sub["witness"], witness_scope="reduced")
    return out(VERDICT_INCONCLUSIVE, "shift-reduced map stayed inconclusive", *sub["reasons"])


def _geometric_outcomes(h: MapHandle, cfg: ProbeConfig) -> list[CheckOutcome]:
    return [*check_lines(h, cfg), check_parallelism_preservation(h, cfg),
            check_ratio_preservation(h, cfg), check_betweenness(h, cfg, "cor43")]


def _run_stages(h: MapHandle, cfg: ProbeConfig,
                geometric: Optional[list[CheckOutcome]] = None) -> dict:
    """Probe h stage by stage while no row fails; the evidence for ``decide``
    and ``Classification``. A map that moves the origin is probed through its
    shift reduction, which fixes it, so the reduction recurses only once.

    A constant added to h changes no outcome of ``_geometric_outcomes``, and the
    reduction at a* = 0, x ↦ h(x) − h(0), probes the points h passed, so it gets
    h's outcomes as ``geometric``. ``zero-fixed`` still runs first, so errors name the same row."""
    outcomes = [check_zero_fixed(h), *(geometric or _geometric_outcomes(h, cfg)),
                check_betweenness(h, cfg, "prop44"), check_additivity(h, cfg),
                check_homogeneity(h, cfg)]
    found = {"outcomes": outcomes, "independent": True}
    if outcomes[0].passed:
        ind = find_independence_witness(h, cfg)
        found["independent"] = ind is not None
        if ind is None or not all(o.passed for o in outcomes):
            return found
        phi_outcome, phi = phi_consistency(h, cfg, ind=ind)
        outcomes.append(phi_outcome)
        if phi is None:
            return found
        certificates, skipped = [], 0
        for a, b in _certificate_pairs(ind, cfg, h.m):
            try:
                certificates.append(additivity_certificate(h, a, b, ind))
            except ViolationError as exc:  # the one certificate row: a failed build
                outcomes.append(CheckOutcome("certificate", False, len(certificates) + 1,
                                             exc.witness, skipped))
                return found
            except PreconditionError:
                skipped += 1
        return {**found, "certificates": tuple(certificates), "phi": phi}
    if not all(o.passed for o in outcomes[1:6]):  # the _MOVED_ORIGIN_ORDER rows
        return found
    witnesses = find_affine_witnesses(h, cfg)
    if witnesses is None:
        return found
    a_star = found["affine_base"] = witnesses[0]
    outcomes.append(check_affine_reconstruction(h, a_star, cfg))
    if outcomes[-1].passed:
        sub = _run_stages(affine_reduce(h, witnesses), cfg,
                          outcomes[1:6] if a_star.is_zero() else None)
        outcomes.extend(dataclasses.replace(o, check=f"reduced:{o.check}")
                        for o in sub.pop("outcomes"))
        found.update(sub)
    return found


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
        found = _run_stages(h, cfg)
    except ProbeEvaluationError as exc:
        return Classification(VERDICT_INCONCLUSIVE, reasons=(
            f"probe evaluation failed during {exc.check}: {exc.cause}",))
    except MapEvalError as exc:  # raised outside the probe checks, e.g. by a search
        return Classification(VERDICT_INCONCLUSIVE, reasons=(f"map evaluation failed: {exc}",))
    outcomes = tuple(found.pop("outcomes"))
    decided = decide(outcomes, found.pop("independent"))
    return Classification(outcomes=outcomes, **decided, **found)
