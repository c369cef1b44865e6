"""Exact falsification checkers for map hypotheses.

A Pass verdict means "no counterexample among the probes run" (the probe
count is part of the verdict); a Fail verdict carries an exact witness that
re-evaluates to a genuine violation with zero tolerance.  Probe streams are
fully determined by the ProbeConfig, so identical (map, config) pairs yield
identical outcomes, including witness identity.

Witnesses are minimized by repeatedly halving coordinate numerators while
the violation persists (at most 64 times per scalar), which keeps regression
fixtures readable.  ``classify`` draws each line probe once for both line
rows (``check_lines``).  The sampler draws points, lines and line parameters
as unreduced integer rows and (p, q) pairs, and the rows that draw them
decide on those and on the rows ``MapHandle.at`` returns.  The Vector, Line
or Fraction a witness stores is built once, when a probe fails.  The ratio
row draws its scalars as (p, q) pairs and judges integer rows, but evaluates
its map on Vectors.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional

from .errors import (
    CollineError,
    DegenerateGeometry,
    DimensionMismatch,
    MapEvalError,
    ProbeEvaluationError,
)
from .field import (Row, Vector, _dependent_rows, _diff_rows, _line_rank, _ratio, add_rows,
                    affine_rank, from_ints, same_point)
from .geometry import (Line, Plane, dividing_row, in_interval_rows, line_point_row,
                       line_through)
from .zoo import MapHandle


#: Largest probe count accepted; a larger stream would not end in reasonable time.
MAX_PROBES = 10**6
#: Largest number of parameters per sampled line; each one is a point to evaluate.
MAX_PARAMS_PER_LINE = 10**4
#: Largest count × params_per_line: the points one line check may evaluate.
MAX_LINE_POINTS = MAX_PROBES * 5


@dataclass(frozen=True)
class ProbeConfig:
    """Deterministic probe stream parameters."""

    seed: int = 0
    count: int = 500
    coordinate_range: int = 12
    params_per_line: int = 5

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("probe count must be positive")
        if self.count > MAX_PROBES:
            raise ValueError(f"probe count must be at most {MAX_PROBES}")
        if self.coordinate_range < 1:
            raise ValueError("coordinate range must be positive")
        if self.params_per_line < 3:
            raise ValueError("params_per_line must be at least 3")
        if self.params_per_line > MAX_PARAMS_PER_LINE:
            raise ValueError(f"params_per_line must be at most {MAX_PARAMS_PER_LINE}")
        if self.count * self.params_per_line > MAX_LINE_POINTS:
            raise ValueError(f"probe count * params_per_line must be at most {MAX_LINE_POINTS}")


@dataclass(frozen=True)
class Witness:
    """Named exact inputs plus both sides of the violated equation."""

    check: str
    equation: str
    inputs: tuple[tuple[str, object], ...]
    values: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class CheckOutcome:
    """Pass(probes run) or Fail(witness); skips are counted separately."""

    check: str
    passed: bool
    probes: int
    witness: Optional[Witness] = None
    skipped: int = 0

    def __post_init__(self):  # a Fail has a witness and a Pass none; counts are ints >= 0
        counts_ok = all(type(n) is int and n >= 0 for n in (self.probes, self.skipped))
        if (self.witness is None) != self.passed or not counts_ok:
            raise ValueError(f"outcome {self.check} disagrees with its witness or its counts")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


class _PointRow(tuple):
    """A drawn point (nums, den), over the lcm of its drawn denominators, unreduced."""
    __slots__ = ()


class _LineRows(tuple):
    """A drawn line as its (origin, direction) ``_PointRow``s, the direction nonzero."""
    __slots__ = ()


class _ParamPairs(tuple):
    """Drawn line parameters as (p, q) pairs, q > 0, unreduced."""
    __slots__ = ()


class _ScalarPair(tuple):
    """A drawn scalar as its (p, q) pair, q > 0, unreduced."""
    __slots__ = ()


#: The parameters every sampled line starts with, before its drawn ones.
_FIXED_PARAMS = ((0, 1), (1, 1), (-1, 1))


class _Sampler:
    """Seeded probe generator; scalars are p/q with |p| ≤ R, 1 ≤ q ≤ R.

    Stream contract: every draw equals what ``random.Random(seed).randint``
    gives on the same seed, call for call; a scalar is ``randint(-R, R)``
    over ``randint(1, R)``.  The draws skip ``randint`` but make its
    ``getrandbits`` calls: ``randint(a, b)`` is a + r, where r is the first
    ``getrandbits(k)`` below n = b − a + 1 and k = n.bit_length().

    Points, lines, line parameters and the ratio row's scalars are drawn as
    unreduced rows and (p, q) pairs (``_canonical_inputs`` builds a witness's
    values); ``scalar`` draws a Fraction.
    """

    def __init__(self, cfg: ProbeConfig):
        self.rng = random.Random(cfg.seed)
        self.range = r = cfg.coordinate_range
        self._bits = self.rng.getrandbits
        # (k, n) of the numerator range [-R, R] and the denominator range [1, R]
        self._num = ((2 * r + 1).bit_length(), 2 * r + 1)
        self._den = (r.bit_length(), r)

    def _pair(self) -> tuple[int, int]:
        """(p, q) as ``randint(-R, R), randint(1, R)`` would draw them."""
        bits = self._bits
        k, n = self._num
        p = bits(k)
        while p >= n:
            p = bits(k)
        k, n = self._den
        q = bits(k)
        while q >= n:
            q = bits(k)
        return p - self.range, q + 1

    def scalar(self) -> Fraction:
        return Fraction(*self._pair())

    def nonzero_scalar(self) -> Fraction:
        while True:
            s = self.scalar()
            if s != 0:
                return s

    def vector(self, dim: int) -> _PointRow:
        # dim ``_pair`` draws, inlined: the same getrandbits calls in the same order
        bits, r = self._bits, self.range
        kp, np_ = self._num
        kq, nq = self._den
        ps, qs = [], []
        for _ in range(dim):
            p = bits(kp)
            while p >= np_:
                p = bits(kp)
            q = bits(kq)
            while q >= nq:
                q = bits(kq)
            ps.append(p - r)
            qs.append(q + 1)
        den = lcm(*qs)
        return _PointRow(([p * (den // q) for p, q in zip(ps, qs)], den))

    def nonzero_vector(self, dim: int) -> _PointRow:
        while True:
            v = self.vector(dim)
            if any(v[0]):
                return v

    def line(self, dim: int) -> _LineRows:
        return _LineRows((self.vector(dim), self.nonzero_vector(dim)))

    def params(self, k: int) -> _ParamPairs:
        pair = self._pair
        return _ParamPairs(_FIXED_PARAMS + tuple(pair() for _ in range(k - 3)))

    def _below(self, n: int) -> int:
        """The r of ``randint(a, a + n - 1)``: the first draw below n."""
        bits, k = self._bits, n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def unit_interval(self) -> tuple[int, int]:
        """(p, q) with 0 < p/q < 1: randint(2, max(2, R)), then randint(1, q - 1)."""
        q = 2 + self._below(max(2, self.range) - 1)
        return 1 + self._below(q - 1), q


#: The value a witness stores for each kind of drawn input
_CANONICAL = {
    _PointRow: lambda row: from_ints(*row),
    _LineRows: lambda rows: Line(*(from_ints(*row) for row in rows)),
    _ParamPairs: lambda pairs: tuple(Fraction(p, q) for p, q in pairs),
    _ScalarPair: lambda pair: Fraction(*pair),
}


def _canonical_inputs(inputs: dict) -> dict:
    """The inputs with each drawn one built as the value a witness stores."""
    return {name: _CANONICAL[type(v)](v) if type(v) in _CANONICAL else v
            for name, v in inputs.items()}


_SKIP = object()


def _trunc_half(n: int) -> int:
    return (abs(n) // 2) * (1 if n > 0 else -1)


def _scalars(val) -> tuple:
    """The scalars a witness value is made of, in shrinking order; () for a
    value the shrinker leaves alone."""
    if isinstance(val, Fraction):
        return (val,)
    if isinstance(val, Vector):
        return val.coords
    if isinstance(val, Line):
        return val.origin.coords + val.direction.coords
    if isinstance(val, tuple) and all(isinstance(x, Fraction) for x in val):
        return val
    return ()


def _rebuild(val, scalars: list):
    """The value of ``val``'s kind made of ``scalars`` (inverse of _scalars)."""
    if isinstance(val, Fraction):
        return scalars[0]
    if isinstance(val, Vector):
        return Vector(scalars)
    if isinstance(val, Line):
        return Line(Vector(scalars[: val.dim]), Vector(scalars[val.dim :]))
    return tuple(scalars)


#: Most halvings of one witness scalar; a numerator of at most 12 needs four.
_MAX_HALVINGS = 64


def _shrink(violation, f: MapHandle, inputs: dict) -> dict:
    """Halve witness numerators while ``violation(f, inputs)`` persists."""
    halvings = Counter()
    changed = True
    while changed:
        changed = False
        for name in list(inputs):
            for i in range(len(_scalars(inputs[name]))):
                if halvings[name, i] == _MAX_HALVINGS:
                    continue
                scalars = list(_scalars(inputs[name]))
                cur = scalars[i]
                if cur.numerator == 0:
                    continue
                scalars[i] = Fraction(_trunc_half(cur.numerator), cur.denominator)
                try:
                    cand_inputs = {**inputs, name: _rebuild(inputs[name], scalars)}
                except (DegenerateGeometry, DimensionMismatch):
                    continue
                try:
                    result = violation(f, cand_inputs)
                except MapEvalError:
                    continue
                if isinstance(result, dict):
                    inputs = cand_inputs
                    halvings[name, i] += 1
                    changed = True
    return inputs


# -- check rows and the probe loop that runs them ------------------------------


@dataclass(frozen=True)
class Check:
    """One row of the check table (``CHECKS``).

    ``violation(f, inputs)`` judges one probe of the map f: None when the
    equation holds, ``_SKIP`` when the probe does not apply, otherwise a dict
    of both sides.  The same function drives checking, witness shrinking and
    report revalidation.  ``stream(f, cfg)`` yields the default probes (None
    for a drawn sample that is unusable); rows without one are driven with a
    caller's stream or by an algorithm of their own.
    """

    name: str
    equation: str
    violation: Callable[[MapHandle, dict], object]
    stream: Optional[Callable[[MapHandle, ProbeConfig], Iterable[Optional[dict]]]] = None

    def witness(self, inputs: dict, values: dict, equation: Optional[str] = None) -> Witness:
        return Witness(
            self.name, equation or self.equation, tuple(inputs.items()), tuple(values.items())
        )

    def shrunk_witness(self, f: MapHandle, inputs: dict) -> Witness:
        inputs = _shrink(self.violation, f, _canonical_inputs(inputs))
        return self.witness(inputs, self.violation(f, inputs))


def run_check(
    row: Check, f: MapHandle, cfg: Optional[ProbeConfig] = None, stream: Optional[Callable] = None
) -> CheckOutcome:
    """Feed the probes of ``stream(f, cfg)`` (default: the row's stream) to
    the row's violation; the first violated probe is shrunk into the Fail
    witness, and an evaluation error becomes ProbeEvaluationError.  Both
    carry the probe's canonical inputs."""
    violation = row.violation
    probes = 0
    skipped = 0
    for inputs in (stream or row.stream)(f, cfg):
        if inputs is None:
            skipped += 1
            continue
        try:
            result = violation(f, inputs)
        except MapEvalError as exc:
            raise ProbeEvaluationError(row.name, _canonical_inputs(inputs), exc) from exc
        if result is _SKIP:
            skipped += 1
            continue
        probes += 1
        if result is not None:
            witness = row.shrunk_witness(f, inputs)
            return CheckOutcome(row.name, False, probes, witness, skipped)
    return CheckOutcome(row.name, True, probes, None, skipped)


def _drawn(draw) -> Callable:
    """The stream of cfg.count probes made by draw(f, cfg, sampler) from one
    seeded sampler."""

    def stream(f: MapHandle, cfg: ProbeConfig):
        sampler = _Sampler(cfg)
        return (draw(f, cfg, sampler) for _ in range(cfg.count))

    return stream


def _basis_then_sampled_pairs(sampler: _Sampler, m: int, count: int):
    """Every pair (e_i, e_j), i < j, of the standard basis of Q^m, then count
    sampled vector pairs."""
    for i in range(m):
        for j in range(i + 1, m):
            yield Vector.basis(m, i), Vector.basis(m, j)
    for _ in range(count):
        yield from_ints(*sampler.vector(m)), from_ints(*sampler.vector(m))


def _unit_then_sampled_pairs(sampler: _Sampler, count: int):
    """(1, 1), then count - 1 sampled scalar pairs."""
    yield Fraction(1), Fraction(1)
    for _ in range(count - 1):
        yield sampler.scalar(), sampler.scalar()


def revalidate_witness(f: MapHandle, witness: Witness) -> bool:
    """True iff the stored witness still reproduces its violation, values and all.

    Malformed or mismatched witness data (e.g. a tampered report) simply
    fails to revalidate instead of raising.
    """
    row = CHECKS.get(witness.check)
    if row is None:
        return False
    try:
        result = row.violation(f, dict(witness.inputs))
    except (CollineError, KeyError, ValueError, TypeError):
        return False
    return isinstance(result, dict) and result == dict(witness.values)


# -- homogeneity / additivity / zero ------------------------------------------


def _violation_homogeneity(f: MapHandle, inp: dict):
    p, q = _ratio(inp["c"])
    an, ad = f.row(inp["a"])
    lhs = f.at([p * x for x in an], q * ad)
    fn, fd = f.at(an, ad)
    rhs = [p * x for x in fn], q * fd
    if not same_point(lhs, rhs):
        return {"f(c*a)": from_ints(*lhs), "c*f(a)": from_ints(*rhs)}
    return None


def check_homogeneity(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    return run_check(CHECKS["homogeneity"], f, cfg)


def _violation_additivity(f: MapHandle, inp: dict):
    a, b = f.row(inp["a"]), f.row(inp["b"])
    lhs = f.at(*add_rows(a, b))
    rhs = add_rows(f.at(*a), f.at(*b))
    if not same_point(lhs, rhs):
        return {"f(a+b)": from_ints(*lhs), "f(a)+f(b)": from_ints(*rhs)}
    return None


def check_additivity(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    return run_check(CHECKS["additivity"], f, cfg)


def _violation_zero_fixed(f: MapHandle, inp: dict):
    fx = f.at(*f.row(inp["x"]))
    if any(fx[0]):
        return {"f(0)": from_ints(*fx), "0": Vector.zero(f.n)}
    return None


def check_zero_fixed(f: MapHandle) -> CheckOutcome:
    return run_check(CHECKS["zero-fixed"], f)


# -- line image and injectivity -----------------------------------------------


def _draw_line(f: MapHandle, cfg: ProbeConfig, s: _Sampler) -> dict:
    return {"line": s.line(f.m), "params": s.params(cfg.params_per_line)}


def _line_images(f: MapHandle, origin: Row, direction: Row, params) -> list[Row]:
    """The image rows of the line's points at the (p, q) params, handed to ``f.at`` as rows."""
    at = f.at
    return [at(*line_point_row(origin, direction, p, q)) for p, q in params]


def _line_probe(f: MapHandle, inp: dict) -> tuple[Row, Row, list]:
    """The (origin, direction) rows, in f's domain, and (p, q) params of a drawn
    or a stored line probe."""
    line, params = inp["line"], inp["params"]
    if type(line) is not _LineRows:
        line = line.origin, line.direction
    if type(params) is not _ParamPairs:
        params = [_ratio(t) for t in params]
    return f.row(line[0]), f.row(line[1]), params


def _judged_line(f: MapHandle, inp: dict) -> tuple:
    """(param pairs, image rows, their _diff_rows, affine rank capped at 2): all
    a line judge reads; each judge only compares the rank with 1."""
    origin, direction, params = _line_probe(f, inp)
    imgs = _line_images(f, origin, direction, params)
    diffs = _diff_rows(imgs)
    return params, imgs, diffs, _line_rank(diffs)


def _judge_line_image(params, imgs, diffs, rank: int):
    if rank <= 1:
        return None
    # the lexicographically first independent triple is (0, j, k): every image
    # before j equals imgs[0], so one off the line through imgs[0], imgs[j] comes later
    j = next(j for j, d in enumerate(diffs, 1) if any(d))
    k = next(k for k in range(j + 1, len(imgs)) if not _dependent_rows(diffs[k - 1], diffs[j - 1]))
    return {"witness params": tuple(Fraction(*params[i]) for i in (0, j, k)),
            "images": tuple(from_ints(*imgs[i]) for i in (0, j, k))}


def _violation_line_image(f: MapHandle, inp: dict):
    return _judge_line_image(*_judged_line(f, inp))


def check_line_image(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    """Fail iff three sampled images of one line are affinely independent.

    Pass certifies only that the sampled image points are collinear or
    equal; whether the image fills a whole line is not decidable by finite
    sampling and is deliberately not claimed.
    """
    return run_check(CHECKS["line-image"], f, cfg)


def _judge_line_injectivity(params, imgs, diffs, rank: int):
    if rank != 1:
        return _SKIP
    # collinear images are equal iff they agree at a coordinate c where their line moves
    c = next(c for d in diffs for c, x in enumerate(d) if x)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (nums, den) in enumerate(imgs):
        g = gcd(nums[c], den)
        groups.setdefault((nums[c] // g, den // g), []).append(i)
    # groups run in order of their first index; within one, the lexicographically
    # first colliding pair is that index and the first later one with another param
    for group in groups.values():
        if len(group) > 1:
            p0, q0 = params[group[0]]
            for j in group[1:]:
                p, q = params[j]
                if p * q0 != p0 * q:
                    return {"t0": Fraction(p0, q0), "t1": Fraction(p, q),
                            "common image": from_ints(*imgs[j])}
    return None


def _violation_line_injectivity(f: MapHandle, inp: dict):
    return _judge_line_injectivity(*_judged_line(f, inp))


def check_line_injectivity(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    return run_check(CHECKS["line-injectivity"], f, cfg)


def check_lines(f: MapHandle, cfg: ProbeConfig) -> tuple[CheckOutcome, CheckOutcome]:
    """``line-image`` and ``line-injectivity`` from one pass over the lines both
    draw: each line's images are judged by every row not yet failed, and an
    evaluation error names the first such row, as two ``run_check`` calls do."""
    judges = {"line-image": _judge_line_image, "line-injectivity": _judge_line_injectivity}
    counts = {name: [0, 0] for name in judges}  # name -> [probes, skipped]
    witnesses, live = {}, list(judges)
    for inputs in _drawn(_draw_line)(f, cfg):
        try:
            judged = _judged_line(f, inputs)
        except MapEvalError as exc:
            raise ProbeEvaluationError(live[0], _canonical_inputs(inputs), exc) from exc
        for name in live:
            result = judges[name](*judged)
            if result is _SKIP:
                counts[name][1] += 1
                continue
            counts[name][0] += 1
            if result is not None:
                witnesses[name] = CHECKS[name].shrunk_witness(f, inputs)
        live = [name for name in live if name not in witnesses]
        if not live:
            break
    return tuple(CheckOutcome(name, name not in witnesses, probes, witnesses.get(name), skipped)
                 for name, (probes, skipped) in counts.items())


# -- ratio preservation ---------------------------------------------------------


def _violation_ratio(f: MapHandle, inp: dict):
    a, b, r, s = inp["a"], inp["b"], inp["r"], inp["s"]
    rp, rq = r if type(r) is _ScalarPair else _ratio(r)
    sp, sq = s if type(s) is _ScalarPair else _ratio(s)
    # t = r/(r+s) = tn/td after multiplying both by rq·sq; td = 0 iff r + s = 0
    tn, td = rp * sq, rp * sq + sp * rq
    if a == b or not td:
        return _SKIP
    if td < 0:  # a row's denominator is positive
        tn, td = -tn, -td
    fa, fb = f(a), f(b)
    if fa == fb:
        return _SKIP
    c = from_ints(*dividing_row((a.nums, a.den), (b.nums, b.den), tn, td))
    fc = f(c)
    want = dividing_row((fa.nums, fa.den), (fb.nums, fb.den), tn, td)
    if not same_point((fc.nums, fc.den), want):
        return {"c": c, "f(c)": fc, "point dividing f(a),f(b)": from_ints(*want)}
    return None


def check_ratio_preservation(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    return run_check(CHECKS["ratio-preservation"], f, cfg)


# -- independence witness -------------------------------------------------------


def find_independence_witness(f: MapHandle, cfg: ProbeConfig) -> Optional[tuple[Vector, Vector]]:
    """First probe pair (a0, a1) whose images are linearly independent.

    The stream starts with all standard-basis pairs (deterministic anchors
    for full-rank maps), then random pairs.  None after cfg.count probes.
    """
    for a0, a1 in _basis_then_sampled_pairs(_Sampler(cfg), f.m, cfg.count):
        if not _dependent_rows(f.at(*f.row(a0))[0], f.at(*f.row(a1))[0]):
            return a0, a1
    return None


# -- betweenness -----------------------------------------------------------------


def _draw_cor43(f: MapHandle, cfg: ProbeConfig, s: _Sampler) -> Optional[dict]:
    a, b = s.vector(f.m), s.vector(f.m)
    if same_point(a, b):
        return None
    (tp, tq), (an, ad), (bn, bd) = s.unit_interval(), a, b
    # c = a + t·(b − a) = ((tq − tp)·a + tp·b) / tq, over ad·bd·tq
    ma, mb = (tq - tp) * bd, tp * ad
    c = [x * ma + y * mb for x, y in zip(an, bn)]
    return {"a": a, "b": b, "c": _PointRow((c, ad * bd * tq))}


def _violation_betweenness_cor43(f: MapHandle, inp: dict):
    ra, rb, rc = (f.row(inp[x]) for x in "abc")
    if not in_interval_rows(ra, rb, rc):
        return _SKIP
    ga, gb, gc = f.at(*ra), f.at(*rb), f.at(*rc)
    if same_point(ga, gb) and same_point(gb, gc) or in_interval_rows(ga, gb, gc):
        return None
    return {"g(a)": from_ints(*ga), "g(b)": from_ints(*gb), "g(c)": from_ints(*gc)}


def _draw_prop44(f: MapHandle, cfg: ProbeConfig, s: _Sampler) -> dict:
    a = s.nonzero_vector(f.m)
    p, q = s.unit_interval()
    return {"a": a, "c": _PointRow(([p * x for x in a[0]], q * a[1]))}


def _violation_betweenness_prop44(f: MapHandle, inp: dict):
    ra, rc = f.row(inp["a"]), f.row(inp["c"])
    if not in_interval_rows(ra, ([0] * f.m, 1), rc):  # empty for a = 0
        return _SKIP
    fa, fc = f.at(*ra), f.at(*rc)
    if not any(fa[0]) and not any(fc[0]) or in_interval_rows(fa, ([0] * f.n, 1), fc):
        return None
    return {"f(a)": from_ints(*fa), "f(c)": from_ints(*fc)}


def check_betweenness(f: MapHandle, cfg: ProbeConfig, variant: str = "cor43") -> CheckOutcome:
    if variant not in ("cor43", "prop44"):
        raise ValueError(f"unknown betweenness variant {variant!r} (use cor43 or prop44)")
    return run_check(CHECKS[f"betweenness-{variant}"], f, cfg)


# -- scalar checks ----------------------------------------------------------------


def _require_scalar_map(f: MapHandle) -> None:
    if f.m != 1 or f.n != 1:
        raise DimensionMismatch(f"scalar check needs a 1->1 map, got {f.m}->{f.n}")


def _scalar_eval(f: MapHandle, t: Fraction) -> Fraction:
    return f(Vector((t,))).coords[0]


def _violation_scalar_multiplicative(f: MapHandle, inp: dict):
    _require_scalar_map(f)
    r, s = inp["r"], inp["s"]
    lhs = _scalar_eval(f, r * s)
    rhs = _scalar_eval(f, r) * _scalar_eval(f, s)
    if lhs != rhs:
        return {"h(r*s)": lhs, "h(r)*h(s)": rhs}
    return None


def check_scalar_multiplicative(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    return run_check(CHECKS["scalar-multiplicative"], f, cfg)


def _violation_scalar_monotone(f: MapHandle, inp: dict):
    _require_scalar_map(f)
    x, y, z = inp["x"], inp["y"], inp["z"]
    if not x < y < z:
        return _SKIP
    hx, hy, hz = (_scalar_eval(f, t) for t in (x, y, z))
    d1, d2 = hy - hx, hz - hy
    if (d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0):
        return {"h(x)": hx, "h(y)": hy, "h(z)": hz}
    return None


def _scalar_sweep(f: MapHandle, cfg: ProbeConfig) -> dict:
    """h at -1, 0, 1 and cfg.count sampled scalars, in increasing order; an
    evaluation error is a scalar-monotone ProbeEvaluationError at its point."""
    sampler = _Sampler(cfg)
    points = {Fraction(-1), Fraction(0), Fraction(1)}
    points.update(sampler.scalar() for _ in range(cfg.count))
    values = {}
    for x in sorted(points):
        try:
            values[x] = _scalar_eval(f, x)
        except MapEvalError as exc:
            raise ProbeEvaluationError("scalar-monotone", {"x": x}, exc) from exc
    return values


def check_scalar_monotone(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    """Fail iff the sampled value set shows both a strict rise and a strict
    fall; the witness is a triple x < y < z with conflicting slopes."""
    row = CHECKS["scalar-monotone"]
    _require_scalar_map(f)
    values = _scalar_sweep(f, cfg)
    xs = list(values)
    rise = fall = None
    for i in range(len(xs) - 1):
        d = values[xs[i + 1]] - values[xs[i]]
        if d > 0 and rise is None:
            rise = i
        if d < 0 and fall is None:
            fall = i
    if rise is None or fall is None:
        return CheckOutcome(row.name, True, len(xs))
    if rise < fall:
        lo, hi = rise, fall
        mid = max(range(lo + 1, hi + 1), key=lambda i: (values[xs[i]], -i))
    else:
        lo, hi = fall, rise
        mid = min(range(lo + 1, hi + 1), key=lambda i: (values[xs[i]], i))
    inputs = {"x": xs[lo], "y": xs[mid], "z": xs[hi + 1]}
    witness = row.shrunk_witness(f, inputs)
    return CheckOutcome(row.name, False, len(xs), witness)


# -- plane image classification ----------------------------------------------------


@dataclass(frozen=True)
class PlaneImage:
    """Sampled shape of a plane's image plus the injectivity flag."""

    shape: Optional[str]  # "point" | "line" | "plane" | None on trichotomy failure
    injective: Optional[bool]  # populated only when shape == "plane"
    outcome: CheckOutcome


def _violation_plane_image(f: MapHandle, inp: dict):
    plane: Plane = inp["plane"]
    if "q" in inp:  # injectivity witness on a rank-2 plane image
        p, q = inp["p"], inp["q"]
        anchors = [inp["w0"], inp["w1"], inp["w2"]]
        if p == q:
            return _SKIP
        if not all(plane.contains(x) for x in [p, q, *anchors]):
            return _SKIP
        if affine_rank([f(w) for w in anchors]) != 2:
            return _SKIP
        if f(p) == f(q):
            return {"f(p)": f(p), "f(q)": f(q)}
        return None
    pts = [inp["p0"], inp["p1"], inp["p2"], inp["p3"]]
    if not all(plane.contains(x) for x in pts):
        return _SKIP
    imgs = [f(p) for p in pts]
    if affine_rank(imgs) >= 3:
        return {"images": tuple(imgs)}
    return None


def _rank_raising(points: list, images: list, k: int) -> list:
    """The first k points, in order, whose images each raise the affine rank
    of the images picked before them."""
    picked, picked_images = [], []
    for p, img in zip(points, images):
        if affine_rank(picked_images + [img]) == len(picked):
            picked.append(p)
            picked_images.append(img)
            if len(picked) == k:
                break
    return picked


def classify_plane_image(f: MapHandle, plane: Plane, cfg: ProbeConfig) -> PlaneImage:
    """Sampled affine rank of the plane's image: point / line / plane.

    A sampled rank above 2, or a collision on a rank-2 image, yields a
    Fail outcome witnessing the violation.
    """
    row = CHECKS["plane-image"]
    sampler = _Sampler(cfg)
    grid = [
        (Fraction(i), Fraction(j)) for i in (0, 1, -1) for j in (0, 1, -1)
    ]
    # ranges 1 and 2 offer only 3 and 7 distinct scalars, too few for 60
    # (u, v) pairs; from range 3 on, p/q with |p|, q <= 3 alone give 15
    k = min(cfg.coordinate_range, 3)
    scalars = len({Fraction(p, q) for p in range(-k, k + 1) for q in range(1, k + 1)})
    target = min(cfg.count, 60, scalars ** 2)
    seen = set(grid)
    while len(grid) < target:
        uv = (sampler.scalar(), sampler.scalar())
        if uv not in seen:
            seen.add(uv)
            grid.append(uv)
    points = [plane.point_at(u, v) for u, v in grid]
    images = []
    for point in points:
        try:
            images.append(f(point))
        except MapEvalError as exc:
            raise ProbeEvaluationError(row.name, {"plane": plane, "p": point}, exc) from exc
    rank = affine_rank(images)
    if rank > 2:
        base = _rank_raising(points, images, 4)
        inputs = {"plane": plane, **{f"p{i}": p for i, p in enumerate(base)}}
        witness = row.witness(inputs, row.violation(f, inputs))
        return PlaneImage(None, None, CheckOutcome(row.name, False, len(points), witness))
    shape = ("point", "line", "plane")[rank]
    injective = None
    if rank == 2:
        anchors = _rank_raising(points, images, 3)
        img_index = {}
        for p, img in zip(points, images):
            if img in img_index and img_index[img] != p:
                inputs = {"plane": plane, "p": img_index[img], "q": p,
                          **{f"w{i}": w for i, w in enumerate(anchors)}}
                witness = row.witness(
                    inputs,
                    row.violation(f, inputs),
                    "a map spreading a plane onto a plane is one-to-one on it",
                )
                outcome = CheckOutcome(row.name, False, len(points), witness)
                return PlaneImage("plane", False, outcome)
            img_index[img] = p
        injective = True
    return PlaneImage(shape, injective, CheckOutcome(row.name, True, len(points)))


# -- parallelism preservation --------------------------------------------------------


def _span_line(imgs, diffs) -> Line:
    """The line through imgs[0] and the first image apart from it."""
    i = next(i for i, d in enumerate(diffs, 1) if any(d))
    return line_through(from_ints(*imgs[0]), from_ints(*imgs[i]))


def _violation_parallelism(f: MapHandle, inp: dict):
    origin, direction, params = _line_probe(f, inp)
    imgs0 = _line_images(f, origin, direction, params)
    imgs1 = _line_images(f, add_rows(origin, f.row(inp["offset"])), direction, params)
    rows0, rows1 = _diff_rows(imgs0), _diff_rows(imgs1)
    if _line_rank(rows0) != 1 or _line_rank(rows1) != 1:
        return _SKIP
    # the first nonzero row of each is a multiple of its _span_line's direction
    if _dependent_rows(*[next(r for r in rows if any(r)) for rows in (rows0, rows1)]):
        return None
    return {"image line 0": _span_line(imgs0, rows0), "image line 1": _span_line(imgs1, rows1)}


def check_parallelism_preservation(f: MapHandle, cfg: ProbeConfig) -> CheckOutcome:
    """Sampled parallel line pairs whose images are both lines must map to
    parallel lines; pairs with degenerate images are skipped (and counted)."""
    return run_check(CHECKS["parallelism-preservation"], f, cfg)


# -- the check table ------------------------------------------------------------------

# check name -> row.  A new probe-stream check is one row here plus its
# violation; engine.py adds the rows of the checks its constructions run.
CHECKS: dict[str, Check] = {row.name: row for row in (
    Check("homogeneity", "f(c*a) = c*f(a)", _violation_homogeneity,
          _drawn(lambda f, cfg, s: {"a": s.vector(f.m), "c": s.scalar()})),
    Check("additivity", "f(a+b) = f(a)+f(b)", _violation_additivity,
          _drawn(lambda f, cfg, s: {"a": s.vector(f.m), "b": s.vector(f.m)})),
    Check("zero-fixed", "f(0) = 0", _violation_zero_fixed,
          lambda f, cfg: [{"x": Vector.zero(f.m)}]),
    Check("line-image", "sampled images of a line are mutually collinear",
          _violation_line_image, _drawn(_draw_line)),
    Check("line-injectivity",
          "distinct parameters on a line with line-shaped image map to distinct points",
          _violation_line_injectivity, _drawn(_draw_line)),
    Check("ratio-preservation",
          "f(c) divides f(a),f(b) in the same ratio as c divides a,b",
          _violation_ratio,
          _drawn(lambda f, cfg, s: {"a": from_ints(*s.vector(f.m)),
                                    "b": from_ints(*s.vector(f.m)),
                                    "r": _ScalarPair(s._pair()), "s": _ScalarPair(s._pair())})),
    Check("betweenness-cor43",
          "g(c) stays strictly between g(a) and g(b), unless all three collapse",
          _violation_betweenness_cor43, _drawn(_draw_cor43)),
    Check("betweenness-prop44",
          "f(c) stays strictly between f(a) and 0, unless both vanish",
          _violation_betweenness_prop44, _drawn(_draw_prop44)),
    Check("scalar-multiplicative", "h(r*s) = h(r)*h(s)", _violation_scalar_multiplicative,
          lambda f, cfg: ({"r": r, "s": s}
                          for r, s in _unit_then_sampled_pairs(_Sampler(cfg), cfg.count))),
    Check("parallelism-preservation", "images of parallel lines are parallel",
          _violation_parallelism,
          _drawn(lambda f, cfg, s: {"line": s.line(f.m), "offset": s.vector(f.m),
                                    "params": s.params(cfg.params_per_line)})),
    Check("scalar-monotone", "h is monotone (order preserved or reversed throughout)",
          _violation_scalar_monotone),
    Check("plane-image", "images of a plane have affine rank at most 2",
          _violation_plane_image),
)}
