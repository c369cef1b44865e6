"""Built-in map constructors: linear, affine, warped-ray ("lemma23") and
DSL-backed.

Every handle evaluates exactly.  Handles that are affine by construction (or
provably affine by DSL normalization) expose their (A, b) form through
``affine_form``; sampling never produces such a form.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Optional

from .dsl import Expr, MapSpec, eval_map, parse_map, render_expr, symbolic_affine_form
from .errors import ConstructionError, DimensionMismatch
from .field import (
    Matrix,
    Row,
    Vector,
    format_vector,
    from_ints,
    matrix,
    parse_matrix,
    parse_scalar,
    parse_vector,
)

from . import dsl as _dsl


class MapHandle:
    """A vector map ℚ^m → ℚ^n with exact evaluation."""

    def __init__(self, m: int, n: int, name: str):
        self.m = m
        self.n = n
        self.name = name

    def __call__(self, x: Vector) -> Vector:
        return from_ints(*self.at(*self.row(x)))

    def row(self, x: Vector | Row) -> Row:
        """x, a Vector or a Row, as the input row (nums, den) of ``at``; another
        dimension raises."""
        nums, den = x if isinstance(x, tuple) else (x.nums, x.den)
        if len(nums) != self.m:
            raise DimensionMismatch(f"map {self.name} takes dim {self.m}, got {len(nums)}")
        return nums, den

    def at(self, nums, den: int) -> Row:
        """The image of the point nums/den as a row: both are ``Row``s, m and n
        integers over a positive denominator, neither necessarily in lowest terms.
        The one evaluation method every handle implements; a call builds the Vector."""
        raise NotImplementedError

    def affine_form(self) -> Optional[tuple[Matrix, Vector]]:
        """(A, b) with self(x) = A·x + b when structurally known, else None."""
        return None

    def source(self) -> dict:
        """Serializable description sufficient to reconstruct the handle."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}: {self.m}->{self.n}>"


class AffineMap(MapHandle):
    def __init__(self, a: Matrix, b: Vector, name: str = "affine"):
        a = matrix(a)
        if len(a) != b.dim:
            raise DimensionMismatch(f"matrix has {len(a)} rows but offset dim {b.dim}")
        super().__init__(m=len(a[0]), n=len(a), name=name)
        self.a = a
        self.b = b
        # A·x + b = (rows·x + offsets·x.den) / (den·x.den), den the lcm of A's and b's
        rows = [Vector(row) for row in a]
        self._den = den = math.lcm(b.den, *[v.den for v in rows])
        self._rows = [[c * (den // v.den) for c in v.nums] for v in rows]
        self._offsets = [c * (den // b.den) for c in b.nums]

    __call__ = MapHandle.__call__  # bound per class, so each kind can be traced apart

    def at(self, nums, den):
        rows = zip(self._rows, self._offsets)
        return [sum(map(mul, row, nums)) + off * den for row, off in rows], self._den * den

    def affine_form(self):
        return self.a, self.b

    def source(self):
        return {
            "kind": "affine",
            "matrix": [[str(c) for c in row] for row in self.a],
            "offset": format_vector(self.b),
        }


class LinearMap(AffineMap):
    """An affine map with a zero offset, whose evaluation skips the offset."""

    def __init__(self, a: Matrix, name: str = "linear"):
        super().__init__(a, Vector.zero(len(a)), name=name)

    __call__ = MapHandle.__call__

    def at(self, nums, den):
        return [sum(map(mul, row, nums)) for row in self._rows], self._den * den

    def source(self):
        return {"kind": "linear", "matrix": [[str(c) for c in row] for row in self.a]}


DEFAULT_PSI_TEXT = "if x0 <= 0 then x0 else 2 * x0"


def default_psi() -> Expr:
    """Piecewise-linear bijection of ℚ fixing 0: t for t ≤ 0, 2t for t > 0.

    Bijective on the rationals, non-additive, and exactly evaluable, which is
    what the warped-ray construction needs.
    """
    return parse_map(f"map psi : 1 -> 1 {{ y0 = {DEFAULT_PSI_TEXT} }}").outputs[0]


class Lemma23Map(MapHandle):
    """x ↦ ψ(x[e0])·d0: a coordinate projection warped by a scalar bijection
    and scaled onto a fixed output direction.

    Sends every input line to a point or into a single output line and is
    injective on lines with moving image, yet is not additive.
    """

    def __init__(self, m: int, n: int, psi: Expr, e0_index: int, d0: Vector, name: str = "lemma23"):
        if d0.is_zero():
            raise ConstructionError("lemma23 output direction d0 must be nonzero")
        if d0.dim != n:
            raise DimensionMismatch(f"d0 dim {d0.dim} but declared output dim {n}")
        if not 0 <= e0_index < m:
            raise ConstructionError(f"coordinate index {e0_index} outside 0..{m - 1}")
        self.psi = DslMap(MapSpec("psi", 1, 1, (psi,)))
        if self.psi.at([0], 1)[0][0] != 0:
            raise ConstructionError("lemma23 scalar warp must fix 0 (psi(0) = 0)")
        super().__init__(m=m, n=n, name=name)
        self.e0_index = e0_index
        self.d0 = d0

    __call__ = MapHandle.__call__

    def at(self, nums, den):
        (t,), t_den = self.psi.at([nums[self.e0_index]], den)
        d0 = self.d0
        return [t * c for c in d0.nums], t_den * d0.den

    def source(self):
        return {
            "kind": "lemma23",
            "m": self.m,
            "n": self.n,
            "e0": self.e0_index,
            "d0": format_vector(self.d0),
            "psi": render_expr(self.psi.spec.outputs[0]),
        }


class DslMap(MapHandle):
    def __init__(self, spec: MapSpec):
        super().__init__(m=spec.m, n=spec.n, name=spec.name)
        self.spec = spec

    __call__ = MapHandle.__call__

    def at(self, nums, den):
        if (run := self.spec.compiled) is not None:
            try:
                return run(nums, den)
            except ZeroDivisionError:  # raised by the generated code only
                pass
        # eval_map compiles the spec, or raises MapEvalError naming the point
        v = eval_map(self.spec, from_ints(nums, den))
        return v.nums, v.den

    def affine_form(self):
        return symbolic_affine_form(self.spec)

    def source(self):
        return {"kind": "dsl", "text": _dsl.render_map(self.spec)}


class ComposeMap(MapHandle):
    """outer ∘ inner.  No command, builtin spec or source kind builds one; the
    class stays only for the ``zoo.eval.compose`` span of ``bench/tracer.py``."""

    def __init__(self, outer: MapHandle, inner: MapHandle, name: str | None = None):
        if inner.n != outer.m:
            raise DimensionMismatch(
                f"cannot compose: inner produces dim {inner.n}, outer takes dim {outer.m}"
            )
        super().__init__(m=inner.m, n=outer.n, name=name or f"compose({outer.name},{inner.name})")
        self.outer = outer
        self.inner = inner

    __call__ = MapHandle.__call__

    def at(self, nums, den):
        return self.outer.at(*self.inner.at(nums, den))


# -- constructors (the public zoo surface) ------------------------------------


def make_linear(a, name: str = "linear") -> MapHandle:
    return LinearMap(matrix(a), name=name)


def make_affine(a, b: Vector, name: str = "affine") -> MapHandle:
    return AffineMap(matrix(a), b, name=name)


def make_lemma23(m: int, n: int, psi: Expr | None, e0_index: int, d0: Vector,
                 name: str = "lemma23") -> MapHandle:
    return Lemma23Map(m, n, psi if psi is not None else default_psi(), e0_index, d0, name=name)


def make_dsl(spec: MapSpec) -> MapHandle:
    return DslMap(spec)


# -- builtin CLI specs ---------------------------------------------------------


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _typed(kind: str, field: str, value, *types: type):
    """value when its type is one of types (a bool is no int, a float no scalar)."""
    if type(value) not in types:
        want = " or ".join(t.__name__ for t in types)
        raise ConstructionError(f"map source of kind {kind!r} has {type(value).__name__}"
                                f" in field {field!r}, expected {want}")
    return value


def _scalar(kind: str, field: str, value):
    """An int as it is, or a scalar in the ``p`` or ``p/q`` text form of reports."""
    if type(_typed(kind, field, value, str, int)) is int:
        return value
    try:
        return parse_scalar(value)
    except ValueError:
        raise ConstructionError(f"map source of kind {kind!r} has {value!r} in field"
                                f" {field!r}, expected p or p/q") from None


def from_source(obj: dict) -> MapHandle:
    """Rebuild a handle from the serializable description in a report; a
    missing field or one of the wrong type raises ConstructionError naming
    the kind and the field."""
    if not isinstance(obj, dict):
        raise ConstructionError(f"map source is not an object but {type(obj).__name__}")
    try:
        kind = obj["kind"]
        field = lambda name, *types: _typed(kind, name, obj[name], *types)
        if kind in ("linear", "affine"):
            a = [[_scalar(kind, "matrix", c) for c in _typed(kind, "matrix", row, list)]
                 for row in field("matrix", list)]
            if kind == "linear":
                return make_linear(a)
            return make_affine(a, parse_vector(field("offset", str)))
        if kind == "lemma23":
            psi = parse_map(f"map psi : 1 -> 1 {{ y0 = {field('psi', str)} }}").outputs[0]
            return make_lemma23(field("m", int), field("n", int), psi, field("e0", int),
                                parse_vector(field("d0", str)))
        if kind == "dsl":
            return make_dsl(parse_map(field("text", str)))
    except KeyError as exc:
        of_kind = f" of kind {obj['kind']!r}" if "kind" in obj else ""
        raise ConstructionError(f"map source{of_kind} has no field {exc}") from None
    raise ConstructionError(f"unknown map source kind {kind!r}")


def parse_builtin(spec: str) -> MapHandle:
    """Build a handle from a CLI builtin spec string.

    Supported forms:
      - ``linear:<file.matrix>`` — matrix file: rows of whitespace-separated scalars
      - ``affine:<file.matrix>,b=(...)``
      - ``lemma23:m=2,n=2,e0=0,d0=(0,1)``
    """
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ConstructionError(f"builtin spec needs kind:args, got {spec!r}")
    head = head.strip()
    if head == "linear":
        with open(rest.strip(), encoding="utf-8") as fh:
            return make_linear(parse_matrix(fh.read()), name="linear")
    if head == "affine":
        parts = _split_top_level(rest)
        if len(parts) != 2 or not parts[1].startswith("b="):
            raise ConstructionError("affine builtin takes <file.matrix>,b=(...)")
        with open(parts[0], encoding="utf-8") as fh:
            a = parse_matrix(fh.read())
        return make_affine(a, parse_vector(parts[1][2:]), name="affine")
    if head == "lemma23":
        params: dict[str, str] = {}
        for part in _split_top_level(rest):
            key, eq, value = part.partition("=")
            if not eq:
                raise ConstructionError(f"lemma23 builtin parameter {part!r} needs key=value")
            params[key.strip()] = value.strip()
        unknown = set(params) - {"m", "n", "e0", "d0"}
        if unknown:
            raise ConstructionError(f"unknown lemma23 parameters: {sorted(unknown)}")
        try:
            m = int(params["m"])
            n = int(params["n"])
            e0 = int(params["e0"])
            d0 = parse_vector(params["d0"])
        except KeyError as exc:
            raise ConstructionError(f"lemma23 builtin missing parameter {exc}") from None
        return make_lemma23(m, n, None, e0, d0)
    raise ConstructionError(f"unknown builtin kind {head!r} (try linear, affine, lemma23)")
