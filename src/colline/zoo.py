"""Built-in map constructors: linear, affine, warped-ray ("lemma23"),
DSL-backed, finite probe tables, and compositions.

Every handle evaluates exactly.  Handles that are affine by construction (or
provably affine by DSL normalization) expose their (A, b) form through
``affine_form``; sampling never produces such a form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Mapping, Optional

from .dsl import Expr, MapSpec, eval_map, parse_map, render_expr, symbolic_affine_form
from .errors import ConstructionError, DimensionMismatch, MapEvalError
from .field import (
    Matrix,
    Vector,
    format_vector,
    from_ints,
    mat_mul,
    mat_vec,
    matrix,
    parse_matrix,
    parse_vector,
)

from . import dsl as _dsl


class MapHandle:
    """A vector map ℚ^m → ℚ^n with exact evaluation."""

    kind = "abstract"

    def __init__(self, m: int, n: int, name: str):
        self.m = m
        self.n = n
        self.name = name

    def __call__(self, x: Vector) -> Vector:
        raise NotImplementedError

    def affine_form(self) -> Optional[tuple[Matrix, Vector]]:
        """(A, b) with self(x) = A·x + b when structurally known, else None."""
        return None

    def source(self) -> dict:
        """Serializable description sufficient to reconstruct the handle."""
        raise NotImplementedError

    def _check_input(self, x: Vector) -> None:
        if x.dim != self.m:
            raise DimensionMismatch(f"map {self.name} takes dim {self.m}, got {x.dim}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}: {self.m}->{self.n}>"


def _int_rows(a: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows and one common denominator with a = rows/den."""
    rows = [Vector(row) for row in a]
    den = math.lcm(*[v.den for v in rows])
    return [[c * (den // v.den) for c in v.nums] for v in rows], den


class LinearMap(MapHandle):
    kind = "linear"

    def __init__(self, a: Matrix, name: str = "linear"):
        a = matrix(a)
        super().__init__(m=len(a[0]), n=len(a), name=name)
        self.a = a
        self._rows, self._den = _int_rows(a)

    def __call__(self, x: Vector) -> Vector:
        self._check_input(x)
        xn = x.nums
        return from_ints([sum(map(mul, row, xn)) for row in self._rows], self._den * x.den)

    def affine_form(self):
        return self.a, Vector.zero(self.n)

    def source(self):
        return {"kind": "linear", "matrix": [[str(c) for c in row] for row in self.a]}


class AffineMap(MapHandle):
    kind = "affine"

    def __init__(self, a: Matrix, b: Vector, name: str = "affine"):
        a = matrix(a)
        if len(a) != b.dim:
            raise DimensionMismatch(f"matrix has {len(a)} rows but offset dim {b.dim}")
        super().__init__(m=len(a[0]), n=len(a), name=name)
        self.a = a
        self.b = b
        # A·x + b = (rows·x + offsets·x.den) / (den·x.den)
        rows, den = _int_rows(a)
        g = math.gcd(den, b.den)
        self._rows = [[c * (b.den // g) for c in row] for row in rows]
        self._offsets = [c * (den // g) for c in b.nums]
        self._den = den // g * b.den

    def __call__(self, x: Vector) -> Vector:
        self._check_input(x)
        xn, xd = x.nums, x.den
        return from_ints(
            [sum(map(mul, row, xn)) + off * xd for row, off in zip(self._rows, self._offsets)],
            self._den * xd,
        )

    def affine_form(self):
        return self.a, self.b

    def source(self):
        return {
            "kind": "affine",
            "matrix": [[str(c) for c in row] for row in self.a],
            "offset": format_vector(self.b),
        }


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

    kind = "lemma23"

    def __init__(self, m: int, n: int, psi: Expr, e0_index: int, d0: Vector, name: str = "lemma23"):
        if d0.is_zero():
            raise ConstructionError("lemma23 output direction d0 must be nonzero")
        if d0.dim != n:
            raise DimensionMismatch(f"d0 dim {d0.dim} but declared output dim {n}")
        if not 0 <= e0_index < m:
            raise ConstructionError(f"coordinate index {e0_index} outside 0..{m - 1}")
        self.psi_spec = MapSpec("psi", 1, 1, (psi,))
        if not eval_map(self.psi_spec, from_ints((0,), 1)).is_zero():
            raise ConstructionError("lemma23 scalar warp must fix 0 (psi(0) = 0)")
        super().__init__(m=m, n=n, name=name)
        self.e0_index = e0_index
        self.d0 = d0

    def __call__(self, x: Vector) -> Vector:
        self._check_input(x)
        t = eval_map(self.psi_spec, from_ints((x.nums[self.e0_index],), x.den))
        d0 = self.d0
        return from_ints([t.nums[0] * c for c in d0.nums], t.den * d0.den)

    def source(self):
        return {
            "kind": "lemma23",
            "m": self.m,
            "n": self.n,
            "e0": self.e0_index,
            "d0": format_vector(self.d0),
            "psi": render_expr(self.psi_spec.outputs[0]),
        }


class DslMap(MapHandle):
    kind = "dsl"

    def __init__(self, spec: MapSpec):
        super().__init__(m=spec.m, n=spec.n, name=spec.name)
        self.spec = spec

    def __call__(self, x: Vector) -> Vector:
        return eval_map(self.spec, x)

    def affine_form(self):
        return symbolic_affine_form(self.spec)

    def source(self):
        return {"kind": "dsl", "text": _dsl.render_map(self.spec)}


class TableMap(MapHandle):
    """Finite input→output table with values only at its entries; anywhere
    else evaluation raises MapEvalError, as a DSL division by zero does."""

    kind = "table"

    def __init__(self, entries: Mapping[Vector, Vector], name: str = "table"):
        if not entries:
            raise ConstructionError("table map needs at least one entry")
        items = list(entries.items())
        m = items[0][0].dim
        n = items[0][1].dim
        for k, v in items:
            if k.dim != m or v.dim != n:
                raise DimensionMismatch("inconsistent dims in table entries")
        super().__init__(m=m, n=n, name=name)
        self.entries = dict(items)

    def __call__(self, x: Vector) -> Vector:
        self._check_input(x)
        try:
            return self.entries[x]
        except KeyError:
            raise MapEvalError(f"map {self.name}: input {x} outside table domain") from None

    def source(self):
        return {
            "kind": "table",
            "entries": [[format_vector(k), format_vector(v)] for k, v in self.entries.items()],
        }


class ComposeMap(MapHandle):
    kind = "compose"

    def __init__(self, outer: MapHandle, inner: MapHandle, name: str | None = None):
        if inner.n != outer.m:
            raise DimensionMismatch(
                f"cannot compose: inner produces dim {inner.n}, outer takes dim {outer.m}"
            )
        super().__init__(m=inner.m, n=outer.n, name=name or f"compose({outer.name},{inner.name})")
        self.outer = outer
        self.inner = inner

    def __call__(self, x: Vector) -> Vector:
        return self.outer(self.inner(x))

    def affine_form(self):
        fo = self.outer.affine_form()
        fi = self.inner.affine_form()
        if fo is None or fi is None:
            return None
        ao, bo = fo
        ai, bi = fi
        return mat_mul(ao, ai), mat_vec(ao, bi) + bo

    def source(self):
        return {"kind": "compose", "outer": self.outer.source(), "inner": self.inner.source()}


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


def make_table(entries: Mapping[Vector, Vector], name: str = "table") -> MapHandle:
    return TableMap(entries, name=name)


def compose(outer: MapHandle, inner: MapHandle, name: str | None = None) -> MapHandle:
    return ComposeMap(outer, inner, name=name)


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


def from_source(obj: dict) -> MapHandle:
    """Rebuild a handle from the serializable description in a report."""
    kind = obj["kind"]
    if kind == "linear":
        return make_linear([[Fraction(c) for c in row] for row in obj["matrix"]])
    if kind == "affine":
        return make_affine(
            [[Fraction(c) for c in row] for row in obj["matrix"]],
            parse_vector(obj["offset"]),
        )
    if kind == "lemma23":
        psi = parse_map(f"map psi : 1 -> 1 {{ y0 = {obj['psi']} }}").outputs[0]
        return make_lemma23(obj["m"], obj["n"], psi, obj["e0"], parse_vector(obj["d0"]))
    if kind == "dsl":
        return make_dsl(parse_map(obj["text"]))
    if kind == "table":
        return make_table(
            {parse_vector(k): parse_vector(v) for k, v in obj["entries"]}
        )
    if kind == "compose":
        return compose(from_source(obj["outer"]), from_source(obj["inner"]))
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
