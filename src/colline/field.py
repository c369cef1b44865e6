"""Exact rational scalars, fixed-dimension vectors, and rank primitives.

Scalars are ``fractions.Fraction`` values: arbitrary precision, always in
canonical form (positive denominator, gcd(|num|, den) = 1), with exact
arithmetic.  A vector stores integer numerators over one common denominator
(``nums``, ``den``), in lowest terms: den > 0 and gcd(*nums, den) = 1, so
equal vectors have equal storage.  Vector arithmetic, rank, independence
and collinearity run on those integers, and map images stay unreduced rows
(nums, den) until a value is kept (the fraction-free idea of Bareiss,
Math. Comp. 1968); ``coords`` reads the coordinates back as Fractions.  Two
rows are dependent by one cross-multiplication, ``_dependent_rows``, behind
independence, collinearity, a point on a line and parallel lines; a line
judge reads the rank of its rows capped at 2, ``_line_rank``, in one pass.

The loops over a row's coordinates in these primitives, and in the probe
sampler's draw of a point (``predicates._Sampler.vector``), run as
straight-line kernels written out for the row's length n (``_KERNELS``,
keyed by n alone): each length's kernels are compiled when a row of that
length is first met, never at import, so a re-import of the module starts
with none.  On Python 3.11 a comprehension or generator runs in a frame of
its own, which is most of the cost of a loop over at most ``MAX_DIM``
coordinates; Python 3.12 inlines comprehensions (PEP 709), so there the
kernels gain less.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, PreconditionError

Scalar = Fraction
#: A point as integers over one positive denominator, not necessarily reduced
Row = tuple[Sequence[int], int]

#: Largest vector dimension accepted by the package.  Elimination cost and
#: probe sizes are tuned for desk-scale dimensions.
MAX_DIM = 8

ZERO = Fraction(0)
ONE = Fraction(1)

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


def _scalar_pair(text: str) -> tuple[int, int]:
    """(p, q), q > 0 and not yet reduced, for the ``p/q`` or ``p`` text form."""
    t = text.strip()
    if not _SCALAR_RE.match(t):
        raise ValueError(f"not a rational scalar: {text!r} (expected p or p/q, q > 0)")
    p, _, q = t.partition("/")
    return int(p), int(q) if q else 1


def parse_scalar(text: str) -> Fraction:
    """Parse the ``p/q`` or ``p`` text form (optional leading sign)."""
    return Fraction(*_scalar_pair(text))


def format_scalar(s: Fraction) -> str:
    """Render a scalar as ``p/q``, or ``p`` when the denominator is 1."""
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def _ratio(s) -> tuple[int, int]:
    """(p, q) with s = p/q, q > 0, for an int, a Fraction or Fraction's input."""
    if type(s) is not int and type(s) is not Fraction:
        s = Fraction(s)
    return s.numerator, s.denominator


# bound once: from_ints runs for every vector the arithmetic builds
_new = object.__new__
_set = object.__setattr__
_gcd = math.gcd


class Vector:
    """Immutable fixed-dimension coordinate tuple over the rational field,
    stored as integer numerators ``nums`` over one denominator ``den``; its
    hash is computed on the first lookup and kept."""

    __slots__ = ("nums", "den", "_hash")

    def __init__(self, coords: Iterable[Fraction]):
        v = from_pairs([_ratio(c) for c in coords])
        _set(self, "nums", v.nums)
        _set(self, "den", v.den)

    @classmethod
    def of(cls, *values) -> "Vector":
        """Build a vector from ints, strings, or Fractions (test/CLI sugar)."""
        return cls(Fraction(v) for v in values)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return from_ints([0] * dim, 1)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Vector":
        if not 0 <= index < dim:
            raise DimensionMismatch(f"basis index {index} outside 0..{dim - 1}")
        return cls([ONE if i == index else ZERO for i in range(dim)])

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _combine(self, other: "Vector", sign: int) -> "Vector":
        """self + sign·other over the lcm of the two denominators."""
        return from_ints(*add_rows((self.nums, self.den), (other.nums, other.den), sign))

    def __add__(self, other: "Vector") -> "Vector":
        return self._combine(other, 1)

    def __sub__(self, other: "Vector") -> "Vector":
        return self._combine(other, -1)

    def __neg__(self) -> "Vector":
        return from_ints(_KERNELS[len(self.nums)].scale(self.nums, -1), self.den)

    def __mul__(self, s) -> "Vector":
        p, q = _ratio(s)
        return from_ints(_KERNELS[len(self.nums)].scale(self.nums, p), self.den * q)

    __rmul__ = __mul__

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", h := hash((self.nums, self.den)))
            return h

    def __repr__(self) -> str:
        return f"Vector{self.coords!r}"

    def __str__(self) -> str:
        return format_vector(self)


def from_ints(nums: Sequence[int], den: int) -> Vector:
    """The vector nums/den (den ≠ 0), reduced once to lowest terms."""
    n = len(nums)
    if not 1 <= n <= MAX_DIM:
        raise DimensionMismatch(f"vector dimension {n} outside 1..{MAX_DIM}")
    if den != 1:
        g = _gcd(*nums, den)
        if den < 0:
            g = -g
        if g != 1:
            nums = _KERNELS[n].quo(nums, g)
            den //= g
    v = _new(Vector)
    _set(v, "nums", tuple(nums))
    _set(v, "den", den)
    return v


def from_pairs(pairs: Sequence[tuple[int, int]]) -> Vector:
    """The vector (p0/q0, p1/q1, ...) from integer pairs with q > 0."""
    try:
        over = _KERNELS[len(pairs)].over
    except DimensionMismatch:  # from_ints' message, not the kernel table's
        raise DimensionMismatch(f"vector dimension {len(pairs)} outside 1..{MAX_DIM}") from None
    return from_ints(*over(pairs))


def add_rows(r0: Row, r1: Row, sign: int = 1) -> tuple[list[int], int]:
    """The row of r0 + sign·r1, over the lcm of their denominators and not reduced."""
    (n0, d0), (n1, d1) = r0, r1
    g = _gcd(d0, d1)
    m0, m1 = d1 // g, sign * (d0 // g)
    return _KERNELS[len(n0)].comb(n0, n1, m0, m1), d0 * m0


def format_vector(v: Vector) -> str:
    """Text form ``(s1, s2, ..., sn)`` used in the DSL, CLI, and reports."""
    den = v.den
    parts = []
    for a in v.nums:
        g = _gcd(a, den)
        parts.append(str(a // g) if g == den else f"{a // g}/{den // g}")
    return "(" + ", ".join(parts) + ")"


def parse_vector(text: str) -> Vector:
    """Parse the ``(s1, ..., sn)`` text form straight into integer pairs."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"not a vector: {text!r} (expected (s1, ..., sn))")
    return from_pairs([_scalar_pair(part) for part in t[1:-1].split(",")])


# -- straight-line row kernels --------------------------------------------------
#
# Each loop over a row's coordinates is written out for the row's length n:
# a coordinate is a local name, so no zip, generator or comprehension frame
# runs per call.  The entry points below (and in geometry) keep their
# signatures and pick the kernels of their first row's length; the vector
# scalings and the sampler's ``draw`` call their kernel directly.


class _RowKernels(NamedTuple):
    """The kernels for rows of one length n.  A row of another length among
    the later arguments raises DimensionMismatch (``same`` is False)."""

    comb: Callable  # (x, y, a, b) -> the row x·a + y·b
    quo: Callable  # (x, g) -> the tuple x // g
    same: Callable  # (x, y, a, b) -> whether x·a == y·b
    diff_rows: Callable  # (points) -> _diff_rows(points)
    dependent: Callable  # (v, w) -> _dependent_rows(v, w)
    line_rank: Callable  # (w, rows) -> _line_rank of w, then of the rest of iterator rows
    in_interval: Callable  # (a, b, c) -> geometry.in_interval_rows(a, b, c)
    scale: Callable  # (x, a) -> the row x·a
    over: Callable  # (pairs) -> from_pairs' row of (p, q) pairs, over the lcm of the q's
    draw: Callable  # (bits, kp, np_, kq, nq, r) -> predicates._Sampler.vector's row


def _check_lengths(n: int, *rows: Sequence[int]) -> None:
    """Raise DimensionMismatch at the first row whose length is not n."""
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch(f"dimension mismatch: {n} vs {len(r)}") from None


def _kernel_source(n: int) -> str:
    """The source of the ``_RowKernels`` functions for rows of length n
    (``print(_kernel_source(2))`` shows them)."""

    def row(name: str) -> str:  # the names name0, name1, ... as a tuple
        return ", ".join(f"{name}{i}" for i in range(n)) + ","

    def each(text: str, sep: str = ", ") -> str:  # text for each coordinate {0}
        return sep.join(text.format(i) for i in range(n))

    def apart(v: str, w: str, j: int) -> str:  # row v off the line of row w, w_j its first nonzero
        terms = [f"{v}{k}" for k in range(j)]
        terms += [f"{v}{k} * {w}{j} != {v}{j} * {w}{k}" for k in range(j + 1, n)]
        return " or ".join(terms) or "False"

    def by_pivot(w: str, arm, pad: str, zero: str = "") -> list[str]:
        # arm(j) under the first nonzero w_j, then the line for w = 0
        lines = []
        for j in range(n):
            lines += [f"{pad}{'elif' if j else 'if'} {w}{j}:", *arm(j, pad + " ")]
        return lines + ([f"{pad}else:", f"{pad} {zero}"] if zero else [])

    def mismatch(pad: str, rows: str) -> list[str]:
        # a row of another length fails its unpacking and raises DimensionMismatch
        return [f"{pad}except ValueError:", f"{pad} _check_lengths({n}, {rows})", f"{pad} raise"]

    def unpack(pad: str, targets: list[str], rows: str) -> list[str]:
        return [f"{pad}try:", *[f"{pad} {t}" for t in targets], *mismatch(pad, rows)]

    x, y, v, w = row("x"), row("y"), row("v"), row("w")
    lines = [
        "def comb(x, y, a, b):", f" {x} = x",
        *unpack(" ", [f"{y} = y"], "y"),
        f" return [{each('x{0} * a + y{0} * b')}]",
        "def quo(x, g):", f" {x} = x", f" return {each('x{0} // g')},",
        "def same(x, y, a, b):", f" {x} = x", " try:", f"  {y} = y",
        " except ValueError:", "  return False",
        f" return {each('x{0} * a == y{0} * b', ' and ')}",
        "def diff_rows(points):", f" ({y}), d0 = points[0]", " rows = []",
        " for x, d in points[1:]:",
        *unpack("  ", [f"{x} = x"], "x"),
        "  g = gcd(d, d0)", "  a, b = d0 // g, d // g",
        f"  rows.append([{each('x{0} * a - y{0} * b')}])", " return rows",
        "def dependent(v, w):",
        *unpack(" ", [f"{v} = v"], "v"),
        f" {w} = w",
        *by_pivot("w", lambda j, pad: [f"{pad}return not ({apart('v', 'w', j)})"], " ", "return True"),
        "def line_rank(w, rows):", " v = w", " try:", f"  {w} = w",
        f"  while not ({each('w{0}', ' or ')}):",
        "   for v in rows:", "    break", "   else:", "    return 0", f"   {w} = v",
        *by_pivot("w", lambda j, pad: [f"{pad}for v in rows:", f"{pad} {v} = v",
                                       f"{pad} if {apart('v', 'w', j)}:", f"{pad}  return 2",
                                       f"{pad}return 1"], "  "),
        *mismatch(" ", "v"),
        "def in_interval(a, b, c):", f" ({row('a')}), ad = a",
        *unpack(" ", [f"({row('b')}), bd = b", f"({row('c')}), cd = c"], "b[0], c[0]"),
        *[f" u{i} = c{i} * ad - a{i} * cd" for i in range(n)],
        *[f" v{i} = b{i} * ad - a{i} * bd" for i in range(n)],
        *by_pivot("v", lambda j, pad: [f"{pad}if {apart('u', 'v', j)}:", f"{pad} return False",
                                       f"{pad}p, q = u{j} * bd, v{j} * cd"], " ", "return False"),
        " return 0 < p < q if q > 0 else q < p < 0",
        "def scale(x, a):", f" {x} = x", f" return [{each('x{0} * a')}]",
        "def over(pairs):", f" {each('(x{0}, y{0})')}, = pairs", f" d = lcm({y})",
        f" return [{each('x{0} * (d // y{0})')}], d",
        # randint(-r, r) then randint(1, r) per coordinate: k-bit draws until one is below n
        "def draw(bits, kp, np_, kq, nq, r):",
        *[line for i in range(n) for line in (
            f" x{i} = bits(kp)", f" while x{i} >= np_:", f"  x{i} = bits(kp)",
            f" y{i} = bits(kq) + 1", f" while y{i} > nq:", f"  y{i} = bits(kq) + 1")],
        f" d = lcm({y})", f" return [{each('(x{0} - r) * (d // y{0})')}], d",
    ]
    return "\n".join(lines) + "\n"


class _KernelTable(dict):
    """Row length -> its ``_RowKernels``, compiled when a row of that length
    is first met (never at import)."""

    def __missing__(self, n: int) -> _RowKernels:
        if not 1 <= n <= MAX_DIM:
            raise DimensionMismatch(f"row length {n} outside 1..{MAX_DIM}")
        namespace = {"gcd": _gcd, "lcm": math.lcm, "_check_lengths": _check_lengths}
        exec(compile(_kernel_source(n), f"<colline rows of length {n}>", "exec"), namespace)
        self[n] = kernels = _RowKernels(*[namespace[name] for name in _RowKernels._fields])
        return kernels


_KERNELS = _KernelTable()


# -- integer rank and collinearity ----------------------------------------------
#
# Rank, independence, and collinearity are integer computations on the
# stored numerators (scaling a row by a nonzero constant does not change
# rank), so the inner loops never build a Fraction.


def _int_rank(rows: list[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            factor = ri[col]
            if factor:
                for c in range(col, ncols):
                    ri[c] = ri[c] * pval - prow[c] * factor
        rank += 1
        if rank == len(rows):
            break
    return rank


def _dependent_rows(v: Sequence[int], w: Sequence[int]) -> bool:
    """Whether two integer rows of one length are dependent: w = 0, or
    v_k·w_j == v_j·w_k for every k, with w_j the first nonzero entry of w."""
    return _KERNELS[len(w)].dependent(v, w)


def _line_rank(rows: Iterable[Sequence[int]]) -> int:
    """min(rank, 2) of integer rows of one length, in one pass: the first
    nonzero row w and its first nonzero entry w_j are found once, and 2 is
    returned at the first later row v with v_k·w_j != v_j·w_k."""
    it = iter(rows)
    for w in it:
        return _KERNELS[len(w)].line_rank(w, it)
    return 0


def linearly_independent(v: Vector, w: Vector) -> bool:
    """Exact independence test: no (α, β) ≠ (0, 0) gives αv + βw = 0."""
    if v.dim != w.dim:
        raise DimensionMismatch(f"dimension mismatch: {v.dim} vs {w.dim}")
    return not _dependent_rows(v.nums, w.nums)


def _diff_rows(points: Sequence[Row]) -> list[list[int]]:
    """Integer rows of p_i − p_0 (i ≥ 1), each scaled by a positive factor."""
    if not points:
        raise PreconditionError("affine_rank of empty point set")
    return _KERNELS[len(points[0][0])].diff_rows(points)


def affine_rank(points: Sequence[Vector]) -> int:
    """Rank of {p_i − p_0}: 0 for a repeated point, 1 collinear, 2 coplanar, ..."""
    return _int_rank(_diff_rows([(p.nums, p.den) for p in points]))


def same_point(r0: Row, r1: Row) -> bool:
    """Whether two rows are one point, decided by cross-multiplication."""
    (n0, d0), (n1, d1) = r0, r1
    return _KERNELS[len(n0)].same(n0, n1, d1, d0)


def collinearity_scalar(v: Vector, w: Vector) -> Optional[Fraction]:
    """The unique s with v = s·w, or None if no such scalar exists.

    Raises for w = 0 (the scalar would not be unique).
    """
    if v.dim != w.dim:
        raise DimensionMismatch(f"dimension mismatch: {v.dim} vs {w.dim}")
    vn, wn = v.nums, w.nums
    j = next((i for i, c in enumerate(wn) if c), None)
    if j is None:
        raise PreconditionError("collinearity_scalar with w = 0: scalar not unique")
    # with s = vn[j]·w.den / (wn[j]·v.den), vk == s·wk reduces to the
    # cross-multiplied vn[k]·wn[j] == vn[j]·wn[k]: both denominators cancel
    if not _dependent_rows(vn, wn):
        return None
    return Fraction(vn[j] * w.den, wn[j] * v.den)


# -- small exact matrices -----------------------------------------------------

Matrix = tuple[tuple[Fraction, ...], ...]


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if not out or not out[0]:
        raise DimensionMismatch("matrix must have at least one row and column")
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise DimensionMismatch("ragged matrix rows")
    return out


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def matrix_rank(a: Matrix) -> int:
    return _int_rank([Vector(row).nums for row in a])


def parse_matrix(text: str) -> Matrix:
    """Rows of whitespace-separated scalars, one row per nonblank line."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_scalar(tok) for tok in line.split()])
    if not rows:
        raise ValueError("matrix text contains no rows")
    return matrix(rows)
