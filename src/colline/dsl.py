"""Parse and evaluate vector maps ℚ^m → ℚ^n from a small text language.

Grammar (ASCII digits and names, whitespace-insensitive, ``#`` comments to end of line):

    file    := mapdef+
    mapdef  := "map" IDENT ":" INT "->" INT "{" output (";" output)* ";"? "}"
    output  := "y" INT "=" expr
    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := RATIONAL | "x" INT | "-" factor | "(" expr ")"
             | "if" expr "<=" expr "then" expr "else" expr
    RATIONAL := INT ("/" INT)?

A rational literal ``p/q`` and the division ``p / q`` denote the same exact
value, so the parser uniformly treats ``/`` as division.  Conditionals carry
only ``<=`` guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

from .errors import DimensionMismatch, MapEvalError, MapParseError
from .field import MAX_DIM, Matrix, Vector, format_scalar, from_pairs

#: Deepest expression tree accepted, counted in nodes from root to leaf, and
#: most parentheses, signs and conditionals open at once.  Parsing,
#: evaluation, rendering and normalization recurse once per level.
MAX_DEPTH = 200

# -- abstract syntax ----------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class IfLe:
    guard_left: "Expr"
    guard_right: "Expr"
    then_branch: "Expr"
    else_branch: "Expr"


Expr = Union[Lit, Var, Neg, BinOp, IfLe]


@dataclass(frozen=True)
class MapSpec:
    name: str
    m: int
    n: int
    outputs: tuple[Expr, ...]


# -- lexer --------------------------------------------------------------------

_KEYWORDS = {"map", "if", "then", "else"}
_PUNCT2 = ("->", "<=")
_PUNCT1 = ":{};=+-*/()"
_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit also accepts "²" and "٣"
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_") | _DIGITS
_NESTING = {("punct", "-"), ("punct", "("), ("name", "if")}  # factors that recurse


class _Token(NamedTuple):
    kind: str  # name | int | punct | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        two = text[i : i + 2]
        if two in _PUNCT2:
            yield _Token("punct", two, line, start_col)
            i += 2
            col += 2
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            yield _Token("int", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch in _NAME_CHARS:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            yield _Token("name", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            yield _Token("punct", ch, line, start_col)
            i += 1
            col += 1
            continue
        raise MapParseError(f"unexpected character {ch!r}", line, start_col)
    yield _Token("eof", "", line, col)


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.open = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = (), tok: _Token | None = None):
        tok = tok or self.cur
        raise MapParseError(message, tok.line, tok.col, expected)

    def expect_punct(self, text: str) -> _Token:
        tok = self.cur
        if tok.kind != "punct" or tok.text != text:
            self.error(f"found {self.describe(tok)}", expected=(repr(text),))
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.cur
        if tok.kind != "name" or tok.text != word:
            self.error(f"found {self.describe(tok)}", expected=(repr(word),))
        return self.advance()

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.cur
        if tok.kind != "int":
            self.error(f"found {self.describe(tok)}", expected=(what,))
        self.advance()
        return int(tok.text), tok

    @staticmethod
    def describe(tok: _Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return repr(tok.text)

    # file := mapdef+
    def parse_file(self) -> list[MapSpec]:
        specs = [self.parse_mapdef()]
        while self.cur.kind != "eof":
            specs.append(self.parse_mapdef())
        return specs

    def parse_mapdef(self) -> MapSpec:
        self.expect_keyword("map")
        name_tok = self.cur
        if name_tok.kind != "name" or name_tok.text in _KEYWORDS:
            self.error(f"found {self.describe(name_tok)}", expected=("map name",))
        self.advance()
        self.expect_punct(":")
        m, m_tok = self.expect_int("input dimension")
        if not 1 <= m <= MAX_DIM:
            self.error(f"input dimension {m} outside 1..{MAX_DIM}", tok=m_tok)
        self.expect_punct("->")
        n, n_tok = self.expect_int("output dimension")
        if not 1 <= n <= MAX_DIM:
            self.error(f"output dimension {n} outside 1..{MAX_DIM}", tok=n_tok)
        self.expect_punct("{")
        outputs: dict[int, Expr] = {}
        while True:
            idx, idx_tok, expr = self.parse_output(m)
            if idx in outputs:
                self.error(f"duplicate output y{idx}", tok=idx_tok)
            if idx >= n:
                self.error(f"output index {idx} out of range for {n} outputs", tok=idx_tok)
            outputs[idx] = expr
            if self.cur.kind == "punct" and self.cur.text == ";":
                self.advance()
                if self.cur.kind == "punct" and self.cur.text == "}":
                    break
                continue
            break
        close = self.cur
        self.expect_punct("}")
        if len(outputs) != n:
            missing = [f"y{i}" for i in range(n) if i not in outputs]
            self.error(
                f"map {name_tok.text} declares {n} outputs but defines {len(outputs)}"
                f" (missing {', '.join(missing)})",
                tok=close,
            )
        return MapSpec(name_tok.text, m, n, tuple(outputs[i] for i in range(n)))

    def parse_output(self, m: int) -> tuple[int, _Token, Expr]:
        tok = self.cur
        if tok.kind != "name" or not _is_indexed(tok.text, "y"):
            self.error(f"found {self.describe(tok)}", expected=("output name y<i>",))
        self.advance()
        idx = int(tok.text[1:])
        self.expect_punct("=")
        return idx, tok, self.parse_expr(m)[0]

    def deeper(self, depth: int, tok: _Token) -> int:
        if depth >= MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels", tok=tok)
        return depth + 1

    # parse_expr and parse_factor return (node, height of its expression tree)
    def parse_expr(self, m: int, ops: str = "+-") -> tuple[Expr, int]:
        """A left-associative chain: expr with ops "+-", term with ops "*/"."""
        node, height = self.parse_factor(m) if ops == "*/" else self.parse_expr(m, "*/")
        while self.cur.kind == "punct" and self.cur.text in ops:
            tok = self.advance()
            right, right_height = self.parse_factor(m) if ops == "*/" else self.parse_expr(m, "*/")
            node = BinOp(tok.text, node, right)
            height = self.deeper(max(height, right_height), tok)
        return node, height

    def parse_factor(self, m: int) -> tuple[Expr, int]:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return Lit(Fraction(int(tok.text))), 1
        if tok.kind == "name" and _is_indexed(tok.text, "x"):
            idx = int(tok.text[1:])
            if idx >= m:
                self.error(f"variable index {idx} out of range", tok=tok)
            self.advance()
            return Var(idx), 1
        if (tok.kind, tok.text) not in _NESTING:
            self.error(
                f"found {self.describe(tok)}",
                expected=("rational literal", "variable x<i>", "'-'", "'('", "'if'"),
            )
        self.open = self.deeper(self.open, tok)
        self.advance()
        if tok.text == "-":
            node, height = self.parse_factor(m)
            node, height = Neg(node), self.deeper(height, tok)
        elif tok.text == "(":
            node, height = self.parse_expr(m)
            self.expect_punct(")")
        else:
            left, h0 = self.parse_expr(m)
            self.expect_punct("<=")
            right, h1 = self.parse_expr(m)
            self.expect_keyword("then")
            then_branch, h2 = self.parse_expr(m)
            self.expect_keyword("else")
            else_branch, h3 = self.parse_expr(m)
            node = IfLe(left, right, then_branch, else_branch)
            height = self.deeper(max(h0, h1, h2, h3), tok)
        self.open -= 1
        return node, height


def _is_indexed(text: str, prefix: str) -> bool:
    return len(text) > 1 and text[0] == prefix and text[1:].isdigit()


def parse_map_file(text: str) -> list[MapSpec]:
    """Parse a ``.map`` source containing one or more map definitions."""
    return _Parser(text).parse_file()


def parse_map(text: str) -> MapSpec:
    """Parse a source defining exactly one map."""
    parser = _Parser(text)
    spec = parser.parse_mapdef()
    if parser.cur.kind != "eof":
        parser.error("found extra input after the first map definition", expected=("end of input",))
    return spec


# -- evaluation ---------------------------------------------------------------


def eval_expr(expr: Expr, nums: tuple[int, ...], den: int) -> tuple[int, int]:
    """Value of ``expr`` at the point nums/den (den > 0) as an unreduced pair
    (p, q) with q > 0; a division by zero raises MapEvalError."""
    kind = type(expr)
    if kind is BinOp:
        a, b = eval_expr(expr.left, nums, den)
        c, d = eval_expr(expr.right, nums, den)
        op = expr.op
        if op == "+":
            return (a + c, b) if b == d else (a * d + c * b, b * d)
        if op == "-":
            return (a - c, b) if b == d else (a * d - c * b, b * d)
        if op == "*":
            return a * c, b * d
        if c == 0:
            raise MapEvalError("division by zero")
        return (a * d, b * c) if c > 0 else (-a * d, -b * c)
    if kind is Var:
        return nums[expr.index], den
    if kind is Lit:
        v = expr.value
        return v.numerator, v.denominator
    if kind is Neg:
        a, b = eval_expr(expr.operand, nums, den)
        return -a, b
    if kind is IfLe:
        a, b = eval_expr(expr.guard_left, nums, den)
        c, d = eval_expr(expr.guard_right, nums, den)
        branch = expr.then_branch if a * d <= c * b else expr.else_branch
        return eval_expr(branch, nums, den)
    raise TypeError(f"not an expression: {expr!r}")


def eval_map(spec: MapSpec, x: Vector) -> Vector:
    """Exact evaluation; division by zero names the output index and input."""
    if x.dim != spec.m:
        raise DimensionMismatch(f"map {spec.name} takes dim {spec.m}, got {x.dim}")
    nums, den = x.nums, x.den
    pairs = []
    for i, expr in enumerate(spec.outputs):
        try:
            pairs.append(eval_expr(expr, nums, den))
        except MapEvalError as exc:
            raise MapEvalError(
                f"map {spec.name}: division by zero in output y{i} at input {x}",
                output_index=i,
                at=x,
            ) from exc
    return from_pairs(pairs)


# -- rendering ----------------------------------------------------------------

_EXPR, _TERM, _FACTOR = 0, 1, 2


def _render(expr: Expr, level: int, closed: bool = True) -> str:
    """Render with only the parentheses the grammar needs.

    ``closed`` is false when a binary operator follows the rendered text; a
    conditional's else branch would absorb it, so only then is the
    conditional parenthesized.  Rendering thus never nests deeper than the
    text it was parsed from, and stays within ``MAX_DEPTH``.
    """
    if isinstance(expr, Lit):
        v = expr.value
        if v < 0:
            return "-" + format_scalar(-v)
        return format_scalar(v)
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Neg):
        return "-" + _render(expr.operand, _FACTOR, closed)
    if isinstance(expr, BinOp):
        additive = expr.op in "+-"
        wrap = level > (_EXPR if additive else _TERM)
        left = _render(expr.left, _EXPR if additive else _TERM, False)
        right = _render(expr.right, _TERM if additive else _FACTOR, closed or wrap)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if wrap else text
    if isinstance(expr, IfLe):
        text = (
            f"if {_render(expr.guard_left, _EXPR)} <= {_render(expr.guard_right, _EXPR)}"
            f" then {_render(expr.then_branch, _EXPR)}"
            f" else {_render(expr.else_branch, _EXPR, closed)}"
        )
        return text if closed else f"({text})"
    raise TypeError(f"not an expression: {expr!r}")


def render_expr(expr: Expr) -> str:
    return _render(expr, _EXPR)


def render_map(spec: MapSpec) -> str:
    lines = [f"map {spec.name} : {spec.m} -> {spec.n} {{"]
    for i, expr in enumerate(spec.outputs):
        sep = ";" if i < spec.n - 1 else ""
        lines.append(f"  y{i} = {render_expr(expr)}{sep}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_map_file(specs: list[MapSpec]) -> str:
    return "\n".join(render_map(s) for s in specs)


# -- symbolic affine detection ------------------------------------------------


def _affine_form(expr: Expr, m: int) -> Optional[tuple[list[Fraction], Fraction]]:
    """Normalize to (coefficients, constant) when the expression is affine.

    Conservative: conditionals fold only on constant guards; an input-
    dependent guard is never recognized, even if both branches agree.
    """
    if isinstance(expr, Lit):
        return [Fraction(0)] * m, expr.value
    if isinstance(expr, Var):
        coeffs = [Fraction(0)] * m
        coeffs[expr.index] = Fraction(1)
        return coeffs, Fraction(0)
    if isinstance(expr, Neg):
        sub = _affine_form(expr.operand, m)
        if sub is None:
            return None
        return [-c for c in sub[0]], -sub[1]
    if isinstance(expr, BinOp):
        left = _affine_form(expr.left, m)
        right = _affine_form(expr.right, m)
        if left is None or right is None:
            return None
        lc, lb = left
        rc, rb = right
        if expr.op == "+":
            return [a + b for a, b in zip(lc, rc)], lb + rb
        if expr.op == "-":
            return [a - b for a, b in zip(lc, rc)], lb - rb
        if expr.op == "*":
            if all(c == 0 for c in lc):
                return [lb * c for c in rc], lb * rb
            if all(c == 0 for c in rc):
                return [rb * c for c in lc], rb * lb
            return None
        if any(c != 0 for c in rc) or rb == 0:
            return None
        return [c / rb for c in lc], lb / rb
    if isinstance(expr, IfLe):
        gl = _affine_form(expr.guard_left, m)
        gr = _affine_form(expr.guard_right, m)
        if gl is None or gr is None:
            return None
        if any(c != 0 for c in gl[0]) or any(c != 0 for c in gr[0]):
            return None
        branch = expr.then_branch if gl[1] <= gr[1] else expr.else_branch
        return _affine_form(branch, m)
    raise TypeError(f"not an expression: {expr!r}")


def symbolic_affine_form(spec: MapSpec) -> Optional[tuple[Matrix, Vector]]:
    """Return (A, b) with the map equal to x ↦ A·x + b, when provable by
    normalization.  None means "not recognized", never "not affine".
    """
    rows = []
    consts = []
    for expr in spec.outputs:
        form = _affine_form(expr, spec.m)
        if form is None:
            return None
        rows.append(tuple(form[0]))
        consts.append(form[1])
    return tuple(rows), Vector(consts)
