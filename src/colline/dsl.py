"""Parse, compile and evaluate vector maps ℚ^m → ℚ^n from a small text language.

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

Evaluation is compiled once per spec: the first evaluation emits code over
integer (numerator, denominator) pairs, kept on the spec, that runs at a point
or, in a twin function, at each point o + t·d of a line.  Each affine subtree
is folded into one integer dot product by the same pass that gives
``symbolic_affine_form`` its (A, b); affine outputs and branch arms share one
constant multiple of the input's denominator, so such outputs come back as one
unreduced row with no lcm taken at run time.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .errors import DimensionMismatch, MapEvalError, MapParseError
from .field import MAX_DIM, Matrix, Vector, format_scalar, from_ints, from_pairs

#: Deepest expression tree accepted, counted in nodes from root to leaf, and
#: most parentheses, signs and conditionals open at once.  Parsing,
#: compiling and rendering recurse once per level.
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
    #: the generated code, emitted on the first evaluation
    compiled: Optional["_Code"] = field(default=None, init=False, compare=False, repr=False)


# -- lexer --------------------------------------------------------------------

_KEYWORDS = {"map", "if", "then", "else"}
_NESTING = ("-", "(", "if")  # factors that recurse

# One pattern lexes the language: blanks, then one comment or token.  Names
# and integers are ASCII only (str.isdigit also accepts "²" and "٣").  "bad"
# takes any other character and \Z the end, so no match ever backtracks.
_LEXEME = re.compile(
    r"[ \t\r\n]*(?:(?P<comment>#[^\n]*)|(?P<punct>->|<=|[:{};=+\-*/()])"
    r"|(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>.)|\Z)",
    re.S,
)


class _Token(NamedTuple):
    kind: str  # name | int | punct | eof
    text: str
    pos: int  # offset in the source text


def _position(text: str, pos: int) -> tuple[int, int]:
    """The 1-based (line, column) of an offset; every character is one column."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[_Token]:
    """All tokens, then eof; end of input sits where a final comment starts."""
    tokens, end = [], len(text)
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "comment":
            if m.end() == len(text):
                end = m.start(kind)
        elif kind == "bad":
            line, col = _position(text, m.start(kind))
            raise MapParseError(f"unexpected character {m[kind]!r}", line, col)
        elif kind is not None:
            tokens.append(_Token(kind, m[kind], m.start(kind)))
    tokens.append(_Token("eof", "", end))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.cur = self.tokens[0]
        self.open = 0

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def error(self, message: str, expected: tuple[str, ...] = (), tok: _Token | None = None):
        tok = tok or self.cur
        raise MapParseError(message, *_position(self.text, tok.pos), expected)

    def take(self, ok: bool, *expected: str) -> _Token:
        """Consume the current token if ``ok``, else fail naming what was expected."""
        if not ok:
            found = "end of input" if self.cur.kind == "eof" else repr(self.cur.text)
            self.error(f"found {found}", expected)
        return self.advance()

    def expect(self, text: str) -> _Token:
        """The punctuation or keyword ``text`` (no keyword is punctuation)."""
        return self.take(self.cur.text == text, repr(text))

    # file := mapdef+
    def parse_file(self) -> list[MapSpec]:
        specs = [self.parse_mapdef()]
        while self.cur.kind != "eof":
            specs.append(self.parse_mapdef())
        return specs

    def parse_mapdef(self) -> MapSpec:
        self.expect("map")
        cur = self.cur
        name_tok = self.take(cur.kind == "name" and cur.text not in _KEYWORDS, "map name")
        self.expect(":")
        m_tok = self.take(self.cur.kind == "int", "input dimension")
        if not 1 <= (m := int(m_tok.text)) <= MAX_DIM:
            self.error(f"input dimension {m} outside 1..{MAX_DIM}", tok=m_tok)
        self.expect("->")
        n_tok = self.take(self.cur.kind == "int", "output dimension")
        if not 1 <= (n := int(n_tok.text)) <= MAX_DIM:
            self.error(f"output dimension {n} outside 1..{MAX_DIM}", tok=n_tok)
        self.expect("{")
        outputs: dict[int, Expr] = {}
        while True:
            idx, idx_tok, expr = self.parse_output(m)
            if idx in outputs:
                self.error(f"duplicate output y{idx}", tok=idx_tok)
            if idx >= n:
                self.error(f"output index {idx} out of range for {n} outputs", tok=idx_tok)
            outputs[idx] = expr
            if self.cur.text != ";":
                break
            self.advance()
            if self.cur.text == "}":
                break
        close = self.cur
        self.expect("}")
        if len(outputs) != n:
            missing = [f"y{i}" for i in range(n) if i not in outputs]
            self.error(
                f"map {name_tok.text} declares {n} outputs but defines {len(outputs)}"
                f" (missing {', '.join(missing)})",
                tok=close,
            )
        return MapSpec(name_tok.text, m, n, tuple(outputs[i] for i in range(n)))

    def parse_output(self, m: int) -> tuple[int, _Token, Expr]:
        cur = self.cur
        tok = self.take(cur.kind == "name" and _is_indexed(cur.text, "y"), "output name y<i>")
        idx = int(tok.text[1:])
        self.expect("=")
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
        self.take(tok.text in _NESTING, "rational literal", "variable x<i>", "'-'", "'('", "'if'")
        self.open = self.deeper(self.open, tok)
        if tok.text == "-":
            node, height = self.parse_factor(m)
            node, height = Neg(node), self.deeper(height, tok)
        elif tok.text == "(":
            node, height = self.parse_expr(m)
            self.expect(")")
        else:
            left, h0 = self.parse_expr(m)
            self.expect("<=")
            right, h1 = self.parse_expr(m)
            self.expect("then")
            then_branch, h2 = self.parse_expr(m)
            self.expect("else")
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
#
# One bottom-up pass: an affine node yields its form (coeffs, const, den), that is
# (coeffs·x + const)/den in lowest terms with den > 0; any other node yields the
# (p, q) source strings, each a product of integers and names, of its statements.

_NEST = 32  # branches open in one generated function (Python refuses ~98 nested blocks)


def _fold(op: str, left: tuple, right: tuple) -> Optional[tuple]:
    """The form of ``left op right``, or None when it is not affine."""
    (c1, k1, d1), (c2, k2, d2) = left, right
    if op == "+" or op == "-":
        s = 1 if op == "+" else -1
        coeffs = [a * d2 + s * b * d1 for a, b in zip(c1, c2)]
        const, den = k1 * d2 + s * k2 * d1, d1 * d2
    elif op == "*":
        if any(c1):
            if any(c2):
                return None
            (c1, k1, d1), (c2, k2, d2) = right, left
        coeffs, const, den = [k1 * c for c in c2], k1 * k2, d1 * d2
    elif any(c2) or not k2:
        return None
    else:
        s = d2 if k2 > 0 else -d2
        coeffs, const, den = [s * c for c in c1], s * k1, abs(k2) * d1
    if den == 1 or (g := math.gcd(*coeffs, const, den)) == 1:
        return coeffs, const, den
    return [c // g for c in coeffs], const // g, den // g


def _lit(k: int) -> str:
    return str(k) if -(10**18) < k < 10**18 else hex(k)  # hex has no digit limit


def _mul(a: str, b: str) -> str:
    return b if a == "1" else a if b == "1" else "0" if "0" in (a, b) else f"{a}*{b}"


class _Emitter:
    """One map's generated code; a conditional past _NEST is hoisted into a function."""

    def __init__(self, m: int):
        self.m, self.count, self.output, self.depth = m, 0, 0, 1
        self.params = "".join(f"x{i}, " for i in range(m)) + "d"
        self.funcs, self.lines = [], []  # hoisted functions; the body being emitted
        self.dens: dict[str, int] = {}  # the text of a constant multiple k of d -> k

    def name(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def line(self, text: str) -> None:
        self.lines.append(" " * self.depth + text)

    def pair(self, value: tuple, bind: bool = True, den: int = 0) -> tuple[str, str]:
        """A form as one dot product over den*d, den a multiple of the form's own
        (by default its own, and then a constant is over den alone), bound to a
        name unless ``bind`` is false; a pair passes through."""
        if len(value) == 2:
            return value
        coeffs, const, own = value
        if not (den or any(coeffs)):
            return _lit(const), _lit(own)
        k = (den := den or own) // own
        terms = [_mul(_lit(k * c), f"x{i}") for i, c in enumerate(coeffs) if c]
        if const:
            terms.append(_mul(_lit(k * const), "d"))
        p = " + ".join(terms).replace("+ -", "- ") or "0"
        if bind and len(terms) > 1:
            self.line(f"{self.name()} = {p}")
            p = f"t{self.count}"
        return p, _mul(_lit(den), "d")

    def visit(self, expr: Expr) -> tuple:
        kind = type(expr)
        if kind is Lit:
            return [0] * self.m, expr.value.numerator, expr.value.denominator
        if kind is Var:
            return [0] * expr.index + [1] + [0] * (self.m - expr.index - 1), 0, 1
        if kind is Neg:
            sub = self.visit(expr.operand)
            if len(sub) == 2:
                return "-" + sub[0], sub[1]
            return [-c for c in sub[0]], -sub[1], sub[2]
        if kind is IfLe:
            return self.hoist(expr) if self.depth >= _NEST else self.branch(expr)
        left, right, op = self.visit(expr.left), self.visit(expr.right), expr.op
        if len(left) == len(right) == 3 and (form := _fold(op, left, right)) is not None:
            return form
        (a, b), (c, e) = self.pair(left), self.pair(right)
        p, q = self.name(), self.name()
        if op == "*":
            self.line(f"{p}, {q} = {_mul(a, c)}, {_mul(b, e)}")
        elif op != "/":
            if b != e:
                a, c, b = _mul(a, e), _mul(c, b), _mul(b, e)
            self.line(f"{p}, {q} = {a} {op} {c}, {b}")
        else:
            ae, bc = _mul(a, e), _mul(b, c)
            self.line(f"if not {c}: raise ZeroDivisionError({self.output})")
            self.line(f"{p}, {q} = ({ae}, {bc}) if {c} > 0 else (-{ae}, -{bc})")
        return p, q

    def branch(self, expr: IfLe) -> tuple:
        left, right = self.visit(expr.guard_left), self.visit(expr.guard_right)
        if len(left) == len(right) == 3 and not any(left[0]) and not any(right[0]):
            taken = left[1] * right[2] <= right[1] * left[2]  # a constant guard folds
            return self.visit(expr.then_branch if taken else expr.else_branch)
        (a, b), (c, e) = self.pair(left), self.pair(right)
        if b != e:
            a, c = _mul(a, e), _mul(c, b)
        p, q = self.name(), self.name()
        arms = []  # (value, index of the line that assigns it)
        for head, arm in ((f"if {a} <= {c}:", expr.then_branch), ("else:", expr.else_branch)):
            self.line(head)
            self.depth += 1
            arms.append((self.visit(arm), len(self.lines)))
            self.line("")
            self.depth -= 1
        pairs = self.over([v for v, _ in arms]) or [self.pair(v, False) for v, _ in arms]
        shared = pairs[0][1] == pairs[1][1]  # then q needs no name
        for (_, at), pair in zip(arms, pairs):
            self.lines[at] += f"{p} = {pair[0]}" if shared else "{}, {} = {}, {}".format(p, q, *pair)
        return p, pairs[0][1] if shared else q

    def over(self, values: list) -> Optional[list[tuple[str, str]]]:
        """The values as pairs over one constant multiple of d, when each is an
        affine form or a pair over such a multiple; else None."""
        dens = [v[2] if len(v) == 3 else self.dens.get(v[1]) for v in values]
        if None in dens:
            return None
        den = math.lcm(*dens)
        self.dens[q := _mul(_lit(den), "d")] = den
        return [(self.pair(v, False, den)[0] if len(v) == 3 else _mul(_lit(den // k), v[0]), q)
                for v, k in zip(values, dens)]

    def hoist(self, expr: IfLe) -> tuple[str, str]:
        p, q = self.name(), self.name()
        outer, self.lines, self.depth = (self.lines, self.depth), [], 1
        self.line("return {}, {}".format(*self.pair(self.branch(expr), False)))
        self.funcs.append(f"def f{p[1:]}({self.params}):\n" + "\n".join(self.lines))
        self.lines, self.depth = outer
        self.line(f"{p}, {q} = f{p[1:]}({self.params})")
        return p, q


class _Code:
    """A map's generated functions in one namespace: ``point``, f(x, d), compiled
    at once with the hoisted functions, gives the row (nums, den), den > 0 and not
    reduced, of the outputs at x/d; its twin ``line``, f(o, u, params), compiled on
    its first use, gives the rows of ``point`` at o + (p/q)·u for each (p, q), q > 0.
    A zero divisor on the path taken raises ZeroDivisionError(output index)."""

    def __init__(self, emitter: _Emitter, pairs: list[tuple[str, str]]):
        self.emitter, self.namespace = emitter, {"from_pairs": from_pairs}
        self.one = len({q for _, q in pairs}) == 1  # then the outputs share their denominator
        self.result = "({},), {}".format(", ".join(p for p, _ in pairs), pairs[0][1]) if self.one \
            else " ".join("({}, {}),".format(*pair) for pair in pairs)  # pairs for from_pairs
        run = self._exec("f", f"def f(x, d):\n {emitter.params[:-1]}= x", " return " + self.result)
        self.point = run if self.one else lambda x, d: ((v := from_pairs(run(x, d))).nums, v.den)

    def _exec(self, name: str, head: str, tail: str, indent: str = "") -> Callable:
        lines = self.emitter.funcs + [head] + [indent + t for t in self.emitter.lines] + [tail]
        exec(compile("\n".join(lines), "<colline map>", "exec"), self.namespace)
        self.emitter.funcs = []  # the hoisted functions are in the namespace now
        return self.namespace[name]

    @functools.cached_property
    def line(self) -> Callable:
        # line_point_row inlined: the point is (o·ud·q + u·od·p) / (od·ud·q)
        xs = self.emitter.params[:-1]
        point = ", ".join(f"o{i} * mo + u{i} * md" for i in range(self.emitter.m))
        row = f"({self.result})" if self.one else f"(v := from_pairs(({self.result}))).nums, v.den"
        head = (f"def line(o, u, params):\n ({xs.replace('x', 'o')}), od = o\n"
                f" ({xs.replace('x', 'u')}), ud = u\n rows = []\n for p, q in params:\n"
                f"  mo, md = ud * q, od * p\n  {xs}d = {point}, od * mo")
        return self._exec("line", head, f"  rows.append(({row}))\n return rows", " ")


def generated(spec: MapSpec) -> _Code:
    """The spec's generated code, emitted on its first use and kept on the spec."""
    if spec.compiled is None:
        emitter = _Emitter(spec.m)
        values = [emitter.visit(expr) for emitter.output, expr in enumerate(spec.outputs)]
        pairs = emitter.over(values) or [emitter.pair(v, False) for v in values]
        object.__setattr__(spec, "compiled", _Code(emitter, pairs))
    return spec.compiled


def compile_rows(rows: list[list[int]], offsets: list[int], den: int) -> _Code:
    """The code of x ↦ ([row·x + offset·d for each row], den·d), not reduced, at
    x/d: the affine map whose integer rows and offsets are over den > 0."""
    emitter = _Emitter(len(rows[0]))
    return _Code(emitter, [emitter.pair((row, offset, den), False, den)
                           for row, offset in zip(rows, offsets)])


def eval_map(spec: MapSpec, x: Vector) -> Vector:
    """Exact evaluation; division by zero names the output index and input."""
    if len(x.nums) != spec.m:
        raise DimensionMismatch(f"map {spec.name} takes dim {spec.m}, got {x.dim}")
    try:
        return from_ints(*generated(spec).point(x.nums, x.den))
    except ZeroDivisionError as exc:  # raised by the generated code only
        i = exc.args[0]
        message = f"map {spec.name}: division by zero in output y{i} at input {x}"
        raise MapEvalError(message, output_index=i, at=x) from None


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


def symbolic_affine_form(spec: MapSpec) -> Optional[tuple[Matrix, Vector]]:
    """Return (A, b) with the map equal to x ↦ A·x + b, when provable by
    normalization.  None means "not recognized", never "not affine".

    Conservative: conditionals fold only on constant guards; an input-
    dependent guard is never recognized, even if both branches agree.
    """
    emitter = _Emitter(spec.m)
    forms = [emitter.visit(expr) for expr in spec.outputs]
    if any(len(form) != 3 for form in forms):
        return None
    rows = tuple(tuple(Fraction(c, den) for c in coeffs) for coeffs, _, den in forms)
    return rows, from_pairs([(const, den) for _, const, den in forms])
