import glob
import io
import math
import os
import random
import re
import tokenize
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colline import dsl
from colline.dsl import (
    MAX_DEPTH,
    BinOp,
    IfLe,
    Lit,
    MapSpec,
    Neg,
    Var,
    eval_map,
    parse_map,
    parse_map_file,
    render_expr,
    render_map,
    render_map_file,
    symbolic_affine_form,
)
from colline.errors import DimensionMismatch, MapEvalError, MapParseError
from colline.field import Vector


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def vec(*values):
    return Vector.of(*values)


class TestParse:
    def test_identity(self):
        spec = parse_map("map id : 2 -> 2 { y0 = x0; y1 = x1 }")
        assert spec == MapSpec("id", 2, 2, (Var(0), Var(1)))

    def test_piecewise(self):
        spec = parse_map("map psi : 1 -> 1 { y0 = if x0 <= 0 then x0 else 2*x0 }")
        assert eval_map(spec, vec(-1)) == vec(-1)
        assert eval_map(spec, vec(2)) == vec(4)

    def test_variable_out_of_range(self):
        with pytest.raises(MapParseError) as err:
            parse_map("map bad : 1 -> 1 { y0 = x3 }")
        assert "variable index 3 out of range" in err.value.message
        assert (err.value.line, err.value.col) == (1, 25)

    def test_precedence_and_parens(self):
        spec = parse_map("map f : 1 -> 1 { y0 = 1 + 2 * x0 - (x0 - 1) / 2 }")
        assert eval_map(spec, vec(3)) == vec(6)

    def test_rational_literals_are_division(self):
        spec = parse_map("map f : 1 -> 1 { y0 = -3/4 + x0 }")
        assert eval_map(spec, vec(0)) == vec(Fraction(-3, 4))

    def test_comments_and_whitespace(self):
        text = """
        # leading comment
        map    f : 2 -> 1 {   # inline comment
            y0 = x0 + x1;     # trailing semicolon allowed
        }
        """
        spec = parse_map(text)
        assert eval_map(spec, vec(1, 2)) == vec(3)

    def test_outputs_any_order_with_all_required(self):
        spec = parse_map("map f : 1 -> 2 { y1 = x0; y0 = 2 }")
        assert spec.outputs == (Lit(Fraction(2)), Var(0))

    def test_missing_output(self):
        with pytest.raises(MapParseError) as err:
            parse_map("map f : 1 -> 2 { y0 = x0 }")
        assert "missing y1" in err.value.message

    def test_duplicate_output(self):
        with pytest.raises(MapParseError) as err:
            parse_map("map f : 1 -> 1 { y0 = x0; y0 = 1 }")
        assert "duplicate output y0" in err.value.message

    def test_output_index_out_of_range(self):
        with pytest.raises(MapParseError) as err:
            parse_map("map f : 1 -> 1 { y0 = x0; y1 = 1 }")
        assert "output index 1 out of range" in err.value.message

    def test_error_position_is_one_based(self):
        with pytest.raises(MapParseError) as err:
            parse_map("map f : 1 -> 1 {\n  y0 = $ }")
        assert (err.value.line, err.value.col) == (2, 8)

    @pytest.mark.parametrize("text, col", [
        ("map f : 1 -> 1 { y0 = x² }", 24),
        ("map f : ² -> 1 { y0 = x0 }", 9),
        ("map f : 1 -> 1 { y0 = x٠ }", 24),  # not read as x0
        ("map f : 1 -> 1 { y0 = ٣ }", 23),  # not read as 3
        ("map é : 1 -> 1 { y0 = x0 }", 5),
    ], ids=["superscript-index", "superscript-dimension", "arabic-indic-index",
            "arabic-indic-literal", "accented-name"])
    def test_digits_and_names_are_ascii_only(self, text, col):
        with pytest.raises(MapParseError) as err:
            parse_map(text)
        assert err.value.message == f"unexpected character {text[col - 1]!r}"
        assert (err.value.line, err.value.col) == (1, col)

    def test_expected_token_set_reported(self):
        with pytest.raises(MapParseError) as err:
            parse_map("map f : 1 -> 1 { y0 = * }")
        assert err.value.expected
        assert any("rational" in e for e in err.value.expected)

    def test_multi_map_file(self):
        specs = parse_map_file(
            "map a : 1 -> 1 { y0 = x0 }\nmap b : 1 -> 1 { y0 = 2*x0 }"
        )
        assert [s.name for s in specs] == ["a", "b"]
        with pytest.raises(MapParseError):
            parse_map("map a : 1 -> 1 { y0 = x0 }\nmap b : 1 -> 1 { y0 = x0 }")

    def test_dimension_bounds(self):
        with pytest.raises(MapParseError):
            parse_map("map f : 0 -> 1 { y0 = 1 }")
        with pytest.raises(MapParseError):
            parse_map("map f : 1 -> 99 { y0 = x0 }")


DEEP_PREFIX = "map d : 1 -> 1 { y0 = "  # the expression starts at column 23


class TestDepthLimit:
    @pytest.mark.parametrize("body, col", [
        ("(" * 3000 + "x0" + ")" * 3000, 223),  # the 201st parenthesis
        ("-" * 3000 + "x0", 223),  # the 201st sign
        (" + ".join(["x0"] * 5000), 1021),  # the 200th '+' makes the tree 201 deep
    ], ids=["parentheses", "signs", "long-sum"])
    def test_golden_error_at_the_token_past_the_limit(self, body, col):
        with pytest.raises(MapParseError) as err:
            parse_map(DEEP_PREFIX + body + " }")
        assert err.value.message == f"expression nested deeper than {MAX_DEPTH} levels"
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("body", [
        "(" * (MAX_DEPTH - 1) + "x0" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "x0",
        " + ".join(["x0"] * MAX_DEPTH),
    ], ids=["parentheses", "signs", "long-sum"])
    def test_deepest_accepted_tree_evaluates_renders_and_normalizes(self, body):
        spec = parse_map(DEEP_PREFIX + body + " }")
        eval_map(spec, vec(1))
        assert parse_map(render_map(spec)) == spec
        assert symbolic_affine_form(spec) is not None

    @pytest.mark.parametrize("opener, closer", [
        ("if x0 <= ", " then 1 else 2"),
        ("if x0 <= 1 then ", " else 2"),
    ], ids=["guards", "then-branches"])
    def test_deepest_accepted_conditionals_render_within_the_limit(self, opener, closer):
        depth = MAX_DEPTH - 2  # the inner conditional and its leaves add two levels
        inner = "if x0 <= 0 then x0 else 1"
        spec = parse_map(DEEP_PREFIX + opener * depth + inner + closer * depth + " }")
        assert parse_map(render_map(spec)) == spec


class TestEval:
    def test_identity_at_rationals(self):
        spec = parse_map("map id : 2 -> 2 { y0 = x0; y1 = x1 }")
        x = vec("3/2", -1)
        assert eval_map(spec, x) == x

    def test_division_by_zero_names_output_and_input(self):
        spec = parse_map("map f : 1 -> 1 { y0 = 1/x0 }")
        with pytest.raises(MapEvalError) as err:
            eval_map(spec, vec(0))
        assert err.value.output_index == 0
        assert err.value.at == vec(0)
        assert "y0" in str(err.value) and "(0)" in str(err.value)

    def test_wrong_input_dim(self):
        spec = parse_map("map f : 2 -> 1 { y0 = x0 }")
        with pytest.raises(DimensionMismatch):
            eval_map(spec, vec(1))

    def test_conditional_guard_boundary(self):
        spec = parse_map("map f : 1 -> 1 { y0 = if x0 <= 1 then 10 else 20 }")
        assert eval_map(spec, vec(1)) == vec(10)
        assert eval_map(spec, vec("9/8")) == vec(20)


# random expression strategy for round-trip and normalization properties
def _expr_strategy(m: int):
    leaves = st.one_of(
        st.fractions(min_value=0, max_value=20, max_denominator=8).map(Lit),
        st.integers(0, m - 1).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: BinOp("+", *t)),
            st.tuples(children, children).map(lambda t: BinOp("-", *t)),
            st.tuples(children, children).map(lambda t: BinOp("*", *t)),
            st.tuples(children, children).map(lambda t: BinOp("/", *t)),
            children.map(Neg),
            st.tuples(children, children, children, children).map(lambda t: IfLe(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestRenderRoundTrip:
    def test_fixed_examples(self):
        texts = [
            "map id : 2 -> 2 { y0 = x0; y1 = x1 }",
            "map f : 1 -> 1 { y0 = if x0 <= 0 then x0 else 2*x0 }",
            "map g : 2 -> 1 { y0 = (x0 + x1) * 3 - 1/2 }",
            "map h : 1 -> 1 { y0 = -(x0 - 2) / (x0 + 1) }",
        ]
        for text in texts:
            spec = parse_map(text)
            assert parse_map(render_map(spec)) == spec

    def test_multi_map_render(self):
        specs = parse_map_file("map a : 1 -> 1 { y0 = x0 } map b : 1 -> 1 { y0 = 1 }")
        assert parse_map_file(render_map_file(specs)) == specs

    @given(st.lists(_expr_strategy(2), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_random_round_trip(self, outputs):
        # render(parse(t)) must reparse structurally equal for any parsed t,
        # so parse once to land in the parser's image, then round-trip
        text = render_map(MapSpec("r", 2, len(outputs), tuple(outputs)))
        spec = parse_map(text)
        assert parse_map(render_map(spec)) == spec


class TestSymbolicAffineForm:
    def test_affine_output(self):
        spec = parse_map("map f : 2 -> 1 { y0 = 2*x0 + 3*x1 - 1 }")
        form = symbolic_affine_form(spec)
        assert form is not None
        a, b = form
        assert a == ((Fraction(2), Fraction(3)),)
        assert b == vec(-1)

    def test_degree_two_not_recognized(self):
        assert symbolic_affine_form(parse_map("map f : 2 -> 1 { y0 = x0*x1 }")) is None

    def test_normalization_folds(self):
        form = symbolic_affine_form(parse_map("map f : 1 -> 1 { y0 = (x0 + x0) - x0 }"))
        assert form == (((Fraction(1),),), vec(0))

    def test_division_by_constant(self):
        form = symbolic_affine_form(parse_map("map f : 1 -> 1 { y0 = (2*x0 + 4) / 2 }"))
        assert form == (((Fraction(1),),), vec(2))

    def test_division_by_variable_not_recognized(self):
        assert symbolic_affine_form(parse_map("map f : 1 -> 1 { y0 = 1/x0 }")) is None

    def test_constant_guard_folds(self):
        form = symbolic_affine_form(
            parse_map("map f : 1 -> 1 { y0 = if 1 <= 2 then x0 else x0 + 5 }")
        )
        assert form == (((Fraction(1),),), vec(0))

    def test_variable_guard_never_recognized(self):
        # conservative even when both branches agree
        spec = parse_map("map f : 1 -> 1 { y0 = if x0 <= 0 then x0 else x0 }")
        assert symbolic_affine_form(spec) is None

    def test_constant_zero_division_not_recognized(self):
        assert symbolic_affine_form(parse_map("map f : 1 -> 1 { y0 = x0 / 0 }")) is None

    @given(_expr_strategy(2), st.lists(
        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                  st.fractions(min_value=-9, max_value=9, max_denominator=6)),
        min_size=20, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_recognized_forms_agree_with_evaluation(self, expr, points):
        spec = MapSpec("p", 2, 1, (expr,))
        form = symbolic_affine_form(spec)
        if form is None:
            return
        a, b = form
        for x0, x1 in points:
            x = Vector((x0, x1))
            want = Vector(
                (a[0][0] * x0 + a[0][1] * x1 + b.coords[0],)
            )
            assert eval_map(spec, x) == want


def _reference_eval(expr, coords):
    """Fraction evaluation, independent of eval_map's integer walk."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return coords[expr.index]
    if isinstance(expr, Neg):
        return -_reference_eval(expr.operand, coords)
    if isinstance(expr, IfLe):
        guard = _reference_eval(expr.guard_left, coords) <= _reference_eval(
            expr.guard_right, coords)
        return _reference_eval(expr.then_branch if guard else expr.else_branch, coords)
    left, right = _reference_eval(expr.left, coords), _reference_eval(expr.right, coords)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    return left / right  # ZeroDivisionError for a zero divisor


class TestIntegerEvaluation:
    @given(st.lists(_expr_strategy(2), min_size=1, max_size=3),
           st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=4)] * 2))
    @settings(max_examples=150, deadline=None)
    def test_eval_map_matches_fraction_reference(self, outputs, point):
        spec = MapSpec("r", 2, len(outputs), tuple(outputs))
        x = Vector(point)
        want = []
        for i, expr in enumerate(outputs):
            try:
                want.append(_reference_eval(expr, point))
            except ZeroDivisionError:
                with pytest.raises(MapEvalError) as info:
                    eval_map(spec, x)
                assert info.value.output_index == i and info.value.at == x
                assert str(info.value) == f"map r: division by zero in output y{i} at input {x}"
                return
        got = eval_map(spec, x)
        assert got.coords == tuple(want)
        assert got.den > 0 and math.gcd(*got.nums, got.den) == 1


def _nested_conditionals(seed: int) -> str:
    """Conditionals nested MAX_DEPTH - 5 deep (the divisors open two more
    levels), each in the guard, the then branch or the else branch."""
    rng = random.Random(seed)
    text = "if x0 <= 0 then x0 else 1"
    for _ in range(MAX_DEPTH - 5):
        k = rng.randint(-3, 3)
        text = rng.choice((
            f"if {text} <= {k} then x0 else 1/(x0 - {k})",
            f"if x0 <= {k} then {text} else {k}*x0",
            f"if x0 <= {k} then 2/(x0 - {k}) else {text}",
        ))
    return text


def _generated_source(spec: MapSpec) -> str:
    """The source compiled on the spec's first evaluation."""
    with mock.patch.object(dsl, "compile", wraps=compile, create=True) as spy:
        try:
            eval_map(spec, Vector.zero(spec.m))
        except MapEvalError:
            pass
    (source, *_), _ = spy.call_args
    return source


_SOURCE_NAMES = re.compile(r"(def|return|if|else|not|raise|ZeroDivisionError|[xdf]|[xtf]\d+)\Z")
_SOURCE_NUMBERS = re.compile(r"(\d+|0x[0-9a-f]+)\Z")
_SOURCE_OPS = {"+", "-", "*", "<=", ">", "==", "=", ",", "(", ")", ":"}


def _assert_only_allowed_tokens(source: str) -> None:
    layout = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert _SOURCE_NAMES.match(tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert _SOURCE_NUMBERS.match(tok.string), tok
        elif tok.type == tokenize.OP:
            assert tok.string in _SOURCE_OPS, tok
        else:
            assert tok.type in layout, tok


class TestCompiledEvaluation:
    @pytest.mark.parametrize("body", [
        "if x0 <= " * (MAX_DEPTH - 2) + "if x0 <= 0 then x0 else 1" + " then 1 else 2" * (MAX_DEPTH - 2),
        "if x0 <= 1 then " * (MAX_DEPTH - 2) + "if x0 <= 0 then x0 else 1" + " else 2" * (MAX_DEPTH - 2),
        "if x0 <= 1 then 2 else " * (MAX_DEPTH - 2) + "if x0 <= 3 then x0 else 1",
    ] + [_nested_conditionals(seed) for seed in range(4)],
        ids=["guards", "then-branches", "else-branches"] + [f"mixed-{seed}" for seed in range(4)])
    def test_deep_conditionals_past_the_hoisting_depth_match_the_reference(self, body):
        spec = parse_map(DEEP_PREFIX + body + " }")
        for x0 in [Fraction(k, 2) for k in range(-9, 10)]:
            try:
                want = _reference_eval(spec.outputs[0], (x0,))
            except ZeroDivisionError:
                with pytest.raises(MapEvalError) as info:
                    eval_map(spec, vec(x0))
                assert info.value.output_index == 0 and info.value.at == vec(x0)
                continue
            assert eval_map(spec, vec(x0)) == vec(want)

    def test_hoisted_functions_appear_below_the_nesting_depth(self):
        text = "if x0 <= 1 then " * (MAX_DEPTH - 2) + "x0" + " else 2" * (MAX_DEPTH - 2)
        source = _generated_source(parse_map(DEEP_PREFIX + text + " }"))
        assert source.count("def ") > 1
        assert max(len(line) - len(line.lstrip(" ")) for line in source.splitlines()) < 90
        compile(source, "<test>", "exec")

    def test_zero_divisor_raises_only_at_evaluation_on_the_branch_taken(self):
        spec = parse_map("map z : 1 -> 1 { y0 = 1/0 }")
        assert spec.compiled is None
        with pytest.raises(MapEvalError) as info:
            eval_map(spec, vec(3))
        assert spec.compiled is not None  # it compiled; evaluating raised
        assert str(info.value) == "map z: division by zero in output y0 at input (3)"
        never = parse_map("map n : 1 -> 1 { y0 = if 1 <= 0 then 1/0 else x0 }")
        for x in (-1, 0, "5/2"):
            assert eval_map(never, vec(x)) == vec(x)
        second = parse_map("map s : 1 -> 2 { y0 = x0; y1 = if x0 <= 0 then 1/x0 else x0 }")
        assert eval_map(second, vec(-2)) == vec(-2, "-1/2")
        with pytest.raises(MapEvalError) as info:
            eval_map(second, vec(0))
        assert info.value.output_index == 1

    def test_demo_sources_compile_to_allowed_tokens_only(self):
        for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.map"))):
            with open(path, encoding="utf-8") as fh:
                for spec in parse_map_file(fh.read()):
                    _assert_only_allowed_tokens(_generated_source(spec))

    @given(st.lists(_expr_strategy(2), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_random_maps_compile_to_allowed_tokens_only(self, outputs):
        spec = MapSpec("import_os", 2, len(outputs), tuple(outputs))
        _assert_only_allowed_tokens(_generated_source(spec))

    def test_spec_equality_hash_and_repr_ignore_the_compiled_function(self):
        text = "map f : 2 -> 1 { y0 = if x0 <= x1 then x0 else 1/x1 }"
        fresh, used = parse_map(text), parse_map(text)
        assert eval_map(used, vec(1, 2)) == vec(1)
        compiled = used.compiled
        assert compiled is not None and fresh.compiled is None
        assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
        assert eval_map(used, vec(3, 2)) == vec("1/2") and used.compiled is compiled


_FUZZ_TOKENS = (
    "map", "f", ":", "1", "2", "->", "{", "}", ";", "y0", "y1", "=", "x0", "x1", "x9",
    "+", "-", "*", "/", "(", ")", "if", "<=", "then", "else", "3/4", "0", "#", "\n", "$",
    "x²", "٣",
)
# an opener repeated to some depth, and what closes each repetition
_NESTINGS = (("(", ")"), ("-", ""), ("x0 + ", ""), ("x0 * ", ""), ("if x0 <= ", " then 1 else 2"))


class TestParserFuzz:
    @given(
        st.one_of(
            _expr_strategy(2).map(render_expr),
            st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=30).map(" ".join),
        ),
        st.sampled_from(_NESTINGS),
        st.integers(0, 3 * MAX_DEPTH),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_text_gives_specs_or_a_parse_error(self, middle, nesting, depth):
        opener, closer = nesting
        body = opener * depth + middle + closer * depth
        try:
            specs = parse_map_file(f"map f : 2 -> 2 {{ y0 = {body}; y1 = x1 }}")
        except MapParseError:
            return
        for spec in specs:
            assert isinstance(spec, MapSpec)
            symbolic_affine_form(spec)
            assert parse_map_file(render_map(spec)) == [spec]
            try:
                eval_map(spec, vec("1/2", -3))
            except MapEvalError:
                pass


_FACTOR_EXPECTED = ("rational literal", "variable x<i>", "'-'", "'('", "'if'")
_HEAD = "map f : 1 -> 1 { "


class TestLexerGolden:
    @pytest.mark.parametrize("text, line, col, message, expected", [
        (_HEAD + "y0 = x0 # c", 1, 26, "found end of input", ("'}'",)),
        (_HEAD + "y0 = x0\t# c\n", 2, 1, "found end of input", ("'}'",)),
        ("map f : 1 -> 1 {\r\n y0 = x0 +\r\n", 3, 1, "found end of input", _FACTOR_EXPECTED),
        (_HEAD + "y0 = x0\x0b }", 1, 25, "unexpected character '\\x0b'", ()),
        (_HEAD + "y0 = x0\x0c }", 1, 25, "unexpected character '\\x0c'", ()),
        ("map f : 1 -> 1 { # é ü\n   y0 = x0 + x0 + x0 +\tx9 }", 2, 24,
         "variable index 9 out of range", ()),
        (_HEAD + "y0 = x0 } junk", 1, 28, "found extra input after the first map definition",
         ("end of input",)),
        ("", 1, 1, "found end of input", ("'map'",)),
        ("   \n  # only", 2, 3, "found end of input", ("'map'",)),
    ], ids=["comment-ends-text", "tab-then-comment", "crlf-after-plus", "vertical-tab",
            "form-feed", "non-ascii-comment", "trailing-junk", "empty", "blank-and-comment"])
    def test_error_position(self, text, line, col, message, expected):
        with pytest.raises(MapParseError) as err:
            parse_map(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert (err.value.message, err.value.expected) == (message, expected)


def _reference_tokenize(text: str):
    """The per-character lexer the regex lexer replaced: (kind, text, line, col)."""
    digits = frozenset("0123456789")
    name_chars = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_") | digits
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if text[i : i + 2] in ("->", "<="):
            yield "punct", text[i : i + 2], line, start_col
            i, col = i + 2, col + 2
            continue
        for kind, chars in (("int", digits), ("name", name_chars)):
            if ch in chars:
                j = i
                while j < n and text[j] in chars:
                    j += 1
                yield kind, text[i:j], line, start_col
                col += j - i
                i = j
                break
        else:
            if ch not in ":{};=+-*/()":
                raise MapParseError(f"unexpected character {ch!r}", line, start_col)
            yield "punct", ch, line, start_col
            i, col = i + 1, col + 1
    yield "eof", "", line, col


_LEX_PIECES = _FUZZ_TOKENS + (
    " ", "\t", "\r", "\n", "\r\n", "# c", "# é ü", "#", "$", "²", "٣", "é", "\x0b", "12", "_a",
)


class TestLexerOracle:
    @given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_tokens_match_the_per_character_lexer(self, text):
        def positions(tokenize):
            try:
                return list(tokenize(text))
            except MapParseError as exc:
                return (exc.message, exc.line, exc.col)

        new = positions(lambda t: [(tok.kind, tok.text, *dsl._position(t, tok.pos))
                                   for tok in dsl._tokenize(t)])
        assert new == positions(_reference_tokenize)
