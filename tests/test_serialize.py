"""The report codecs: every record reads back as itself, the keys that older
reports may lack keep their defaults, a malformed outcome is refused, and the
vector table of one report changes no written byte and no stored failure."""

import contextlib
import dataclasses
import functools
import glob
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colline import cli, serialize
from colline.cli import run
from colline.dsl import MapSpec, parse_map, parse_map_file, render_map
from colline.engine import classify_map
from colline.errors import CollineError
from colline.field import Vector
from colline.geometry import Plane
from colline.predicates import (
    ProbeConfig,
    check_additivity,
    classify_plane_image,
    revalidate_witness,
)
from colline.serialize import (
    CERTIFICATE,
    CLASSIFICATION,
    OUTCOME,
    PHI_TABLE,
    from_jsonable,
    json_text,
    one_report,
    to_jsonable,
)
from colline.zoo import make_dsl, parse_builtin
from test_dsl import _expr_strategy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CFG = ProbeConfig(seed=3, count=60)
LEMMA23 = "lemma23:m=2,n=2,e0=0,d0=(0,1)"


DEMO_MAPS = [
    make_dsl(spec)
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.map")))
    for spec in parse_map_file(open(path, encoding="utf-8").read())
]


def _classifications():
    """What `classify --no-symbolic` finds for every demo map and for lemma 2.3."""
    handles = DEMO_MAPS + [parse_builtin(LEMMA23)]
    return [classify_map(h, CFG, use_symbolic=False) for h in handles]


CLASSIFICATIONS = _classifications()
OUTCOMES = [o for c in CLASSIFICATIONS for o in c.outcomes]
CERTIFICATES = [cert for c in CLASSIFICATIONS for cert in c.certificates]
PHI_TABLES = [c.phi for c in CLASSIFICATIONS if c.phi is not None]


class TestRoundTrip:
    def test_the_corpus_covers_every_kind_of_stored_fact(self):
        assert any(o.witness for o in OUTCOMES)
        assert any(o.check.startswith("reduced:") for o in OUTCOMES)
        assert CERTIFICATES and PHI_TABLES
        assert any(c.witness for c in CLASSIFICATIONS)

    @pytest.mark.parametrize("outcome", OUTCOMES, ids=lambda o: o.check)
    def test_outcome(self, outcome):
        assert OUTCOME.decode(OUTCOME.encode(outcome)) == outcome

    @pytest.mark.parametrize("cert", CERTIFICATES, ids=lambda c: c.kind)
    def test_certificate(self, cert):
        assert CERTIFICATE.decode(CERTIFICATE.encode(cert)) == cert

    @pytest.mark.parametrize("table", PHI_TABLES)
    def test_phi_table(self, table):
        assert PHI_TABLE.decode(PHI_TABLE.encode(table)) == table

    @pytest.mark.parametrize("cls", CLASSIFICATIONS, ids=lambda c: c.verdict)
    def test_classification(self, cls):
        obj = CLASSIFICATION.encode(cls)
        assert CLASSIFICATION.encode(CLASSIFICATION.decode(obj)) == obj

    def test_classification_with_a_matrix(self):
        f = make_dsl(parse_map("map s : 2 -> 2 { y0 = x0 + x1/2; y1 = -x1 }"))
        obj = CLASSIFICATION.encode(classify_map(f, CFG))
        assert obj["matrix"] == [["1", "1/2"], ["0", "-1"]]
        assert CLASSIFICATION.encode(CLASSIFICATION.decode(obj)) == obj

    def test_reduced_outcome_names_its_witness_by_the_check(self):
        f = make_dsl(parse_map("map sq : 1 -> 1 { y0 = x0*x0 }"))
        outcome = check_additivity(f, CFG)
        assert not outcome.passed
        reduced = dataclasses.replace(outcome, check="reduced:additivity")
        clone = OUTCOME.decode(OUTCOME.encode(reduced))
        assert clone.check == "reduced:additivity"
        assert clone.witness.check == "additivity"
        assert revalidate_witness(f, clone.witness)

    def test_failing_plane_image_outcome_holds_an_equal_plane(self):
        f = make_dsl(parse_map("map g : 3 -> 3 { y0 = x0*x0; y1 = x1; y2 = x2 }"))
        plane = Plane(Vector.of(0, 0, 0), Vector.of(1, 0, 0), Vector.of(0, 1, 0))
        outcome = classify_plane_image(f, plane, ProbeConfig(seed=1, count=30)).outcome
        assert not outcome.passed and dict(outcome.witness.inputs)["plane"] == plane
        assert OUTCOME.decode(OUTCOME.encode(outcome)) == outcome
        assert from_jsonable(to_jsonable(plane)) == plane

    @pytest.mark.parametrize("value", [
        True, 3, [[Fraction(1)]], (Fraction(1), Vector.of(1)), ("a", "b"),
    ], ids=["bool", "int", "nested-list", "mixed-tuple", "text-tuple"])
    def test_a_value_no_witness_holds_has_no_tag(self, value):
        with pytest.raises(TypeError, match="cannot serialize value of type"):
            to_jsonable(value)

    @pytest.mark.parametrize("tag", ["list", "bool", "int"])
    def test_a_dropped_tag_does_not_decode(self, tag):
        with pytest.raises(ValueError, match=f"unknown tagged value type '{tag}'"):
            from_jsonable({"type": tag, "value": []})


# keys that a stored report may lack, each read with a default
OPTIONAL_KEYS = {"skipped", "note", "witness", "image_origin", "image_direction"}


def _drop(node, keys) -> set:
    """Delete ``keys`` at any depth of a JSON value, except a witness that is
    not null (a Fail and a non_linear verdict need theirs); the keys that were
    found."""
    found = set()
    if isinstance(node, dict):
        found = {k for k in keys & node.keys() if k != "witness" or node[k] is None}
        for key in found:
            del node[key]
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        found |= _drop(child, keys)
    return found


def _report(tmp_path, argv):
    dest = tmp_path / "r.json"
    assert run(argv + ["--probes", "60", "--seed", "3", "--out", str(dest)]) == 0
    return dest, json.loads(dest.read_text())


class TestStoredReports:
    def test_reports_without_their_optional_keys_revalidate(self, tmp_path, capsys):
        found = set()
        for argv in (
            ["classify", "--no-symbolic", os.path.join(ROOT, "demos", "translate.map")],
            ["classify", "--builtin", LEMMA23],
            ["certify", "additivity", os.path.join(ROOT, "demos", "identity.map")],
        ):
            dest, report = _report(tmp_path, argv)
            found |= _drop(report, OPTIONAL_KEYS)
            dest.write_text(json.dumps(report))
            assert run(["--revalidate", str(dest)]) == 0, argv
        assert found == OPTIONAL_KEYS

    @pytest.mark.parametrize("key", ["verdict", "probes"])
    def test_outcome_without_a_required_key_is_malformed(self, key, tmp_path, capsys):
        dest, report = _report(tmp_path, ["check", "homogeneity",
                                          os.path.join(ROOT, "demos", "identity.map")])
        del report["outcomes"][0][key]
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert "stored data is malformed" in capsys.readouterr().err

    # the four keys reports carried before images were read from `points`, and
    # a key added to a record of each other kind
    CERTIFY = ["certify", "additivity", os.path.join(ROOT, "demos", "identity.map")]
    CLASSIFY = ["classify", "--no-symbolic", os.path.join(ROOT, "demos", "identity.map")]
    CHECK = ["check", "additivity", os.path.join(ROOT, "demos", "jump2.map")]

    @pytest.mark.parametrize("argv, path, key", [
        (CERTIFY, ("certificates", 0, "lines", 0), "anchor_images"),
        (CERTIFY, ("certificates", 0, "intersections", 0), "image_point"),
        (CERTIFY, ("certificates", 0, "parallels", 0), "equal"),
        (CERTIFY, ("certificates", 0), "holds"),
        (CERTIFY, ("certificates", 0, "points", 0), "note"),
        (CHECK, ("outcomes", 0, "witness", "values", "f(a+b)"), "note"),
        (CLASSIFY, ("outcomes", 0), "note"),
        (CLASSIFY, ("classification",), "holds"),
        (CLASSIFY, ("classification", "phi"), "anchors"),
    ], ids=["anchor-images", "image-point", "equal", "holds", "point", "tagged-value",
            "outcome", "classification", "phi-anchors"])
    def test_a_key_the_record_does_not_declare_is_malformed(self, tmp_path, capsys, argv,
                                                            path, key):
        dest, report = _report(tmp_path, argv)
        assert run(["--revalidate", str(dest)]) == 0
        functools.reduce(lambda node, step: node[step], path, report)[key] = ["(1, 0)"]
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert (f"stored data is malformed (ValueError: undeclared key {key!r} in a record of "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("verdict", ["PASS", "x", True, None])
    def test_outcome_verdict_other_than_pass_or_fail_is_malformed(self, verdict, tmp_path,
                                                                  capsys):
        dest, report = _report(tmp_path, ["check", "homogeneity",
                                          os.path.join(ROOT, "demos", "identity.map")])
        report["outcomes"][0]["verdict"] = verdict
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert "stored data is malformed" in capsys.readouterr().err


# JSON values with every kind of atom: huge ints, floats with NaN and infinities,
# and text with non-ASCII and control characters, in keys too (which json also
# takes as atoms); tuples are lists
_TEXT = st.text(st.characters(codec="utf-8"), max_size=8)
_ATOMS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**200, 10**200),
                   st.floats(), _TEXT)
_PAYLOADS = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(_TEXT, _TEXT, _ATOMS), inner, max_size=4)), max_leaves=30)


class TestJsonText:
    """The report writer gives the bytes of ``json.dumps(payload, indent=2)``."""

    @given(_PAYLOADS)
    @settings(max_examples=300)
    @example({"": [], "k": {}, "\u00e9\n\x00\u2028": ["\x1f\"\\", 10**150, -0.0, 1e300]})
    @example([float("nan"), float("inf"), float("-inf"), True, False, None, ()])
    def test_equals_json_dumps_with_indent_2(self, payload):
        assert json_text(payload) == json.dumps(payload, indent=2)

    def test_every_report_of_the_corpus(self):
        for c in CLASSIFICATIONS:
            report = CLASSIFICATION.encode(c)
            assert json_text(report) == json.dumps(report, indent=2)


# -- the per-report vector table -------------------------------------------------

# 262 vector texts, 17 distinct: "(0, 0)" is stored 33 times
IDENTITY_ARGV = ["classify", "--no-symbolic", os.path.join(ROOT, "demos", "identity.map"),
                 "--probes", "20", "--seed", "0"]


@functools.lru_cache(maxsize=None)
def _identity_report() -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(IDENTITY_ARGV) == 0
    return out.getvalue()


def _revalidate(tmp_path, payload) -> tuple[int, list[str]]:
    """Exit code and failure lines of ``--revalidate`` on ``payload``."""
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["--revalidate", str(path)])
    return code, [line.removeprefix("colline: revalidation failed: ")
                  for line in err.getvalue().splitlines()]


def _edited(path, old, new):
    report = json.loads(_identity_report())
    node = functools.reduce(lambda node, key: node[key], path[:-1], report)
    assert node[path[-1]] == old
    node[path[-1]] = new
    return report


def _decode_records(report):
    return ([OUTCOME.decode(o) for o in report["outcomes"]],
            [CERTIFICATE.decode(c) for c in report["certificates"]],
            report["classification"] and CLASSIFICATION.decode(report["classification"]))


@pytest.fixture
def text_calls(monkeypatch):
    """The arguments of every ``parse_vector`` and ``format_vector`` call the codec makes."""
    calls = {"parse_vector": [], "format_vector": []}
    for name, log in calls.items():
        convert = getattr(serialize, name)
        monkeypatch.setattr(serialize, name,
                            lambda x, convert=convert, log=log: log.append(x) or convert(x))
    return calls


class TestVectorTableBudget:
    """Text conversions of one report; a change that drops the table fails here,
    not as a benchmark drift."""

    def test_writing_formats_each_distinct_vector_once(self, text_calls):
        _identity_report.cache_clear()
        report = json.loads(_identity_report())
        assert len(text_calls["format_vector"]) == 17
        assert len(set(text_calls["format_vector"])) == 17
        assert text_calls["parse_vector"] == []
        text_calls["format_vector"].clear()
        _decode_records(report)  # outside a table every text is parsed
        assert len(text_calls["parse_vector"]) == 262
        assert len(set(text_calls["parse_vector"])) == 17

    def test_revalidating_parses_each_distinct_text_once(self, tmp_path, text_calls):
        assert _revalidate(tmp_path, json.loads(_identity_report())) == (0, [])
        assert len(text_calls["parse_vector"]) == 17
        assert len(set(text_calls["parse_vector"])) == 17
        assert text_calls["format_vector"] == []

    def test_no_table_outlives_its_report(self, tmp_path):
        _identity_report.cache_clear()
        _identity_report()
        assert serialize._TABLE.get() is None
        _revalidate(tmp_path, json.loads(_identity_report()))
        assert serialize._TABLE.get() is None


def test_a_fresh_report_stores_each_evaluation_once():
    report = json.loads(_identity_report())
    copies = {"anchor_images", "image_point", "equal", "holds"}
    assert _drop(report["certificates"], copies) == set()
    phi = report["classification"]["phi"]
    assert "anchor" in phi and "anchors" not in phi


# one stored text moved at each kind of position, and the failures --revalidate
# gives for it (the same without the table); the other stored copies stay. Images are
# read from `points`, so a moved point or image also fails on the image lines and on
# the equations that name it
CERT0 = ("certificates", 0)
TAMPERED = {
    "line-origin": (CERT0 + ("lines", 0, "origin"), "(1, 0)", [
        "certificate additivity-case1: L0: anchor (1, 0) off the line",
        "certificate additivity-case1: L0: anchor (0, 0) off the line",
        "certificate additivity-case1: L0 does not contain (0, 0)",
        "certificate additivity-case1: L0 does not contain (1, 0)",
    ]),
    "anchors": (CERT0 + ("lines", 0, "anchors", 1), "(0, 0)", [
        "certificate additivity-case1: L0: anchor (0, 1) off the line",
        "certificate additivity-case1: L0: anchor image (0, 1) off the image line",
    ]),
    "intersection-point": (CERT0 + ("intersections", 0, "point"), "(0, 0)", [
        "certificate additivity-case1: L0 does not contain (0, 1)",
        "certificate additivity-case1: image of L0 does not contain (0, 1)",
    ]),
    # the moved input (0, 1) is b's too, and its stored image (0, 0) now reads for b
    "points-input": (CERT0 + ("points", 3, "input"), "(0, 0)", [
        "certificate additivity-case1: no stored evaluation of (0, 0)",
        "certificate additivity-case1: L3: anchor image (0, 0) off the image line",
        "certificate additivity-case1: image of L3 does not contain (0, 0)",
        "certificate additivity-case1: equation fails: f(a+b) = f(a) + f(b)",
        "certificate additivity-case1: stored evaluation of 0 is stale",
    ]),
    "points-image": (CERT0 + ("points", 3, "image"), "(0, 0)", [
        "certificate additivity-case1: L0: anchor image (0, 1) off the image line",
        "certificate additivity-case1: image of L0 does not contain (0, 1)",
        "certificate additivity-case1: equation fails: f(0) = 0",
        "certificate additivity-case1: stored evaluation of 0 is stale",
    ]),
    "equation-lhs": (CERT0 + ("equations", 0, "lhs", 0), "(0, 0)", [
        "certificate additivity-case1: equation fails: f(0) = 0",
    ]),
    "equation-rhs": (("certificates", 1, "equations", 1, "rhs", 1), "(1, 0)", [
        "certificate additivity-case2: equation fails: f(ai+a) = f(ai) + f(a)",
    ]),
}
POINT = TAMPERED["intersection-point"]


class TestVectorTableIsolation:
    @pytest.mark.parametrize("path, old, failures", TAMPERED.values(), ids=TAMPERED.keys())
    def test_one_moved_text_fails_where_it_was_moved(self, tmp_path, path, old, failures):
        assert _revalidate(tmp_path, _edited(path, old, "(0, 1)")) == (2, failures)

    @pytest.mark.parametrize("value", [[0, 0], 0, True], ids=["list", "number", "bool"])
    def test_a_stored_value_other_than_text_is_malformed(self, tmp_path, value):
        kind = type(value).__name__
        assert _revalidate(tmp_path, _edited(*POINT[:2], value)) == (2, [
            f"stored data is malformed (AttributeError: '{kind}' object has no attribute"
            " 'strip')"])

    def test_a_list_names_only_the_edited_report(self, tmp_path):
        good, moved = json.loads(_identity_report()), _edited(*POINT[:2], "(0, 1)")
        assert _revalidate(tmp_path, [good, moved]) == (2, POINT[2])
        assert _revalidate(tmp_path, [moved, good]) == (2, POINT[2])

    def test_a_good_report_then_a_moved_one_in_one_process(self, tmp_path):
        assert _revalidate(tmp_path, json.loads(_identity_report())) == (0, [])
        assert _revalidate(tmp_path, _edited(*POINT[:2], "(0, 1)")) == (2, POINT[2])


def _written(argv, handle):
    """The report ``_report_for_map`` writes, less its wall time, or its error."""
    args = cli._build_parser().parse_args(argv)
    cfg = ProbeConfig(seed=args.seed, count=args.probes)
    try:
        report = cli._report_for_map(handle, args, cfg)
    except CollineError as exc:
        return type(exc), str(exc)
    del report["wall_time_ms"]
    return json_text(report)


def _dsl_maps(m):
    return st.lists(_expr_strategy(m), min_size=1, max_size=3).map(
        lambda outputs: make_dsl(parse_map(render_map(MapSpec("r", m, len(outputs),
                                                              tuple(outputs))))))


class TestVectorTableRoundTrip:
    # random maps rarely hold a certificate, so the demo maps are drawn too
    @settings(max_examples=100, deadline=None)
    @given(handle=st.one_of(st.integers(1, 3).flatmap(_dsl_maps), st.sampled_from(DEMO_MAPS)),
           argv=st.sampled_from([["classify", "--no-symbolic"], ["certify", "additivity"],
                                 ["certify", "homogeneity"]]),
           seed=st.integers(0, 2**16))
    def test_the_table_reads_and_writes_what_the_codec_does_alone(self, handle, argv, seed):
        argv = argv + ["--probes", "4", "--seed", str(seed)]
        with one_report():
            written = _written(argv, handle)
        assert written == _written(argv, handle)
        if isinstance(written, str):
            report = json.loads(written)
            with one_report():
                decoded = _decode_records(report)
            assert decoded == _decode_records(report)
