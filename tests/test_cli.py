import contextlib
import functools
import io
import json
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colline import cli, engine
from colline.cli import run
from colline.dsl import MapSpec, parse_map, parse_map_file, render_map
from colline.engine import REASON_NOT_INDEPENDENT, Certificate, classify_map, decide
from colline.predicates import ProbeConfig, find_independence_witness, revalidate_witness
from colline.serialize import CLASSIFICATION, OUTCOME
from colline.zoo import make_dsl
from test_dsl import _expr_strategy

IDENTITY = "map id : 2 -> 2 { y0 = x0; y1 = x1 }\n"
TRANSLATE = "map translate : 2 -> 2 { y0 = x0 + 1; y1 = x1 + 1 }\n"
MULTI = IDENTITY + "map double : 1 -> 1 { y0 = 2*x0 }\n"
BAD = "map bad : 1 -> 1 { y0 = x3 }\n"
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMO_IDENTITY = os.path.join(DEMOS, "identity.map")
DEMO_TRANSLATE = os.path.join(DEMOS, "translate.map")
SHEAR = os.path.join(DEMOS, "shear.matrix")
HOLE = "map hole : 2 -> 2 { y0 = x0 * (x0 - 1) / (x0 - 1); y1 = x1 }\n"


@pytest.fixture
def mapfile(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestClassifyCommand:
    def test_identity_exact_linear(self, mapfile, capsys):
        code, report = run_json(
            ["classify", mapfile("id.map", IDENTITY), "--probes", "50"], capsys
        )
        assert code == 0
        assert report["classification"]["verdict"] == "exact_linear"
        assert report["map"]["name"] == "id"
        assert report["config"]["probes"] == 50

    def test_builtin_lemma23_non_linear(self, capsys):
        code, report = run_json(
            ["classify", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)", "--probes", "100"],
            capsys,
        )
        assert code == 0
        cls = report["classification"]
        assert cls["verdict"] == "non_linear"
        assert cls["witness"]["check"] == "additivity"

    @pytest.mark.parametrize("flags, verdict", [
        ([], "exact_affine"), (["--no-symbolic"], "empirically_affine"),
    ], ids=["symbolic", "no-symbolic"])
    def test_builtin_affine_report_revalidates(self, flags, verdict, tmp_path, capsys):
        dest = tmp_path / "a.json"
        spec = f"affine:{os.path.join(DEMOS, 'shear.matrix')},b=(1, 2)"
        assert run(["classify", "--builtin", spec, *flags, "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        assert report["map"]["source"]["kind"] == "affine"
        assert report["classification"]["verdict"] == verdict
        assert run(["--revalidate", str(dest)]) == 0

    def test_no_symbolic_flag(self, mapfile, capsys):
        code, report = run_json(
            ["classify", mapfile("id.map", IDENTITY), "--probes", "60", "--no-symbolic"],
            capsys,
        )
        assert code == 0
        assert report["classification"]["verdict"] == "empirically_linear"
        assert report["certificates"]

    def test_multi_map_file_gives_report_array(self, mapfile, capsys):
        code, reports = run_json(
            ["classify", mapfile("multi.map", MULTI), "--probes", "30"], capsys
        )
        assert code == 0
        assert isinstance(reports, list) and len(reports) == 2
        assert [r["map"]["name"] for r in reports] == ["id", "double"]

    def test_map_selector(self, mapfile, capsys):
        code, report = run_json(
            ["classify", mapfile("multi.map", MULTI), "--map", "double", "--probes", "30"],
            capsys,
        )
        assert code == 0
        assert report["map"]["name"] == "double"


class TestFailureModes:
    def test_parse_error_exits_1_with_position(self, mapfile, capsys):
        code = run(["classify", mapfile("bad.map", BAD)])
        err = capsys.readouterr().err
        assert code == 1
        assert "variable index 3 out of range" in err
        assert "1:25" in err

    def test_missing_file_exits_1(self, capsys):
        assert run(["classify", "/nonexistent/x.map"]) == 1

    def test_no_map_given_exits_1(self, capsys):
        assert run(["classify"]) == 1

    def test_no_command_exits_1(self, capsys):
        assert run([]) == 1

    def test_unknown_map_name_exits_1(self, mapfile, capsys):
        assert run(["classify", mapfile("m.map", MULTI), "--map", "nope"]) == 1

    def test_scalar_check_on_vector_map_exits_1(self, capsys):
        for check in ("scalar-mult", "scalar-monotone"):
            assert run(["check", check, DEMO_IDENTITY]) == 1
            assert capsys.readouterr().err == "colline: scalar check needs a 1->1 map, got 2->2\n"

    @pytest.mark.parametrize("argv", [
        ["check", "phi-consistency", DEMO_IDENTITY], ["classify", DEMO_IDENTITY],
    ], ids=["phi-consistency", "classify"])
    @pytest.mark.parametrize("probes", ["1" + "0" * 400, "1000001"], ids=["huge", "bound+1"])
    def test_probe_count_above_bound_exits_1(self, argv, probes, capsys):
        assert run(argv + ["--probes", probes]) == 1
        assert capsys.readouterr().err == "colline: probe count must be at most 1000000\n"

    def test_params_per_line_above_bound_exits_1(self, capsys):
        # rejected before any probe is drawn; the bound is what keeps a run finite
        assert run(["check", "line-injectivity", DEMO_IDENTITY,
                    "--params-per-line", "1000000000"]) == 1
        assert capsys.readouterr().err == "colline: params_per_line must be at most 10000\n"

    def test_probes_times_params_per_line_above_bound_exits_1(self, capsys):
        # each flag is within its own cap; together they would evaluate 10^10 points
        assert run(["check", "line-injectivity", DEMO_IDENTITY, "--probes", "1000000",
                    "--params-per-line", "10000"]) == 1
        assert capsys.readouterr().err == (
            "colline: probe count * params_per_line must be at most 5000000\n")

    def test_witness_at_a_huge_range_shrinks_in_bounded_time(self, tmp_path, capsys):
        # a scalar of 10^300 would halve about 1,000 times; the shrinker stops at 64
        jump2 = os.path.join(DEMOS, "jump2.map")
        dest = tmp_path / "r.json"

        def timeout(signum, frame):
            raise TimeoutError("did not return")

        signal.signal(signal.SIGALRM, timeout)
        signal.alarm(20)
        try:
            code = run(["check", "line-image", jump2, "--range", str(10**300),
                        "--out", str(dest)])
        finally:
            signal.alarm(0)
        assert code == 0
        outcome = OUTCOME.decode(json.loads(dest.read_text())["outcomes"][0])
        with open(jump2) as fh:
            handle = make_dsl(parse_map_file(fh.read())[0])
        assert not outcome.passed and revalidate_witness(handle, outcome.witness)

    @pytest.mark.parametrize("dest", ["missing/dir/r.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_1(self, dest, tmp_path, capsys):
        out = str(tmp_path / dest)
        assert run(["classify", DEMO_IDENTITY, "--probes", "20", "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"colline: cannot write report {out}: ")

    def test_scalar_monotone_eval_error_names_the_probe(self, mapfile, capsys):
        path = mapfile("inv.map", "map inv : 1 -> 1 { y0 = 1/x0 }\n")
        assert run(["check", "scalar-monotone", path]) == 1
        assert "scalar-monotone: evaluation failed on probe" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["certify", "homogeneity", "{id}", "--r", "1/0"],
        ["certify", "additivity", "{id}", "--a", "(1/0, 0)"],
        ["classify", "--builtin", "linear:{zero_row}"],
        ["classify", "--builtin", "affine:{shear},b=(1/0, 1)"],
        ["classify", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1/0)"],
    ], ids=["certify-r", "certify-a", "linear-matrix", "affine-offset", "lemma23-direction"])
    def test_zero_denominator_exits_1(self, argv, mapfile, capsys):
        paths = {
            "id": mapfile("id.map", IDENTITY),
            "zero_row": mapfile("z.matrix", "1 0\n1 1/0\n"),
            "shear": mapfile("s.matrix", "1 1\n0 1\n"),
        }
        assert run([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("colline: ")

    @pytest.mark.parametrize("argv, message", [
        (["certify", "homogeneity", DEMO_IDENTITY, "--r", "0"],
         "homogeneity certificate needs r != 0"),
        (["certify", "homogeneity", DEMO_IDENTITY, "--a", "(1, 0)", "--b", "(2, 0)"],
         "homogeneity certificate needs independent images"),
        (["check", "phi-consistency", os.path.join(DEMOS, "psi.map"), "--probes", "1"],
         "phi_consistency needs a pair with linearly independent images; run"
         " find_independence_witness first"),
    ], ids=["certify-r-zero", "certify-dependent-images", "phi-no-independent-pair"])
    def test_unmet_precondition_exits_1(self, argv, message, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"colline: {message}\n"

    @pytest.mark.parametrize("body", [
        "(" * 3000 + "x0" + ")" * 3000, "-" * 3000 + "x0", " + ".join(["x0"] * 5000),
    ], ids=["parentheses", "signs", "long-sum"])
    @pytest.mark.parametrize("flags", [[], ["--no-symbolic"]], ids=["symbolic", "no-symbolic"])
    def test_deep_expression_exits_1_with_position(self, body, flags, mapfile, capsys):
        path = mapfile("deep.map", "map d : 1 -> 1 { y0 = " + body + " }\n")
        assert run(["classify", path, "--probes", "20"] + flags) == 1
        assert "deeper than 200 levels" in capsys.readouterr().err


class TestUsageErrors:
    """argparse rejections exit 1 like every other usage error; 2 stays
    reserved for a stored report that no longer re-checks."""

    @pytest.mark.parametrize("argv, message", [
        (["check", "nosuch", DEMO_IDENTITY],
         "colline check: error: argument name: invalid choice: 'nosuch'"),
        (["classify", "--probes", "abc", DEMO_IDENTITY],
         "colline classify: error: argument --probes: invalid int value: 'abc'"),
        (["bogus"], "colline: error: argument command: invalid choice: 'bogus'"),
        (["classify", "--nope"], "colline: error: unrecognized arguments: --nope"),
    ], ids=["check-choice", "classify-int", "command", "unknown-flag"])
    def test_usage_error_exits_1(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: colline")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["top", "check"])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: colline")


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reuse_leaks_no_state(self, tmp_path, monkeypatch):
        runs = [
            (["classify", DEMO_IDENTITY, "--no-symbolic", "--seed", "5", "--probes", "40"], None),
            (["check", "zero", DEMO_TRANSLATE], None),
            (["classify", DEMO_TRANSLATE, "--probes", "40"], "7"),
        ]
        dest = tmp_path / "r.json"

        def reports():
            out = []
            for argv, env_seed in runs:
                if env_seed is None:
                    monkeypatch.delenv("COLLINE_SEED", raising=False)
                else:
                    monkeypatch.setenv("COLLINE_SEED", env_seed)
                assert run(argv + ["--out", str(dest)]) == 0
                report = json.loads(dest.read_text())
                del report["wall_time_ms"]
                out.append(report)
            return out

        reused = reports()
        # the undecorated function makes a new parser for every run
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert reused == reports()
        assert [r["config"]["seed"] for r in reused] == [5, 0, 7]


class TestCheckCommand:
    def test_ratio_on_translation_passes(self, mapfile, capsys):
        code, report = run_json(
            ["check", "ratio", mapfile("t.map", TRANSLATE), "--probes", "80"], capsys
        )
        assert code == 0
        (outcome,) = report["outcomes"]
        assert outcome["check"] == "ratio-preservation"
        assert outcome["verdict"] == "pass"
        assert outcome["probes"] > 0

    def test_additivity_on_translation_fails_with_witness(self, mapfile, capsys):
        code, report = run_json(
            ["check", "additivity", mapfile("t.map", TRANSLATE), "--probes", "80"], capsys
        )
        assert code == 0  # a Fail verdict is still a verdict
        (outcome,) = report["outcomes"]
        assert outcome["verdict"] == "fail"
        assert outcome["witness"]["inputs"]


class TestCertifyCommand:
    def test_additivity_certificate(self, mapfile, capsys):
        code, report = run_json(
            [
                "certify", "additivity", mapfile("id.map", IDENTITY),
                "--a", "(1, 0)", "--b", "(0, 1)",
            ],
            capsys,
        )
        assert code == 0
        (cert,) = report["certificates"]
        assert cert["kind"] == "additivity-case1"
        assert list(cert) == ["kind", "lines", "intersections", "parallels", "points",
                              "equations", "conclusion", "note"]
        assert list(cert["lines"][0]) == ["name", "origin", "direction", "image_origin",
                                          "image_direction", "anchors"]
        assert len(cert["lines"]) == 4

    def test_homogeneity_certificate_default_points(self, mapfile, capsys):
        code, report = run_json(
            ["certify", "homogeneity", mapfile("id.map", IDENTITY), "--r", "3"], capsys
        )
        assert code == 0
        (cert,) = report["certificates"]
        assert cert["kind"] == "homogeneity"


class TestZooCommand:
    def test_describes_builtin(self, capsys):
        code, report = run_json(
            ["zoo", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)"], capsys
        )
        assert code == 0
        assert ["(1, 0)", "(0, 2)"] in report["samples"]

    @pytest.mark.parametrize("edit", [
        lambda r: r["samples"][0].__setitem__(1, "(9, 9)"),
        lambda r: r["samples"][0].__setitem__(0, "(2, 0)"),
        lambda r: r.pop("samples"),
    ], ids=["image", "input", "deleted"])
    def test_samples_recheck(self, tmp_path, capsys, edit):
        dest = tmp_path / "zoo.json"
        assert run(["zoo", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)", "--out", str(dest)]) == 0
        assert run(["--revalidate", str(dest)]) == 0
        report = json.loads(dest.read_text())
        assert report["samples"][0] == ["(1, 0)", "(0, 2)"]
        edit(report)
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == (
            "colline: revalidation failed: samples are not the evaluations of the rebuilt map\n")


class TestDeterminismAndRevalidation:
    def _strip_wall_time(self, payload):
        reports = payload if isinstance(payload, list) else [payload]
        for report in reports:
            report["wall_time_ms"] = 0
        return json.dumps(payload, indent=2)

    def test_report_byte_identical_modulo_wall_time(self, mapfile, tmp_path, capsys):
        path = mapfile("t.map", TRANSLATE)
        argv = ["classify", path, "--probes", "60", "--seed", "4", "--no-symbolic"]
        texts = []
        for out in ("a.json", "b.json"):
            dest = tmp_path / out
            assert run(argv + ["--out", str(dest)]) == 0
            texts.append(self._strip_wall_time(json.loads(dest.read_text())))
        assert texts[0] == texts[1]

    def test_revalidate_fresh_reports(self, mapfile, tmp_path, capsys):
        cases = [
            (["classify", mapfile("t.map", TRANSLATE), "--no-symbolic"], "t.json"),
            (["classify", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)"], "l.json"),
            (["certify", "additivity", mapfile("id.map", IDENTITY)], "c.json"),
            (["check", "additivity", mapfile("t2.map", TRANSLATE)], "k.json"),
            # exact verdicts re-check against the rebuilt map's affine form
            (["classify", "--builtin", f"linear:{SHEAR}"], "el.json"),
            (["classify", "--builtin", f"affine:{SHEAR},b=(1, 2)"], "ea.json"),
            (["classify", DEMO_IDENTITY], "edl.json"),
            (["classify", DEMO_TRANSLATE], "eda.json"),
        ]
        for argv, name in cases:
            dest = tmp_path / name
            assert run(argv + ["--probes", "60", "--out", str(dest)]) == 0
            assert run(["--revalidate", str(dest)]) == 0

    def test_revalidate_detects_tampering(self, mapfile, tmp_path, capsys):
        dest = tmp_path / "r.json"
        assert run(
            ["classify", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)",
             "--probes", "60", "--out", str(dest)]
        ) == 0
        report = json.loads(dest.read_text())
        witness = report["classification"]["witness"]
        witness["inputs"]["a"]["value"] = "(0, 0)"
        for outcome in report["outcomes"]:
            if outcome["witness"]:
                outcome["witness"]["inputs"] = witness["inputs"]
        dest.write_text(json.dumps(report))
        assert run(["--revalidate", str(dest)]) == 2

    def test_revalidate_rechecks_the_phi_table(self, mapfile, tmp_path, capsys):
        dest = tmp_path / "phi-table.json"
        argv = ["classify", "--no-symbolic", mapfile("id.map", IDENTITY), "--probes", "60"]
        assert run(argv + ["--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        assert report["classification"]["phi"]["entries"][2] == ["-1", "-1"]
        report["classification"]["phi"]["entries"][2] = ["-1", "7"]
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert "phi table: entry phi(-1) = 7 fails its anchor" in capsys.readouterr().err
        report["classification"]["phi"]["entries"][2] = ["-1", "-1"]
        report["classification"]["phi"]["anchor"] = "(0, 0)"  # one anchor: one failure
        dest.write_text(json.dumps(report))
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err.count("phi table: anchor (0, 0) has f(a) = 0") == 1

    def test_phi_consistency_fail_on_translation_rechecks(self, mapfile, tmp_path, capsys):
        dest = tmp_path / "phi.json"
        argv = ["check", "phi-consistency", mapfile("t.map", TRANSLATE), "--probes", "60",
                "--seed", "3", "--out", str(dest)]
        assert run(argv) == 0
        assert json.loads(dest.read_text())["outcomes"][0]["verdict"] == "fail"
        assert run(["--revalidate", str(dest)]) == 0

    @pytest.mark.parametrize("base, error", [
        ("(0, 0, 0)", "DimensionMismatch: map translate takes dim 2, got 3"),
        ("(1)", "DimensionMismatch: map translate takes dim 2, got 1"),
        ("garbage", "ValueError: not a vector: 'garbage' (expected (s1, ..., sn))"),
        (5, "AttributeError: 'int' object has no attribute 'strip'"),
    ])
    def test_revalidate_tampered_affine_base_is_malformed(
        self, base, error, mapfile, tmp_path, capsys
    ):
        dest = tmp_path / "t.json"
        argv = ["classify", "--no-symbolic", mapfile("t.map", TRANSLATE), "--probes", "60"]
        assert run(argv + ["--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        assert report["classification"]["affine_base"] == "(0, 0)"
        report["classification"]["affine_base"] = base
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == (
            f"colline: revalidation failed: stored data is malformed ({error})\n"
        )

    def test_revalidate_missing_file_exits_1(self, capsys):
        assert run(["--revalidate", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff{}"],
                             ids=["deeply-nested", "not-utf-8"])
    def test_revalidate_unloadable_json_exits_1(self, content, tmp_path, capsys):
        dest = tmp_path / "r.json"
        dest.write_bytes(content)
        assert run(["--revalidate", str(dest)]) == 1
        assert capsys.readouterr().err.startswith(f"colline: cannot load report {dest}: ")

    def _certified_report(self, mapfile, tmp_path):
        dest = tmp_path / "c.json"
        argv = ["certify", "additivity", mapfile("id.map", IDENTITY), "--out", str(dest)]
        assert run(argv) == 0
        return dest, json.loads(dest.read_text())

    def test_revalidate_zero_certificate_direction_fails_cleanly(self, mapfile, tmp_path, capsys):
        dest, report = self._certified_report(mapfile, tmp_path)
        report["certificates"][0]["lines"][0]["direction"] = "(0, 0)"
        dest.write_text(json.dumps(report))
        assert run(["--revalidate", str(dest)]) == 2
        assert "colline: revalidation failed: " in capsys.readouterr().err

    def test_revalidate_division_by_zero_in_vector_fails_cleanly(
        self, mapfile, tmp_path, capsys
    ):
        dest, report = self._certified_report(mapfile, tmp_path)
        report["certificates"][0]["lines"][0]["origin"] = "(1/0, 0)"
        dest.write_text(json.dumps(report))
        assert run(["--revalidate", str(dest)]) == 2
        assert "colline: revalidation failed: " in capsys.readouterr().err

    def test_revalidate_refuses_a_table_source(self, mapfile, tmp_path, capsys):
        # finite tables and compositions are not source kinds: no command or
        # builtin spec builds one, so a hand-made report naming one is refused
        identity = {"kind": "dsl", "text": IDENTITY}
        sources = [
            {"kind": "table", "entries": [["(0, 0)", "(0, 0)"]]},
            {"kind": "compose", "outer": identity, "inner": identity},
        ]
        dest = tmp_path / "table.json"
        assert run(["check", "zero", mapfile("id.map", IDENTITY), "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        for source in sources:
            report["map"]["source"] = source
            dest.write_text(json.dumps(report))
            capsys.readouterr()
            assert run(["--revalidate", str(dest)]) == 2
            assert capsys.readouterr().err == (
                "colline: revalidation failed: map reconstruction failed:"
                f" unknown map source kind {source['kind']!r}\n"
            )

    @pytest.mark.parametrize("source, message", [
        ({}, "map source has no field 'kind'"),
        ({"kind": "linear"}, "map source of kind 'linear' has no field 'matrix'"),
        ({"kind": "affine", "matrix": [["1"]]}, "map source of kind 'affine' has no field 'offset'"),
        ({"kind": "lemma23", "m": 2, "n": 2, "e0": 0, "d0": "(0, 1)"},
         "map source of kind 'lemma23' has no field 'psi'"),
        ({"kind": "dsl"}, "map source of kind 'dsl' has no field 'text'"),
        (5, "map source is not an object but int"),
        (["dsl"], "map source is not an object but list"),
        # a float or a bool is no exact scalar, and a field of another type names itself
        ({"kind": "linear", "matrix": [[1.0, 1.0], [0.0, 1.0]]},
         "map source of kind 'linear' has float in field 'matrix', expected str or int"),
        ({"kind": "linear", "matrix": [[True, True], [False, True]]},
         "map source of kind 'linear' has bool in field 'matrix', expected str or int"),
        ({"kind": "affine", "matrix": [["1", "0"], ["0", 0.1]], "offset": "(0, 0)"},
         "map source of kind 'affine' has float in field 'matrix', expected str or int"),
        ({"kind": "linear", "matrix": ["1", "0"]},
         "map source of kind 'linear' has str in field 'matrix', expected list"),
        ({"kind": "affine", "matrix": [["1"]], "offset": [1]},
         "map source of kind 'affine' has list in field 'offset', expected str"),
        ({"kind": "lemma23", "m": "2", "n": 2, "e0": 0, "d0": "(0, 1)", "psi": "x0"},
         "map source of kind 'lemma23' has str in field 'm', expected int"),
        ({"kind": "lemma23", "m": 2, "n": 2, "e0": False, "d0": "(0, 1)", "psi": "x0"},
         "map source of kind 'lemma23' has bool in field 'e0', expected int"),
        ({"kind": "dsl", "text": 5}, "map source of kind 'dsl' has int in field 'text', expected str"),
        # matrix text is read as a report scalar: p or p/q, never a decimal or an exponent
        *(({"kind": kind, "matrix": [[entry, "0"], [0, 1]], "offset": "(0, 0)"},
           f"map source of kind {kind!r} has {entry!r} in field 'matrix', expected p or p/q")
          for kind, entry in (("linear", "0.5"), ("linear", "1e1"), ("affine", "-2.5E-1"),
                              ("affine", "1."))),
    ], ids=["no-kind", "linear", "affine", "lemma23", "dsl", "int", "list", "float-matrix",
            "bool-matrix", "float-entry", "flat-matrix", "list-offset", "str-m", "bool-e0",
            "int-text", "decimal-entry", "exponent-entry", "signed-exponent-entry",
            "trailing-dot-entry"])
    def test_revalidate_broken_source_names_the_kind_and_field(
            self, mapfile, tmp_path, capsys, source, message):
        dest = tmp_path / "broken.json"
        assert run(["check", "zero", mapfile("id.map", IDENTITY), "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        report["map"]["source"] = source
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == (
            f"colline: revalidation failed: map reconstruction failed: {message}\n")

    @pytest.mark.parametrize("argv, edit, verdict", [
        (["--builtin", f"linear:{SHEAR}"],
         lambda r: r["map"]["source"].update(matrix=[["5", "0"], ["0", "7"]]), "exact_linear"),
        (["--builtin", f"affine:{SHEAR},b=(1, 2)"],
         lambda r: r["classification"].update(verdict="exact_linear"), "exact_linear"),
        (["--builtin", f"affine:{SHEAR},b=(1, 2)"],
         lambda r: r["classification"].update(offset="(1, 3)"), "exact_affine"),
        ([os.path.join(DEMOS, "jump2.map"), "--no-symbolic", "--probes", "60"],
         lambda r: r["classification"].update(verdict="exact_linear", witness=None),
         "exact_linear"),
    ], ids=["tampered-matrix", "affine-called-linear", "tampered-offset", "jump2-called-linear"])
    def test_revalidate_rejects_an_exact_verdict_the_map_does_not_have(
            self, tmp_path, capsys, argv, edit, verdict):
        dest = tmp_path / "exact.json"
        assert run(["classify", *argv, "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        edit(report)
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == (
            f"colline: revalidation failed: classification {verdict} does not match"
            " the affine form of the rebuilt map\n")

    @pytest.mark.parametrize("key, value", [
        ("m", 3), ("n", 2), ("m", "2"), ("n", 3.0), ("m", None),
    ], ids=["m-other", "n-other", "m-text", "n-float", "m-null"])
    def test_revalidate_rejects_stored_dimensions_the_map_does_not_have(
            self, mapfile, tmp_path, capsys, key, value):
        dest = tmp_path / "dims.json"
        path = mapfile("skew.map", "map skew : 2 -> 3 { y0 = x0; y1 = x1; y2 = x0 + x1 }\n")
        assert run(["check", "ratio", path, "--probes", "20", "--out", str(dest)]) == 0
        assert run(["--revalidate", str(dest)]) == 0
        report = json.loads(dest.read_text())
        want = report["map"][key]
        report["map"][key] = value
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == (
            f"colline: revalidation failed: map.{key} is {value!r} but the rebuilt map"
            f" has {key} = {want}\n")

    @pytest.mark.parametrize("edit, failure", [
        (lambda r: r.update(extra=1), "undeclared key 'extra' in the report"),
        (lambda r: r.update(samples=[]), "undeclared key 'samples' in the report"),
        (lambda r: r["map"].update(extra=1), "undeclared key 'extra' in map"),
        (lambda r: r["map"]["source"].update(extra=1), "undeclared key 'extra' in map.source"),
        (lambda r: r["config"].update(extra=1), "undeclared key 'extra' in config"),
        (lambda r: r["config"].update(symbolic=True), "undeclared key 'symbolic' in config"),
        (lambda r: r["map"].update(name="other"),
         "map.name is 'other' but the rebuilt map has name = id"),
        (lambda r: r["outcomes"][0].update(check="ratio-preservationx"),
         "outcome ratio-preservationx: no such check"),
        (lambda r: r["outcomes"][0].update(check="reduced:ratio-preservationx"),
         "reduced:ratio-preservationx: no reduced map recorded"),
    ], ids=["top-level", "samples-of-check", "map", "map-source", "config", "config-of-classify", "map-name",
            "check-name", "reduced-check-name"])
    def test_revalidate_rejects_an_undeclared_key_a_renamed_map_or_an_unknown_check(
            self, tmp_path, capsys, edit, failure):
        dest = tmp_path / "ratio.json"
        assert run(["check", "ratio", DEMO_IDENTITY, "--probes", "10", "--out", str(dest)]) == 0
        assert run(["--revalidate", str(dest)]) == 0
        report = json.loads(dest.read_text())
        assert [o["verdict"] for o in report["outcomes"]] == ["pass"]
        edit(report)
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == f"colline: revalidation failed: {failure}\n"

    @pytest.mark.parametrize("argv", [
        ["zoo", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)"],
        ["certify", "homogeneity", DEMO_IDENTITY, "--r", "1/2"],
        ["classify", "--builtin", f"affine:{SHEAR},b=(1, 2)", "--no-symbolic"],
    ], ids=["zoo-samples", "certify", "classify-builtin"])
    def test_every_key_of_a_fresh_report_is_declared(self, tmp_path, argv):
        dest = tmp_path / "fresh.json"
        assert run([*argv, "--probes", "20", "--out", str(dest)]) == 0
        assert run(["--revalidate", str(dest)]) == 0

    def test_a_failed_certificate_build_still_names_its_outcome(self, tmp_path, capsys):
        # certify records certificate:<kind>, which names no row: its witness fails as before
        dest = tmp_path / "cert.json"
        assert run(["certify", "additivity", DEMO_TRANSLATE, "--probes", "60", "--seed", "3",
                    "--out", str(dest)]) == 0
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == (
            "colline: revalidation failed: witness for certificate:additivity no longer violates\n")

    @staticmethod
    def _jump2_report(tmp_path):
        dest = tmp_path / "jump2.json"
        assert run(["classify", os.path.join(DEMOS, "jump2.map"), "--no-symbolic",
                    "--probes", "60", "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        verdicts = {o["check"]: o["verdict"] for o in report["outcomes"]}
        assert report["classification"]["verdict"] == "non_linear"
        assert report["outcomes"][0]["check"] == "zero-fixed"
        assert (verdicts["zero-fixed"], verdicts["additivity"]) == ("pass", "fail")
        return dest, report

    @pytest.mark.parametrize("edit", [
        lambda r: r["outcomes"][0].update(verdict="fail"),  # zero-fixed, with no witness
        lambda r: next(o for o in r["outcomes"] if o["check"] == "additivity").update(
            verdict="pass"),  # keeping its witness
        lambda r: r["classification"].update(witness=None),
        lambda r: r["classification"].update(verdict="empirically_linear", witness=None),
        lambda r: r["classification"].update(verdict=5),
        lambda r: r["outcomes"][0].update(probes="x"),
    ], ids=["fail-without-witness", "pass-with-witness", "non-linear-without-witness",
            "empirical-without-phi", "unknown-verdict", "probes-not-an-int"])
    def test_revalidate_rejects_claims_that_disagree_with_their_evidence(
            self, tmp_path, capsys, edit):
        dest, report = self._jump2_report(tmp_path)
        edit(report)
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert "revalidation failed: stored data is malformed (ValueError" in (
            capsys.readouterr().err)

    def test_revalidate_checks_each_witness_once(self, tmp_path, monkeypatch):
        dest, report = self._jump2_report(tmp_path)
        checked = []
        monkeypatch.setattr(cli, "revalidate_witness",
                            lambda f, w, recheck=cli.revalidate_witness: (
                                checked.append(w.check) or recheck(f, w)))
        assert run(["--revalidate", str(dest)]) == 0
        # the classification witness is the additivity outcome's, checked with it
        assert sorted(checked) == sorted(o["check"] for o in report["outcomes"]
                                         if o["witness"] is not None)

    def test_revalidate_names_a_missing_reduced_map(self, tmp_path, capsys):
        dest, report = self._jump2_report(tmp_path)
        report["classification"]["witness_scope"] = "reduced"  # with no affine_base
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        # the witness is an outcome's, so decide's mismatch is the one failure
        assert capsys.readouterr().err == (
            "colline: revalidation failed: classification non_linear does not follow from"
            " its outcomes\n")

    # a reduced: outcome is read on the reduced map, which only a report with an affine_base
    # has; in one that has it, the row's name must still be a check's
    @pytest.mark.parametrize("argv, edit, failure", [
        (["check", "ratio", DEMO_IDENTITY],
         lambda r: r["outcomes"][0].update(check="reduced:ratio-preservation"),
         "reduced:ratio-preservation: no reduced map recorded"),
        (["classify", "--no-symbolic", DEMO_IDENTITY],
         lambda r: r["outcomes"].append({**r["outcomes"][0], "check": "reduced:zero-fixed"}),
         "reduced:zero-fixed: no reduced map recorded"),
        (["classify", "--no-symbolic", DEMO_TRANSLATE],
         lambda r: r["outcomes"].append({"check": "reduced:ratio-preservationx",
                                         "verdict": "pass", "probes": 1}),
         "outcome reduced:ratio-preservationx: no such check"),
    ], ids=["check-renamed", "classify-appended", "unknown-reduced-check"])
    def test_revalidate_rejects_a_reduced_outcome_without_a_reduced_map(
            self, tmp_path, capsys, argv, edit, failure):
        dest = tmp_path / "r.json"
        assert run([*argv, "--probes", "20", "--out", str(dest)]) == 0
        assert run(["--revalidate", str(dest)]) == 0
        report = json.loads(dest.read_text())
        edit(report)
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == f"colline: revalidation failed: {failure}\n"

    @pytest.mark.parametrize("demo, edit, verdict", [
        ("jump2.map", dict(verdict="inconclusive", witness=None), "inconclusive"),
        ("translate.map", dict(offset="(5, 5)"), "empirically_affine"),
        # at a* = 0 the witness re-checks on the reduced map too
        ("jump2.map", dict(witness_scope="reduced", affine_base="(0, 0)"), "non_linear"),
        ("jump2.map", dict(reasons=["the map is linear"]), "non_linear"),
    ], ids=["non-linear-called-inconclusive", "moved-offset", "witness-scope-flipped",
            "reasons-rewritten"])
    def test_revalidate_rejects_a_verdict_its_outcomes_do_not_give(
            self, tmp_path, capsys, demo, edit, verdict):
        dest = tmp_path / "r.json"
        assert run(["classify", os.path.join(DEMOS, demo), "--no-symbolic", "--probes", "60",
                    "--out", str(dest)]) == 0
        assert run(["--revalidate", str(dest)]) == 0
        report = json.loads(dest.read_text())
        report["classification"].update(edit)
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == (f"colline: revalidation failed: classification"
                                           f" {verdict} does not follow from its outcomes\n")

    def test_revalidate_rejects_an_empirical_verdict_without_certificates(
            self, mapfile, tmp_path, capsys):
        dest = tmp_path / "t.json"
        assert run(["classify", mapfile("t.map", TRANSLATE), "--no-symbolic", "--probes", "60",
                    "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        assert report["classification"]["verdict"] == "empirically_affine"
        report["certificates"] = []
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == ("colline: revalidation failed: classification"
                                           " empirically_affine has no certificate\n")

    def test_revalidate_non_report_payload_exits_1(self, tmp_path, capsys):
        dest = tmp_path / "r.json"
        # an empty list holds no report to re-check; an object is a report only
        # when its "map" object holds a "source"
        for content in ("[1]", "[]", "{}", '{"a": 1}', '{"map": 1}', '[{"map": {}}]'):
            dest.write_text(content)
            assert run(["--revalidate", str(dest)]) == 1
            assert capsys.readouterr().err == (
                f"colline: cannot load report {dest}: not a report object or a list of them\n"
            )

    def test_env_seed_overrides_default_only(self, mapfile, tmp_path, capsys, monkeypatch):
        path = mapfile("t.map", TRANSLATE)

        def seed_of(argv):
            dest = tmp_path / "s.json"
            assert run(argv + ["--out", str(dest)]) == 0
            return json.loads(dest.read_text())["config"]["seed"]

        monkeypatch.setenv("COLLINE_SEED", "99")
        assert seed_of(["classify", path, "--probes", "30"]) == 99
        assert seed_of(["classify", path, "--probes", "30", "--seed", "7"]) == 7
        monkeypatch.delenv("COLLINE_SEED")
        assert seed_of(["classify", path, "--probes", "30"]) == 0


class TestClassifyEvaluationError:
    def test_division_by_zero_outside_the_checks_is_inconclusive(self, mapfile, capsys):
        code, report = run_json(
            ["classify", mapfile("hole.map", HOLE), "--no-symbolic", "--probes", "2", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert report["classification"]["verdict"] == "inconclusive"
        assert "at input (1, 0)" in report["classification"]["reasons"][0]

    def test_its_one_reason_is_a_stated_fact(self, mapfile, tmp_path, capsys):
        dest = tmp_path / "hole.json"
        assert run(["classify", mapfile("hole.map", HOLE), "--no-symbolic", "--probes", "2",
                    "--seed", "1", "--out", str(dest)]) == 0
        assert run(["--revalidate", str(dest)]) == 0
        report = json.loads(dest.read_text())
        report["classification"]["reasons"].append("the map is linear")
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert "classification inconclusive does not follow" in capsys.readouterr().err


class TestTextFormat:
    def test_text_rendering(self, mapfile, capsys):
        code = run(
            ["classify", mapfile("t.map", TRANSLATE), "--probes", "40", "--format", "text"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: exact_affine" in out
        assert "[PASS]" in out or "[FAIL]" in out or "exact" in out


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        path = tmp_path / "id.map"
        path.write_text(IDENTITY)
        proc = subprocess.run(
            [sys.executable, "-m", "colline.cli", "classify", str(path), "--probes", "30"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"]["verdict"] == "exact_linear"


# a spike at (a, 0) on the x0 axis, which every sampled row misses at these probe
# counts; only a φ anchor or an additivity certificate's construction lands on it
SPOT = ("map spot : 2 -> 2 {{ y0 = if x1 <= 0 then (if 0 <= x1 then (if x0 <= {a} then"
        " (if {a} <= x0 then {v} else x0) else x0) else x0) else x0; y1 = x1 }}\n")


class TestVerdictFollowsFromOutcomes:
    @given(st.lists(_expr_strategy(2), min_size=1, max_size=2), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_decide_gives_the_verdict_and_the_report_revalidates(self, outputs, seed):
        text = render_map(MapSpec("r", 2, len(outputs), tuple(outputs)))
        h, cfg = make_dsl(parse_map(text)), ProbeConfig(seed=seed, count=30)
        cls = classify_map(h, cfg, use_symbolic=False)
        independent = REASON_NOT_INDEPENDENT not in cls.reasons
        if cls.verdict == "non_linear" and cls.witness_scope == "primary" and (
                cls.outcomes[0].passed):  # the reason then states h's own search
            assert independent == (find_independence_witness(h, cfg) is not None)
        decided = decide(cls.outcomes, independent)
        if not cls.outcomes:  # an evaluation error stopped the run and gave its one reason
            assert len(cls.reasons) == 1
            decided["reasons"] = cls.reasons
        for key, value in decided.items():
            assert value == getattr(cls, key), key
        with tempfile.TemporaryDirectory() as tmp:
            with open(f"{tmp}/r.map", "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["classify", f"{tmp}/r.map", "--no-symbolic", "--probes", "30",
                    "--seed", str(seed), "--out", f"{tmp}/r.json"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                assert run(argv) == 0
                assert run(["--revalidate", f"{tmp}/r.json"]) == 0, err.getvalue()

    @pytest.mark.parametrize("spike, probes, check", [
        ((2, 5), 60, "certificate"),
        ((-1, -2), 30, "phi-consistency"),
        ((-1, -2), 60, "phi-consistency"),
    ], ids=["certificate-60", "phi-30", "phi-60"])
    def test_the_last_stages_refute_a_spike(self, tmp_path, capsys, spike, probes, check):
        path = tmp_path / "spot.map"
        path.write_text(SPOT.format(a=spike[0], v=spike[1]))
        dest = tmp_path / "spot.json"
        assert run(["classify", str(path), "--no-symbolic", "--probes", str(probes),
                    "--out", str(dest)]) == 0
        cls = json.loads(dest.read_text())["classification"]
        assert (cls["verdict"], cls["witness"]["check"]) == ("non_linear", check)
        assert run(["--revalidate", str(dest)]) == 0

    @pytest.mark.parametrize("y1, check, reasons", [
        ("x1", "certificate", ()),
        ("x1 + 1", "reduced:certificate", ("the shift-reduced map is not linear",)),
    ], ids=["primary", "reduced"])
    def test_a_failed_certificate_build_is_the_last_outcome(self, tmp_path, capsys, y1, check,
                                                            reasons):
        path, dest = tmp_path / "spot.map", tmp_path / "spot.json"
        path.write_text(SPOT.format(a=2, v=5).replace("y1 = x1 }", f"y1 = {y1} }}"))
        assert run(["classify", str(path), "--no-symbolic", "--probes", "60",
                    "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        row, cls = OUTCOME.decode(report["outcomes"][-1]), report["classification"]
        assert (row.check, row.passed, row.probes) == (check, False, 2)
        assert CLASSIFICATION.decode(cls).witness == row.witness
        assert (cls["witness_scope"], tuple(cls["reasons"])) == (
            "reduced" if reasons else "primary",
            (*reasons, "additivity certificate construction failed: images of L4 and L5"
                       " are not parallel"))
        assert run(["--revalidate", str(dest)]) == 0

    @pytest.mark.parametrize("edited, failure", [
        (("outcomes", "classification"), "witness for certificate no longer violates"),
        (("classification",), "classification non_linear does not follow from its outcomes"),
    ], ids=["row-and-classification", "classification-only"])
    def test_a_certificate_row_is_re_checked_as_an_outcome(self, tmp_path, capsys, edited,
                                                           failure):
        path, dest = tmp_path / "spot.map", tmp_path / "spot.json"
        path.write_text(SPOT.format(a=2, v=5))
        assert run(["classify", str(path), "--no-symbolic", "--probes", "60",
                    "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        witnesses = {"outcomes": report["outcomes"][-1]["witness"],
                     "classification": report["classification"]["witness"]}
        for key in edited:
            inputs = witnesses[key]["inputs"]
            assert (inputs["a"]["value"], inputs["b"]["value"]) == ("(1, 0)", "(2, 0)")
            inputs["b"]["value"] = "(0, 1)"  # a pair whose certificate holds
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == f"colline: revalidation failed: {failure}\n"


class TestCertificatesRecheck:
    """A certificate is validated once as it is built and once by --revalidate;
    no second check runs before the report is written."""

    @pytest.mark.parametrize("argv", [
        *(pytest.param(["classify", "--no-symbolic", source, "--seed", seed], id=f"{name}-{seed}")
          for name, source in (("identity", DEMO_IDENTITY), ("translate", DEMO_TRANSLATE),
                               ("shear", f"--builtin=linear:{SHEAR}"))
          for seed in "012"),
        pytest.param(["certify", "additivity", DEMO_IDENTITY], id="certify-additivity"),
        pytest.param(["certify", "homogeneity", DEMO_IDENTITY], id="certify-homogeneity"),
    ])
    def test_fresh_certificates_revalidate(self, argv, tmp_path, capsys):
        dest = tmp_path / "r.json"
        assert run(argv + ["--probes", "40", "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        assert report["certificates"]
        if DEMO_TRANSLATE in argv:
            assert report["classification"]["certificate_scope"] == "reduced"
        for cert in report["certificates"]:  # every image an equation sums is in `points`
            stored = {point["input"] for point in cert["points"]}
            assert {p for eq in cert["equations"] for p in eq["lhs"] + eq["rhs"]} <= stored
        assert run(["--revalidate", str(dest)]) == 0, capsys.readouterr().err

    # an equation names points and a scale; each edit states a false fact or an
    # evaluation the certificate does not store
    @pytest.mark.parametrize("kind, edit, failure", [
        ("additivity", lambda eqs: eqs[0].update(lhs=["(1, 0)"]),
         "certificate additivity-case1: equation fails: f(0) = 0"),
        ("homogeneity", lambda eqs: eqs[0].update(scale="3"),
         "certificate homogeneity: equation fails: f(r*a) = s*f(a)"),
        ("additivity", lambda eqs: eqs[1]["rhs"].__setitem__(0, "(5, 5)"),
         "certificate additivity-case1: no stored evaluation of (5, 5)"),
    ], ids=["f(0)-at-(1, 0)", "scale-2-to-3", "unstored-point"])
    def test_an_edited_equation_exits_2(self, tmp_path, capsys, kind, edit, failure):
        dest = tmp_path / "cert.json"
        assert run(["certify", kind, DEMO_IDENTITY, "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        equations = report["certificates"][0]["equations"]
        assert equations[0]["label"] in ("f(0) = 0", "f(r*a) = s*f(a)")
        assert equations[0]["scale"] == ("2" if kind == "homogeneity" else "1")
        edit(equations)
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert capsys.readouterr().err == f"colline: revalidation failed: {failure}\n"

    def test_an_equation_written_before_it_named_points_is_malformed(self, tmp_path, capsys):
        dest = tmp_path / "cert.json"
        assert run(["certify", "additivity", DEMO_IDENTITY, "--out", str(dest)]) == 0
        report = json.loads(dest.read_text())
        report["certificates"][0]["equations"][0] = {
            "label": "f(0) = 0", "lhs": {"type": "vector", "value": "(0, 0)"},
            "rhs": {"type": "vector", "value": "(0, 0)"}}
        dest.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert "stored data is malformed" in capsys.readouterr().err

    def test_a_certificate_for_the_wrong_map_exits_2_at_revalidate(self, tmp_path, capsys,
                                                                  monkeypatch):
        # translate's certificates are for its shift reduction, not for translate
        decided = engine.decide
        monkeypatch.setattr(engine, "decide",
                            lambda *args: {**decided(*args), "certificate_scope": "primary"})
        dest = tmp_path / "r.json"
        assert run(["classify", "--no-symbolic", DEMO_TRANSLATE, "--probes", "40",
                    "--out", str(dest)]) == 0
        capsys.readouterr()
        assert run(["--revalidate", str(dest)]) == 2
        assert ("colline: revalidation failed: certificate additivity-case1: stored evaluation"
                " of a is stale") in capsys.readouterr().err.splitlines()

    def test_each_certificate_is_validated_once_per_direction(self, tmp_path, capsys,
                                                              monkeypatch):
        calls, validate = [], Certificate.validate
        monkeypatch.setattr(Certificate, "validate",
                            lambda cert, f: calls.append(cert.kind) or validate(cert, f))
        dest = tmp_path / "r.json"
        assert run(["classify", "--no-symbolic", DEMO_IDENTITY, "--probes", "20",
                    "--out", str(dest)]) == 0
        written = len(calls)
        assert run(["--revalidate", str(dest)]) == 0
        certificates = len(json.loads(dest.read_text())["certificates"])
        assert (certificates, written, len(calls) - written) == (5, 5, 5)


@functools.lru_cache(maxsize=None)
def _valid_reports() -> tuple[str, ...]:
    """Fresh reports that re-check, one per kind of stored fact."""
    cases = [
        (["classify", "--no-symbolic"], TRANSLATE),  # reduced scope, certificates, phi table
        (["classify"], None),  # lemma23: witness of a non-linear verdict
        (["certify", "additivity"], IDENTITY),
        (["check", "phi-consistency"], TRANSLATE),
    ]
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, source in cases:
            if source is None:
                argv = argv + ["--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)"]
            else:
                with open(f"{tmp}/m.map", "w", encoding="utf-8") as fh:
                    fh.write(source)
                argv = argv + [f"{tmp}/m.map"]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert run(argv + ["--probes", "30"]) == 0
            texts.append(out.getvalue())
    return tuple(texts)


def _paths(node, prefix=()):
    """Every path into a JSON value, the root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2),
    st.sampled_from(["", "x", "(0, 0)", "(1/0, 0)", "1/0", "(1, 2, 3)", "-1/2",
                     "map f : 1 -> 1 { y0 = 1/x0 }", "reduced:additivity", "vector", "line"]),
    st.lists(st.sampled_from(["(0, 1)", "1", 0]), max_size=3),
    st.dictionaries(st.sampled_from(["type", "value", "kind", "origin"]),
                    st.sampled_from(["vector", "scalar", "(1)", "0", "dsl"]), max_size=3),
)


class TestRevalidateFuzz:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_report_exits_0_1_or_2(self, data):
        report = json.loads(data.draw(st.sampled_from(_valid_reports())))
        for _ in range(data.draw(st.integers(1, 3))):
            *parent_path, key = data.draw(st.sampled_from(list(_paths(report))[1:]))
            parent = functools.reduce(lambda node, k: node[k], parent_path, report)
            if data.draw(st.booleans()):
                parent[key] = data.draw(_JUNK)
            else:
                del parent[key]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/r.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert run(["--revalidate", path]) in (0, 1, 2)
