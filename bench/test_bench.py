"""Self-checks of the benchmark: determinism, ground truth, trace predictions.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def inputs_of(name, seed):
    workload = WORKLOADS[name](run.load_colline(run.ROOT), seed, run.ROOT)
    try:
        items = workload.setup()
        if name == "lines-linear":
            return [(h.a, check) for _, h, check in items]
        if name == "report-roundtrip":
            texts = []
            for source in sorted(os.listdir(workload.work)):
                with open(os.path.join(workload.work, source), encoding="utf-8") as fh:
                    texts.append(fh.read())
            return [item[2] for item in items], texts
        return items
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_different_seed_different_inputs(name):
    assert inputs_of(name, 3) == inputs_of(name, 3)
    assert inputs_of(name, 3) != inputs_of(name, 4)


@pytest.mark.parametrize("name", ["lines-linear", "report-roundtrip"])
def test_same_seed_gives_same_digest_and_item_count(name):
    first, digest1, _ = run.one_pass(name, 5)
    second, digest2, _ = run.one_pass(name, 5)
    assert digest1 is not None and digest1 == digest2
    assert len(first) == len(second)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_item_fails_at_this_commit(name):
    samples, _, items = run.one_pass(name, 2)
    assert len(samples) == len(items)
    assert [s.result for s in samples if not s.result.ok] == []


def test_defect_items_are_the_certify_items_on_non_linear_maps():
    workload = WORKLOADS["report-roundtrip"](run.load_colline(run.ROOT), 2, run.ROOT)
    try:
        items = workload.setup()
        assert not [i for i in items if i[2][0] == ["certify"] and i[1] != "linear"]
        assert [(i[1], i[2][0]) for i in workload.defect_items] == [
            (kind, ["certify", k]) for kind in ["affine"] * 5 for k in ("additivity", "homogeneity")]
        results = workload.reproduce_defects()
    finally:
        workload.close()
    # nothing goes wrong but the documented defect
    assert len(results) == 10 and all(r.ok or r.known_defect for r in results)


@pytest.mark.xfail(strict=True, reason="certify records certificate:<kind>, which "
                   "--revalidate cannot look up (WORKLOADS.md); passes once cli.py is fixed")
def test_reports_of_certify_on_non_linear_maps_revalidate():
    workload = WORKLOADS["report-roundtrip"](run.load_colline(run.ROOT), 2, run.ROOT)
    try:
        workload.setup()
        results = workload.reproduce_defects()
    finally:
        workload.close()
    assert all(r.ok for r in results)


def calls_by_module(name):
    tracer = Tracer()
    run.one_pass(name, 1, tracer=tracer)
    return {span: row["calls"] for span, row in tracer.per_span().items()}


def test_trace_confirms_layers_idle_on_lines_linear():
    calls = calls_by_module("lines-linear")
    idle = [s for s in SPANS
            if s == "dsl.eval" or s.split(".")[0] in ("engine", "serialize", "cli")]
    assert {s: calls[s] for s in idle} == {s: 0 for s in idle}
    assert calls["zoo.eval.linear"] > 0 and calls["predicates.sampler"] > 0


def test_trace_confirms_serialize_and_cli_idle_on_classify_dsl():
    calls = calls_by_module("classify-dsl")
    idle = [s for s in SPANS if s.split(".")[0] in ("serialize", "cli")]
    assert {s: calls[s] for s in idle} == {s: 0 for s in idle}
    assert calls["dsl.eval"] > 0 and calls["engine.classify"] > 0


def test_tracer_uninstall_restores_every_binding():
    lib = run.load_colline(run.ROOT)
    before = {m: dict(vars(getattr(lib, m))) for m in ("field", "engine", "cli")}
    init = lib.field.Vector.__init__
    tracer = Tracer()
    tracer.install(lib)
    assert lib.engine.check_line_image is not before["engine"]["check_line_image"]
    tracer.uninstall()
    assert {m: dict(vars(getattr(lib, m))) for m in before} == before
    assert lib.field.Vector.__init__ is init


def test_run_fails_without_the_program(tmp_path):
    """With only the benchmark's files present the command exits non-zero
    and prints no result line."""
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lines-linear", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_the_contract_keys(trace, section):
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "report-roundtrip",
         "--seed", "1", "--seconds", "2", "--trace", str(trace)],
        cwd=os.path.dirname(run.HERE), capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
    assert result["correct"] and result["attempted"] >= 1
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
