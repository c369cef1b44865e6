"""Behaviour oracle: the CLI reports for a fixed set of maps stay byte-identical.

Every (map, command, format) case runs ``colline`` in-process at
``--probes 60 --seed 3`` from the repository root. The exit code, standard
output and standard error are hashed with SHA-256 after the ``wall_time_ms``
field and the ``wall time:`` text line are zeroed, and the hash must equal
the one stored in ``tests/data/golden_reports.json``.

A refactor must leave every hash unchanged. A change that alters the probe
streams on purpose (another sampler or another draw order) changes the
reports too; it regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and says in CHANGES.md why each changed report changed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import sys

import pytest

from colline.cli import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_reports.json")

MAPS = {
    "identity": ["demos/identity.map"],
    "jump2": ["demos/jump2.map"],
    "psi": ["demos/psi.map"],
    "translate": ["demos/translate.map"],
    "shear": ["--builtin", "linear:demos/shear.matrix"],
    "lemma23-2x2": ["--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)"],
    "lemma23-1x1": ["--builtin", "lemma23:m=1,n=1,e0=0,d0=(1)"],
}
CHECK_NAMES = (
    "homogeneity", "additivity", "zero", "line-image", "line-injectivity", "ratio",
    "parallelism", "betweenness-cor43", "betweenness-prop44", "scalar-mult",
    "scalar-monotone", "phi-consistency",
)
COMMANDS = {
    "classify": ["classify"],
    "classify-no-symbolic": ["classify", "--no-symbolic"],
    **{f"check-{name}": ["check", name] for name in CHECK_NAMES},
    "certify-additivity": ["certify", "additivity"],
    "certify-homogeneity": ["certify", "homogeneity"],
    "zoo": ["zoo"],
}
FORMATS = ("json", "text")
COMMON = ["--probes", "60", "--seed", "3"]

_WALL_JSON = re.compile(r'"wall_time_ms": [0-9.eE+-]+')
_WALL_TEXT = re.compile(r"wall time: [0-9.eE+-]+ ms")


def case_ids() -> list[str]:
    return [f"{m}|{c}|{f}" for m in MAPS for c in COMMANDS for f in FORMATS]


def report_digest(case: str) -> str:
    map_name, command, fmt = case.split("|")
    argv = COMMANDS[command] + MAPS[map_name] + COMMON + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    text = f"exit {code}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"
    text = _WALL_TEXT.sub("wall time: 0 ms", _WALL_JSON.sub('"wall_time_ms": 0', text))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_report_is_byte_identical(case):
    assert report_digest(case) == _load()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    digests = {case: report_digest(case) for case in case_ids()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
