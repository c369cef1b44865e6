"""Single-edit scan of stored reports: one small edit to one leaf at a time.

An edit adds 1 to an int, flips a bool, adds 1 to the first coordinate of a
vector text, or appends a letter to any other string. Every edited report
must fail ``--revalidate`` (exit 2), unless the edited leaf is on the
allowlist below, whose entries leave the stated fact the same or state
nothing that the map decides. The scan covers the certificates and the φ
table of the identity ``classify --no-symbolic`` report, the outcome of
``check additivity`` on jump2, the whole ``check ratio`` report of identity,
all at 20 probes and seed 0, and the whole ``zoo`` report of a ``lemma23``
builtin. A key added to any object of the identity reports must fail too.

    PYTHONPATH=src python tests/test_report_scan.py

prints the accepted edits of the four reports.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import os
from fractions import Fraction

from colline import cli
from colline.errors import CollineError
from colline.field import parse_vector
from colline.geometry import Line
from colline.serialize import one_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMON = ["--probes", "20", "--seed", "0"]


@functools.lru_cache(maxsize=None)
def _report_text(argv: tuple) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv) + COMMON) == 0
    return out.getvalue()


def _identity_report() -> dict:
    return json.loads(_report_text(("classify", "--no-symbolic",
                                    os.path.join(ROOT, "demos", "identity.map"))))


def _jump2_check() -> dict:
    return json.loads(_report_text(("check", "additivity",
                                    os.path.join(ROOT, "demos", "jump2.map"))))


def _identity_ratio_check() -> dict:
    return json.loads(_report_text(("check", "ratio",
                                    os.path.join(ROOT, "demos", "identity.map"))))


def _lemma23_zoo() -> dict:
    return json.loads(_report_text(("zoo", "--builtin", "lemma23:m=2,n=2,e0=0,d0=(0,1)")))


def _at(node, path):
    return functools.reduce(lambda node, key: node[key], path, node)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path, node


def _objects(node, path=()):
    """The path of every object in a report, the report itself first."""
    if isinstance(node, dict):
        yield path
        for key, child in node.items():
            yield from _objects(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _objects(child, path + (i,))


def _edited(value):
    """The one edit of a leaf, or None for a leaf that is not edited (null)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        if value.startswith("(") and value.endswith(")"):
            first, *rest = value[1:-1].split(",")
            return "(" + ", ".join([str(Fraction(first) + 1), *(x.strip() for x in rest)]) + ")"
        return value + "x"
    return None


def _rejected(report: dict) -> bool:
    """Whether ``--revalidate`` exits 2 on the report: it states a failure or
    holds data that does not decode."""
    try:
        with one_report():
            return bool(cli._recheck_report(report))
    except (CollineError, ArithmeticError, LookupError, TypeError, ValueError,
            AttributeError):
        return True


def _accepted(report: dict, scopes) -> list:
    """(path, old, new) of each single-leaf edit under ``scopes`` that revalidates."""
    accepted = []
    for scope in scopes:
        for path, old in _leaves(_at(report, scope), scope):
            new = _edited(old)
            if new is None:
                continue
            edited = copy.deepcopy(report)
            _at(edited, path[:-1])[path[-1]] = new
            if not _rejected(edited):
                accepted.append((path, old, new))
    return accepted


def _same_line(report: dict, path: tuple, new: str) -> bool:
    """Whether a certificate line's (or image line's) origin or direction
    edited to ``new`` leaves the line it states as it was."""
    cert_line, key = _at(report, path[:-1]), path[-1]
    prefix = key.removesuffix("origin").removesuffix("direction")  # "" or "image_"

    def line(stored):
        return Line(parse_vector(stored[prefix + "origin"]),
                    parse_vector(stored[prefix + "direction"]))

    return line(cert_line) == line({**cert_line, key: new})


# each allowlisted edit and why it may stand: (path test, reason)
ALLOWED = [
    (lambda report, path, new: path[2:3] == ("lines",)
     and path[-1] in ("origin", "direction", "image_origin", "image_direction")
     and _same_line(report, path, new),
     "a line origin or direction moved along the same line states the same line"),
    (lambda report, path, new: path[-1] == "label",
     "a label names an evaluation or an equation; the fact is checked, not its name"),
    (lambda report, path, new: path[0] == "certificates" and len(path) == 3
     and path[2] in ("kind", "conclusion", "note"),
     "a certificate's kind, conclusion and note describe its facts and are not checked"),
    (lambda report, path, new: path[0] == "outcomes" and path[-1] in ("probes", "skipped"),
     "probe and skip counts state how much was sampled, which only a re-run shows"),
    (lambda report, path, new: path[-2:] == ("phi", "anchor")
     and report["classification"]["verdict"] == "empirically_linear",
     "the anchor of a linear map's phi table: phi(r) = r at every anchor with f(a) != 0"),
    (lambda report, path, new: path[0] in ("tool", "version"),
     "the tool and version name the writer; the facts it wrote are checked"),
    (lambda report, path, new: path[0] == "config",
     "the config states how the probes were drawn, which only a re-run shows"),
]


def _unexplained(report: dict, accepted: list) -> list:
    return [(path, old, new) for path, old, new in accepted
            if not any(test(report, path, new) for test, _ in ALLOWED)]


CERTIFICATE_SCOPES = [("certificates",), ("classification", "phi")]
OUTCOME_SCOPES = [("outcomes", 0)]
REPORT_SCOPES = [()]


def test_every_accepted_certificate_or_phi_edit_is_allowlisted():
    report = _identity_report()
    assert report["classification"]["verdict"] == "empirically_linear"
    accepted = _accepted(report, CERTIFICATE_SCOPES)
    assert _unexplained(report, accepted) == []
    assert len(accepted) <= 81


def test_every_accepted_witness_edit_is_allowlisted():
    report = _jump2_check()
    assert [o["verdict"] for o in report["outcomes"]] == ["fail"]
    accepted = _accepted(report, OUTCOME_SCOPES)
    assert _unexplained(report, accepted) == []
    assert sorted(path[-1] for path, _, _ in accepted) == ["probes", "skipped"]


def test_every_accepted_edit_of_a_whole_check_report_is_allowlisted():
    # the map's name and dimensions, the outcome's check name and verdict all re-check
    report = _identity_ratio_check()
    assert [o["verdict"] for o in report["outcomes"]] == ["pass"]
    accepted = _accepted(report, REPORT_SCOPES)
    assert _unexplained(report, accepted) == []
    assert sorted(".".join(map(str, path)) for path, _, _ in accepted) == [
        "config.check", "config.format", "config.inputs.0", "config.params_per_line",
        "config.probes", "config.range", "config.seed", "outcomes.0.probes",
        "outcomes.0.skipped", "tool", "version"]


def test_every_accepted_edit_of_a_whole_zoo_report_is_allowlisted():
    # each sample's input and image re-checks on the rebuilt map
    report = _lemma23_zoo()
    assert len(report["samples"]) == 3
    accepted = _accepted(report, REPORT_SCOPES)
    assert _unexplained(report, accepted) == []
    assert {path[0] for path, _, _ in accepted} == {"config", "tool", "version"}


def test_a_key_added_to_any_object_of_a_report_fails():
    for report in (_identity_ratio_check(), _identity_report()):
        for path in _objects(report):
            edited = copy.deepcopy(report)
            _at(edited, path)["extra"] = 1
            assert _rejected(edited), path


if __name__ == "__main__":
    for name, report, scopes in (("identity", _identity_report(), CERTIFICATE_SCOPES),
                                 ("jump2", _jump2_check(), OUTCOME_SCOPES),
                                 ("identity check ratio", _identity_ratio_check(),
                                  REPORT_SCOPES),
                                 ("lemma23 zoo", _lemma23_zoo(), REPORT_SCOPES)):
        accepted = _accepted(report, scopes)
        edits = sum(_edited(old) is not None for scope in scopes
                    for _, old in _leaves(_at(report, scope)))
        print(f"{name}: {edits} edits, {len(accepted)} accepted")
        for path, old, new in accepted:
            print("  ", ".".join(map(str, path)), repr(old), "->", repr(new))
