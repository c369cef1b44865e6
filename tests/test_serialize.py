"""The report codecs: every record reads back as itself, the keys that older
reports may lack keep their defaults, and a malformed outcome is refused."""

import dataclasses
import glob
import json
import os

import pytest

from colline.cli import run
from colline.dsl import parse_map, parse_map_file
from colline.engine import classify_map
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
    to_jsonable,
)
from colline.zoo import make_dsl, parse_builtin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CFG = ProbeConfig(seed=3, count=60)
LEMMA23 = "lemma23:m=2,n=2,e0=0,d0=(0,1)"


def _classifications():
    """What `classify --no-symbolic` finds for every demo map and for lemma 2.3."""
    handles = [
        make_dsl(spec)
        for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.map")))
        for spec in parse_map_file(open(path, encoding="utf-8").read())
    ]
    handles.append(parse_builtin(LEMMA23))
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


# keys that a stored report may lack, each read with a default
OPTIONAL_KEYS = {"skipped", "equal", "note", "witness", "image_origin", "image_direction"}


def _drop(node, keys) -> set:
    """Delete ``keys`` at any depth of a JSON value; the keys that were found."""
    found = set()
    if isinstance(node, dict):
        found = keys & node.keys()
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
