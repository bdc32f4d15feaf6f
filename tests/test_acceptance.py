"""End-to-end acceptance runs, one test per advertised guarantee.

These are the expensive checks that tie the catalog, the search engine, the
identity sweeps and the command line together; the unit suites cover the
same machinery piecewise.
"""

import hashlib
import json
from collections import Counter

import pytest

from e510.catalog import classification_sweep, known_vector, verify_catalog
from e510.cli import main
from e510.singular_search import (
    dominant_weights_up_to, dual_pair_check, sweep)
from e510.sl5_reps import parse_weight
from e510.verma import proportional, tensor_from_terms


@pytest.fixture(scope="module")
def classification():
    return classification_sweep(3, 4)


def _cli_search(tmp_path, mu, degree):
    out = tmp_path / ("certs_%s_%s.json" % (mu.replace(",", ""), degree))
    assert main(["search", "--mu", mu, "--degree", degree,
                 "--format", "json", "--output", str(out)]) == 0
    return json.loads(out.read_text())["certificates"]


def test_catalog_full_grid():
    recs = verify_catalog()
    assert len(recs) == 45
    bad = [r for r in recs if not r["ok"]]
    assert not bad, bad


def test_degree_eleven_unique(tmp_path):
    certs = _cli_search(tmp_path, "0,0,0,1", "11")
    assert len(certs) == 1
    cert = certs[0]
    assert cert["weight"] == "1,0,0,0" and cert["kernel_dim"] == 1
    got = tensor_from_terms(cert["vectors"][0])
    _, want = known_vector("11")
    assert proportional(want, got)


def test_degree_seven_found_and_six_empty(tmp_path):
    certs = _cli_search(tmp_path, "0,0,0,2", "7")
    assert len(certs) == 1
    cert = certs[0]
    assert cert["weight"] == "2,0,0,0" and cert["kernel_dim"] == 1
    got = tensor_from_terms(cert["vectors"][0])
    _, want = known_vector("7")
    assert proportional(want, got)
    assert sweep(dominant_weights_up_to(2), (6,)) == []


def test_low_degree_classification(classification):
    rep = classification
    assert rep["ok"], (rep["unexplained"], rep["missing"])
    assert len(rep["certificates"]) == 34
    counts = Counter(e["family"][0] for e in rep["certificates"])
    assert dict(counts) == {"1A": 10, "1B": 6, "1C": 6, "2BA": 3, "2CB": 2,
                            "2CA": 1, "3CBA": 1, "4D": 4, "4E": 1}


def test_duality_of_all_certificates(classification):
    cells = [(e["mu"], e["degree"], e["weight"])
             for e in classification["certificates"]]
    cells.append(("0,0,0,1", 11, "1,0,0,0"))
    cells.append(("0,0,0,2", 7, "2,0,0,0"))
    for mu, d, nu in cells:
        chk = dual_pair_check(parse_weight(mu), d, parse_weight(nu))
        assert chk["consistent"], chk


def _identities(tmp_path, suite):
    """The JSON report of one identity suite, run once through main, and
    its SHA-256."""
    out = tmp_path / ("identities_%s.json" % suite)
    assert main(["identities", "--suite", suite, "--format", "json",
                 "--output", str(out)]) == 0
    return (json.loads(out.read_text()),
            hashlib.sha256(out.read_bytes()).hexdigest())


def test_omega_identity_suite(tmp_path):
    rep, digest = _identities(tmp_path, "omega")
    assert not rep["failures"], rep["failures"][:3]
    assert rep["checks"]["routes_exhaustive"] == 385
    assert rep["checks"]["commutator"] == 7700
    assert digest == (
        "81ced6ecf142c625c08baecdb02546e8f3cdf4a4816fbb52f85eb2c77b292dcc")


def test_fundamental_equation_suite(tmp_path):
    rep, digest = _identities(tmp_path, "fundamental")
    assert not rep["failures"], rep["failures"][:3]
    assert rep["checks"]["chain_7"] == 16
    assert digest == (
        "1426a090cecebcfa3f4aa762552de57187bda41018215e731a13afceef243376")


def test_s5_baseline_exact(tmp_path):
    out = tmp_path / "s5.json"
    assert main(["s5-baseline", "--format", "json",
                 "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert [e["label"] for e in rep["found"]] == \
        ["R1", "R2", "R3", "R4", "R5", "R6"]
    assert rep["unexpected"] == []


def test_structural_self_tests(tmp_path):
    rep, digest = _identities(tmp_path, "structure")
    assert not rep["failures"], rep["failures"][:3]
    assert rep["checks"]["dims"] == 256
    assert digest == (
        "f63a6ff5f3cbfb5a0d784c5d2a7bcaa8248e13f840d186d569d7f46d9c1cf406")


def test_composition_complexes(tmp_path):
    out = tmp_path / "complexes.json"
    assert main(["complexes", "--format", "json",
                 "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["identities"]) == 6
    assert rep["degree_one_square_zero"] is True
    assert rep["nonzero_pairs"] == 7
    assert rep["unmatched_pairs"] == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e8d7916a33a1c57ddae593622c1afc561d4a7a3956b15e8d1e46c028ef2914b5")


def test_deep_emptiness_sweep():
    assert sweep(dominant_weights_up_to(1), (12, 13, 14)) == []
