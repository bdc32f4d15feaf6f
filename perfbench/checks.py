"""Correctness checks for the benchmark's reports, run after the timed rounds.

Each checker returns a list of problems (empty when the report is right).
They compare against data and properties the searches do not produce: the
paper's transcribed vector tables in ``e510.catalog``, the catalog's list of
instances in range, and a re-check of every kernel vector against all 40
degree +1 elements (the searches apply only x_5 d_45 on that side).
"""

import hashlib
import json
from fractions import Fraction

# SHA-256 of each report as e510 printed it when this benchmark was written;
# the reports are deterministic byte for byte, so any change shows here.
GOLDEN_SHA256 = {
    "search_deg11":
        "4f34aecc4935943f07f41181cd53fa536d3e4976f19b05ff45aae3b50ac9a16e",
    "classify_b2":
        "ddaae6dcb343e9d2c0a95dfe81bf7878b9c4aab5ebf65c35e0b0a7f8189d7545",
    "complexes":
        "e8d7916a33a1c57ddae593622c1afc561d4a7a3956b15e8d1e46c028ef2914b5",
}

COMPOSITION_TARGETS = {"2BA", "2CB", "2CA", "3CBA", "5CD", "5EA"}
COMPLEX_PAIRS = 32
CLASSIFY_CELLS = 15 * 4


def _vector_problems(mu, terms, where):
    from e510.verma import VermaModule, tensor_from_terms
    vec = tensor_from_terms(terms)
    if not VermaModule(mu).is_singular(vec, full_g1=True):
        return ["%s: vector fails the full g_1 re-check" % where]
    return []


def check_search_deg11(report, checkpoint):
    from e510.catalog import known_vector
    from e510.verma import proportional, tensor_from_terms
    problems = []
    if report.get("ok") is not True:
        problems.append("report is not ok")
    certs = report.get("certificates", [])
    if len(certs) != 1 or report.get("count") != 1:
        return problems + ["expected exactly one certificate, got %d"
                           % len(certs)]
    cert = certs[0]
    want = {"mu": "0,0,0,1", "degree": 11, "weight": "1,0,0,0",
            "kernel_dim": 1}
    for key, val in want.items():
        if cert.get(key) != val:
            problems.append("certificate %s is %r, not %r"
                            % (key, cert.get(key), val))
    if len(cert.get("vectors", [])) != 1:
        return problems + ["certificate must carry one vector"]
    terms = cert["vectors"][0]
    _, table = known_vector("11")
    if proportional(tensor_from_terms(terms), table) is None:
        problems.append("vector is not proportional to the degree 11 table")
    return problems + _vector_problems((0, 0, 0, 1), terms, "degree 11")


def check_classify_b2(report, checkpoint):
    from e510.catalog import expected_instances
    problems = []
    if report.get("ok") is not True:
        problems.append("report is not ok")
    for key in ("unexplained", "missing"):
        if report.get(key) != []:
            problems.append("%s is not empty" % key)
    expected = {(",".join(map(str, mu)), ",".join(map(str, lam)), deg,
                 (fam, m, n))
                for fam, m, n, mu, lam, deg in expected_instances(2, 4)}
    got = {(c["mu"], c["weight"], c["degree"], tuple(c["family"]))
           for c in report.get("certificates", [])}
    if len(report.get("certificates", [])) != len(expected):
        problems.append("%d certificates for %d catalog instances"
                        % (len(report.get("certificates", [])),
                           len(expected)))
    if got != expected:
        problems.append("certificates differ from the catalog instances")
    if len(checkpoint) != CLASSIFY_CELLS:
        problems.append("checkpoint holds %d cells, not %d"
                        % (len(checkpoint), CLASSIFY_CELLS))
    saved = [c for cell in checkpoint.values() for c in cell]
    if {(c["mu"], c["weight"], c["degree"]) for c in saved} \
            != {g[:3] for g in got} or len(saved) != len(got):
        problems.append("checkpoint certificates differ from the report")
    for c in saved:
        mu = tuple(int(t) for t in c["mu"].split(","))
        where = "M(%s) degree %d" % (c["mu"], c["degree"])
        if c["kernel_dim"] != 1 or len(c["vectors"]) != 1:
            problems.append("%s: kernel_dim %d" % (where, c["kernel_dim"]))
        for terms in c["vectors"]:
            problems += _vector_problems(mu, terms, where)
    return problems


def check_complexes(report, checkpoint):
    problems = []
    if report.get("ok") is not True:
        problems.append("report is not ok")
    idents = report.get("identities", [])
    if {r.get("target") for r in idents} != COMPOSITION_TARGETS \
            or len(idents) != len(COMPOSITION_TARGETS):
        problems.append("expected the six composition identities")
    for r in idents:
        if not r.get("ok") or r.get("scalar") is None \
                or Fraction(r["scalar"]) == 0:
            problems.append("identity %s has no nonzero scalar"
                            % r.get("target"))
    if report.get("degree_one_square_zero") is not True:
        problems.append("the degree-1 square is not zero")
    pairs = report.get("pairs", [])
    if len(pairs) != COMPLEX_PAIRS:
        problems.append("%d composable pairs, not %d"
                        % (len(pairs), COMPLEX_PAIRS))
    if report.get("unmatched_pairs") != [] \
            or any(not p["zero"] and p.get("matches") is None for p in pairs):
        problems.append("a nonzero composition matches no catalog instance")
    if report.get("nonzero_pairs") != sum(not p["zero"] for p in pairs):
        problems.append("nonzero_pairs disagrees with the pair records")
    return problems


CHECKERS = {
    "search_deg11": check_search_deg11,
    "classify_b2": check_classify_b2,
    "complexes": check_complexes,
}


def check(workload, text, checkpoint_text=None):
    """All problems with one workload's report text (and checkpoint)."""
    problems = []
    if hashlib.sha256(text.encode()).hexdigest() != GOLDEN_SHA256[workload]:
        problems.append("report bytes differ from the recorded report")
    checkpoint = json.loads(checkpoint_text) if checkpoint_text else None
    return problems + CHECKERS[workload](json.loads(text), checkpoint)
