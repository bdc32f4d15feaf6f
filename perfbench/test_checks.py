"""Negative controls: every checker must reject a perturbed report.

    python3 -m pytest perfbench/test_checks.py

The fixture runs the three benchmark commands once, in process (about a
minute on a 2-core machine), then perturbs copies of their reports.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
from e510.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("reports"))
    out = {}
    for workload in run.WORKLOADS:
        argv, report, checkpoint = run._argv(workload, work, workload)
        assert main(argv) == 0
        out[workload] = (run._read(report), run._read(checkpoint))
    return out


def _bump(terms):
    """Double the first coefficient of a vector with several terms.

    (Scaling a one-term vector would leave a valid singular vector.)
    """
    assert len(terms) > 1
    terms[0]["coeff"] = str(2 * Fraction(terms[0]["coeff"]))


def change_coefficient(workload, report, checkpoint):
    if workload == "search_deg11":
        _bump(report["certificates"][0]["vectors"][0])
    elif workload == "classify_b2":
        _bump(next(cert["vectors"][0] for cell in checkpoint.values()
                   for cert in cell if len(cert["vectors"][0]) > 1))
    else:
        report["identities"][0]["scalar"] = "0"


def drop_certificate(workload, report, checkpoint):
    key = "identities" if workload == "complexes" else "certificates"
    report[key].pop()


def flip_ok(workload, report, checkpoint):
    report["ok"] = False


WORKLOADS = sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_pass(outputs, workload):
    assert checks.check(workload, *outputs[workload]) == []


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("perturb",
                         [change_coefficient, drop_certificate, flip_ok])
def test_perturbed_report_rejected(outputs, workload, perturb):
    text, checkpoint_text = outputs[workload]
    report = json.loads(text)
    checkpoint = json.loads(checkpoint_text) if checkpoint_text else None
    perturb(workload, report, checkpoint)
    assert checks.CHECKERS[workload](report, checkpoint)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_changed_bytes_rejected(outputs, workload):
    text, checkpoint_text = outputs[workload]
    assert checks.check(workload, text + "\n", checkpoint_text)
