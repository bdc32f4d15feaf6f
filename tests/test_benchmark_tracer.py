"""The benchmark's layer tracer (perfbench/tracer.py) wraps program
functions by name; a rename in the program must fail here, not leave a
benchmark layer empty."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in a fresh interpreter: install() patches the e510 modules for good
SCRIPT = """
import json, sys
from tracer import Tracer
from e510.cli import main
tracer = Tracer()
tracer.install()
out = sys.argv[1]
codes = [main(["search", "--mu", "0,0,0,1", "--degree", "1..2",
               "--format", "json", "--output", out]),
         main(["complexes", "--format", "json", "--output", out])]
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""


def test_tracer_reports_every_declared_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "report.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0]
    declared = {layer["name"] for layer in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # the child process measures the overhead ratio itself
    assert declared - {"trace.overhead_ratio"} <= set(got["metrics"])
    metrics = got["metrics"]
    for name in ("verma.weight_space.calls",
                 "uminus.enumerate_monomials.calls", "singular_search.blocks",
                 "verma.mult.calls", "cli.report_bytes"):
        assert metrics[name] > 0, name
