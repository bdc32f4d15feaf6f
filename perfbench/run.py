"""Benchmark for the e510 command line: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round starts a fresh interpreter
(perfbench/child.py) that runs one `e510` command through e510.cli.main, so
the module-level caches start empty as they do for every CLI call.  Rounds
run one after another, single-threaded, closed loop with one client, until
S seconds have passed (at least one round).  Three set-up-only probes run
before each round and after the last.  Every report is checked after the
timed rounds.

With --trace 0 the last line of stdout carries the end-to-end metrics
(medians over the rounds).  With --trace 1 the same rounds run untraced, then
one more round runs with layer wrappers installed, and the last line carries
the per-layer metrics of that round and its overhead against the untraced
median.  No input depends on --seed; the workloads are fixed computations.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
CHILD_TIMEOUT = 150

WORKLOADS = {
    "search_deg11": ["search", "--mu", "0,0,0,1", "--degree", "11"],
    "classify_b2": ["classify", "--budget", "2", "--max-degree", "4",
                    "--checkpoint", "{checkpoint}"],
    "complexes": ["complexes"],
}


def _units(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _round(root, work, mode, argv, tag):
    """Run one child; its measurements, or None when it failed."""
    measure = os.path.join(work, "measure-%s.json" % tag)
    src = os.path.join(root, "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), measure, mode, "--"]
        + argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not os.path.exists(measure):
        sys.stderr.write("round %s failed (exit %d):\n%s"
                         % (tag, proc.returncode, proc.stderr[-4000:]))
        return None
    with open(measure) as fh:
        got = json.load(fh)
    got["setup"] = got["first_call"] - start
    return got


def _argv(workload, work, tag):
    checkpoint = os.path.join(work, "checkpoint-%s.json" % tag)
    report = os.path.join(work, "report-%s.json" % tag)
    argv = [a.format(checkpoint=checkpoint) for a in WORKLOADS[workload]]
    return argv + ["--format", "json", "--output", report], report, checkpoint


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def run(root, workload, seconds, trace):
    """Rounds, checks and metrics of one benchmark run."""
    work = os.path.join(root, ".perfbench_work",
                        "%s-%d" % (workload, os.getpid()))
    os.makedirs(work)
    try:
        return _run(root, work, workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(root, work, workload, seconds, trace):
    setups, rounds, outputs = [], [], []

    def probe():
        for _ in range(SETUP_PROBES):
            tag = "probe%d" % len(setups)
            got = _round(root, work, "setup",
                         _argv(workload, work, tag)[0], tag)
            if got is None:
                raise RuntimeError("set-up probe failed")
            setups.append(got["setup"])

    def attempt(mode):
        tag = "%s%d" % (mode, len(rounds) + failed)
        argv, report, checkpoint = _argv(workload, work, tag)
        got = _round(root, work, mode, argv, tag)
        text = _read(report)
        if got is None or text is None:
            return False
        rounds.append(got)
        outputs.append((text, _read(checkpoint), got["exit_code"]))
        return True

    failed = 0
    start = time.monotonic()
    while True:
        probe()
        failed += not attempt("plain")
        if time.monotonic() - start >= seconds:
            break
    probe()
    if trace:
        failed += not attempt("trace")

    from checks import check
    problems = []
    if outputs:
        text, checkpoint, _ = outputs[0]
        problems = check(workload, text, checkpoint)
        if any(o[0] != text or o[1] != checkpoint for o in outputs):
            problems.append("reports differ between rounds")
        if any(o[2] != 0 for o in outputs):
            problems.append("the command exited nonzero")
    for p in problems:
        sys.stderr.write("check failed: %s\n" % p)

    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "trace"]
    if not plain or trace and not traced:
        raise RuntimeError("no round of %s completed" % workload)
    setups += [r["setup"] for r in rounds]
    if trace:
        # wall times in reference units, so the machine's drift cancels
        metrics = dict(traced[0]["layers"])
        metrics["trace.overhead_ratio"] = (
            traced[0]["wall"] / traced[0]["ref_unit_s"]
            / statistics.median(r["wall"] / r["ref_unit_s"] for r in plain))
    else:
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "cpu_ref": statistics.median(r["cpu"] / r["ref_unit_s"]
                                         for r in plain),
            "peak_rss_mb": statistics.median(r["rss_kb"] / 1024
                                             for r in plain),
            "setup_s": statistics.median(setups),
        }
    detail = {"workload": workload, "rounds": rounds, "setups": setups,
              "problems": problems}
    return not problems, len(rounds) + failed, failed, metrics, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only; every input is fixed")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "e510", "cli.py")):
        sys.stderr.write("error: run from the root of an e510 checkout "
                         "(src/e510/cli.py not found)\n")
        return 2
    sys.path.insert(1, os.path.join(root, "src"))
    e2e_units, layer_units = _units(root)
    units = layer_units if args.trace else e2e_units

    correct, attempted, failed, metrics, detail = run(
        root, args.workload, args.seconds, args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(metrics) ^ set(units)))
    detail["seed"] = args.seed
    result_path = os.path.join(root, ".perfbench_work", "last-%s-trace%d.json"
                               % (args.workload, args.trace))
    with open(result_path, "w") as fh:
        json.dump(detail, fh, indent=1)

    for name in sorted(metrics):
        print("%-40s %16.6f %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
