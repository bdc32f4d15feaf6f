"""One benchmark round: a fresh interpreter running one `e510` command.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py MEASURE_FILE MODE -- <e510 argv>

MODE is ``setup`` (stop at the first call of the command function),
``plain`` (timed run) or ``trace`` (timed run with layer wrappers).  The
command runs through the public ``e510.cli.main``; its report goes wherever
the argv's ``--output`` says.  The round's measurements are written as JSON
to MEASURE_FILE.

The command function is wrapped so that the moment of its first call marks
the end of set-up (interpreter start, imports, argument parsing).  The timed
section starts there and ends when ``main`` returns, so it covers the work
and the report emission.
"""

import gc
import json
import resource
import signal
import sys
import time
from fractions import Fraction

# One reference unit is REF_ITERATIONS loop iterations (about 0.4 s here).
# In a timed round a slice of 1/REF_SLICES of it runs after every
# SLICE_EVERY seconds of process CPU time, so the slices sample the speed of
# the machine all through the workload.
REF_ITERATIONS = 120000
REF_SLICES = 60
SLICE_EVERY = 0.25


def reference_work(iterations):
    """Fixed pure-Python dict and Fraction work, like the program's loops.

    Imports nothing from e510, so its cost tracks only the machine and the
    interpreter.  Denominators stay below 60, so every iteration costs alike.
    """
    acc = {}
    for i in range(iterations):
        key = ((i * 7) % 211, (i * 13) % 5, i % 3)
        total = acc.get(key, 0) + Fraction(i % 11 - 5, i % 6 + 1)
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return len(acc)


class RefSampler:
    """Runs reference slices on a CPU-time timer and records their cost.

    Slices are timed with the wall clock: the process CPU clock of this
    kernel advances in 4 ms ticks, too coarse for a 6 ms slice.  The garbage
    collector is held off during a slice, so a collection of the program's
    heap is not charged to the reference.
    """

    def __init__(self):
        self.times = []
        self.total = 0.0

    def _slice(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work(REF_ITERATIONS // REF_SLICES)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.total += dt
        if collecting:
            gc.enable()

    def clock(self):
        """Wall clock that stands still during slices."""
        return time.perf_counter() - self.total

    def start(self):
        signal.signal(signal.SIGPROF, self._slice)
        signal.setitimer(signal.ITIMER_PROF, SLICE_EVERY, SLICE_EVERY)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if not self.times:  # a workload shorter than SLICE_EVERY
            self._slice(None, None)

    def unit_seconds(self):
        """Mean seconds of one whole reference unit over the slices."""
        return REF_SLICES * sum(self.times) / len(self.times)


class SetupDone(BaseException):
    """Raised at the first call of the command function in set-up mode.

    A BaseException, so the CLI's own error handling does not catch it.
    """


def run(measure_file, mode, argv):
    from e510 import cli

    name = "cmd_" + argv[0].replace("-", "_")
    command = getattr(cli, name)
    out = {"mode": mode}
    clock = {}
    tracer = None
    sampler = RefSampler()

    def hooked(args):
        nonlocal tracer
        out["first_call"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        clock["wall"] = time.perf_counter()
        clock["cpu"] = time.process_time()
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer(sampler.clock)
            tracer.install()
        sampler.start()
        return command(args)

    setattr(cli, name, hooked)
    try:
        out["exit_code"] = cli.main(argv)
    except SetupDone:
        out["exit_code"] = 0
    else:
        sampler.stop()
        wall = time.perf_counter() - clock["wall"]
        cpu = time.process_time() - clock["cpu"]
        # the slices' own time is not the program's
        out["wall"] = wall - sampler.total
        out["cpu"] = cpu - sampler.total
        out["ref_unit_s"] = sampler.unit_seconds()
        out["ref_slice_s"] = sampler.times
        if tracer is not None:
            out["layers"] = tracer.metrics()
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(measure_file, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sep = sys.argv.index("--")
    measure, mode = sys.argv[1:sep]
    if mode not in ("setup", "plain", "trace"):
        raise SystemExit("unknown mode %r" % mode)
    raise SystemExit(run(measure, mode, sys.argv[sep + 1:]))
