"""gsp4verify benchmark: runs one workload through gsp4verify.cli.run.

    python3 perfbench/run.py --workload {tame,coset,catalogue} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Every repetition runs in a fresh interpreter, because the
library keeps process-global caches that each command-line run fills
from empty.  Repetitions follow each other in a closed loop, one caller,
cases in runner order.  Repetitions continue while the time left of
``--seconds`` is at least the last repetition's duration; at least one
runs.

verify_s is each repetition's wall time scaled to a reference
interpreter speed sampled while it ran (see speed.py); the raw wall
times and the factors are on the facts line.

--trace 0 reports the end-to-end metrics; --trace 1 pairs an untraced
with a traced repetition and reports the per-layer metrics.  Each run
gates correctness: every case passes and the list of (suite, case,
params, status) equals perfbench/reference/<workload>.json.

Standard output: a JSON line with run facts, then a last JSON line
with the keys correct, attempted, failed and metrics.  The seed sets
PYTHONHASHSEED of the repetitions; the cases do not depend on it.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import metrics
import speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# Set-up is timed in these extra interpreters as well as in each
# repetition; setup_s is the median of all of them.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def reference_path(name):
    return os.path.join(HERE, "reference", name + ".json")


def spawn(workload, mode, seed):
    """Run child.py in a fresh interpreter.  Returns its JSON output with
    "start" (the parent's monotonic clock just before the spawn) and
    "peak_rss_mb" of the child added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
    # the same import cost in every checkout, and no writes outside it
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, workload, mode],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4, not wait: its rusage is this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:     # interrupted: stop the child too
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s %s repetition exited with %d"
                         % (workload, mode, proc.returncode))
    result = json.loads(out)
    result["start"] = start
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return result


def repeat(seconds, once):
    """Call once() at least once, and again while the time left is at
    least the duration of the last call."""
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        once()
        now = time.monotonic()
        if now + (now - start) > deadline:
            return


class Run:
    """One benchmark run: repetitions, their checks and their metrics."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        with open(reference_path(name)) as fh:
            self.reference = json.load(fh)
        self.pids = set()
        self.attempted = self.failed = 0
        self.problems = []
        # raw verify wall times and their speed factors, for the facts line
        self.wall_s, self.speed_scale = [], []

    def child(self, mode):
        result = spawn(self.name, mode, self.seed)
        self.machine = result["machine"]
        self.check_isolated(result)
        return result

    def check_isolated(self, result):
        """A repetition must not see caches an earlier one filled: each
        runs in its own process, whose caches are empty after import."""
        if result["pid"] in self.pids:
            self.problems.append("process %d reused" % result["pid"])
        self.pids.add(result["pid"])
        full = {k: n for k, n in result["caches_at_import"].items() if n}
        if full:
            self.problems.append("caches filled before the run: %s" % full)

    def check_verdicts(self, result):
        attempted, failed = metrics.gate(result["records"], self.reference)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append("%d of %d cases failed the gate"
                                 % (failed, attempted))

    def untraced(self):
        result = self.child("run")
        self.check_verdicts(result)
        return result

    def measure(self, seconds):
        probes = [self.child("setup") for _ in range(SETUP_PROBES)]
        setups = [p["setup_end"] - p["start"] for p in probes]
        reps = []

        def once():
            r = self.untraced()
            setups.append(r["setup_end"] - r["start"])
            factor = speed.scale(r["verify_speed"])
            self.wall_s.append(r["verify_s"])
            self.speed_scale.append(factor)
            reps.append({"verify_s": r["verify_s"] * factor,
                         "peak_rss_mb": r["peak_rss_mb"]})
        repeat(seconds, once)
        return {k: {"value": v, "unit": u}
                for k, (v, u) in metrics.end_to_end(setups, reps).items()}

    def measure_traced(self, seconds):
        jobs = self.workload.config.get("parallelism", 1)
        pairs = []

        def once():
            plain = self.untraced()
            traced = self.child("trace")
            self.check_verdicts(traced)
            verdicts = [rec[:4] for rec in traced["records"]]
            if verdicts != [rec[:4] for rec in plain["records"]]:
                self.problems.append("traced verdicts differ from untraced")
            calls = metrics.layer_calls(traced["trace"])
            silent = [l for l in self.workload.layers if not calls[l]]
            if silent:
                self.problems.append("no traced calls in %s" % silent)
            pairs.append(metrics.per_layer(
                traced["trace"], traced["verify_s"], plain["verify_s"],
                [rec[4] for rec in plain["records"]], jobs))
        repeat(seconds, once)
        return {k: {"value": statistics.median(p[k][0] for p in pairs),
                    "unit": pairs[0][k][1]}
                for k in pairs[0]}


def write_reference(name, seed):
    """Record the verdict list of one untraced repetition as the
    workload's reference; refuses unless every case passed."""
    records = [rec[:4] for rec in spawn(name, "run", seed)["records"]]
    bad = [r for r in records if r[3] != "pass"]
    if bad:
        raise BenchError("not recording a reference with failures: %s" % bad)
    with open(reference_path(name), "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the workload's reference verdicts "
                             "and exit")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn() so that the running child is
    # killed and reaped before exiting
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "gsp4verify", "cli.py")):
        print("run.py: no library source at %s" % SRC, file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference(args.workload, args.seed)
            return 0
        run = Run(args.workload, args.seed)
        if args.trace:
            values = run.measure_traced(args.seconds)
        else:
            values = run.measure(args.seconds)
    except (BenchError, OSError, ValueError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    correct = not run.problems
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": run.machine, "processes": len(run.pids),
        "failed_frac": metrics.failed_frac(run.attempted, run.failed),
        "verify_wall_s": run.wall_s, "speed_scale": run.speed_scale,
        "problems": run.problems}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
