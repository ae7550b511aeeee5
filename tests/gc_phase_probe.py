"""Where perfbench's first speed burst falls in the garbage collector's
cycle: a diagnostic kept outside Tier-1 (pytest collects only
test_*.py).

perfbench/child.py pins one CPU, imports the library, builds a
workload's cases and imports sympy for its machine facts; then the
sampler takes its first burst.  A collection that the burst triggers is
timed as part of the burst, so what the set-up leaves allocated can move
the workload's speed-scaled verify_s while the program's own time does
not move.  For each workload this script repeats child.py's steps up to
that burst in a fresh interpreter (PYTHONHASHSEED=1, no bytecode
written), then prints gc.get_count() and the generations that one
speed.burst() collects, as gc.callbacks reports them.  It imports
perfbench and changes nothing there.

Run:  python tests/gc_phase_probe.py [workload ...]
"""

import gc
import sys


def probe(name):
    """gc.get_count() after child.py's set-up for the workload `name`,
    and the generations that the next speed.burst() collects."""
    import child
    import speed
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    nproc = child.pin_to_one_cpu()
    from gsp4verify import cli
    child.process_caches()
    cli.build_cases(cli.SuiteConfig(timings=True, **workload.config))
    child.machine_facts(nproc)
    count = list(gc.get_count())
    collected = []

    def note(phase, info):
        if phase == "start":
            collected.append(info["generation"])
    gc.callbacks.append(note)
    speed.burst()
    gc.callbacks.remove(note)
    return count, collected


def main(argv):
    import os
    import pathlib
    import subprocess
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "perfbench"),
                                           str(root / "src")]))
    for name in argv or ["tame", "coset", "catalogue"]:
        out = subprocess.run([sys.executable, __file__, "--one", name],
                             cwd=root, env=env, check=True,
                             capture_output=True, text=True).stdout
        count, collected = out.split("|")
        print("%-10s gc.get_count() %s, burst collects %s"
              % (name, count, collected.strip()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print("%s|%s" % probe(sys.argv[2]))
    else:
        main(sys.argv[1:])
