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

The count before the burst may move while the phase stays.  The first
speed.burst() of a process nets 1,804 GC-tracked allocations, and
CPython 3.11's thresholds are (700, 10, 10): a collection of
generation 0 falls every 701 net allocations, and the one that finds
the generation-1 count above 10 collects generation 1 instead.  So the
burst holds a generation-1 collection when the generation-1 count is
10 or 11, or when it is 9 and the generation-0 count is about 300 or
more (three collections in the burst, not two).  The readings agree:
[171, 9, 1] loses it, while [400, 9, 1], [513, 9, 1], [92, 10, 1] and
[171, 10, 1] keep it.

Run:  python tests/gc_phase_probe.py [--against TREE] [workload ...]

With --against, the same probe also runs on the perfbench and src of
the source tree TREE (say, a git archive of the parent commit), both
readings are printed, and the exit status is 1 when on some workload
the burst collects other generations in the two trees.
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


def reading(root, name):
    """(count, collected) of probe(name), as printed, in a fresh
    interpreter on the perfbench and src of the source tree root."""
    import os
    import subprocess
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "perfbench"),
                                           str(root / "src")]))
    out = subprocess.run([sys.executable, __file__, "--one", name],
                         cwd=root, env=env, check=True,
                         capture_output=True, text=True).stdout
    count, collected = out.split("|")
    return count, collected.strip()


def main(argv):
    import pathlib
    roots = [pathlib.Path(__file__).resolve().parent.parent]
    if argv[:1] == ["--against"]:
        roots.append(pathlib.Path(argv[1]).resolve())
        argv = argv[2:]
    moved = []
    for name in argv or ["tame", "coset", "catalogue"]:
        readings = [reading(root, name) for root in roots]
        for root, (count, collected) in zip(roots, readings):
            print("%-10s gc.get_count() %s, burst collects %s%s"
                  % (name, count, collected,
                     "" if len(roots) == 1 else "  (%s)" % root))
        if len({collected for _, collected in readings}) > 1:
            moved.append(name)
    if moved:
        print("the burst collects other generations on: %s"
              % ", ".join(moved))
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print("%s|%s" % probe(sys.argv[2]))
    else:
        sys.exit(main(sys.argv[1:]))
