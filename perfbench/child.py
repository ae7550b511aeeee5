"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py <workload> {setup,run,trace}

``setup`` imports the library and builds the cases; ``run`` then runs
them through ``gsp4verify.cli.run``; ``trace`` does the same with the
tracer installed.  Prints one JSON object on standard output.
``perfbench/run.py`` starts this script and sets ``PYTHONPATH``.
"""

import json
import os
import platform
import sys
import time

import speed


def process_caches():
    """Sizes of the library's process-global caches: module-level
    containers whose name contains "cache", and functools caches."""
    sizes = {}
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("gsp4verify."):
            continue
        for attr, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info):
                sizes["%s.%s" % (modname, attr)] = info().currsize
            elif ("cache" in attr.lower()
                  and isinstance(value, (dict, list, set))):
                sizes["%s.%s" % (modname, attr)] = len(value)
    return sizes


def pin_to_one_cpu():
    """Pin this process to its lowest allowed CPU; return how many CPUs
    it was allowed before.

    The runner's pool is threads under one interpreter lock, so a second
    CPU cannot make it faster.  On a shared virtual machine, handing the
    lock to a thread woken on an idle second CPU waits for the host to
    run that CPU, which adds host noise, not program time.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return len(allowed)


def machine_facts(nproc):
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    return {"nproc": nproc,
            "pinned_cpus": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "sympy": sympy.__version__,
            "sympy_ground_types": GROUND_TYPES}


def main(argv):
    from workloads import WORKLOADS
    workload, mode = WORKLOADS[argv[1]], argv[2]
    nproc = pin_to_one_cpu()

    from gsp4verify import cli
    # a module not loaded yet holds no cache; a loaded one must hold none
    out = {"pid": os.getpid(), "caches_at_import": process_caches()}
    config = cli.SuiteConfig(timings=True, **workload.config)
    cli.build_cases(config)
    out["setup_end"] = time.monotonic()
    out["machine"] = machine_facts(nproc)
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    records = cli.run(config)
    out["verify_s"] = time.perf_counter() - start
    out["verify_speed"] = sampler.stop()
    out["records"] = [[r["suite"], r["case"], r["params"], r["status"],
                       r["ms"]] for r in records]
    if tracer is not None:
        out["trace"] = tracer.totals()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
