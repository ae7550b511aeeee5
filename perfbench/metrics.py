"""Metric arithmetic of the benchmark, kept free of I/O so it can be
tested on synthetic inputs (see test_metrics.py)."""

import statistics

from tracer import LAYER_MODULES

CASE_PERCENTILES = (50, 90)

# What symcore.calls counts: RatFunc arithmetic and the series helpers.
SYMCORE_CALLS = tuple(
    ["symcore.RatFunc." + m for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__", "inv")]
    + ["symcore.series_expand", "symcore.substitute",
       "symcore.reconstruct_ratfunc"])

# Per-layer call counts reported under "<name>.calls".
COUNTED = ("symcore.normalize", "sympy.gcd", "sympy.div",
           "padic.mat_mul", "padic.mat_inv", "padic.hnf_key",
           "padic.in_level", "padic.act_schwartz",
           "padic.enumerate_double_coset", "gsp4local.eval_induced",
           "besselzeta.bilinear_form", "gl2local.eval_siegel",
           "branching.build_rep", "branching.hw_vector")

SELF_TIMED = ("symcore", "sympy", "padic", "gsp4local", "normrel",
              "besselzeta", "gl2local", "branching")


def percentile(values, q):
    """q-th percentile by linear interpolation between closest ranks
    (the "inclusive" method of statistics.quantiles)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num, den):
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def failed_frac(attempted, failed):
    return ratio(failed, attempted)


def parallel_eff(case_cpu_s, jobs, verify_s):
    """Share of the pool's capacity (jobs x wall time) spent computing
    inside case callables."""
    return ratio(case_cpu_s, jobs * verify_s)


def gate(records, reference):
    """Count (attempted, failed) cases of one repetition.

    A case fails unless it passed and its (suite, case, params, status)
    is in the reference.  A reference case the run did not produce counts
    as attempted and failed, so dropping cases cannot pass the gate.
    """
    expected = {_key(r) for r in reference}
    seen = set()
    failed = 0
    for r in records:
        k = _key(r)
        seen.add(k)
        if r[3] != "pass" or k not in expected:
            failed += 1
    missing = len(expected - seen)
    return len(records) + missing, failed + missing


def _key(record):
    suite, case, params, status = record[:4]
    return suite, case, tuple(sorted(params.items())), status


def end_to_end(setups, reps):
    """End-to-end metrics of one run.

    setups: set-up times in seconds, one per interpreter started.
    reps: per repetition, a dict with verify_s and peak_rss_mb.
    Each metric is the median over the repetitions.
    """
    med = statistics.median
    return {"setup_s": (med(setups), "s"),
            "verify_s": (med(r["verify_s"] for r in reps), "s"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB")}


def per_layer(trace, verify_s, untraced_verify_s, case_ms, jobs):
    """Per-layer metrics of one traced repetition.

    trace: the merged totals of tracer.Tracer; verify_s: the traced
    repetition's wall time; untraced_verify_s and case_ms: the wall time
    and the runner's per-case times of the untraced repetition run
    beside it; jobs: the runner's pool size.
    """
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    out = {"symcore.calls": (sum(calls.get(k, 0) for k in SYMCORE_CALLS),
                             "count")}
    for name in COUNTED:
        out[name + ".calls"] = (calls.get(name, 0), "count")
    for layer in SELF_TIMED:
        out[layer + ".self_s"] = (self_s.get(layer, 0.0), "s")
    out["sympy.gcd.nontrivial_frac"] = (
        ratio(counts.get("sympy.gcd.nontrivial", 0),
              calls.get("sympy.gcd", 0)), "ratio")
    out["padic.coset_yield"] = (
        ratio(counts.get("padic.cosets", 0),
              counts.get("padic.coset_hnf_key", 0)), "ratio")
    wall, cpu = trace["case_wall_s"], trace["case_cpu_s"]
    out["cli.case_wall_s"] = (wall, "s")
    out["cli.case_cpu_s"] = (cpu, "s")
    out["cli.wait_s"] = (wall - cpu, "s")
    out["cli.overhead_s"] = (verify_s - wall / jobs, "s")
    out["cli.parallel_eff"] = (parallel_eff(cpu, jobs, verify_s), "ratio")
    for q in CASE_PERCENTILES:
        out["cli.case_p%d_ms" % q] = (percentile(case_ms, q), "ms")
    out["trace.overhead_s"] = (verify_s - untraced_verify_s, "s")
    return out


def layer_calls(trace):
    """Total closed spans per layer: the layer name is the first dotted
    component of each wrapped name."""
    out = dict.fromkeys(LAYER_MODULES + ("sympy", "cli"), 0)
    for name, n in trace["calls"].items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + n
    return out
