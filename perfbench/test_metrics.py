"""Tests of the benchmark's metric arithmetic on synthetic spans.

    python3 -m pytest perfbench/test_metrics.py
"""

import statistics

import pytest

import metrics
import speed
from tracer import SpanTotals, Tracer, merge


def test_self_time_subtracts_nested_child_spans():
    st = SpanTotals()
    st.open(0.0)                          # a: 0..10
    st.open(1.0)                          # b: 1..4, child of a
    st.open(2.0)                          # c: 2..3, child of b
    assert st.close("sympy", "sympy.gcd", 3.0) == 1.0
    assert st.close("symcore", "symcore.normalize", 4.0) == 3.0
    st.open(5.0)                          # d: 5..7, child of a
    st.close("symcore", "symcore.RatFunc.__mul__", 7.0)
    assert st.close("besselzeta", "besselzeta.bilinear_form", 10.0) == 10.0
    assert st.stack == []
    # a covers 10 s, of which children b (3 s) and d (2 s): 5 s self;
    # b covers 3 s minus c's 1 s; d has no children
    assert st.self_s == {"besselzeta": 5.0, "symcore": 4.0, "sympy": 1.0}
    assert sum(st.self_s.values()) == 10.0
    assert st.calls["sympy.gcd"] == 1


def test_same_layer_recursion_counts_each_call_once():
    st = SpanTotals()
    st.open(0.0)
    st.open(1.0)
    st.close("symcore", "symcore.RatFunc.__pow__", 3.0)
    st.close("symcore", "symcore.RatFunc.__pow__", 4.0)
    assert st.self_s == {"symcore": 4.0}
    assert st.calls == {"symcore.RatFunc.__pow__": 2}


def test_merge_sums_threads():
    a, b = SpanTotals(), SpanTotals()
    for st, (t0, t1) in ((a, (0.0, 2.0)), (b, (0.5, 1.0))):
        st.open(t0)
        st.case_wall_s += st.close("cli", "cli.case", t1)
    b.count("padic.cosets", 3)
    out = merge([a, b])
    assert out["calls"] == {"cli.case": 2}
    assert out["self_s"] == {"cli": 2.5}
    assert out["case_wall_s"] == 2.5
    assert out["counts"] == {"padic.cosets": 3}


def test_wrapper_records_span_and_reraises():
    ticks = iter([0.0, 2.0, 10.0, 11.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ZeroDivisionError
    ok = tracer.wrap(lambda x: x + 1, "padic", "padic.mat_mul")
    bad = tracer.wrap(boom, "padic", "padic.mat_inv")
    assert ok(1) == 2
    with pytest.raises(ZeroDivisionError):
        bad()
    out = tracer.totals()
    assert out["calls"] == {"padic.mat_mul": 1, "padic.mat_inv": 1}
    assert out["self_s"] == {"padic": 3.0}


@pytest.mark.parametrize("n", [1, 2, 5, 16, 20, 207])
def test_percentile_rule_matches_inclusive_quantiles(n):
    values = [(7 * i * i) % 101 + i / 10 for i in range(n)]
    assert metrics.percentile(values, 0) == min(values)
    assert metrics.percentile(values, 100) == max(values)
    if n >= 2:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in metrics.CASE_PERCENTILES:
            assert metrics.percentile(values, q) == pytest.approx(cuts[q - 1])
    assert metrics.percentile(values, 50) == pytest.approx(
        statistics.median(values))


def test_percentile_interpolates_between_ranks():
    assert metrics.percentile([40.0, 10.0, 30.0, 20.0], 50) == 25.0
    assert metrics.percentile(range(11), 90) == 9.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_parallel_eff():
    # two workers busy computing for 3 s each of a 4 s run
    assert metrics.parallel_eff(6.0, 2, 4.0) == 0.75
    assert metrics.parallel_eff(4.0, 1, 4.0) == 1.0


def test_failed_frac():
    assert metrics.failed_frac(207, 0) == 0.0
    assert metrics.failed_frac(20, 5) == 0.25
    assert metrics.failed_frac(0, 0) == 0.0


def test_speed_scale_is_the_mean_speed_over_the_interval():
    ref = speed.REFERENCE_S
    assert speed.scale([ref, ref]) == 1.0
    # half the interval at reference speed, half at double speed: the
    # same work takes 1.5 times as long at the reference speed
    assert speed.scale([ref, ref / 2]) == pytest.approx(1.5)
    # one slow burst pulls the factor down by its share only
    assert speed.scale([ref] * 9 + [10 * ref]) == pytest.approx(0.91)
    with pytest.raises(ValueError):
        speed.scale([])


def test_sampler_takes_bursts_until_stopped():
    sampler = speed.Sampler()
    sampler.start()
    samples = sampler.stop()
    assert len(samples) >= 1 and all(s > 0 for s in samples)


REFERENCE = [["gl2", "a", {"ell": 2}, "pass"],
             ["gl2", "b", {"ell": 3}, "pass"]]


def test_gate_passes_the_reference():
    records = [r + [1.5] for r in REFERENCE]
    assert metrics.gate(records, REFERENCE) == (2, 0)


def test_gate_counts_dropped_changed_and_failing_cases():
    dropped = [REFERENCE[0] + [1.0]]
    assert metrics.gate(dropped, REFERENCE) == (2, 1)
    shrunk = [REFERENCE[0] + [1.0], ["gl2", "b", {"ell": 2}, "pass", 1.0]]
    assert metrics.gate(shrunk, REFERENCE) == (3, 2)
    failing = [REFERENCE[0] + [1.0], ["gl2", "b", {"ell": 3}, "fail", 1.0]]
    assert metrics.gate(failing, REFERENCE) == (3, 2)


def test_end_to_end_takes_medians():
    reps = [{"verify_s": v, "peak_rss_mb": 50.0 + v} for v in (3.0, 1.0, 2.0)]
    out = metrics.end_to_end([0.5, 0.4, 0.9], reps)
    assert out == {"setup_s": (0.5, "s"), "verify_s": (2.0, "s"),
                   "peak_rss_mb": (52.0, "MB")}


def test_per_layer_derived_metrics():
    trace = {"calls": {"symcore.RatFunc.__mul__": 4,
                       "symcore.RatFunc.__rmul__": 1,
                       "symcore.LaurentPoly.__mul__": 9, "sympy.gcd": 4,
                       "padic.hnf_key": 10},
             "self_s": {"symcore": 2.0, "sympy": 0.5},
             "counts": {"sympy.gcd.nontrivial": 1, "padic.cosets": 4,
                        "padic.coset_hnf_key": 8},
             "case_wall_s": 7.0, "case_cpu_s": 6.0}
    out = metrics.per_layer(trace, verify_s=4.0, untraced_verify_s=3.5,
                            case_ms=[40.0, 10.0, 30.0, 20.0], jobs=2)
    assert out["symcore.calls"] == (5, "count")
    assert out["sympy.gcd.calls"] == (4, "count")
    assert out["sympy.gcd.nontrivial_frac"] == (0.25, "ratio")
    assert out["padic.coset_yield"] == (0.5, "ratio")
    assert out["padic.self_s"] == (0.0, "s")
    assert out["cli.wait_s"] == (1.0, "s")
    assert out["cli.overhead_s"] == (0.5, "s")
    assert out["cli.parallel_eff"] == (0.75, "ratio")
    assert out["trace.overhead_s"] == (0.5, "s")
    assert out["cli.case_p50_ms"] == (25.0, "ms")
    assert metrics.layer_calls(trace)["symcore"] == 14
    assert metrics.layer_calls(trace)["branching"] == 0


def test_install_wraps_every_binding_and_alias():
    # install patches the library for the rest of this process; no other
    # test here uses the library
    import os
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from gsp4verify import branching, padic, symcore
    original_mat_mul = padic.mat_mul
    tracer = Tracer()
    assert tracer.install() > 0
    # the name bound by `from .padic import mat_mul` is rebound too
    assert branching.mat_mul is padic.mat_mul
    assert padic.mat_mul.__wrapped__ is original_mat_mul
    x, y = symcore.sym("x"), symcore.sym("y")
    f = (x * x - y * y) / (x - y)                 # a gcd that is not 1
    assert 1 + f == x + y + 1                     # 1 + f calls __radd__
    branching.mat_mul(((1, 0), (0, 1)), ((2, 0), (0, 2)))
    out = tracer.totals()
    calls = out["calls"]
    assert calls["padic.mat_mul"] == 1
    assert calls["symcore.RatFunc.__radd__"] == 1
    assert calls["sympy.gcd"] >= 1 and calls["sympy.div"] >= 1
    assert out["counts"]["sympy.gcd.nontrivial"] >= 1
