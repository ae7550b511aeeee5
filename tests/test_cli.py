"""Tests for the suite runner: configuration handling, report formats,
determinism, and exit codes."""

import csv
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading

import pytest

from gsp4verify import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


# -- configuration --------------------------------------------------------------

def test_unknown_suite_is_config_error(tmp_path, capsys):
    assert cli.main(["--suite", "nonsense"]) == 2
    # an empty selection would pass without checking anything
    assert cli.main(["--suite", ""]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite =\n")
    assert cli.main(["--config", str(cfg)]) == 2


def test_bad_prime_is_config_error(tmp_path, capsys):
    assert cli.main(["--suite", "hecke", "--ell", "11"]) == 2
    assert cli.main(["--suite", "hecke", "--ell", "4"]) == 2
    assert cli.main(["--suite", "hecke", "--ell", ""]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = hecke\nell =\n")
    assert cli.main(["--config", str(cfg)]) == 2
    with pytest.raises(cli.ConfigError, match="no prime selected"):
        cli.SuiteConfig(primes=()).validate()
    cli.SuiteConfig(primes=None).validate()   # each suite's own primes


def test_bad_flag_is_usage_error(capsys):
    assert cli.main(["--no-such-flag"]) == 2


def test_bad_jobs_is_config_error(tmp_path, capsys):
    # the runner has no worker pool: the flag is a usage error and the
    # config-file key an unknown key
    assert cli.main(["--suite", "bessel", "--jobs", "2"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = bessel\njobs = 2\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert "unknown configuration key: jobs" in capsys.readouterr().err


def test_order_is_neither_a_flag_nor_a_key(tmp_path, capsys):
    # the bessel suite reads its zetas at one fixed order: the flag is a
    # usage error and the config-file key an unknown key
    assert cli.main(["--suite", "bessel", "--order", "9"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = bessel\norder = 9\n")
    capsys.readouterr()
    assert cli.main(["--config", str(cfg)]) == 2
    assert "unknown configuration key: order" in capsys.readouterr().err


def test_missing_config_file_is_config_error(capsys):
    assert cli.main(["--config", "/no/such/file"]) == 2


def test_unwritable_out_is_config_error_before_any_case(tmp_path, capsys,
                                                       monkeypatch):
    def run(config):
        raise AssertionError("a case ran")
    monkeypatch.setattr(cli, "run", run)
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["--suite", "bessel", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsuite = hecke, bessel\nell = 2\n"
                   "t = 2\nformat = json\n")
    raw = cli.read_config_file(str(cfg))
    assert raw == {"suite": "hecke, bessel", "ell": "2", "t": "2",
                   "format": "json"}


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a bare word\n")
    with pytest.raises(cli.ConfigError):
        cli.read_config_file(str(cfg))


def test_config_file_not_utf8(tmp_path, capsys):
    # a decode error is a configuration error (exit 2), not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"a = 1\n\xff = 2\n")
    with pytest.raises(cli.ConfigError, match="not UTF-8 text"):
        cli.read_config_file(str(cfg))
    assert cli.main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = yes\n")
    assert cli.main(["--config", str(cfg)]) == 2


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = hecke\nell = 5\nformat = human\n")
    code, out = run_cli(["--config", str(cfg), "--ell", "2",
                         "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert [r["case"] for r in records] == ["polynomial-l2"]


def test_k_flag_bounds_both_weights():
    parser = cli.make_parser()
    config = cli.build_config(parser.parse_args(["--k", "0", "--suite",
                                                 "tame-norm"]))
    assert config.k_max == 0
    ids = [c for _, c, _, _ in cli.build_cases(config)]
    assert ids and all(c.endswith("-k00") for c in ids)


def test_k_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1\n")
    parser = cli.make_parser()
    config = cli.build_config(parser.parse_args(["--config", str(cfg)]))
    assert config.k_max == 1


#: each depth or weight bound and the largest value the suites accept
BOUND_TOPS = [("a", 3), ("b", 4), ("k", 2), ("t", 3), ("m", 2), ("n", 2)]


def test_weight_tops_are_the_largest_of_the_branching_grid():
    # a larger a or b would select no more irreducibles of the grid
    from gsp4verify import branching
    pairs = list(branching.grid())
    assert cli._BOUND_TOPS["a_max"] == max(a for a, _ in pairs)
    assert cli._BOUND_TOPS["b_max"] == max(b for _, b in pairs)


@pytest.mark.parametrize("key,top", BOUND_TOPS)
def test_bound_flag_past_its_range_is_a_config_error(key, top, capsys):
    # a bound past the range used to be clamped silently to it
    assert cli.main(["--suite", "bessel", "--" + key, str(top + 1)]) == 2
    assert "at most %d" % top in capsys.readouterr().err
    parser = cli.make_parser()
    config = cli.build_config(parser.parse_args(["--" + key, str(top)]))
    assert getattr(config, key + "_max") == top


@pytest.mark.parametrize("key,top", BOUND_TOPS)
def test_bound_config_key_past_its_range_is_a_config_error(key, top,
                                                          tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = bessel\n%s = %d\n" % (key, top + 1))
    assert cli.main(["--config", str(cfg)]) == 2
    assert "at most %d" % top in capsys.readouterr().err
    cfg.write_text("%s = %d\n" % (key, top))
    parser = cli.make_parser()
    config = cli.build_config(parser.parse_args(["--config", str(cfg)]))
    assert getattr(config, key + "_max") == top


def test_frobrecip_keeps_weight_one_at_k_zero():
    config = cli.SuiteConfig(suites=("frobrecip",), k_max=0)
    ids = [c for _, c, _, _ in cli.build_cases(config)]
    assert "pairing-k11" in ids and not any("k0" in c for c in ids)


def test_per_weight_k_flags_are_gone(capsys):
    assert cli.main(["--k1", "1"]) == 2
    assert cli.main(["--k2", "1"]) == 2


def test_readme_flags_match_the_parser():
    # the README paragraph that lists the flags names every option of the
    # parser but --help, and no other
    text = (ROOT / "README.md").read_text()
    para = text[text.index("\nFlags:"):]
    para = para[:para.index("\n\n")]
    documented = set(re.findall(r"`(--[\w-]+)", para))
    options = {opt for action in cli.make_parser()._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert documented == options


# -- execution and reports -------------------------------------------------------

def test_empty_suite_list_is_a_config_error(capsys):
    # a run that selects no suite would check nothing and pass
    parser = cli.make_parser()
    config = cli.build_config(parser.parse_args([]))
    config.suites = ()
    with pytest.raises(cli.ConfigError, match="no suite selected"):
        cli.run(config)
    assert cli.emit([], "json") == "[]\n"


#: the default JSON report: its record count, its size and its sha256
DEFAULT_REPORT = (296, 59565, "5a5431e8252cd6699aa50b09a90c0187"
                              "591da34aa8545f38db16abeb22589b8f")


def test_default_report_is_pinned(monkeypatch, capsys):
    # a change to the runner or a layer keeps the default report, byte
    # for byte, unless it says why not
    monkeypatch.delenv(cli.TIMINGS_ENV, raising=False)
    code, out = run_cli(["--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert {r["status"] for r in records} == {"pass"}
    data = out.encode()
    assert (len(records), len(data), hashlib.sha256(data).hexdigest()) \
        == DEFAULT_REPORT


def test_json_schema_and_exit_code(capsys):
    code, out = run_cli(["--suite", "bessel", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert records
    for r in records:
        assert set(r) == {"suite", "case", "params", "status", "lhs",
                          "rhs", "ms"}
        assert r["status"] == "pass"
        assert r["lhs"] is None and r["rhs"] is None
        assert isinstance(r["ms"], (int, float))


def test_report_sorted_and_deterministic(capsys):
    code1, out1 = run_cli(["--suite", "bessel,parahoric", "--ell", "2",
                           "--format", "json"], capsys)
    code2, out2 = run_cli(["--suite", "parahoric,bessel", "--ell", "2",
                           "--format", "json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical, independent of the suite order
    records = json.loads(out1)
    keys = [(r["suite"], r["case"]) for r in records]
    assert keys == sorted(keys)


def test_tsv_round_trips(capsys):
    code, out = run_cli(["--suite", "parahoric", "--ell", "2",
                         "--format", "tsv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out), dialect="excel-tab"))
    assert rows
    for row in rows:
        assert row["status"] == "pass"
        assert json.loads(row["params"]) == {"ell": 2}


def test_frobrecip_concrete_case_runs_at_each_ell(capsys):
    code, out = run_cli(["--suite", "frobrecip", "--ell", "3,5",
                         "--format", "json"], capsys)
    assert code == 0
    concrete = {r["case"]: r["status"] for r in json.loads(out)
                if r["case"].startswith("pairing-concrete")}
    assert concrete == {"pairing-concrete-l3": "pass",
                        "pairing-concrete-l5": "pass"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(["--suite", "bessel", "--format", "json",
                         "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())


def test_failing_case_reports_sides_and_exit_one(capsys, monkeypatch):
    def bad_builder(config):
        yield ("always-bad", {}, (), lambda: (False, "1", "2"))
        yield ("boom", {}, (), lambda: 1 / 0)
        yield ("fine", {}, (), lambda: (True, None, None))
        # a case returns (ok, lhs, rhs); a bare truth value is no verdict
        yield ("bare", {}, (), lambda: True)
    monkeypatch.setitem(cli._BUILDERS, "bessel", bad_builder)
    code, out = run_cli(["--suite", "bessel", "--format", "json"], capsys)
    assert code == 1
    records = {r["case"]: r for r in json.loads(out)}
    assert records["always-bad"]["status"] == "fail"
    assert records["always-bad"]["lhs"] == "1"
    assert records["always-bad"]["rhs"] == "2"
    assert records["boom"]["status"] == "error"
    assert "ZeroDivisionError" in records["boom"]["lhs"]
    assert records["fine"]["status"] == "pass"
    assert records["bare"]["status"] == "error"


def test_assertion_error_is_a_fail_and_other_exceptions_errors(monkeypatch):
    def builder(config):
        def false_identity():
            raise AssertionError("identity does not hold")

        def crash():
            raise ArithmeticError("no such value")
        yield "false", {}, (), false_identity
        yield "crash", {}, (), crash
    monkeypatch.setitem(cli._BUILDERS, "bessel", builder)
    records = cli.run(cli.SuiteConfig(suites=("bessel",)))
    assert [(r["case"], r["status"], r["lhs"], r["rhs"]) for r in records] == [
        ("crash", "error", "ArithmeticError: no such value", None),
        ("false", "fail", "identity does not hold", None)]


def test_human_format_summary_line(capsys):
    code, out = run_cli(["--suite", "bessel", "--format", "human"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("passed, 0 failed, 0 errors")


def test_case_ids_unique_across_default_config():
    # a suite or prime given twice runs once, in first-seen order
    parser = cli.make_parser()
    for argv, suites, primes in [
            ([], cli.SUITE_NAMES, None),
            (["--suite", "hecke,hecke", "--ell", "2,2"], ("hecke",), (2,)),
            (["--suite", "hecke", "--suite", "bessel,hecke", "--ell", "3",
              "--ell", "2,3"], ("hecke", "bessel"), (3, 2))]:
        config = cli.build_config(parser.parse_args(argv))
        assert (config.suites, config.primes) == (suites, primes)
        ids = [(s, c) for s, c, _, _ in cli.build_cases(config)]
        assert len(ids) == len(set(ids))


def test_repeated_suites_and_primes_run_once(tmp_path):
    # the config file and SuiteConfig collapse repeats like the flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = hecke, parahoric, hecke\nell = 3, 2, 3\n")
    config = cli.build_config(cli.make_parser().parse_args(
        ["--config", str(cfg)]))
    assert (config.suites, config.primes) == (("hecke", "parahoric"), (3, 2))
    records = cli.run(cli.SuiteConfig(suites=("hecke", "hecke"),
                                      primes=(2, 2)))
    assert [(r["suite"], r["case"]) for r in records] == [
        ("hecke", "polynomial-l2")]


# -- values shared between the cases of one run -----------------------------------

def _counting_expansions(monkeypatch):
    """The prime of each Bessel datum the run expands, in a list that
    grows as bessel_series is called."""
    from gsp4verify import besselzeta
    expand = besselzeta.bessel_series
    calls = []

    def counting(datum, n):
        calls.append(datum.p)
        return expand(datum, n)
    monkeypatch.setattr(besselzeta, "bessel_series", counting)
    return calls


def test_tame_data_built_once_per_run(monkeypatch):
    # tame-norm and frobrecip share each tame datum within a run, and a
    # second run in the same process builds them afresh
    calls = _counting_expansions(monkeypatch)
    config = cli.SuiteConfig(suites=("tame-norm", "frobrecip"), k_max=0,
                             t_max=1)
    for _ in range(2):
        calls.clear()
        records = cli.run(config)
        assert {r["status"] for r in records} == {"pass"}
        # weight (0, 0) with the prime formal and (1, 1) at 2; the formal
        # (1, 1) is transported from (0, 0)
        assert sorted(calls, key=str) == [2, None]


def test_depth_work_done_once_per_run(monkeypatch):
    # the runner computes each depth factor once per (k1, k2, p, t) and
    # each depth-t pairing once per (k1, k2, p, label, t); depth_factor
    # is called inside the runner's "depth" values only, never by a check
    from gsp4verify import besselzeta
    shared, good = dict(cli._SHARED), besselzeta.depth_factor
    kept = {"depth": [], "depth-pairing": []}
    inside, factors = [], []

    def counting(kind):
        def compute(value, *key):
            kept[kind].append(key)
            inside.append(kind)
            try:
                return shared[kind](value, *key)
            finally:
                inside.pop()
        return compute

    def depth_factor(t, psi, chi, p=None):
        factors.append((t, p, inside[-1:] == ["depth"]))
        return good(t, psi, chi, p)
    for kind in kept:
        monkeypatch.setitem(cli._SHARED, kind, counting(kind))
    monkeypatch.setattr(besselzeta, "depth_factor", depth_factor)
    records = cli.run(cli.SuiteConfig(suites=("tame-norm", "frobrecip"),
                                      k_max=1, t_max=2))
    assert {r["status"] for r in records} == {"pass"}
    # formal weights in {0, 1}^2 at depths 1 and 2, and (1, 1) at 2 at
    # depth 1 for frobrecip's pinned case
    formal = [(k1, k2, None) for k1 in (0, 1) for k2 in (0, 1)]
    want = {
        "depth": {w + (t,) for w in formal for t in (1, 2)} | {(1, 1, 2, 1)},
        "depth-pairing": {w + (label, 1) for w in formal + [(1, 1, 2)]
                          for label in ("spherical", "ul")}
        | {w + ("spherical", 2) for w in formal}}
    for kind, keys in kept.items():
        assert len(keys) == len(set(keys)) and set(keys) == want[kind], kind
    assert len(factors) == len(want["depth"]) == 9
    assert all(by_runner for _, _, by_runner in factors)


def test_default_tame_sweep_expands_once_per_prime(monkeypatch):
    # nine formal weights in tame-norm, four in frobrecip: one expansion
    # at the formal prime, and one at each pinned prime
    calls = _counting_expansions(monkeypatch)
    config = cli.SuiteConfig(suites=("tame-norm", "frobrecip"))
    records = cli.run(config)
    assert {r["status"] for r in records} == {"pass"}
    assert len({r["params"].get("k1") for r in records}) == 3
    assert sorted(calls, key=str) == [2, None]
    calls.clear()
    records = cli.run(cli.SuiteConfig(suites=("frobrecip",), primes=(2, 3)))
    assert {r["status"] for r in records} == {"pass"}
    assert sorted(calls, key=str) == [2, 3, None]


def test_branching_builds_each_irreducible_once(monkeypatch):
    from gsp4verify import branching
    rep_space = branching.RepSpace
    built = []

    def counting(a, b):
        built.append((a, b))
        return rep_space(a, b)
    monkeypatch.setattr(branching, "RepSpace", counting)
    config = cli.SuiteConfig(suites=("branching",))
    records = cli.run(config)
    assert {r["status"] for r in records} == {"pass"}
    pairs = [(a, b) for a, b in branching.grid()
             if a <= config.a_max and b <= config.b_max]
    assert sorted(built) == sorted(pairs)


def test_branching_builds_each_hw_vector_once(monkeypatch):
    # the hw case and the two twist cases of each (a, b, q, r) read one
    # shared vector; the twist cases also read the (0, r) vector
    from gsp4verify import branching
    hw_vector = branching.hw_vector
    built = []

    def counting(a, b, q, r, space):
        built.append((a, b, q, r))
        return hw_vector(a, b, q, r, space)
    monkeypatch.setattr(branching, "hw_vector", counting)
    records = cli.run(cli.SuiteConfig(suites=("branching",)))
    assert {r["status"] for r in records} == {"pass"}
    wanted = {(p["a"], p["b"], p["q"], p["r"])
              for p in (r["params"] for r in records
                        if r["case"].startswith("hw-"))}
    assert len(wanted) == 31
    assert sorted(built) == sorted(wanted)


def test_gl2_computes_each_fourier_transform_once(monkeypatch):
    # the adjoint and intertwine cases read the shared transform of each
    # of the three Schwartz functions per prime: 6 in all
    from gsp4verify import padic
    fourier = padic.fourier
    calls = []

    def counting(phi):
        calls.append(phi)
        return fourier(phi)
    monkeypatch.setattr(padic, "fourier", counting)
    for _ in range(2):
        calls.clear()
        records = cli.run(cli.SuiteConfig(suites=("gl2",)))
        assert {r["status"] for r in records} == {"pass"}
        assert len(calls) == 6


def test_building_cases_computes_nothing(monkeypatch):
    # build_cases only names the shared values: none is computed until
    # a case runs
    from gsp4verify import besselzeta, branching, padic

    def refuse(*args, **kwargs):
        raise AssertionError("a shared value was computed")
    for module, name in [(besselzeta, "tame_pairing"),
                         (branching, "build_rep"), (branching, "hw_vector"),
                         (padic, "fourier")]:
        monkeypatch.setattr(module, name, refuse)
    assert len(cli.build_cases(cli.SuiteConfig())) == 296


def test_unknown_need_fails_at_build_time(monkeypatch):
    # a need of no known kind is a fault of its suite, found before any
    # case runs
    ran = []

    def builder(config):
        yield "fine", {}, (), lambda: ran.append("fine")
        yield "odd", {}, (("nonesuch", 1),), lambda value: ran.append("odd")
    monkeypatch.setitem(cli._BUILDERS, "bessel", builder)
    with pytest.raises(LookupError, match="bessel/odd"):
        cli.run(cli.SuiteConfig(suites=("bessel",)))
    assert ran == []


def test_parallelism_starts_no_thread(monkeypatch):
    # the field is accepted and ignored: every run is serial
    def refuse(thread):
        raise RuntimeError("a case run started a thread")
    config = dict(suites=("hecke", "parahoric", "branching"), primes=(2,),
                  a_max=1, b_max=1)
    serial = cli.run(cli.SuiteConfig(parallelism=1, **config))
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert cli.run(cli.SuiteConfig(parallelism=2, **config)) == serial


def test_failed_shared_value_is_an_error_of_each_case(monkeypatch):
    # a value whose computation raises is not kept: every case that
    # needs it computes it again and records the same error
    from gsp4verify import branching
    attempts = []

    def broken(a, b):
        attempts.append((a, b))
        raise ArithmeticError("no irreducible (%d, %d)" % (a, b))
    monkeypatch.setattr(branching, "build_rep", broken)
    records = cli.run(cli.SuiteConfig(suites=("branching",), a_max=1,
                                      b_max=0))
    errors = {r["case"]: r["lhs"] for r in records if r["status"] == "error"}
    assert errors == {
        "%s-a%d-b0" % (check, a): "ArithmeticError: no irreducible (%d, 0)"
        % a for check in ("dimension", "decompose", "dual", "central")
        for a in (0, 1)}
    assert sorted(attempts) == [(0, 0)] * 4 + [(1, 0)] * 4


# -- negative controls: a damaged layer makes its suite fail ------------------

def _borel_factor_off_by_v(monkeypatch):
    # the Borel factor from valuations, which both the Hecke sums and
    # borel_factor read
    from gsp4verify import gsp4local
    from gsp4verify.symcore import ell_pow
    good = gsp4local._borel
    monkeypatch.setattr(gsp4local, "_borel", lambda sigma, a, b, c:
                        good(sigma, a, b, c) * ell_pow(1, sigma.p))


def _t1_central_count_l_squared(monkeypatch):
    # T1's central type counted as all l^2 symmetric 2x2 matrices over
    # F_l, not the l^2 - 1 of rank 1
    from gsp4verify import gsp4local
    monkeypatch.setitem(gsp4local.HECKE_TYPES["T1"], (1, 1, 1, 1),
                        lambda l: l ** 2)


def _gsp4_inv_transposed(monkeypatch):
    # the kernel's similitude inverse of a 4x4 (r, d), which gsp4_inv
    # converts, transposed
    from gsp4verify import normrel, padic
    good = padic._inverse

    def damaged(x):
        return padic._transpose(good(x)) if len(x[0]) == 4 else good(x)
    for module in (padic, normrel):
        monkeypatch.setattr(module, "_inverse", damaged)


def _act_schwartz_transposed(monkeypatch):
    # the kernel's action on (r, d), which act_schwartz converts, by g^T
    from gsp4verify import normrel, padic
    good = padic._act
    for module in (padic, normrel):
        monkeypatch.setattr(module, "_act",
                            lambda x, phi: good(padic._transpose(x), phi))


def _product_drops_a_denominator(monkeypatch):
    # the kernel's product of (r, d) and (r', d') taken over d', not d d'
    from gsp4verify import normrel, padic
    good = padic._product
    for module in (padic, normrel):
        monkeypatch.setattr(module, "_product",
                            lambda x, y: good((x[0], 1), y))


def _lie_wedge_negated(monkeypatch, name):
    # the first entry of each wedge column of one Lie basis element negated
    from gsp4verify import branching
    cols4, cols6 = branching._LIE_COLUMNS[name]
    damaged = tuple(((col[0][0], -col[0][1]),) + col[1:] if col else col
                    for col in cols6)
    monkeypatch.setitem(branching._LIE_COLUMNS, name, (cols4, damaged))


def _lie_n0_wedge_negated(monkeypatch):
    # a Chevalley generator: the cyclic construction reads it
    _lie_wedge_negated(monkeypatch, "n0")


def _lie_m3_wedge_negated(monkeypatch):
    # a bracket of the Chevalley generators: only the Casimir reads it
    _lie_wedge_negated(monkeypatch, "m3")


def _fourier_negated(monkeypatch):
    # -phi_hat.  Flipping the sign of the character instead, phi_hat(-x),
    # leaves every gl2 case passing: with unramified characters the
    # section of phi(-x) is the section of phi.
    from gsp4verify import padic
    good = padic.fourier

    def negated(phi):
        f = good(phi)
        return padic.SchwartzFn(f.p, f.s, f.n,
                                {k: -c for k, c in f.table.items()})
    monkeypatch.setattr(padic, "fourier", negated)


def _unit_average_scaled(monkeypatch):
    # every shell average of every section times 1 + 1/l
    from fractions import Fraction
    from gsp4verify import gl2local
    good = gl2local._unit_average
    monkeypatch.setattr(gl2local, "_unit_average", lambda phi, a, b, mod:
                        good(phi, a, b, mod) * (1 + Fraction(1, phi.p)))


def _decompose_drops_a_weight(monkeypatch):
    # the first weight of each expected summand of the restriction law
    from gsp4verify import branching
    good = branching._w_cd_weights
    monkeypatch.setattr(branching, "_w_cd_weights",
                        lambda c, d, q: good(c, d, q)[1:])


def _depth_volume_off_by_ell(monkeypatch):
    from gsp4verify import besselzeta
    from gsp4verify.symcore import ell
    good = besselzeta.depth_factor

    def damaged(t, psi_pair, chi_pair, p=None):
        out = good(t, psi_pair, chi_pair, p)
        return out / ell(p) if t else out
    monkeypatch.setattr(besselzeta, "depth_factor", damaged)


def _ul_bessel_values_times_ell(monkeypatch):
    from gsp4verify import besselzeta
    from gsp4verify.symcore import ell
    good = besselzeta.ul_bessel_transform

    def damaged(series):
        out = good(series)
        factor = ell(series.datum.p)
        return besselzeta.BesselSeries(
            out.datum, tuple(factor * x for x in out.values))
    monkeypatch.setattr(besselzeta, "ul_bessel_transform", damaged)


def _transport_tau1_sign_flipped(monkeypatch):
    # transport takes tau1 to prime^k1 tau1, not to prime^-k1 tau1
    from gsp4verify import besselzeta
    good = besselzeta.rescale
    monkeypatch.setattr(besselzeta, "rescale", lambda f, shifts: good(
        f, dict(shifts, tau1=-shifts["tau1"])))


def euler_eigenvalue_times_ell(monkeypatch):
    # the Euler element's eigenvalue times l, which frobrecip must reject
    from gsp4verify import normrel
    from gsp4verify.symcore import ell
    good = normrel.euler_element_eigenvalue
    monkeypatch.setattr(normrel, "euler_element_eigenvalue",
                        lambda sigma: good(sigma) * ell(sigma.p))


#: (suite, damage, the case families that it must fail), a family being
#: the case id up to its first "-"
DAMAGES = [
    ("bessel", _ul_bessel_values_times_ell, {"zeta"}),
    ("frobrecip", euler_eigenvalue_times_ell, {"pairing"}),
    ("frobrecip", _transport_tau1_sign_flipped, {"pairing"}),
    ("branching", _lie_n0_wedge_negated,
     {"central", "decompose", "dimension", "dual", "hw", "twist"}),
    ("branching", _lie_m3_wedge_negated, {"hw", "twist"}),
    ("branching", _decompose_drops_a_weight, {"decompose"}),
    ("gl2", _fourier_negated, {"intertwine"}),
    ("gl2", _unit_average_scaled, {"adjoint", "intertwine", "value"}),
    ("tame-norm", _depth_volume_off_by_ell, {"depth", "ul", "final"}),
    ("tame-norm", _transport_tau1_sign_flipped, {"ul", "final"}),
    ("hecke", _borel_factor_off_by_v, {"polynomial"}),
    ("hecke", _t1_central_count_l_squared, {"polynomial"}),
    ("parahoric", _borel_factor_off_by_v, {"u"}),
    ("wild-norm", _gsp4_inv_transposed, {"coset"}),
    ("wild-norm", _act_schwartz_transposed, {"coset", "indept"}),
    ("wild-norm", _product_drops_a_denominator, {"coset"}),
    ("local-data", _gsp4_inv_transposed, {"tame", "wild"}),
    ("local-data", _act_schwartz_transposed, {"tame", "wild"}),
]


@pytest.mark.parametrize(
    "suite,damage,families", DAMAGES,
    ids=["%s-%s" % (s, d.__name__.strip("_")) for s, d, _ in DAMAGES])
def test_damaged_layer_fails_its_suite(monkeypatch, suite, damage, families):
    # an error record is not a failed check: in each family that the
    # damage reaches, some case must decide its identity and find it false
    damage(monkeypatch)
    records = cli.run(cli.SuiteConfig(suites=(suite,)))
    failed = {r["case"].split("-")[0] for r in records
              if r["status"] == "fail"}
    assert families <= failed


def test_a_casimir_that_does_not_separate_fails_its_cases(monkeypatch):
    # ProjectorError is an AssertionError, so the hw and twist cases
    # whose projection it stops record a decided failure, not an error
    _lie_n0_wedge_negated(monkeypatch)
    records = cli.run(cli.SuiteConfig(suites=("branching",)))
    hw = [r for r in records if r["case"].startswith(("hw-", "twist-"))]
    assert {r["status"] for r in hw} == {"pass", "fail"}
    assert {r["lhs"] for r in hw if r["status"] == "fail"} <= {
        "projector not separating", "target eigenvalue is not maximal"}
    assert all(r["status"] != "error" for r in records)


# -- sympy is loaded at the first gcd, not at import ------------------------------


def _in_fresh_interpreter(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_coset_workload_never_loads_sympy():
    # the Hecke, wild-coset and local-data suites reduce no fraction by
    # a gcd, so a run of them leaves sympy unloaded
    _in_fresh_interpreter(
        "import sys\n"
        "from gsp4verify import cli\n"
        "from workloads import WORKLOADS\n"
        "assert 'sympy' not in sys.modules\n"
        "records = cli.run(cli.SuiteConfig(**WORKLOADS['coset'].config))\n"
        "assert len(records) == 20\n"
        "assert {r['status'] for r in records} == {'pass'}\n"
        "assert 'sympy' not in sys.modules\n")


def test_a_reduction_that_needs_a_gcd_loads_sympy():
    # a pair the coprimality images prove coprime does not load sympy;
    # the first pair with a common factor does
    _in_fresh_interpreter(
        "import sys\n"
        "from gsp4verify.symcore import LaurentPoly, RatFunc, ell\n"
        "x, l = LaurentPoly.symbol('x'), ell().num\n"
        "f = RatFunc(x + l, x + 2)\n"
        "assert 'sympy' not in sys.modules\n"
        "g = RatFunc((x + l) * (x + 1), (x + 1) * (x + 2))\n"
        "assert 'sympy' in sys.modules\n"
        "assert (g.num, g.den) == (f.num, f.den)\n"
        "assert g.num * (x + 2) == (x + l) * g.den\n")
