"""Suite runner for the verification library.

Sweeps the exact-identity checks over configurable parameter grids,
collects one record per case, and emits a deterministic report in JSON,
TSV or human-readable form.  Exit code 0 means every case passed, 1
means at least one case failed or errored, and 2 means the
configuration was invalid.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .symcore import as_ratfunc, ell_pow, sym

SUITE_NAMES = ("gl2", "hecke", "parahoric", "bessel", "tame-norm",
               "wild-norm", "branching", "local-data", "frobrecip")

_SMALL_PRIMES = (2, 3, 5, 7)

TIMINGS_ENV = "GSP4VERIFY_TIMINGS"


class ConfigError(ValueError):
    """Invalid runner configuration."""


#: the largest depth and weight bounds the suites are built and budgeted for
_BOUND_TOPS = {"k_max": 2, "t_max": 3, "m_max": 2, "n_max": 2}


@dataclass
class SuiteConfig:
    suites: tuple = SUITE_NAMES
    primes: tuple = None              # None -> per-suite defaults
    a_max: int = 3
    b_max: int = 4
    k_max: int = 2
    t_max: int = 3
    m_max: int = 2
    n_max: int = 2
    parallelism: int = 1  # unused: kept only because perfbench passes it
    fmt: str = "human"
    out: str = None
    timings: bool = False

    def validate(self):
        """Raise ConfigError on an invalid setting.  A repeated suite or
        prime is dropped, keeping the order of first appearance."""
        self.suites = tuple(dict.fromkeys(self.suites))
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ConfigError("unknown suite: %s" % s)
        if self.primes is not None:
            self.primes = tuple(dict.fromkeys(self.primes))
            for p in self.primes:
                if p not in _SMALL_PRIMES:
                    raise ConfigError(
                        "prime %s outside supported range (2..7)" % p)
        for name in ("a_max", "b_max", "k_max", "t_max", "m_max", "n_max"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ConfigError("%s must be a non-negative integer" % name)
            if v > _BOUND_TOPS.get(name, v):
                raise ConfigError("%s must be at most %d"
                                  % (name, _BOUND_TOPS[name]))
        if 6 ** self.a_max > 6 ** 3 * 4 ** 4 or 4 ** self.b_max > 6 ** 3 * 4 ** 4:
            raise ConfigError("weight bounds exceed the size budget")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be positive")
        if self.fmt not in ("json", "tsv", "human"):
            raise ConfigError("unknown format: %s" % self.fmt)


def _canon(x):
    """Canonical string form of a case side (sorted-monomial repr)."""
    if x is None:
        return None
    return repr(x) if not isinstance(x, str) else x


# ---------------------------------------------------------------------------
# suite case builders: each takes the config and the run's shared(key)
# lookup (see build_cases) and yields (case_id, params, fn) where fn()
# returns (ok, lhs, rhs) with lhs/rhs optional.
# ---------------------------------------------------------------------------

def _boolcase(fn):
    def run():
        ok = fn()
        if ok:
            return True, None, None
        return False, "check returned False", "check returned True"
    return run


def _eqcase(lhs_fn, rhs_fn):
    def run():
        lhs, rhs = lhs_fn(), rhs_fn()
        return lhs == rhs, lhs, rhs
    return run


def _primes(config, default):
    if config.primes is not None:
        return tuple(config.primes)
    return default


def _cases_gl2(config, shared):
    from .padic import SchwartzFn, fourier
    from . import gl2local as gl

    def phi_t(p, t):
        if t == 0:
            return SchwartzFn.lattice_product(p, 0, 0)
        return SchwartzFn.unit_column(p, t)

    w = ((0, 1), (-1, 0))
    i2 = ((1, 0), (0, 1))
    for p in _primes(config, (2, 3)):
        al, be, x = sym("alpha", p), sym("beta", p), sym("X", p)
        ac, ap = al * x, be / x
        one = as_ratfunc(1, p)
        linv = one - (al / be) * x * x * ell_pow(-2, p)
        for t in range(config.t_max + 1):
            expected = one if t == 0 else linv
            yield ("value-l%d-t%d" % (p, t), {"ell": p, "t": t},
                   _eqcase(lambda p=p, t=t, ac=ac, ap=ap:
                           gl.eval_siegel(phi_t(p, t), ac, ap, i2),
                           lambda e=expected: e))
            yield ("support-l%d-t%d" % (p, t), {"ell": p, "t": t},
                   _boolcase(lambda p=p, t=t, ac=ac, ap=ap:
                             gl.support_check(phi_t(p, t), ac, ap, t)))
        phis = [SchwartzFn.lattice_product(p, 0, 0),
                SchwartzFn.unit_column(p, 1),
                SchwartzFn.coset(p, 0, 1, 1)]
        from fractions import Fraction as _Q
        points = [i2, w, ((p, 0), (0, 1)), ((1, 0), (_Q(1, p), 1))]
        for i, phi in enumerate(phis):
            for j, g in enumerate(points):
                yield ("intertwine-l%d-phi%d-pt%d" % (p, i, j),
                       {"ell": p, "phi": i, "point": j},
                       _eqcase(lambda phi=phi, g=g, ac=ac, ap=ap:
                               gl.intertwine(phi, ac, ap, g, "closed"),
                               lambda phi=phi, g=g, ac=ac, ap=ap:
                               gl.intertwine(phi, ac, ap, g, "direct")))
        for i, phi1 in enumerate(phis):
            for j, phi2 in enumerate(phis):
                def adj(phi1=phi1, phi2=phi2, ac=ac, ap=ap, p=p, one=one):
                    f1 = (phi1, ac, ap)
                    f2 = (phi2, one / ap, one / ac)
                    lf = one - (ac / ap) * ell_pow(-2, p)
                    mf1 = (fourier(phi1), ap, ac)
                    mf2 = (fourier(phi2), one / ac, one / ap)
                    lhs = lf * gl.dual_pairing(mf1, f2, 1, p)
                    rhs = lf * gl.dual_pairing(f1, mf2, 1, p)
                    return lhs == rhs, lhs, rhs
                yield ("adjoint-l%d-phi%d%d" % (p, i, j),
                       {"ell": p, "phi1": i, "phi2": j}, adj)


def _cases_hecke(config, shared):
    from .gsp4local import PrincipalSeriesG, hecke_poly_check
    for p in _primes(config, (2, 3, 5)):
        yield ("polynomial-l%d" % p, {"ell": p},
               lambda p=p: hecke_poly_check(PrincipalSeriesG.formal(p)))


def _cases_parahoric(config, shared):
    from .gsp4local import (PrincipalSeriesG, spin_reciprocal,
                            u_matrix_char_poly)
    for p in _primes(config, (2, 3)):
        sigma = PrincipalSeriesG.formal(p)
        x = sym("x", p)
        yield ("u-charpoly-l%d" % p, {"ell": p},
               _eqcase(lambda sigma=sigma, x=x: u_matrix_char_poly(sigma, x),
                       lambda sigma=sigma, x=x: spin_reciprocal(sigma, x)))


def _cases_bessel(config, shared):
    from .besselzeta import (ZETA_ORDER, BesselDatum, zeta,
                             zeta_spherical_closed, zeta_ul_closed)
    datum = BesselDatum.formal(None)
    yield ("zeta-spherical", {"order": ZETA_ORDER},
           _eqcase(lambda: zeta("spherical", datum),
                   lambda: zeta_spherical_closed(datum)))
    yield ("zeta-ul", {"order": ZETA_ORDER},
           _eqcase(lambda: zeta("ul", datum),
                   lambda: zeta_ul_closed(datum)))


def _cases_tame_norm(config, shared):
    from .besselzeta import (tame_norm_check, tame_norm_final_check,
                             tame_norm_ul_check)
    kmax = config.k_max
    for t in range(1, config.t_max + 1):
        for k1 in range(kmax + 1):
            for k2 in range(kmax + 1):
                yield ("depth-t%d-k%d%d" % (t, k1, k2),
                       {"t": t, "k1": k1, "k2": k2},
                       lambda t=t, key=("pairing", k1, k2, None):
                       tame_norm_check(t, shared(key)))
    for k1 in range(kmax + 1):
        for k2 in range(kmax + 1):
            yield ("ul-k%d%d" % (k1, k2), {"k1": k1, "k2": k2},
                   lambda key=("pairing", k1, k2, None):
                   tame_norm_ul_check(shared(key)))
    for k1 in range(1, kmax + 1):
        for k2 in range(1, kmax + 1):
            yield ("final-k%d%d" % (k1, k2), {"k1": k1, "k2": k2},
                   lambda key=("pairing", k1, k2, None):
                   tame_norm_final_check(shared(key)))


def _cases_wild_norm(config, shared):
    from .normrel import indept_identity, wild_coset_identity
    for p in _primes(config, (2, 3)):
        for m in range(config.m_max + 1):
            for n in range(1, config.n_max + 1):
                if n < max(m, 1):
                    continue
                def wild(p=p, m=m, n=n):
                    ok, report = wild_coset_identity(p, m, n)
                    if ok:
                        return True, None, None
                    return False, json.dumps(report, default=str), None
                yield ("coset-l%d-m%d-n%d" % (p, m, n),
                       {"ell": p, "m": m, "n": n}, wild)
        for big_t in range(2, config.t_max + 1):
            # transversal size p^{4(t-T)}: pairwise checks are quadratic,
            # so keep the sweep at desk scale
            if p ** (4 * (big_t - 1)) > 1024:
                continue
            def indep(p=p, big_t=big_t):
                ok, size = indept_identity(p, 1, big_t)
                want = p ** (4 * (big_t - 1))
                return ok and size == want, size, want
            yield ("indept-l%d-T1-t%d" % (p, big_t),
                   {"ell": p, "T": 1, "t": big_t}, indep)


def _cases_branching(config, shared):
    from .branching import (TensorSpace, branch_decompose,
                            central_character_check, dual_character_check,
                            grid, rep_dimension_formula, twist_lemma_check)
    pairs = [(a, b) for (a, b) in grid()
             if a <= config.a_max and b <= config.b_max]
    for a, b in pairs:
        key = ("rep", a, b)
        yield ("dimension-a%d-b%d" % (a, b), {"a": a, "b": b},
               _eqcase(lambda key=key: shared(key).dimension,
                       lambda a=a, b=b: rep_dimension_formula(a, b)))
        yield ("decompose-a%d-b%d" % (a, b), {"a": a, "b": b},
               _boolcase(lambda key=key, a=a, b=b:
                         sum((c + 1) * (d + 1) for c, d, q
                             in branch_decompose(shared(key)))
                         == rep_dimension_formula(a, b)))
        yield ("dual-a%d-b%d" % (a, b), {"a": a, "b": b},
               _boolcase(lambda key=key: dual_character_check(shared(key))))
        yield ("central-a%d-b%d" % (a, b), {"a": a, "b": b},
               _boolcase(lambda key=key:
                         central_character_check(shared(key))))
    for a, b in pairs:
        if 6 ** a * 4 ** b > 200:
            continue
        for q in range(a + 1):
            for r in range(b + 1):
                key, key0 = ("hw", a, b, q, r), ("hw", a, b, 0, r)
                yield ("hw-a%d-b%d-q%d-r%d" % (a, b, q, r),
                       {"a": a, "b": b, "q": q, "r": r},
                       lambda key=key: (bool(shared(key)), None, None))
                for h in (1, -1):
                    yield ("twist-a%d-b%d-q%d-r%d-h%d" % (a, b, q, r, h),
                           {"a": a, "b": b, "q": q, "r": r, "h": h},
                           lambda a=a, b=b, q=q, h=h, key=key, key0=key0:
                           twist_lemma_check(TensorSpace(a, b), shared(key),
                                             shared(key0), q, h))


def _cases_local_data(config, shared):
    from .normrel import make_local_data, sufficiency_check
    for p in _primes(config, (2, 3)):
        yield ("good-l%d" % p, {"ell": p},
               _boolcase(lambda p=p: make_local_data("good", p) is not None))
        yield ("tame-l%d" % p, {"ell": p},
               _boolcase(lambda p=p: make_local_data("tame", p) is not None))
        for m in range(config.m_max + 1):
            for n in range(1, config.n_max + 1):
                if n < max(m, 1):
                    continue
                # entry construction validates a depth-(n+2m) table; keep
                # the sweep at desk scale
                if p ** (n + 2 * m) <= 100:
                    yield ("wild-l%d-m%d-n%d" % (p, m, n),
                           {"ell": p, "m": m, "n": n},
                           _boolcase(lambda p=p, m=m, n=n:
                                     make_local_data("wild", p, m=m, n=n)
                                     is not None))
                def suff(p=p, m=m, n=n):
                    t = sufficiency_check(p, m, n)
                    return t <= n + 2 * m, t, n + 2 * m
                yield ("sufficient-l%d-m%d-n%d" % (p, m, n),
                       {"ell": p, "m": m, "n": n}, suff)


def _cases_frobrecip(config, shared):
    from .normrel import frobrecip_pairing_check
    kmax = max(config.k_max, 1)
    for k1 in range(1, kmax + 1):
        for k2 in range(1, kmax + 1):
            yield ("pairing-k%d%d" % (k1, k2), {"k1": k1, "k2": k2},
                   lambda key=("pairing", k1, k2, None):
                   frobrecip_pairing_check(shared(key)))
    yield ("pairing-concrete-l2", {"ell": 2, "k1": 1, "k2": 1},
           lambda: frobrecip_pairing_check(shared(("pairing", 1, 1, 2))))
    def scaled():
        # the identity is linear in the pairings: it holds for 5/7 of them
        datum = shared(("pairing", 1, 1, None))
        return frobrecip_pairing_check(replace(datum, base={
            k: Fraction(5, 7) * v for k, v in datum.base.items()}))
    yield ("pairing-scalar", {"k1": 1, "k2": 1}, scaled)


_BUILDERS = {
    "gl2": _cases_gl2,
    "hecke": _cases_hecke,
    "parahoric": _cases_parahoric,
    "bessel": _cases_bessel,
    "tame-norm": _cases_tame_norm,
    "wild-norm": _cases_wild_norm,
    "branching": _cases_branching,
    "local-data": _cases_local_data,
    "frobrecip": _cases_frobrecip,
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _compute_shared(key):
    """The value that several cases of one run read, named by data:
    ``("pairing", k1, k2, p)`` is the weight-(k1, k2) tame datum at the
    prime p (formal if None), ``("rep", a, b)`` the irreducible with
    highest weight (a+b, a, 0), and ``("hw", a, b, q, r)`` the
    highest-weight vector of its (q, r) summand in TensorSpace(a, b)."""
    kind, *args = key
    if kind == "pairing":
        from .besselzeta import tame_pairing
        k1, k2, p = args
        return tame_pairing(k1, k2, p=p)
    if kind == "rep":
        from .branching import build_rep
        return build_rep(*args)
    if kind == "hw":
        from .branching import TensorSpace, hw_vector
        return hw_vector(*args, TensorSpace(*args[:2]))
    raise KeyError(key)


def build_cases(config):
    """The run's cases as (suite, case_id, params, fn) with fn() taking
    no argument.  Nothing is computed here.  A case reads a value that
    several cases need through shared(key), which computes it on first
    use and keeps it for the run.  A computation that raises stores
    nothing, so every case that needs the value records the same
    error."""
    values = {}

    def shared(key):
        if key not in values:
            values[key] = _compute_shared(key)
        return values[key]

    return [(suite, case_id, params, fn) for suite in config.suites
            for case_id, params, fn in _BUILDERS[suite](config, shared)]


def _run_case(suite, case_id, params, fn, timings):
    start = time.monotonic()
    try:
        ok, lhs, rhs = fn()
    except AssertionError as exc:  # raised by a check whose identity fails
        ok, lhs, rhs = False, str(exc), None
    except Exception as exc:  # a case never aborts the run
        elapsed = (time.monotonic() - start) * 1000.0
        return {"suite": suite, "case": case_id, "params": params,
                "status": "error",
                "lhs": "%s: %s" % (type(exc).__name__, exc), "rhs": None,
                "ms": round(elapsed, 3) if timings else 0}
    elapsed = (time.monotonic() - start) * 1000.0
    return {"suite": suite, "case": case_id, "params": params,
            "status": "pass" if ok else "fail",
            "lhs": None if ok else _canon(lhs),
            "rhs": None if ok else _canon(rhs),
            "ms": round(elapsed, 3) if timings else 0}


def run(config: SuiteConfig):
    """Execute all selected suites and return the sorted record list."""
    config.validate()
    records = [_run_case(s, c, p, f, config.timings)
               for s, c, p, f in build_cases(config)]
    records.sort(key=lambda r: (r["suite"], r["case"]))
    return records


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit(records, fmt):
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    if fmt == "tsv":
        cols = ("suite", "case", "params", "status", "lhs", "rhs", "ms")
        lines = ["\t".join(cols)]
        for r in records:
            row = []
            for c in cols:
                v = r[c]
                if c == "params":
                    v = json.dumps(v, sort_keys=True)
                row.append("" if v is None else str(v))
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"
    # human
    lines = []
    counts = {"pass": 0, "fail": 0, "error": 0}
    for r in records:
        counts[r["status"]] += 1
        line = "[%-5s] %s / %s" % (r["status"].upper(), r["suite"], r["case"])
        if r["status"] != "pass":
            line += "\n    lhs: %s\n    rhs: %s" % (r["lhs"], r["rhs"])
        lines.append(line)
    lines.append("%d passed, %d failed, %d errors"
                 % (counts["pass"], counts["fail"], counts["error"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def _split_list(value):
    return [v for v in value.replace(",", " ").split() if v]


def read_config_file(path):
    """Flat key-value configuration: one `key = value` per line, `#`
    comments allowed.  Returns a dict of raw string values."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key = value"
                                  % (path, lineno))
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    return raw


_INT_KEYS = {"a": "a_max", "b": "b_max", "k": "k_max", "t": "t_max",
             "m": "m_max", "n": "n_max"}


def build_config(args):
    config = SuiteConfig()
    config.timings = os.environ.get(TIMINGS_ENV, "") not in ("", "0")

    def apply(key, value):
        if key == "suite":
            config.suites = tuple(_split_list(value))
        elif key == "ell":
            try:
                config.primes = tuple(int(v) for v in _split_list(value))
            except ValueError:
                raise ConfigError("ell values must be integers")
        elif key in _INT_KEYS:
            try:
                setattr(config, _INT_KEYS[key], int(value))
            except ValueError:
                raise ConfigError("%s must be an integer" % key)
        elif key == "format":
            config.fmt = value
        elif key == "out":
            config.out = value
        else:
            raise ConfigError("unknown configuration key: %s" % key)

    if args.config:
        for key, value in read_config_file(args.config).items():
            apply(key, value)
    for key in ("suite", "ell"):   # repeatable, comma-separated flags
        if getattr(args, key):
            apply(key, ",".join(getattr(args, key)))
    for key in _INT_KEYS:
        value = getattr(args, key)
        if value is not None:
            apply(key, str(value))
    if args.format:
        apply("format", args.format)
    if args.out:
        apply("out", args.out)
    config.validate()
    return config


def make_parser():
    parser = argparse.ArgumentParser(
        prog="gsp4verify",
        description="Run the exact-identity verification suites.")
    parser.add_argument("--suite", action="append",
                        help="suite name(s), comma separated; repeatable "
                             "(default: all suites)")
    parser.add_argument("--config", help="flat key-value configuration file")
    parser.add_argument("--ell", action="append",
                        help="prime(s) to sweep, comma separated")
    for key in _INT_KEYS:
        parser.add_argument("--" + key, type=int)
    parser.add_argument("--format", choices=("json", "tsv", "human"))
    parser.add_argument("--out", help="write the report to this file")
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = build_config(args)
        # an unwritable report path is a configuration error, found
        # before any case runs
        out = (open(config.out, "w") if config.out
               else contextlib.nullcontext(sys.stdout))
    except (ConfigError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    with out as fh:
        records = run(config)
        fh.write(emit(records, config.fmt))
    return 0 if all(r["status"] == "pass" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
