"""Suite runner for the verification library.

Sweeps the exact-identity checks over configurable parameter grids,
collects one record per case, and emits a deterministic report in JSON,
TSV or human-readable form.  Exit code 0 means every case passed, 1
means at least one case failed or errored, and 2 means the
configuration was invalid.
"""

import argparse
import contextlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import product

from .symcore import as_ratfunc, ell_pow, sym

SUITE_NAMES = ("gl2", "hecke", "parahoric", "bessel", "tame-norm",
               "wild-norm", "branching", "local-data", "frobrecip")

_SMALL_PRIMES = (2, 3, 5, 7)

TIMINGS_ENV = "GSP4VERIFY_TIMINGS"


class ConfigError(ValueError):
    """Invalid runner configuration."""


#: the largest depth and weight bounds the suites are built and budgeted
#: for; a_max and b_max are the largest a and b of branching.grid()
_BOUND_TOPS = dict(a_max=3, b_max=4, k_max=2, t_max=3, m_max=2, n_max=2)


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
        """Raise ConfigError on an invalid setting, an empty selection
        of suites or primes included.  A repeated suite or prime is
        dropped, keeping the order of first appearance."""
        self.suites = tuple(dict.fromkeys(self.suites))
        if not self.suites:
            raise ConfigError("no suite selected")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ConfigError("unknown suite: %s" % s)
        if self.primes is not None:
            self.primes = tuple(dict.fromkeys(self.primes))
            if not self.primes:
                raise ConfigError("no prime selected")
            for p in self.primes:
                if p not in _SMALL_PRIMES:
                    raise ConfigError(
                        "prime %s outside supported range (2..7)" % p)
        for name, top in _BOUND_TOPS.items():
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ConfigError("%s must be a non-negative integer" % name)
            if v > top:
                raise ConfigError("%s must be at most %d" % (name, top))
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
# suite case builders: each takes the config and yields (case_id, params,
# needs, check).  needs names the shared values the check reads, by key
# (see _SHARED); check(*values) takes them in that order and returns
# (ok, lhs, rhs), lhs and rhs optional.  partial binds its other arguments.
# ---------------------------------------------------------------------------

def _holds(ok):
    """The verdict of a check that returns a truth value."""
    return ok, "check returned False", "check returned True"


def _equal(lhs, rhs):
    return lhs == rhs, lhs, rhs


def _primes(config, default):
    if config.primes is not None:
        return tuple(config.primes)
    return default


def _gl2_phis(p):
    """The Schwartz functions of the gl2 intertwine and adjoint cases."""
    from .padic import SchwartzFn
    return [SchwartzFn.lattice_product(p, 0, 0), SchwartzFn.unit_column(p, 1),
            SchwartzFn.coset(p, 0, 1, 1)]


def _cases_gl2(config):
    from .padic import SchwartzFn
    from . import gl2local as gl
    i2 = ((1, 0), (0, 1))

    def phi_t(p, t):
        return (SchwartzFn.unit_column(p, t) if t
                else SchwartzFn.lattice_product(p, 0, 0))

    def value(p, t, ac, ap, expected):
        return _equal(gl.eval_siegel(phi_t(p, t), ac, ap, i2), expected)

    def support(p, t, ac, ap):
        return _holds(gl.support_check(phi_t(p, t), ac, ap, t))

    def intertwine(phi, ac, ap, g, hat):
        return _equal(gl.intertwine_closed(hat, ac, ap, g),
                      gl.intertwine(phi, ac, ap, g))

    def adjoint(p, phi1, phi2, ac, ap, hat1, hat2):
        one = as_ratfunc(1, p)
        lf = one - (ac / ap) * ell_pow(-2, p)
        f1, f2 = (phi1, ac, ap), (phi2, one / ap, one / ac)
        mf1, mf2 = (hat1, ap, ac), (hat2, one / ac, one / ap)
        return _equal(lf * gl.dual_pairing(mf1, f2, 1, p),
                      lf * gl.dual_pairing(f1, mf2, 1, p))

    for p in _primes(config, (2, 3)):
        al, be, x = sym("alpha", p), sym("beta", p), sym("X", p)
        ac, ap = al * x, be / x
        one = as_ratfunc(1, p)
        linv = one - (al / be) * x * x * ell_pow(-2, p)
        for t in range(config.t_max + 1):
            yield ("value-l%d-t%d" % (p, t), {"ell": p, "t": t}, (),
                   partial(value, p, t, ac, ap, one if t == 0 else linv))
            yield ("support-l%d-t%d" % (p, t), {"ell": p, "t": t}, (),
                   partial(support, p, t, ac, ap))
        phis = _gl2_phis(p)
        points = [i2, ((0, 1), (-1, 0)), ((p, 0), (0, 1)),
                  ((1, 0), (Fraction(1, p), 1))]
        for i, phi in enumerate(phis):
            for j, g in enumerate(points):
                yield ("intertwine-l%d-phi%d-pt%d" % (p, i, j),
                       {"ell": p, "phi": i, "point": j}, (("fourier", p, i),),
                       partial(intertwine, phi, ac, ap, g))
        for i, phi1 in enumerate(phis):
            for j, phi2 in enumerate(phis):
                yield ("adjoint-l%d-phi%d%d" % (p, i, j),
                       {"ell": p, "phi1": i, "phi2": j},
                       (("fourier", p, i), ("fourier", p, j)),
                       partial(adjoint, p, phi1, phi2, ac, ap))


def _cases_hecke(config):
    from .gsp4local import PrincipalSeriesG, hecke_poly_check

    def polynomial(p):
        return hecke_poly_check(PrincipalSeriesG.formal(p))
    for p in _primes(config, (2, 3, 5)):
        yield "polynomial-l%d" % p, {"ell": p}, (), partial(polynomial, p)


def _cases_parahoric(config):
    from .gsp4local import (PrincipalSeriesG, spin_reciprocal,
                            u_matrix_char_poly)

    def charpoly(sigma, x):
        return _equal(u_matrix_char_poly(sigma, x), spin_reciprocal(sigma, x))
    for p in _primes(config, (2, 3)):
        yield ("u-charpoly-l%d" % p, {"ell": p}, (),
               partial(charpoly, PrincipalSeriesG.formal(p), sym("x", p)))


def _cases_bessel(config):
    from .besselzeta import (ZETA_ORDER, BesselDatum, zeta,
                             zeta_spherical_closed, zeta_ul_closed)
    datum = BesselDatum.formal(None)
    yield ("zeta-spherical", {"order": ZETA_ORDER}, (), lambda: _equal(
        zeta("spherical", datum), zeta_spherical_closed(datum)))
    yield ("zeta-ul", {"order": ZETA_ORDER}, (), lambda: _equal(
        zeta("ul", datum), zeta_ul_closed(datum)))


def _tame_needs(k1, k2, p, *depths):
    """The needs of a tame case: the weight-(k1, k2) datum at the prime
    p, then the depth-t pairing of each (label, t) in depths."""
    return (("pairing", k1, k2, p),
            *(("depth-pairing", k1, k2, p, label, t) for label, t in depths))


def _cases_tame_norm(config):
    from .besselzeta import (tame_norm_check, tame_norm_final_check,
                             tame_norm_ul_check)
    weights = range(config.k_max + 1)
    for k1, k2 in product(weights, weights):
        params = {"k1": k1, "k2": k2}
        for t in range(1, config.t_max + 1):
            yield ("depth-t%d-k%d%d" % (t, k1, k2), dict(params, t=t),
                   _tame_needs(k1, k2, None, ("spherical", t)),
                   partial(tame_norm_check, t))
        yield ("ul-k%d%d" % (k1, k2), params,
               _tame_needs(k1, k2, None, ("ul", 1)), tame_norm_ul_check)
        if k1 and k2:
            yield ("final-k%d%d" % (k1, k2), params,
                   _tame_needs(k1, k2, None, ("spherical", 1), ("ul", 1)),
                   tame_norm_final_check)


def _cases_wild_norm(config):
    from .normrel import indept_identity, wild_coset_identity

    def wild(p, m, n):
        ok, report = wild_coset_identity(p, m, n)
        return ok, None if ok else json.dumps(report, default=str), None

    def indep(p, big_t):
        ok, size = indept_identity(p, 1, big_t)
        want = p ** (4 * (big_t - 1))
        return ok and size == want, size, want

    for p in _primes(config, (2, 3)):
        for m in range(config.m_max + 1):
            for n in range(max(m, 1), config.n_max + 1):
                yield ("coset-l%d-m%d-n%d" % (p, m, n),
                       {"ell": p, "m": m, "n": n}, (), partial(wild, p, m, n))
        for big_t in range(2, config.t_max + 1):
            # transversal size p^{4(t-T)}: pairwise checks are quadratic,
            # so keep the sweep at desk scale
            if p ** (4 * (big_t - 1)) <= 1024:
                yield ("indept-l%d-T1-t%d" % (p, big_t),
                       {"ell": p, "T": 1, "t": big_t}, (),
                       partial(indep, p, big_t))


def _cases_branching(config):
    from .branching import (TensorSpace, branch_decompose,
                            central_character_check, dual_character_check,
                            grid, rep_dimension_formula, twist_lemma_check)

    def dimension(a, b, rep):
        return _equal(rep.dimension, rep_dimension_formula(a, b))

    def decompose(a, b, rep):
        return _holds(sum((c + 1) * (d + 1) for c, d, q
                          in branch_decompose(rep))
                      == rep_dimension_formula(a, b))

    def twist(a, b, q, h, v, v0):
        return twist_lemma_check(TensorSpace(a, b), v, v0, q, h)

    pairs = [(a, b) for (a, b) in grid()
             if a <= config.a_max and b <= config.b_max]
    for a, b in pairs:
        need, params = (("rep", a, b),), {"a": a, "b": b}
        yield ("dimension-a%d-b%d" % (a, b), params, need,
               partial(dimension, a, b))
        yield ("decompose-a%d-b%d" % (a, b), params, need,
               partial(decompose, a, b))
        yield ("dual-a%d-b%d" % (a, b), params, need,
               lambda rep: _holds(dual_character_check(rep)))
        yield ("central-a%d-b%d" % (a, b), params, need,
               lambda rep: _holds(central_character_check(rep)))
    for a, b in pairs:
        if 6 ** a * 4 ** b > 200:
            continue
        for q in range(a + 1):
            for r in range(b + 1):
                hw, hw0 = ("hw", a, b, q, r), ("hw", a, b, 0, r)
                params = {"a": a, "b": b, "q": q, "r": r}
                yield ("hw-a%d-b%d-q%d-r%d" % (a, b, q, r), params, (hw,),
                       lambda v: (bool(v), None, None))
                for h in (1, -1):
                    yield ("twist-a%d-b%d-q%d-r%d-h%d" % (a, b, q, r, h),
                           dict(params, h=h), (hw, hw0),
                           partial(twist, a, b, q, h))


def _cases_local_data(config):
    from .normrel import make_local_data, sufficiency_check

    def exists(kind, p, **levels):
        return _holds(make_local_data(kind, p, **levels) is not None)

    def sufficient(p, m, n):
        t = sufficiency_check(p, m, n)
        return t <= n + 2 * m, t, n + 2 * m

    for p in _primes(config, (2, 3)):
        for kind in ("good", "tame"):
            yield ("%s-l%d" % (kind, p), {"ell": p}, (),
                   partial(exists, kind, p))
        for m in range(config.m_max + 1):
            for n in range(max(m, 1), config.n_max + 1):
                params = {"ell": p, "m": m, "n": n}
                # entry construction validates a depth-(n+2m) table; keep
                # the sweep at desk scale
                if p ** (n + 2 * m) <= 100:
                    yield ("wild-l%d-m%d-n%d" % (p, m, n), params, (),
                           partial(exists, "wild", p, m=m, n=n))
                yield ("sufficient-l%d-m%d-n%d" % (p, m, n), params, (),
                       partial(sufficient, p, m, n))


def _cases_frobrecip(config):
    from .normrel import frobrecip_pairing_check

    def scaled(datum, b1, b2):
        # the identity is linear in the pairings: it holds for 5/7 of them
        s = Fraction(5, 7)
        return frobrecip_pairing_check(replace(datum, base={
            k: s * v for k, v in datum.base.items()}), s * b1, s * b2)

    ones = (("spherical", 1), ("ul", 1))  # the depth-1 pairings it reads
    weights = range(1, max(config.k_max, 1) + 1)
    for k1, k2 in product(weights, weights):
        yield ("pairing-k%d%d" % (k1, k2), {"k1": k1, "k2": k2},
               _tame_needs(k1, k2, None, *ones), frobrecip_pairing_check)
    for p in _primes(config, (2,)):
        yield ("pairing-concrete-l%d" % p, {"ell": p, "k1": 1, "k2": 1},
               _tame_needs(1, 1, p, *ones), frobrecip_pairing_check)
    yield ("pairing-scalar", {"k1": 1, "k2": 1},
           _tame_needs(1, 1, None, *ones), scaled)


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

def _lib(name):
    """A library module, imported on first use, so that a run loads only
    the layers its cases reach."""
    return importlib.import_module("." + name, __package__)


def _pairing(value, k1, k2, p):
    """The weight-(k1, k2) tame datum at the prime p (formal if None).  A
    formal weight other than (0, 0) is transported from the run's formal
    weight-(0, 0) datum, so a run expands the Bessel series once at the
    formal prime and once at each pinned prime."""
    besselzeta = _lib("besselzeta")
    if p is None and (k1, k2) != (0, 0):
        return besselzeta.transport(value(("pairing", 0, 0, None)), k1, k2)
    return besselzeta.tame_pairing(k1, k2, p=p)


#: the function that computes a shared value, by the kind heading its key,
#: called with the run's value(key) and the rest of the key:
#: ("pairing", k1, k2, p) is the weight-(k1, k2) tame datum at the prime p
#: (formal if None; see _pairing), ("depth", k1, k2, p, t) its depth_factor
#: at t, ("depth-pairing", k1, k2, p, label, t) that factor times its base
#: pairing of the label, ("rep", a, b) the irreducible of highest weight
#: (a+b, a, 0), ("hw", a, b, q, r) the highest-weight vector of its (q, r)
#: summand, ("fourier", p, i) the transform of _gl2_phis(p)[i]
_SHARED = {
    "pairing": _pairing,
    "depth": lambda value, k1, k2, p, t: _lib("besselzeta").depth_factor(
        t, value(("pairing", k1, k2, p)).psi,
        value(("pairing", k1, k2, p)).chi, p),
    "depth-pairing": lambda value, k1, k2, p, label, t: (
        value(("depth", k1, k2, p, t))
        * value(("pairing", k1, k2, p)).base[label]),
    "rep": lambda value, a, b: _lib("branching").build_rep(a, b),
    "hw": lambda value, a, b, q, r: _lib("branching").hw_vector(
        a, b, q, r, _lib("branching").TensorSpace(a, b)),
    "fourier": lambda value, p, i: _lib("padic").fourier(_gl2_phis(p)[i]),
}


def build_cases(config):
    """The run's cases as (suite, case_id, params, fn) with fn() taking
    no argument.  Nothing is computed here, and a need of unknown kind
    raises.  fn computes each value its case needs on first use in the
    run, and each value that one is computed from, and keeps it for the
    run; a computation that raises keeps nothing, so every case that
    needs the value records the same error."""
    values = {}

    def value(key):
        if key not in values:
            values[key] = _SHARED[key[0]](value, *key[1:])
        return values[key]

    def supply(needs, check):
        return check(*map(value, needs))

    cases = []
    for suite in config.suites:
        for case_id, params, needs, check in _BUILDERS[suite](config):
            for key in needs:
                if key[0] not in _SHARED:
                    raise LookupError("case %s/%s needs %r, a value of no "
                                      "known kind" % (suite, case_id, key))
            cases.append((suite, case_id, params,
                          partial(supply, needs, check)))
    return cases


def _run_case(suite, case_id, params, fn, timings):
    start = time.monotonic()
    try:
        ok, lhs, rhs = fn()
        status = "pass" if ok else "fail"
    except AssertionError as exc:  # raised by a check whose identity fails
        status, lhs, rhs = "fail", str(exc), None
    except Exception as exc:  # a case never aborts the run
        status, lhs, rhs = "error", "%s: %s" % (type(exc).__name__, exc), None
    elapsed = (time.monotonic() - start) * 1000.0
    if status == "pass":  # the sides of a pass are not reported
        lhs = rhs = None
    return {"suite": suite, "case": case_id, "params": params,
            "status": status, "lhs": _canon(lhs), "rhs": _canon(rhs),
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
    """Flat key-value configuration in UTF-8: one `key = value` per line,
    `#` comments allowed.  Returns a dict of raw string values."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError("%s: not UTF-8 text" % path) from None
    raw = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (path, lineno))
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
    for key in (*_INT_KEYS, "format", "out"):
        value = getattr(args, key)
        if value is not None:
            apply(key, str(value))
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
