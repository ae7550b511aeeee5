"""Tests for the Bessel-value / zeta-integral module."""

from fractions import Fraction

import pytest
import sympy

from gsp4verify import besselzeta, symcore
from gsp4verify.besselzeta import (ZETA_LABELS, ZETA_ORDER, BesselDatum,
                                   BesselSeries, _recip_series,
                                   bessel_series, bilinear_form,
                                   depth_factor, generating_function,
                                   tame_characters, tame_norm_check,
                                   tame_norm_final_check, tame_norm_ul_check,
                                   tame_pairing, tame_sigma,
                                   ul_bessel_transform, z_datum, zeta,
                                   zeta_of_series, zeta_spherical_closed,
                                   zeta_ul_closed)
from gsp4verify.gsp4local import PrincipalSeriesG, spin_reciprocal
from gsp4verify.symcore import (ExactArithmeticError, as_ratfunc, ell, ell_pow,
                                series_expand, sym)
from test_symcore import (coeff_of_by_terms, degrees_in_by_terms,
                          series_expand_by_ratfuncs)

Q = Fraction


def test_datum_central_character_constraint():
    d = BesselDatum.formal()
    assert d.lam1 * d.lam2 == d.sigma.central_character()
    with pytest.raises(ExactArithmeticError):
        BesselDatum(PrincipalSeriesG.formal(None), sym("lam1"), sym("lam1"))


def test_bessel_values_normalised():
    d = BesselDatum.formal()
    ser = bessel_series(d, 4)
    assert ser.value(0) == as_ratfunc(1)
    # values above the integral support vanish
    assert ser.value(-1) == as_ratfunc(0)
    assert ser.value(-3) == as_ratfunc(0)


def test_bessel_first_value():
    d = BesselDatum.formal()
    ser = bessel_series(d, 2)
    expect = as_ratfunc(0)
    for g in d.sigma.spin_params():
        expect = expect + g * ell_pow(-3)
    expect = expect - (d.lam1 + d.lam2) * ell_pow(-4)
    assert ser.value(1) == expect


def test_ul_transform_values():
    d = BesselDatum.formal()
    ser = bessel_series(d, 6)
    tr = ul_bessel_transform(ser, 1)
    assert tr.value(0) == ell() ** 3 * ser.value(1)
    assert tr.value(-1) == as_ratfunc(0)
    # k = 2 equals the transform applied twice, with the powers composing
    tr2 = ul_bessel_transform(ser, 2)
    twice = ul_bessel_transform(tr, 1)
    assert tr2.values[:len(twice.values)] == twice.values[:len(tr2.values)]
    assert tr2.value(0) == ell() ** 6 * ser.value(2)


def torus_translate(series, ja, jb, jt):
    """Oracle: Bessel values of the vector translated by the torus element
    diag(t a, t b, a, b) with valuations (ja, jb, jt): the (a, b)-part
    acts through the functional's character, the central t-part shifts
    the argument."""
    d = series.datum
    factor = d.lam1 ** ja * d.lam2 ** jb
    vals = tuple(factor * series.value(n + jt)
                 for n in range(series.order - max(jt, 0) + 1))
    return BesselSeries(d, vals)


def test_torus_translate_scaling():
    # translating by diag(ta, tb, a, b) with |t| >= 1 scales every value
    # by lam1^{v(a)} lam2^{v(b)} and shifts the argument by v(t)
    d = BesselDatum.formal()
    ser = bessel_series(d, 5)
    tr = torus_translate(ser, 2, -1, -1)
    factor = d.lam1 ** 2 / d.lam2
    for n in range(4):
        assert tr.value(n) == factor * ser.value(n - 1)


def test_zeta_spherical():
    d = BesselDatum.formal()
    assert zeta("spherical", d) == zeta_spherical_closed(d)


def test_zeta_ul_identity():
    # the key identity: the zeta integral of the U-translated spherical
    # vector equals (prime)^3/u times the difference of the two L-factor
    # products, fully formally subject to the central-character constraint
    d = BesselDatum.formal()
    assert zeta("ul", d) == zeta_ul_closed(d)


# -- the general series path, kept as the oracle of zeta -------------------------


def series_product(a, b):
    """Product of two truncated power series given by their coefficient
    tuples, truncated to the shorter one."""
    n = min(len(a), len(b))
    out = [as_ratfunc(0, a[0].prime)] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            if x and y:
                out[i + j] = out[i + j] + x * y
    return tuple(out)


def reference_reconstruct(coeffs, var, den, num_deg):
    """The rational function with denominator den whose expansion in var
    begins with coeffs: the product of the series with den, which must
    vanish past num_deg within a window of at least two more terms, over
    den."""
    if len(coeffs) < num_deg + 3:
        raise ExactArithmeticError("truncation order too small to reconstruct")
    den = as_ratfunc(den, coeffs[0].prime)
    prod = series_product(coeffs, series_expand(den, var, len(coeffs) - 1))
    if any(prod[num_deg + 1:]):
        raise ExactArithmeticError("not the expansion of a rational function "
                                   "with this denominator")
    x = sym(var, den.prime)
    num = as_ratfunc(0, den.prime)
    for i in range(num_deg + 1):
        num = num + prod[i] * x ** i
    return num / den


def reference_zeta(label, datum):
    """The zeta integral along the general path: the Bessel series times
    the expansion of the reciprocal spin factor, reconstructed over the
    denominator 1 with numerator degree 4."""
    p = datum.p
    series = bessel_series(datum, ZETA_ORDER)
    if label == "ul":
        series = ul_bessel_transform(series, 1)
    recip = spin_reciprocal(datum.sigma, ell_pow(-6, p) * sym("u", p))
    prod = series_product(series.values,
                          series_expand(recip, "u", series.order))
    return reference_reconstruct(prod, "u", 1, 4)


def zeta_from(label, series):
    """zeta_of_series with the reciprocal spin series of the series'
    datum read off to the series' order."""
    return zeta_of_series(label, series,
                          _recip_series(series.datum, series.order))


def test_generating_function_reconstruction():
    # the reference recovers a rational function from its truncated
    # series and a known denominator, and rejects a wrong denominator:
    # first a toy, then the Bessel generating function from ten values
    x, a = sym("x"), sym("a")
    f = (1 - a * x) / ((1 - x) * (1 - 2 * x))
    s = series_expand(f, "x", 9)
    assert reference_reconstruct(s, "x", (1 - x) * (1 - 2 * x), 1) == f
    with pytest.raises(ExactArithmeticError):
        reference_reconstruct(s, "x", 1 - x, 1)
    d = BesselDatum.formal()
    ser = bessel_series(d, 9)
    one = as_ratfunc(1)
    den = one
    for g in d.sigma.spin_params():
        den = den * (one - g * ell_pow(-3) * sym("u"))
    assert reference_reconstruct(ser.values, "u", den, 2) == \
        generating_function(d)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
@pytest.mark.parametrize("label", ZETA_LABELS)
def test_zeta_matches_general_reconstruction(label, p):
    d = BesselDatum.formal(p)
    got, want = zeta(label, d), reference_zeta(label, d)
    assert got.num == want.num and got.den == want.den


@pytest.mark.parametrize("label", ZETA_LABELS)
def test_zeta_rejects_a_changed_tail_value(label):
    # the last Bessel value enters only the product coefficient of
    # degree 9 (8 after the U-operator), past the numerator degree
    d = BesselDatum.formal()
    vals = bessel_series(d, ZETA_ORDER).values
    damaged = BesselSeries(d, vals[:-1] + (vals[-1] + 1,))
    with pytest.raises(ExactArithmeticError):
        zeta_from(label, damaged)


def test_zeta_rejects_a_short_series():
    # two product coefficients past degree 4 must be present: a series
    # of order 6 serves the spherical vector, and is one short for the
    # U-translated one, whose series starts one value later
    d = BesselDatum.formal()
    short = bessel_series(d, 5)
    for label in ZETA_LABELS:
        with pytest.raises(ExactArithmeticError):
            zeta_from(label, short)
    six = bessel_series(d, 6)
    assert zeta_from("spherical", six) == zeta_spherical_closed(d)
    with pytest.raises(ExactArithmeticError):
        zeta_from("ul", six)


def test_zeta_unknown_label():
    with pytest.raises(ValueError):
        zeta("nonsense", BesselDatum.formal())
    with pytest.raises(ValueError):
        zeta_from("nonsense", bessel_series(BesselDatum.formal(), 9))


def test_tame_characters_euler_factor():
    (psi1, psi2), (chi1, chi2) = tame_characters(1, 2, sym("tau1"),
                                                 sym("tau2"))
    assert psi1 / chi1 * ell_pow(-2) == ell() / sym("tau1")
    assert psi2 / chi2 * ell_pow(-2) == ell() ** 2 / sym("tau2")


def test_tame_sigma_constraint():
    sigma = tame_sigma(1, 2, sym("tau1"), sym("tau2"))
    d = z_datum(sigma, *tame_characters(1, 2, sym("tau1"), sym("tau2")))
    assert d.lam1 * d.lam2 == sigma.central_character()


def test_bilinear_form_depth_zero_reference():
    sigma = tame_sigma(1, 1, sym("tau1"), sym("tau2"))
    psi, chi = tame_characters(1, 1, sym("tau1"), sym("tau2"))
    b0 = bilinear_form(zeta("spherical", z_datum(sigma, psi, chi)), psi, chi)
    one = as_ratfunc(1)
    expect = one
    for (a, b) in zip(chi, psi):
        expect = expect * (one - (a / b) * ell_pow(-2))
    assert b0 == expect


@pytest.fixture(scope="module")
def tame_data():
    """The formal tame data that the tests below check, each built once
    for the module."""
    return {w: tame_pairing(*w)
            for w in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2))}


# -- the old Y path, kept in sympy as the oracle of the limit at s = 0 ----------


def to_sympy(f, v):
    """f as a sympy expression in its symbols, with l = v^2 and v the
    given value of the square root of the prime."""
    def side(poly):
        out = sympy.Integer(0)
        for mono, c in poly.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for s, e in mono:
                term *= (v ** 2 if s == "l" else v if s == "v"
                         else sympy.Symbol(s)) ** e
            out += term
        return out
    return side(f.num) / side(f.den)


def sqrt_prime(p):
    return sympy.Symbol("v") if p is None else sympy.sqrt(p)


def reference_pairing(label, sigma, psi, chi):
    """The depth-0 pairing along the old path, in sympy: with Y =
    (prime)^{-2s}, the regularising product in Y times the zeta integral
    at u = eta * prime * Y (eta = psi1 psi2), reduced by ``cancel`` and
    taken at Y = 1, times the first normalising product."""
    p = sigma.p
    v, y = sqrt_prime(p), sympy.Symbol("Y")
    eta = to_sympy(psi[0] * psi[1], v)
    f = to_sympy(zeta(label, z_datum(sigma, psi, chi)), v).subs(
        sympy.Symbol("u"), eta * v ** 2 * y)
    norm = sympy.Integer(1)
    for a, b in zip(psi, chi):
        ratio = to_sympy(a / b, v)
        f = f / (1 - ratio * v ** -2 * y)
        norm = norm * (1 - v ** -2 / ratio)
    num, den = sympy.fraction(sympy.cancel(f))
    if sympy.expand(den.subs(y, 1)) == 0:
        raise ExactArithmeticError("limit does not exist")
    return norm * num.subs(y, 1) / den.subs(y, 1)


def same_value(f, g, v):
    """Whether the RatFunc f and the sympy expression g agree."""
    num, _ = sympy.fraction(sympy.together(to_sympy(f, v) - g))
    return sympy.expand(num) == 0


ORACLE_WEIGHTS = ((0, 0), (1, 2), (2, 1))


@pytest.fixture(scope="module")
def tame_data_at_two():
    return {w: tame_pairing(*w, p=2) for w in ORACLE_WEIGHTS}


@pytest.mark.parametrize("label", ZETA_LABELS)
def test_shared_pairing_matches_direct_bilinear_form(label, tame_data,
                                                     tame_data_at_two):
    # the depth-0 pairing is the old path's; the shared path multiplies
    # it by depth_factor(t), so check that against the pairing written
    # out without that split: volume of the depth-t subgroup, times the
    # section value at 1, times the depth-0 pairing
    for p, data in ((None, tame_data), (2, tame_data_at_two)):
        one, lp = as_ratfunc(1, p), ell(p)
        for k1, k2 in ORACLE_WEIGHTS:
            datum = data[k1, k2]
            b0 = datum.pairing(label, 0)
            assert same_value(b0, reference_pairing(
                label, datum.sigma, datum.psi, datum.chi), sqrt_prime(p)), \
                (p, k1, k2)
            for t in (1, 2):
                expect = one / (lp ** (t - 1) * (lp + 1)) ** 2 * b0
                for a, b in zip(datum.psi, datum.chi):
                    expect = expect * (one - (a / b) * ell_pow(-2, p))
                got = datum.pairing(label, t)
                assert (got.num, got.den) == (expect.num, expect.den), \
                    (p, k1, k2, t)


def _pole_datum(p):
    """sigma, psi and chi of weight (1, 1) at tau1 = prime, where the
    second normalising product has the pole 1/(1 - Y)."""
    tau1, tau2 = ell(p), sym("tau2", p)
    return (tame_sigma(1, 1, tau1, tau2, p),
            *tame_characters(1, 1, tau1, tau2, p))


@pytest.mark.parametrize("p", [None, 2])
def test_removable_pole_matches_the_limit_in_y(p, monkeypatch):
    # the spherical zeta integral cancels the pole, the U-translated one
    # does not: both paths agree on the value and on the failure.  The
    # second normalising product vanishes at the point, so bilinear_form
    # reduces the fraction before it evaluates it
    sigma, psi, chi = _pole_datum(p)
    d = z_datum(sigma, psi, chi)
    z = zeta("spherical", d)
    seen = _evaluated(monkeypatch)
    got = bilinear_form(z, psi, chi)
    assert seen and not any(f is z for f in seen)
    assert same_value(got, reference_pairing("spherical", sigma, psi, chi),
                      sqrt_prime(p))
    for path in (lambda: reference_pairing("ul", sigma, psi, chi),
                 lambda: bilinear_form(zeta("ul", d), psi, chi)):
        with pytest.raises(ExactArithmeticError):
            path()


def test_tame_pairing_at_a_pole_raises():
    with pytest.raises(ExactArithmeticError):
        tame_pairing(1, 1, tau1=ell())


def test_removable_pole_keeps_its_value():
    sigma, psi, chi = _pole_datum(None)
    b0 = bilinear_form(zeta("spherical", z_datum(sigma, psi, chi)), psi, chi)
    lp, tau2 = ell(), sym("tau2")
    assert b0 == 1 + lp ** -5 * tau2 - lp ** -3 * tau2 - lp ** -2


# -- the Laurent paths against the RatFunc paths they replaced ---------------


@pytest.fixture(scope="module")
def tame_z_data():
    """sigma, psi, chi and the z-datum of each tame datum the benchmark's
    tame workload builds: formal weights in {0, 1}^2, and (1, 1) with the
    prime pinned to 2."""
    out = {}
    for k1, k2, p in ((0, 0, None), (0, 1, None), (1, 0, None),
                      (1, 1, None), (1, 1, 2)):
        tau1, tau2 = sym("tau1", p), sym("tau2", p)
        sigma = tame_sigma(k1, k2, tau1, tau2, p)
        psi, chi = tame_characters(k1, k2, tau1, tau2, p)
        out[k1, k2, p] = sigma, psi, chi, z_datum(sigma, psi, chi)
    return out


def generating_function_by_steps(d):
    """G(u) built one RatFunc operation at a time, each result reduced:
    1 over the reciprocal spin factor, times each torus factor."""
    p, u = d.p, sym("u", d.p)
    one = as_ratfunc(1, p)
    g = one / spin_reciprocal(d.sigma, ell_pow(-6, p) * u)
    for lam in (d.lam1, d.lam2):
        g = g * (one - lam * ell_pow(-4, p) * u)
    return g


def test_tame_generating_functions_expand_as_before(tame_z_data):
    # G is one fraction reduced once, and its expansion inverts d0 once:
    # both give what the step-by-step RatFunc paths gave
    for *_, d in tame_z_data.values():
        f = generating_function(d)
        want = generating_function_by_steps(d)
        assert (f.num, f.den) == (want.num, want.den)
        got = series_expand(f, "u", ZETA_ORDER)
        want = series_expand_by_ratfuncs(f, "u", ZETA_ORDER)
        assert [(c.num, c.den) for c in got] == [(c.num, c.den) for c in want]


def test_bessel_series_of_a_formal_datum_reduces_no_fraction(tame_z_data,
                                                            monkeypatch):
    # the generating functions have a monomial lowest coefficient d0 in
    # u, so the expansion forms d0^-1 once, a unit with no gcd, and every
    # step of its recurrence is one dot of Laurent polynomials over 1: no
    # fraction with a non-monomial denominator is reduced, and no step
    # divides by d0 again.  The zeta integrals read off the series are
    # dots of Laurent polynomials too, and reduce nothing at all.  The
    # generating function is built before counting
    data = [d for *_, d in tame_z_data.values()] + [BesselDatum.formal()]
    for d in data:
        calls = []

        def counting(num, den, *args, _fn=symcore._normalize_pair, **kw):
            calls.append(den)
            return _fn(num, den, *args, **kw)
        f = generating_function(d)
        with monkeypatch.context() as m:
            m.setattr(besselzeta, "generating_function", lambda datum: f)
            m.setattr(symcore, "_normalize_pair", counting)
            series = bessel_series(d, ZETA_ORDER)
            assert all(den.is_monomial() for den in calls)
            assert len(calls) <= 1
            recip = _recip_series(d, ZETA_ORDER)
            calls.clear()
            zetas = [zeta_of_series(label, series, recip)
                     for label in ZETA_LABELS]
            assert calls == []
        assert series.values == series_expand_by_ratfuncs(f, "u", ZETA_ORDER)
        want = [zeta_by_sums(label, series, recip) for label in ZETA_LABELS]
        assert [(z.num, z.den) for z in zetas] == \
            [(z.num, z.den) for z in want]


def zeta_by_sums(label, series, recip):
    """zeta_of_series as it was before each coefficient of the product
    became one dot: the truncated product summed one RatFunc product at
    a time, and the polynomial in u summed term by term."""
    if label == "ul":
        series = ul_bessel_transform(series, 1)
    p = series.datum.p
    prod = []
    for k in range(series.order + 1):
        acc = as_ratfunc(0, p)
        for j, c in enumerate(recip[:k + 1]):
            acc = acc + c * series.values[k - j]
        prod.append(acc)
    assert not any(prod[5:])
    num = as_ratfunc(0, p)
    for i in range(5):
        num = num + prod[i] * sym("u", p) ** i
    return num


def bilinear_form_reduced_first(zeta_u, psi, chi):
    """The depth-0 pairing as bilinear_form computed it before it
    evaluated each side on its own: zeta_u over the second normalising
    product, reduced, evaluated at u = eta * prime by Horner's rule over
    the terms view, times the first normalising product."""
    p = zeta_u.prime
    one, u = as_ratfunc(1, p), sym("u", p)
    pairs = [(as_ratfunc(a, p), as_ratfunc(b, p)) for a, b in zip(psi, chi)]
    at_zero = pairs[0][0] * pairs[1][0] * ell(p)
    norm = factors = one
    for (a, b) in pairs:
        norm = norm * (one - (b / a) * ell_pow(-2, p))
        factors = factors * (one - (a / b) * ell_pow(-2, p) * u / at_zero)
    f = zeta_u / factors

    def horner(side):
        degs = degrees_in_by_terms(side, "u") or {0}
        acc = as_ratfunc(0, p)
        for d in range(max(degs), min(degs) - 1, -1):
            acc = acc * at_zero + as_ratfunc(coeff_of_by_terms(side, "u", d))
        return acc * at_zero ** min(degs)
    den = horner(f.den)
    if den.is_zero():
        raise ExactArithmeticError("limit does not exist")
    return norm * (horner(f.num) / den)


def _evaluated(monkeypatch):
    """The fractions that besselzeta._value_at is handed from now on."""
    seen = []

    def recording(f, x, _fn=besselzeta._value_at):
        seen.append(f)
        return _fn(f, x)
    monkeypatch.setattr(besselzeta, "_value_at", recording)
    return seen


def test_bilinear_form_evaluates_the_zeta_integral_itself(tame_z_data,
                                                          monkeypatch):
    # the second normalising product does not vanish at u = eta * prime
    # for the tame data, so the zeta integral is evaluated as it is, and
    # the value is the reduce-first one
    seen = _evaluated(monkeypatch)
    for (k1, k2, p), (_, psi, chi, d) in tame_z_data.items():
        series = bessel_series(d, ZETA_ORDER)
        for label in ZETA_LABELS:
            z = zeta_from(label, series)
            got = bilinear_form(z, psi, chi)
            want = bilinear_form_reduced_first(z, psi, chi)
            assert (got.num, got.den) == (want.num, want.den), (k1, k2, p)
            assert any(f is z for f in seen), (k1, k2, p, label)
            seen.clear()


def depth_factor_by_products(t, psi_pair, chi_pair, p=None):
    """The depth factor as a chain of reduced products: 1 over
    (prime^(t-1) (prime+1))^2, times 1 - (a/b) prime^-1 for each pair."""
    one = as_ratfunc(1, p)
    if t == 0:
        return one
    lp = ell(p)
    out = one / (lp ** (t - 1) * (lp + 1)) ** 2
    for (a, b) in zip(psi_pair, chi_pair):
        a, b = as_ratfunc(a, p), as_ratfunc(b, p)
        out = out * (one - (a / b) * ell_pow(-2, p))
    return out


def test_depth_factor_is_one_reduced_fraction(tame_z_data, monkeypatch):
    # the tame characters, and characters that are fractions, at the
    # formal prime and at 2: one fraction reduced once per depth
    x = sym("x")
    pairs = [(psi, chi, sigma.p) for sigma, psi, chi, _ in
             tame_z_data.values()]
    pairs += [((ell(p), 1 / (1 + x)), (x / (x - 2), ell_pow(3, p) * x), p)
              for p in (None, 2)]
    for psi, chi, p in pairs:
        for t in range(4):
            want = depth_factor_by_products(t, psi, chi, p)
            calls = []
            with monkeypatch.context() as m:
                m.setattr(symcore, "_normalize_pair",
                          lambda *a, _fn=symcore._normalize_pair, **kw:
                          calls.append(a) or _fn(*a, **kw))
                got = depth_factor(t, psi, chi, p)
            assert (got.num, got.den) == (want.num, want.den), (p, t)
            if all(f.den == 1 for f in (*psi, *chi)):
                assert len(calls) == (t > 0), (p, t)


def test_depth_factor_negative_depth():
    psi, chi = tame_characters(1, 1, sym("tau1"), sym("tau2"))
    with pytest.raises(ValueError):
        depth_factor(-1, psi, chi)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_tame_norm_relation(t, tame_data):
    for k1, k2 in ((0, 0), (1, 2), (2, 2)):
        ok, lhs, rhs = tame_norm_check(t, tame_data[k1, k2])
        assert ok, (t, k1, k2, lhs, rhs)


def test_tame_norm_t0_is_reference(tame_data):
    ok, lhs, rhs = tame_norm_check(0, tame_data[1, 1])
    # at depth 0 the displayed right side still carries the Euler
    # factors, so it does NOT reproduce the reference value: guards
    # against an off-by-one in the volume factors
    assert not ok


@pytest.mark.parametrize("k1,k2", [(0, 0), (1, 2)])
def test_tame_norm_ul_relation(k1, k2, tame_data):
    ok, lhs, rhs = tame_norm_ul_check(tame_data[k1, k2])
    assert ok, (k1, k2, lhs, rhs)


@pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (2, 2)])
def test_tame_norm_final(k1, k2, tame_data):
    ok, lhs, rhs = tame_norm_final_check(tame_data[k1, k2])
    assert ok, (k1, k2, lhs, rhs)


def test_tame_norm_final_perturbed_fails(tame_data):
    ok, _, _ = tame_norm_final_check(tame_data[1, 1], perturb=True)
    assert not ok


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k1,k2", [(0, 0), (1, 1)])
def test_formal_pairings_specialise_to_pinned_prime(k1, k2, p, tame_data):
    # an independent guard on the v^2 = l elimination: the formal datum
    # taken to the prime p equals the datum computed with p pinned from
    # the start, where v^2 folds to p instead.  The depth-1 pairings
    # bring in depth_factor.  A pole of the specialisation
    # (DivisionByZero) is a failure here, not a skip
    formal, pinned = tame_data[k1, k2], tame_pairing(k1, k2, p=p)
    for label in ZETA_LABELS:
        assert formal.base[label].with_prime(p) == pinned.base[label], label
        assert (formal.pairing(label, 1).with_prime(p)
                == pinned.pairing(label, 1)), label
    assert formal.euler.with_prime(p) == pinned.euler


@pytest.mark.parametrize("p", [None, 2])
@pytest.mark.parametrize("k1,k2", [(1, 0), (1, 2), (3, 4)])
def test_a_tame_weight_is_a_rescaling_of_tau(k1, k2, p):
    # the transport lemma: the weight-(k1, k2) datum is the weight-(0, 0)
    # datum at tau_i' = prime^-k_i tau_i, so each tame identity at weight
    # (0, 0) implies it at every weight.  (3, 4) lies past --k's cap
    lp = ell(p)
    tau1, tau2 = sym("tau1", p), sym("tau2", p)
    datum = tame_pairing(k1, k2, p=p)
    moved = tame_pairing(0, 0, lp ** -k1 * tau1, lp ** -k2 * tau2, p)
    for label in ZETA_LABELS:
        for t in range(4):
            assert datum.pairing(label, t) == moved.pairing(label, t), \
                (label, t)
    assert datum.euler == moved.euler
    assert datum.spin_recip == moved.spin_recip
    assert datum.sigma == moved.sigma


@pytest.fixture(scope="module")
def formal_zetas():
    """The two zetas of the formal Bessel datum and their closed forms,
    each keyed by its label."""
    d = BesselDatum.formal(None)
    series = bessel_series(d, 9)
    return ({label: zeta_from(label, series) for label in ZETA_LABELS},
            {"spherical": zeta_spherical_closed(d), "ul": zeta_ul_closed(d)})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_formal_bessel_zetas_specialise_to_pinned_prime(p, formal_zetas):
    # the guard above for the Bessel datum: its zetas and their closed
    # forms, computed with the prime formal and taken to p, equal those
    # of the datum with p pinned from the start.  A pole of the
    # specialisation (DivisionByZero) is a failure, not a skip
    zetas, closed = formal_zetas
    d = BesselDatum.formal(p)
    series = bessel_series(d, 9)
    want = {"spherical": zeta_spherical_closed(d), "ul": zeta_ul_closed(d)}
    for label in ZETA_LABELS:
        assert zetas[label].with_prime(p) == zeta_from(label, series), \
            label
        assert closed[label].with_prime(p) == want[label], label


def test_pairing_kept_per_datum(monkeypatch):
    # a datum computes each (label, t) pairing once and hands back the
    # same object, from one depth factor per t for both labels; what it
    # has kept does not enter equality
    first, second = tame_pairing(0, 0, p=2), tame_pairing(0, 0, p=2)
    depths = []
    monkeypatch.setattr(besselzeta, "depth_factor",
                        lambda t, *args, _fn=depth_factor:
                        depths.append(t) or _fn(t, *args))
    got = first.pairing("ul", 1)
    assert first.pairing("ul", 1) is got
    first.pairing("spherical", 1)
    assert depths == [1]
    assert got == depth_factor(1, first.psi, first.chi, 2) * first.base["ul"]
    assert first == second and repr(first) == repr(second)
    assert second.pairing("spherical", 2) is second.pairing("spherical", 2)
    assert first == second


def test_depth_zero_pairing_reduces_no_fraction(tame_data, monkeypatch):
    # the depth-0 factor is the constant 1, so the depth-0 pairing is the
    # datum's base pairing, with no reduction
    for datum in tame_data.values():
        calls = []
        with monkeypatch.context() as m:
            m.setattr(symcore, "_normalize_pair",
                      lambda *a, _fn=symcore._normalize_pair, **kw:
                      calls.append(a) or _fn(*a, **kw))
            got = {label: datum.pairing(label, 0) for label in ZETA_LABELS}
        assert calls == []
        for label in ZETA_LABELS:
            want = datum.base[label]
            assert (got[label].num, got[label].den) == (want.num, want.den)


def test_concrete_prime_consistency():
    # the whole chain also runs with the prime pinned to 2
    datum = tame_pairing(1, 1, sym("tau1", 2), sym("tau2", 2), p=2)
    ok, lhs, rhs = tame_norm_check(1, datum)
    assert lhs == rhs
