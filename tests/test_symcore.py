"""Unit and property tests for the exact arithmetic core."""

from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from gsp4verify import symcore as sc
from gsp4verify.symcore import (
    DivisionByZero, LaurentPoly, PoleAtOrigin, PowerSeries, RatFunc,
    SpecializationPole, ell, ratfunc_eq, reconstruct_ratfunc, series_expand,
    substitute, sym, symbols, vee,
)


def test_v_squared_folds_to_l():
    v = LaurentPoly.symbol("v")
    l = LaurentPoly.symbol("l")
    assert v * v == l
    assert v ** 3 == l * v
    assert v ** -1 == l ** -1 * v
    for mono in (v ** 5 * l ** -2).terms:
        assert dict(mono).get("v", 0) in (0, 1)


def test_v_squared_folds_to_concrete_prime():
    v = LaurentPoly.symbol("v", prime=2)
    assert v * v == LaurentPoly.const(2, prime=2)
    assert v ** 3 == LaurentPoly.const(2, prime=2) * v
    assert LaurentPoly.symbol("l", prime=3) == LaurentPoly.const(3, prime=3)


def test_prime_mismatch():
    with pytest.raises(sc.PrimeMismatch):
        LaurentPoly.symbol("x", prime=2) * LaurentPoly.symbol("y", prime=3)


def test_ratfunc_cancellation():
    x = sym("x")
    f = (x ** 2 - 1) / (x - 1)
    assert f.den == LaurentPoly.const(1)
    assert f == x + 1


def test_ratfunc_common_factor_normalizes():
    x, y = symbols("x y")
    a = (x + y) / (x * y)
    b = ((x + y) * (x - y)) / (x * y * (x - y))
    assert a.num == b.num and a.den == b.den


def test_laurent_unit_normalization():
    x = sym("x")
    f = RatFunc(LaurentPoly.const(1), LaurentPoly.symbol("x"))
    assert f == x ** -1
    g = (1 - x) / (x ** -1 - 1)  # (1-x)/((1-x)/x) = x
    assert g == x


@pytest.mark.parametrize("den,prime", [
    (LaurentPoly.const(Q(-2, 3)), None),
    (LaurentPoly.symbol("x"), None),
    (LaurentPoly.symbol("v"), None),
    (LaurentPoly.symbol("l", -1) * LaurentPoly.symbol("v", 3), None),
    (LaurentPoly.symbol("v", prime=3), 3),
])
def test_single_term_denominator_matches_gcd_path(den, prime):
    # a single-term denominator is a unit: the shortcut must give den == 1
    # and the same canonical pair as the general reduction, reached here
    # by a common factor c that makes the denominator a sum of terms (c
    # is free of v: with the prime pinned, the gcd does not see v^2 = p)
    x, y = LaurentPoly.symbol("x", prime=prime), LaurentPoly.symbol(
        "y", prime=prime)
    v = LaurentPoly.symbol("v", prime=prime)
    a = 3 * x * x * y ** -1 - v + Q(1, 2)
    c = x + 2 * x * y + 1
    f = RatFunc(a, den)
    g = RatFunc(a * c, den * c)
    assert f.den == LaurentPoly.const(1, prime)
    assert f.num == g.num and f.den == g.den


def test_division_by_zero():
    x = sym("x")
    with pytest.raises(DivisionByZero):
        x / (x - x)


def test_substitute_basic():
    x, y = symbols("x y")
    f = (x + y) / (x - y)
    g = substitute(f, {"x": 3, "y": 1})
    assert g == RatFunc.const(2)
    with pytest.raises(SpecializationPole):
        substitute(f, {"x": 1, "y": 1})


def test_substitute_l_and_v():
    v = vee()
    f = v * sym("x")
    with pytest.raises(sc.ExactArithmeticError):
        substitute(f, {"l": 4, "x": 1})
    assert substitute(f, {"v": 2, "x": 5}) == RatFunc.const(10)
    # even powers of v are l and substitute fine
    assert substitute(v * v, {"l": 4}) == RatFunc.const(4)
    with pytest.raises(sc.ExactArithmeticError):
        substitute(v, {"l": 4, "v": 3})


def test_series_expand_geometric():
    x = sym("x")
    s = series_expand(1 / (1 - x), "x", 5)
    assert all(c == RatFunc.const(1) for c in s.coeffs)
    t = series_expand((1 + x) / (1 - x) ** 2, "x", 4)
    # (1+x)/(1-x)^2 = sum (2n+1) x^n
    assert [c.const_value() for c in t.coeffs] == [Q(2 * n + 1) for n in range(5)]


def test_series_pole_at_origin():
    x = sym("x")
    with pytest.raises(PoleAtOrigin):
        series_expand(1 / x, "x", 3)
    with pytest.raises(PoleAtOrigin):
        series_expand(1 / (x - x ** 2), "x", 3)


def test_series_with_parameter_coeffs():
    x, a = symbols("x a")
    s = series_expand(1 / (1 - a * x), "x", 6)
    assert s.coeffs[4] == a ** 4


def test_series_arithmetic_truncates():
    x = sym("x")
    s = series_expand(1 / (1 - x), "x", 4)
    t = series_expand(1 - x, "x", 4)
    prod = s * t
    assert prod.coeffs[0] == RatFunc.const(1)
    assert all(c.is_zero() for c in prod.coeffs[1:])


def test_series_in_different_variables_raise():
    x, y = symbols("x y")
    s = series_expand(1 / (1 - x), "x", 3)
    t = series_expand(1 / (1 - y), "y", 3)
    with pytest.raises(ValueError):
        s + t
    with pytest.raises(ValueError):
        s - t
    with pytest.raises(ValueError):
        s * t


def test_reconstruct_ratfunc():
    x, a = symbols("x a")
    f = (1 - a * x) / ((1 - x) * (1 - 2 * x))
    s = series_expand(f, "x", 9)
    g = reconstruct_ratfunc(s, (1 - x) * (1 - 2 * x), 1)
    assert g == f
    with pytest.raises(sc.ExactArithmeticError):
        reconstruct_ratfunc(s, (1 - x), 1)


def test_ratfunc_truth_value():
    assert not RatFunc.const(0)
    assert not RatFunc.const(0, 3)
    assert sym("x")


def test_reduction_calls_sympy_gcd_and_div(monkeypatch):
    # the per-layer benchmark counts the reductions by wrapping
    # symcore._normalize_pair by name and the gcd work by wrapping
    # sympy.gcd and sympy.div on the sympy module; it fails a workload
    # whose sympy layer records no calls
    assert callable(sc._normalize_pair)
    calls = {"gcd": 0, "div": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(sympy, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(sympy, name, counting)
    x = LaurentPoly.symbol("x")
    f = RatFunc((x + 1) * (x + 2), (x + 1) * (x + 3))
    assert calls["gcd"] > 0 and calls["div"] > 0
    assert f.num * (x + 3) == (x + 2) * f.den
    assert len(f.num.terms) == len(f.den.terms) == 2


def test_ell_helpers():
    assert ell(2) == RatFunc.const(2, 2)
    assert vee(2) ** 2 == RatFunc.const(2, 2)
    assert sc.ell_pow(3) == ell() * vee()
    assert sc.ell_pow(-2) == ell() ** -1


# -- property tests ----------------------------------------------------------

names = st.sampled_from(["x", "y", "z", "v", "l"])


@st.composite
def laurent_polys(draw, names=names):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        nsym = draw(st.integers(0, 2))
        mono = {}
        for _ in range(nsym):
            mono[draw(names)] = draw(st.integers(-3, 3))
        key = tuple(sorted(mono.items()))
        terms[key] = Q(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return LaurentPoly(terms)


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.const(0) == a
    assert a * LaurentPoly.const(1) == a


@settings(max_examples=100, deadline=None)
@given(laurent_polys())
def test_poly_v_exponent_invariant(a):
    for mono in a.terms:
        assert dict(mono).get("v", 0) in (0, 1)


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ratfunc_normalization_consistency(a, b, c):
    if b.is_zero():
        return
    f = RatFunc(a, b)
    assert f.num * b == a * f.den  # value preserved
    if not c.is_zero():
        g = RatFunc(a * c, b * c)
        assert g.num == f.num and g.den == f.den  # canonical form


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys(), laurent_polys())
def test_ratfunc_field_axioms(a, b, c, d):
    if b.is_zero() or d.is_zero():
        return
    f, g = RatFunc(a, b), RatFunc(c, d)
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == RatFunc.const(0)
    if not g.is_zero():
        assert (f / g) * g == f


def _lifted_exponents(poly):
    """Terms of poly as {exponent dict: coeff}, with l replaced by v^2."""
    out = {}
    for mono, c in poly.terms.items():
        d = dict(mono)
        e = d.pop("l", 0)
        if e:
            d["v"] = d.get("v", 0) + 2 * e
        out[tuple(sorted(d.items()))] = c
    return out


def _expr(terms, shift=None, v=sympy.Symbol("v")):
    total = sympy.Integer(0)
    for mono, c in terms.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for s, e in mono:
            t *= (v if s == "v" else sympy.Symbol(s)) ** e
        for s, e in (shift or {}).items():
            t *= sympy.Symbol(s) ** -e
        total += t
    return total


xylv = laurent_polys(st.sampled_from(["x", "y", "l", "v"]))


_V_X2 = LaurentPoly({(): Q(1, 3), (("v", 1), ("x", 2)): Q(1, 3)})


@settings(max_examples=150, deadline=None)
@given(xylv, xylv, xylv, st.sampled_from([None, 2, 3]))
# sympy.cancel returns the residual of this one as Add(-1/3, 1/3)
@example(_V_X2, LaurentPoly({(("x", -1),): Q(2)}), _V_X2, 3)
def test_ratfunc_reduction_against_sympy(a, b, c, prime):
    # an oracle independent of symcore's gcd path: sympy on expressions;
    # the common factor c must cancel
    a, b, c = a.with_prime(prime), b.with_prime(prime), c.with_prime(prime)
    if b.is_zero() or c.is_zero():
        return
    f = RatFunc(a * c, b * c)
    # the value is kept: l -> v^2, and v -> sqrt(p) when p is pinned.  The
    # residual is a Laurent polynomial, so its expansion is 0 exactly when
    # it vanishes
    v = sympy.Symbol("v") if prime is None else sympy.sqrt(prime)
    n, d, a_, b_ = (_expr(_lifted_exponents(q), v=v)
                    for q in (f.num, f.den, a, b))
    assert sympy.expand(n * b_ - a_ * d) == 0
    # num and den are coprime in Q[v, x, y] once shifted to polynomials
    nt, dt = _lifted_exponents(f.num), _lifted_exponents(f.den)
    monos = list(nt) + list(dt)
    shift = {s: min(dict(m).get(s, 0) for m in monos)
             for m0 in monos for s, _ in m0}
    g = sympy.gcd(_expr(nt, shift), _expr(dt, shift))
    assert not g.free_symbols
    # the denominator is unit-normalised
    assert min(f.den.terms) == () and f.den.terms[()] == 1
