"""Bessel values, zeta integrals and the tame norm-compatibility identities.

The Bessel values B_n of the spherical vector are DEFINED here through
their rational generating function

    G(u) = prod_{g in spin params} (1 - g v^{-3} u)^{-1}
           * prod_{i in {1,2}} (1 - lam_i v^{-4} u),

with u the formal variable standing for (character value at the prime)
times (prime)^{-(s - 3/2)}.  The U-operator's factor on Bessel values
is posited (ul_bessel_transform).  Everything downstream — the zeta
integral of the spherical and U-translated vectors, the z-map values,
and the two tame norm-relation identities together with their
corollary — is verified exactly against this definition, with the prime
itself formal (v is its formal square root) wherever possible.

The z-value at s is the zeta integral at u = eta(prime) * prime *
(prime)^{-2s}, so the limit s -> 0 of the regularised z-value is the
value at u = eta(prime) * prime of a reduced rational function of u; it
exists precisely when the denominator does not vanish there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symcore import (ExactArithmeticError, RatFunc, as_ratfunc, dot, ell,
                      ell_pow, rescale, series_expand, sym)
from .gsp4local import PrincipalSeriesG, spin_reciprocal


#: variable of the Bessel generating function / zeta integral
U_VAR = "u"


@dataclass(frozen=True)
class BesselDatum:
    """Principal series together with the two torus values of the
    character defining the Bessel functional.  The restriction of that
    character to the centre must agree with the central character."""
    sigma: PrincipalSeriesG
    lam1: RatFunc
    lam2: RatFunc

    def __post_init__(self):
        if self.lam1 * self.lam2 != self.sigma.central_character():
            raise ExactArithmeticError(
                "torus character does not match the central character")

    @staticmethod
    def formal(p=None) -> "BesselDatum":
        """Fully formal datum: alpha, beta, c, lam1 free; lam2 determined
        by the central-character constraint."""
        sigma = PrincipalSeriesG.formal(p)
        lam1 = sym("lam1", p)
        lam2 = sigma.central_character() / lam1
        return BesselDatum(sigma, lam1, lam2)

    @property
    def p(self):
        return self.sigma.p


@dataclass(frozen=True)
class BesselSeries:
    """Truncated sequence of Bessel values B_0..B_N of a vector at the
    diagonal arguments diag(x, x, 1, 1) with x of valuation n; values at
    |x| > 1 are identically zero."""
    datum: BesselDatum
    values: tuple

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def value(self, n: int) -> RatFunc:
        if n < 0:
            return as_ratfunc(0, self.datum.p)
        return self.values[n]


def generating_function(datum: BesselDatum) -> RatFunc:
    """G(u), the product of the two torus factors over the reciprocal
    spin factor, as one fraction reduced once."""
    p = datum.p
    u = sym(U_VAR, p)
    one = as_ratfunc(1, p)
    num = one
    for lam in (datum.lam1, datum.lam2):
        num = num * (one - lam * ell_pow(-4, p) * u)
    den = spin_reciprocal(datum.sigma, ell_pow(-6, p) * u)
    return RatFunc(num.num * den.den, num.den * den.num)


def bessel_series(datum: BesselDatum, n: int) -> BesselSeries:
    """The first n+1 Bessel values, read off the generating function."""
    return BesselSeries(datum, series_expand(generating_function(datum),
                                             U_VAR, n))


def ul_bessel_transform(series: BesselSeries) -> BesselSeries:
    """Bessel values of the U-operator applied to the vector: the prime
    shifts the diagonal argument by one, and the unipotent integration
    mod the prime contributes prime^2 from two coordinates and the
    character sum prime from the third, where the character is trivial.
    The factor prime^3 is posited: nothing here sums the character over
    cosets."""
    factor = ell(series.datum.p) ** 3
    vals = tuple(factor * series.value(n + 1)
                 for n in range(series.order))
    return BesselSeries(series.datum, vals)


#: labels of the vectors whose zeta integrals are modelled
ZETA_LABELS = ("spherical", "ul")
#: a bound on the degree in u of every zeta integral
_ZETA_NUM_DEG = 4
#: the order of the spherical Bessel series every zeta integral is read
#: off: the U-operator uses up one term, and at least two coefficients
#: past degree _ZETA_NUM_DEG must remain to be checked
ZETA_ORDER = 9


def _recip_series(datum: BesselDatum, order: int) -> tuple:
    """The coefficients of u^0 .. u^order of the reciprocal spin factor
    at (prime)^{-3} u."""
    p = datum.p
    return series_expand(spin_reciprocal(datum.sigma,
                                         ell_pow(-6, p) * sym(U_VAR, p)),
                         U_VAR, order)


def _zeta_polynomial(series: BesselSeries, recip: tuple) -> RatFunc:
    """The generating sum of the Bessel values times the reciprocal spin
    factor, whose coefficients ``recip`` reach at least the series'
    order, a polynomial in u of degree at most _ZETA_NUM_DEG.  The
    truncated product must carry at least two coefficients past that
    degree, and every one of them must vanish.  Each coefficient of the
    convolution, and the polynomial in u, is one ``dot``."""
    if series.order < _ZETA_NUM_DEG + 2:
        raise ExactArithmeticError("Bessel series too short for the zeta "
                                   "integral")
    p = series.datum.p
    u = sym(U_VAR, p)
    prod = [dot(zip(recip, series.values[k::-1]))
            for k in range(series.order + 1)]
    if any(prod[_ZETA_NUM_DEG + 1:]):
        raise ExactArithmeticError("Bessel series times the reciprocal spin "
                                   "factor has degree above %d"
                                   % _ZETA_NUM_DEG)
    return dot((prod[i], u ** i) for i in range(_ZETA_NUM_DEG + 1))


def zeta_of_series(label: str, series: BesselSeries,
                   recip: tuple) -> RatFunc:
    """The zeta integral of the labelled vector, as a polynomial in u:
    the reciprocal spin factor times the generating sum of the vector's
    Bessel values, read off coefficient by coefficient from ``series``,
    the spherical Bessel values of its datum.  ``recip`` is the
    reciprocal spin series of the datum to at least the series' order
    (``_recip_series``); both labels of one datum can share it."""
    if label not in ZETA_LABELS:
        raise ValueError(f"unknown vector label {label!r}")
    if label == "ul":
        series = ul_bessel_transform(series)
    return _zeta_polynomial(series, recip)


def zeta(label: str, datum: BesselDatum) -> RatFunc:
    """The zeta integral of the labelled vector of ``datum``, read off
    its spherical Bessel series of order ZETA_ORDER."""
    return zeta_of_series(label, bessel_series(datum, ZETA_ORDER),
                          _recip_series(datum, ZETA_ORDER))


def zeta_spherical_closed(datum: BesselDatum) -> RatFunc:
    """prod_i (1 - lam_i v^{-4} u): the closed form of the spherical
    zeta integral."""
    p = datum.p
    u = sym(U_VAR, p)
    one = as_ratfunc(1, p)
    return ((one - datum.lam1 * ell_pow(-4, p) * u)
            * (one - datum.lam2 * ell_pow(-4, p) * u))


def zeta_ul_closed(datum: BesselDatum) -> RatFunc:
    """The U-operator zeta integral in closed form: (prime)^3/u times
    the difference of the spherical closed form and the reciprocal spin
    factor."""
    p = datum.p
    u = sym(U_VAR, p)
    recip = spin_reciprocal(datum.sigma, ell_pow(-6, p) * u)
    return ell(p) ** 3 / u * (zeta_spherical_closed(datum) - recip)


# -- the z-map and the bilinear form --------------------------------------------


def z_datum(sigma: PrincipalSeriesG, psi_pair, chi_pair) -> BesselDatum:
    """The Bessel datum attached to a pair of principal series of the
    two-by-two factors: lam1 = 1/(psi1 chi2), lam2 = 1/(chi1 psi2)."""
    p1, p2 = (as_ratfunc(x, sigma.p) for x in psi_pair)
    c1, c2 = (as_ratfunc(x, sigma.p) for x in chi_pair)
    one = as_ratfunc(1, sigma.p)
    return BesselDatum(sigma, one / (p1 * c2), one / (c1 * p2))


def tame_characters(k1: int, k2: int, tau1, tau2, p=None):
    """The weight-(k1, k2) character values: psi_i at the prime is v,
    chi_i is v^{-1-2k_i} tau_i = v^-1 (prime^-k_i tau_i)."""
    v = ell_pow(1, p)
    t1, t2 = as_ratfunc(tau1, p), as_ratfunc(tau2, p)
    return ((v, v), (ell_pow(-1 - 2 * k1, p) * t1,
                     ell_pow(-1 - 2 * k2, p) * t2))


def tame_sigma(k1: int, k2: int, tau1, tau2, p=None) -> PrincipalSeriesG:
    """Formal principal series whose central character matches the
    weight-(k1, k2) torus datum: beta is eliminated via the constraint
    lam1 lam2 = alpha beta c^2."""
    alpha, c = sym("alpha", p), sym("c", p)
    t1, t2 = as_ratfunc(tau1, p), as_ratfunc(tau2, p)
    lam_prod = ell(p) ** (k1 + k2) / (t1 * t2)
    beta = lam_prod / (alpha * c ** 2)
    return PrincipalSeriesG(p, alpha, beta, c)


def depth_factor(t: int, psi_pair, chi_pair, p=None) -> RatFunc:
    """The part of the depth-t pairing that depends on t: the volume of
    the depth-t congruence subgroup of the two-by-two pair times the
    value at the identity of the degenerate section of depth t.  Both
    are 1 at depth 0.  It is prod_i (b_i - a_i prime^-1) over prod_i b_i
    (prime^(t-1) (prime+1))^2, one fraction reduced once."""
    if t < 0:
        raise ValueError("depth must be >= 0")
    one = as_ratfunc(1, p)
    if t == 0:
        return one
    lp = ell(p)
    num, den = one, (lp ** (t - 1) * (lp + 1)) ** 2
    for (a, b) in zip(psi_pair, chi_pair):
        a, b = as_ratfunc(a, p), as_ratfunc(b, p)
        num = num * (b - a * ell_pow(-2, p))
        den = den * b
    return RatFunc(num.num * den.den, num.den * den.num)


def _value_at(f: RatFunc, x: RatFunc) -> RatFunc:
    """The value of the reduced fraction f of u at u = x, each side by
    Horner's rule over its coefficients in u."""
    def horner(side):
        cs = side.coeffs(U_VAR)
        lo, hi = min(cs, default=0), max(cs, default=0)
        acc = as_ratfunc(0, f.prime)
        for d in range(hi, lo - 1, -1):
            acc = acc * x
            if d in cs:
                acc = acc + RatFunc(cs[d])
        return acc * x ** lo
    den = horner(f.den)
    if den.is_zero():
        raise ExactArithmeticError("limit does not exist")
    return horner(f.num) / den


def bilinear_form(zeta_u: RatFunc, psi_pair, chi_pair) -> RatFunc:
    """The depth-0 pairing of the degenerate section with the z-map of
    the vector whose zeta integral is ``zeta_u``, computed along the
    support-reduction path: the first normalising product of degree-1
    factors times the limit at s = 0 of the second normalising product
    times the z-value.  With u = eta * prime * (prime)^{-2s} and eta =
    psi1 psi2, each factor 1/(1 - (a/b) prime^{-1} (prime)^{-2s}) of the
    second product is 1/(1 - c u) with c = (a/b) prime^{-1}/(eta prime),
    so the limit is the value at u = eta * prime of zeta_u over those
    factors.  Where the factors do not vanish there, that is the value
    of zeta_u over theirs, with no reduction: if N/D = gN'/(gD') and
    D(x) != 0, then g(x) != 0.  Where they vanish, the fraction is
    reduced first, so that a removable pole keeps its value and a pole
    raises."""
    p = zeta_u.prime
    one, u = as_ratfunc(1, p), sym(U_VAR, p)
    pairs = [(as_ratfunc(a, p), as_ratfunc(b, p))
             for a, b in zip(psi_pair, chi_pair)]
    at_zero = pairs[0][0] * pairs[1][0] * ell(p)
    norm = factors = one
    for (a, b) in pairs:
        norm = norm * (one - (b / a) * ell_pow(-2, p))
        factors = factors * (one - (a / b) * ell_pow(-2, p) * u / at_zero)
    # the denominator of the factors is free of u, so this cannot raise
    at_factors = _value_at(factors, at_zero)
    if at_factors.is_zero():
        return norm * _value_at(zeta_u / factors, at_zero)
    return norm * (_value_at(zeta_u, at_zero) / at_factors)


@dataclass(frozen=True)
class TameDatum:
    """The weight-(k1, k2) tame datum at the prime p.

    ``base`` maps each vector label to its depth-0 pairing, the
    bilinear_form of the label's zeta integral; the depth enters only
    through depth_factor, so the depth-t pairing of a label is
    depth_factor(t, psi, chi, p) times its base pairing.  ``euler`` is
    prod_i (1 - prime^{k_i}/tau_i) and ``spin_recip`` the reciprocal
    spin factor at -1/2, spin_reciprocal(sigma, prime^{-1}): the two
    factors on the right sides of the tame identities."""
    k1: int
    k2: int
    p: int | None
    tau1: RatFunc
    tau2: RatFunc
    sigma: PrincipalSeriesG
    psi: tuple
    chi: tuple
    base: dict
    euler: RatFunc
    spin_recip: RatFunc


def tame_pairing(k1: int, k2: int, tau1=None, tau2=None,
                 p=None) -> TameDatum:
    """The weight-(k1, k2) tame datum, with tau_i defaulting to the
    formal symbols.  Its depth-0 pairings are read off one expansion
    of the Bessel series of the z-datum, computed on every call; a
    caller that checks several identities of one datum builds it once
    and hands it to each check.

    Transport: the weight enters only through prime^-k_i tau_i, so the
    datum equals tame_pairing(0, 0, prime^-k1 tau1, prime^-k2 tau2) in
    every pairing, in euler, in spin_recip and in sigma.  An identity of
    the weight-(0, 0) datum in formal tau_i therefore holds at every
    weight, and ``transport`` builds the formal datum of any weight from
    the formal weight-(0, 0) one with no second expansion; the runner
    transports every formal weight so (transport says what each tame case
    then decides).  This direct path stays the one at a pinned prime,
    and the oracle of transport."""
    tau1 = sym("tau1", p) if tau1 is None else as_ratfunc(tau1, p)
    tau2 = sym("tau2", p) if tau2 is None else as_ratfunc(tau2, p)
    return _tame_datum(k1, k2, tau1, tau2, p, _expanded_base)


def _expanded_base(sigma: PrincipalSeriesG, psi, chi) -> dict:
    """The depth-0 pairing of each vector label, read off one expansion
    of the Bessel series of the z-datum."""
    datum = z_datum(sigma, psi, chi)
    series = bessel_series(datum, ZETA_ORDER)
    recip = _recip_series(datum, ZETA_ORDER)
    return {label: bilinear_form(zeta_of_series(label, series, recip),
                                 psi, chi)
            for label in ZETA_LABELS}


def _tame_datum(k1: int, k2: int, tau1: RatFunc, tau2: RatFunc, p,
                base_of) -> TameDatum:
    """The weight-(k1, k2) datum whose depth-0 pairings are
    base_of(sigma, psi, chi): the one place where sigma, the characters,
    euler and spin_recip of a tame datum are built."""
    sigma = tame_sigma(k1, k2, tau1, tau2, p)
    psi, chi = tame_characters(k1, k2, tau1, tau2, p)
    lp, one = ell(p), as_ratfunc(1, p)
    euler = (one - lp ** k1 / tau1) * (one - lp ** k2 / tau2)
    return TameDatum(k1, k2, p, tau1, tau2, sigma, psi, chi,
                     base_of(sigma, psi, chi), euler,
                     spin_reciprocal(sigma, ell_pow(-2, p)))


def transport(datum: TameDatum, k1: int, k2: int) -> TameDatum:
    """The formal weight-(k1, k2) tame datum, equal to tame_pairing(k1,
    k2), from ``datum``, the formal weight-(0, 0) one, by the transport
    lemma (tame_pairing): each depth-0 pairing at tau_i -> prime^-k_i
    tau_i, one symcore.rescale, with no Bessel expansion.  sigma, the
    characters, euler and spin_recip are built directly, as tame_pairing
    builds them.  So on a transported datum the ul and final identities,
    and frobrecip's, check the transported pairings against a directly
    built euler and spin_recip; the depth-t identity checks algebra, as
    both of its sides carry the same base pairing."""
    tau1, tau2 = sym("tau1"), sym("tau2")
    if (datum.p, datum.k1, datum.k2, datum.tau1, datum.tau2) != (
            None, 0, 0, tau1, tau2):
        raise ValueError("transport starts from the formal weight-(0, 0) "
                         "datum")
    shifts = {"tau1": -2 * k1, "tau2": -2 * k2}
    return _tame_datum(k1, k2, tau1, tau2, None, lambda *_: {
        label: rescale(f, shifts) for label, f in datum.base.items()})


def tame_norm_check(t: int, datum: TameDatum, bt: RatFunc):
    """Check the depth-t norm-relation identity for the spherical
    vector of the tame datum: bt, the depth-t pairing, equals
    1/(prime^{2t-2} (prime+1)^2) * prod_i (1 - prime^{k_i}/tau_i)
    times the depth-0 pairing.  Returns (ok, lhs, rhs)."""
    lp, b0 = ell(datum.p), datum.base["spherical"]
    one = as_ratfunc(1, datum.p)
    rhs = one / (lp ** (2 * t - 2) * (lp + 1) ** 2) * datum.euler * b0
    return bt == rhs, bt, rhs


def tame_norm_ul_check(datum: TameDatum, b2: RatFunc):
    """Check the depth-1 norm-relation identity for the U-translated
    vector of the tame datum: b2, its depth-1 pairing, equals
    prime/(prime+1)^2 times [prod_i (1 - prime^{k_i}/tau_i) - reciprocal
    spin factor at -1/2] times the depth-0 spherical pairing.  Returns
    (ok, lhs, rhs)."""
    lp, b0 = ell(datum.p), datum.base["spherical"]
    rhs = lp / (lp + 1) ** 2 * (datum.euler - datum.spin_recip) * b0
    return b2 == rhs, b2, rhs


def tame_norm_final_check(datum: TameDatum, b1: RatFunc, b2: RatFunc):
    """Check the combined corollary for the tame datum: with B1 the
    depth-1 spherical pairing, B2 the depth-1 pairing of the
    U-translated vector and B0 the depth-0 pairing,

        (l+1)^2 l/(l-1) B1 - (l+1)^2/(l-1) B2
            = l/(l-1) * (reciprocal spin factor at -1/2) * B0.

    Returns (ok, lhs, rhs)."""
    lp = ell(datum.p)
    lhs = (lp + 1) ** 2 * lp / (lp - 1) * b1 - (lp + 1) ** 2 / (lp - 1) * b2
    rhs = lp / (lp - 1) * datum.spin_recip * datum.base["spherical"]
    return lhs == rhs, lhs, rhs
