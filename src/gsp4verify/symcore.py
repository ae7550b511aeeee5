"""Exact sparse Laurent-polynomial and rational-function arithmetic over Q.

Polynomials live in Q[x1^.., x2^.., ...] with integer (possibly negative)
exponents.  Two symbol names are reserved: ``l`` and ``v``, tied by the
rewrite v*v -> l, so v behaves as a formal square root of l.  A polynomial
may instead be pinned to a concrete prime p; then l is folded into the
rational coefficients as p and the rewrite becomes v*v -> p.

RatFunc is a reduced fraction of two LaurentPolys.  Reduction divides out
the polynomial gcd (computed after eliminating l via l = v^2, so the gcd is
taken in an honest polynomial ring) and normalizes the denominator so its
lexicographically smallest term has coefficient 1.  Equality of RatFuncs is
always decided by cross-multiplication, never by evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

import sympy
from sympy import QQ

Q = Fraction
Scalar = Union[int, Fraction]

L_NAME = "l"
V_NAME = "v"


class ExactArithmeticError(Exception):
    pass


class DivisionByZero(ExactArithmeticError):
    pass


class SpecializationPole(ExactArithmeticError):
    pass


class PoleAtOrigin(ExactArithmeticError):
    pass


class PrimeMismatch(ExactArithmeticError):
    pass


def _merge_prime(p1: Optional[int], p2: Optional[int]) -> Optional[int]:
    if p1 is None:
        return p2
    if p2 is None or p1 == p2:
        return p1
    raise PrimeMismatch(f"cannot mix primes {p1} and {p2}")


def _canon_term(mono: dict, coeff: Fraction, prime: Optional[int]):
    """Fold the reserved symbols in one monomial.  Returns (key, coeff)."""
    e_l = mono.pop(L_NAME, 0)
    e_v = mono.pop(V_NAME, 0)
    if prime is None:
        e_l += e_v // 2
        e_v = e_v % 2
        if e_l:
            mono[L_NAME] = e_l
        if e_v:
            mono[V_NAME] = e_v
    else:
        p = Fraction(prime)
        if e_l:
            coeff *= p ** e_l
        if e_v // 2:
            coeff *= p ** (e_v // 2)
        if e_v % 2:
            mono[V_NAME] = 1
    key = tuple(sorted((s, e) for s, e in mono.items() if e))
    return key, coeff


class LaurentPoly:
    """Sparse Laurent polynomial with Fraction coefficients."""

    __slots__ = ("terms", "prime")

    def __init__(self, terms: Mapping[tuple, Fraction], prime: Optional[int] = None,
                 _canonical: bool = False):
        if _canonical:
            self.terms = dict(terms)
        else:
            acc: dict = {}
            for mono, c in terms.items():
                key, c2 = _canon_term(dict(mono), Fraction(c), prime)
                acc[key] = acc.get(key, Q(0)) + c2
            self.terms = {k: c for k, c in acc.items() if c != 0}
        self.prime = prime

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Scalar, prime: Optional[int] = None) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly({}, prime, _canonical=True)
        return LaurentPoly({(): c}, prime, _canonical=True)

    @staticmethod
    def symbol(name: str, exp: int = 1, prime: Optional[int] = None) -> "LaurentPoly":
        return LaurentPoly({((name, exp),): Q(1)}, prime)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_const(self) -> bool:
        return not self.terms or self.terms.keys() == {()}

    def const_value(self) -> Fraction:
        if not self.terms:
            return Q(0)
        if self.terms.keys() == {()}:
            return self.terms[()]
        raise ExactArithmeticError("not a constant")

    def symbols(self) -> set:
        out = set()
        for mono in self.terms:
            for s, _ in mono:
                out.add(s)
        return out

    def with_prime(self, p: Optional[int]) -> "LaurentPoly":
        if p == self.prime:
            return self
        p2 = _merge_prime(self.prime, p)
        return LaurentPoly(self.terms, p2)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()}, self.prime,
                           _canonical=True)

    def __add__(self, other):
        other = _as_poly(other, self.prime)
        p = _merge_prime(self.prime, other.prime)
        a, b = self.with_prime(p), other.with_prime(p)
        acc = dict(a.terms)
        for m, c in b.terms.items():
            s = acc.get(m, Q(0)) + c
            if s == 0:
                acc.pop(m, None)
            else:
                acc[m] = s
        return LaurentPoly(acc, p, _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other, self.prime))

    def __rsub__(self, other):
        return _as_poly(other, self.prime) - self

    def __mul__(self, other):
        other = _as_poly(other, self.prime)
        p = _merge_prime(self.prime, other.prime)
        a, b = self.with_prime(p), other.with_prime(p)
        acc: dict = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                d = dict(m1)
                for s, e in m2:
                    d[s] = d.get(s, 0) + e
                key, c = _canon_term(d, c1 * c2, p)
                prev = acc.get(key, Q(0)) + c
                if prev == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = prev
        return LaurentPoly(acc, p, _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n == 0:
            return LaurentPoly.const(1, self.prime)
        if n < 0:
            if not self.is_monomial():
                raise ExactArithmeticError("negative power of a non-monomial")
            ((mono, c),) = self.terms.items()
            inv = LaurentPoly({tuple((s, -e) for s, e in mono): 1 / c}, self.prime)
            return inv ** (-n)
        r = LaurentPoly.const(1, self.prime)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def monomial_div(self, mono: tuple, coeff: Fraction) -> "LaurentPoly":
        """Divide by the single term coeff*mono (always exact for Laurent)."""
        neg = tuple((s, -e) for s, e in mono)
        unit = LaurentPoly({neg: 1 / coeff}, self.prime)
        return self * unit

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            other = _as_poly(other, self.prime)
        try:
            p = _merge_prime(self.prime, other.prime)
        except PrimeMismatch:
            return False
        return self.with_prime(p).terms == other.with_prime(p).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- var-degree helpers (used by series expansion) ----------------------

    def degrees_in(self, var: str):
        degs = set()
        for mono in self.terms:
            d = 0
            for s, e in mono:
                if s == var:
                    d = e
            degs.add(d)
        return degs

    def coeff_of(self, var: str, deg: int) -> "LaurentPoly":
        acc = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            if d.pop(var, 0) == deg:
                acc[tuple(sorted(d.items()))] = c
        return LaurentPoly(acc, self.prime, _canonical=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            body = "*".join(f"{s}^{e}" if e != 1 else s for s, e in mono)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _as_poly(x, prime=None) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x, prime)
    raise TypeError(f"cannot coerce {x!r} to LaurentPoly")


# -- gcd machinery (delegated to sympy on an l-eliminated lift) -------------


def _lift_v(poly: LaurentPoly) -> list:
    """Terms as (exponent dict, coeff) pairs in the plain polynomial ring:
    l is replaced by v^2."""
    out = []
    for mono, c in poly.terms.items():
        d = dict(mono)
        e = d.pop(L_NAME, 0)
        if e:
            d[V_NAME] = d.get(V_NAME, 0) + 2 * e
        out.append((d, c))
    return out


def _normalize_pair(num: LaurentPoly, den: LaurentPoly):
    """Reduce a fraction of LaurentPolys to canonical form.

    A single-term denominator c*m is a unit of the Laurent ring, so its
    canonical form is (num / (c*m), 1) without a gcd.  Otherwise both
    sides are lifted to exponent vectors in Q[v, ...] and every symbol is
    shifted by its least exponent over both sides.  That removes the
    common monomial content, so a single-term numerator is already
    coprime to the denominator; any other pair is divided by its gcd."""
    prime = _merge_prime(num.prime, den.prime)
    num, den = num.with_prime(prime), den.with_prime(prime)
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return LaurentPoly.const(0, prime), LaurentPoly.const(1, prime)
    if den.is_monomial():
        ((mono, c),) = den.terms.items()
        if mono or c != 1:
            num = num.monomial_div(mono, c)
        return num, LaurentPoly.const(1, prime)

    lifted = _lift_v(num), _lift_v(den)
    names = sorted({s for side in lifted for d, _ in side for s in d})
    sides = [[([d.get(s, 0) for s in names], c) for d, c in side]
             for side in lifted]
    low = [min(col) for col in zip(*(e for side in sides for e, _ in side))]
    sides = [{tuple(x - m for x, m in zip(e, low)): c for e, c in side}
             for side in sides]

    if len(sides[0]) > 1:
        gens = [sympy.Symbol(s) for s in names]
        fn, fd = (sympy.Poly.from_dict(
            {e: QQ(c.numerator, c.denominator) for e, c in side.items()},
            *gens, domain=QQ) for side in sides)
        g = sympy.gcd(fn, fd)
        if g != 1:
            fn, rn = sympy.div(fn, g)
            fd, rd = sympy.div(fd, g)
            if not (rn.is_zero and rd.is_zero):
                raise ExactArithmeticError("gcd does not divide the pair")
        sides = [{e: Q(c.numerator, c.denominator)
                  for e, c in f.as_dict(native=True).items()}
                 for f in (fn, fd)]

    num2, den2 = (LaurentPoly({tuple(zip(names, e)): c
                               for e, c in side.items()}, prime)
                  for side in sides)

    # unit normalization: lex-least denominator term gets coefficient 1
    lead = min(den2.terms)
    c = den2.terms[lead]
    if lead or c != 1:
        num2 = num2.monomial_div(lead, c)
        den2 = den2.monomial_div(lead, c)
    return num2, den2


class RatFunc:
    """Canonically reduced fraction of LaurentPolys."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical: bool = False):
        if den is None:
            den = LaurentPoly.const(1, getattr(num, "prime", None))
        num = _as_poly(num)
        den = _as_poly(den, num.prime)
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _normalize_pair(num, den)

    @property
    def prime(self):
        return self.num.prime

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Scalar, prime: Optional[int] = None) -> "RatFunc":
        return RatFunc(LaurentPoly.const(c, prime), _canonical=False)

    @staticmethod
    def symbol(name: str, exp: int = 1, prime: Optional[int] = None) -> "RatFunc":
        return RatFunc(LaurentPoly.symbol(name, exp, prime))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def symbols(self) -> set:
        return self.num.symbols() | self.den.symbols()

    def with_prime(self, p) -> "RatFunc":
        if p == self.prime:
            return self
        return RatFunc(self.num.with_prime(p), self.den.with_prime(p))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_ratfunc(other, self.prime)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-as_ratfunc(other, self.prime))

    def __rsub__(self, other):
        return as_ratfunc(other, self.prime) - self

    def __mul__(self, other):
        other = as_ratfunc(other, self.prime)
        # cross-reduce first to keep intermediate degrees small
        a = RatFunc(self.num, other.den)
        b = RatFunc(other.num, self.den)
        return RatFunc(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * as_ratfunc(other, self.prime).inv()

    def __rtruediv__(self, other):
        return as_ratfunc(other, self.prime) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        r = RatFunc.const(1, self.prime)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, LaurentPoly, int, Fraction)):
            return NotImplemented
        other = as_ratfunc(other, self.prime)
        try:
            return (self.num * other.den) == (other.num * self.den)
        except PrimeMismatch:
            return False

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def as_ratfunc(x, prime=None) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RatFunc(x)
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x, prime)
    raise TypeError(f"cannot coerce {x!r} to RatFunc")


# -- public convenience ------------------------------------------------------


def sym(name: str, prime: Optional[int] = None) -> RatFunc:
    return RatFunc.symbol(name, prime=prime)


def symbols(names: str, prime: Optional[int] = None):
    return tuple(sym(n, prime) for n in names.replace(",", " ").split())


def ell(prime: Optional[int] = None) -> RatFunc:
    """The prime itself: the symbol l, or the concrete value."""
    if prime is None:
        return sym(L_NAME)
    return RatFunc.const(prime, prime)


def vee(prime: Optional[int] = None) -> RatFunc:
    """Formal square root of the prime."""
    return sym(V_NAME, prime)


def ell_pow(k2: int, prime: Optional[int] = None) -> RatFunc:
    """l^(k2/2): integer powers of v, so half-integer powers of the prime."""
    return RatFunc(LaurentPoly.symbol(V_NAME, k2, prime))


def ratfunc_eq(a, b) -> bool:
    return as_ratfunc(a) == as_ratfunc(b)


def substitute(f: RatFunc, bindings: Mapping[str, object]) -> RatFunc:
    """Substitute RatFunc/scalar values for symbols.

    The reserved pair is kept consistent: binding v also binds l = v^2;
    binding l alone is an error when v actually occurs.
    """
    f = as_ratfunc(f)
    binds = {k: as_ratfunc(x, f.prime) for k, x in bindings.items()}
    if V_NAME in binds:
        v2 = binds[V_NAME] ** 2
        if L_NAME in binds:
            if binds[L_NAME] != v2:
                raise ExactArithmeticError("inconsistent values for l and v")
        else:
            binds[L_NAME] = v2
        if f.prime is not None and v2 != RatFunc.const(f.prime, f.prime):
            raise ExactArithmeticError("v must square to the pinned prime")
    elif L_NAME in binds:
        if V_NAME in f.symbols():
            raise ExactArithmeticError(
                "cannot substitute l alone while v occurs; bind v")

    def eval_poly(p: LaurentPoly) -> RatFunc:
        total = RatFunc.const(0, p.prime)
        for mono, c in p.terms.items():
            t = RatFunc.const(c, p.prime)
            for s, e in mono:
                if s in binds:
                    t = t * binds[s] ** e
                else:
                    t = t * RatFunc(LaurentPoly.symbol(s, e, p.prime))
            total = total + t
        return total

    dv = eval_poly(f.den)
    if dv.is_zero():
        raise SpecializationPole("denominator vanishes at the given point")
    return eval_poly(f.num) / dv


class PowerSeries:
    """Truncated power series in one symbol with RatFunc coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[RatFunc]):
        self.var = var
        self.coeffs = tuple(as_ratfunc(c) for c in coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError("series in %s and %s" % (self.var, other.var))

    def __add__(self, other):
        self._check_var(other)
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries(self.var,
                           [self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        self._check_var(other)
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries(self.var,
                           [self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc, LaurentPoly)):
            c = as_ratfunc(other)
            return PowerSeries(self.var, [x * c for x in self.coeffs])
        self._check_var(other)
        n = min(len(self.coeffs), len(other.coeffs))
        out = [RatFunc.const(0) for _ in range(n)]
        for i in range(n):
            if self.coeffs[i].is_zero():
                continue
            for j in range(n - i):
                out[i + j] = out[i + j] + self.coeffs[i] * other.coeffs[j]
        return PowerSeries(self.var, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.var != other.var or len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __getitem__(self, i: int) -> RatFunc:
        return self.coeffs[i]

    def __repr__(self):
        return (" + ".join(f"({c!r})*{self.var}^{i}"
                           for i, c in enumerate(self.coeffs))
                + f" + O({self.var}^{len(self.coeffs)})")


def series_expand(f: RatFunc, var: str, order: int) -> PowerSeries:
    """Expand f as a power series in var up to and including var^order."""
    f = as_ratfunc(f)
    num, den = f.num, f.den
    nmin = min(num.degrees_in(var), default=0)
    dmin = min(den.degrees_in(var), default=0)
    if nmin < dmin:
        raise PoleAtOrigin(f"pole at {var}=0")
    if dmin != 0:
        # canonical forms may carry a common monomial in var; shift it out
        shift = LaurentPoly.symbol(var, -dmin, f.prime)
        num, den = num * shift, den * shift
    num_c = {d: RatFunc(num.coeff_of(var, d)) for d in num.degrees_in(var)}
    den_c = {d: RatFunc(den.coeff_of(var, d)) for d in den.degrees_in(var)}
    d0 = den_c.get(0)
    if d0 is None or d0.is_zero():
        raise PoleAtOrigin(f"pole at {var}=0")
    out = []
    for k in range(order + 1):
        acc = num_c.get(k, RatFunc.const(0, f.prime))
        for j in range(1, k + 1):
            dj = den_c.get(j)
            if dj is not None:
                acc = acc - dj * out[k - j]
        out.append(acc / d0)
    return PowerSeries(var, out)


def reconstruct_ratfunc(series: PowerSeries, den: RatFunc,
                        num_deg_bound: int) -> RatFunc:
    """Recover a rational function from a truncated series and a known
    denominator.  The product series*den must have no terms above the given
    numerator degree bound within the truncation window; otherwise this
    raises, signalling that the truncation order was too small."""
    den = as_ratfunc(den)
    dpoly = series_expand(den, series.var, series.order)
    prod = series * dpoly
    if series.order < num_deg_bound + 2:
        raise ExactArithmeticError("truncation order too small to reconstruct")
    for i in range(num_deg_bound + 1, series.order + 1):
        if not prod.coeffs[i].is_zero():
            raise ExactArithmeticError("series is not the expansion of "
                                       "a rational function with this denominator")
    x = RatFunc.symbol(series.var, prime=series.coeffs[0].prime
                       if series.coeffs else None)
    num = RatFunc.const(0)
    for i in range(min(num_deg_bound, series.order) + 1):
        num = num + prod.coeffs[i] * x ** i
    return num / den
