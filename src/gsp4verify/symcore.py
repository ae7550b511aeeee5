"""Exact sparse Laurent-polynomial and rational-function arithmetic over Q.

A LaurentPoly is a sorted tuple of symbol names and a dict from exponent
vectors (one int per name, possibly negative) to nonzero coefficients:
an int where the coefficient is integral, so products of integer terms
need no rational gcd, and otherwise an element of QQ, sympy's rationals
and the domain of the gcd.  Two names are reserved, ``l`` and ``v``, tied
by v*v = l: v is a formal square root of l.  With the prime formal, l is
eliminated as v^2 when a value is built, so a product is plain addition
of exponent vectors.  A polynomial may instead be pinned to a concrete
prime p: then l is the rational p, v keeps exponent 0 or 1, and a
product's v^2 folds to p.  The ``terms`` view shows sorted (name, exp)
keys with v^2 as l and Fraction coefficients; ``repr`` and the
denominator normalisation read its lexicographic order.

RatFunc is a reduced fraction of two LaurentPolys.  Reduction shifts both
sides to polynomials in Q[v, ...], divides out their sympy gcd (with the
prime pinned, the gcd does not see v^2 = p) and normalizes the
denominator so its lexicographically smallest term has coefficient 1.
The gcd is taken only where a common factor can exist, and not where
images mod a large prime q prove the pair coprime: for each variable
x_i, with the others at fixed integers, the gcd in F_q[x_i] is constant
and a leading coefficient in x_i does not vanish (evaluation images, as
in Brown, JACM 1971).  A fraction with denominator 1 is a Laurent
polynomial and already canonical, so sums and products of two of them
are not reduced.  A product cross-reduces each numerator against the
other denominator; with the prime formal the product of those two
reduced fractions is then reduced already (Henrici's rule: the ring is a
UFD and the cross-reduced factors are coprime), so it gets the shift and
the unit normalization only.  With the prime pinned, folding v^2 into p
can create a common factor, so that product keeps its gcd.  Equality of
RatFuncs is always decided by cross-multiplication, never by evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import prod
from operator import add, sub
from typing import Iterable, Mapping, Optional, Union

import sympy
from sympy import QQ, ZZ
from sympy.polys.galoistools import gf_gcd, gf_strip

Q = Fraction
Scalar = Union[int, Fraction]
MPQ = QQ.dtype

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


def _fold_v(names: tuple, vecs: dict, prime: Optional[int]) -> dict:
    """With the prime pinned, bring every exponent of v into {0, 1} by
    folding v^2 into the coefficient as the prime."""
    if prime is None or V_NAME not in names:
        return vecs
    i = names.index(V_NAME)
    if all(0 <= e[i] <= 1 for e in vecs):
        return vecs
    p, out = MPQ(prime), {}
    for e, c in vecs.items():
        q, r = divmod(e[i], 2)
        e, c = e[:i] + (r,) + e[i + 1:], c * p ** q
        out[e] = out[e] + c if e in out else c
    return out


def _canon(names: tuple, vecs: dict):
    """names and vecs without the zero terms and the names no term uses;
    an integral coefficient is stored as an int."""
    vecs = {e: c.numerator if c.denominator == 1 else c
            for e, c in vecs.items() if c}
    used = [any(col) for col in zip(*vecs)]
    if all(used):
        return (names if vecs else ()), vecs
    return (tuple(s for s, u in zip(names, used) if u),
            {tuple(x for x, u in zip(e, used) if u): c
             for e, c in vecs.items()})


def _align(a: "LaurentPoly", b: "LaurentPoly"):
    """The union of the names of a and b, and both exponent dicts over it."""
    if a.names == b.names:
        return a.names, a.vecs, b.vecs
    names = tuple(sorted(set(a.names) | set(b.names)))
    out = [names]
    for f in (a, b):
        pos = [f.names.index(s) if s in f.names else -1 for s in names]
        out.append({tuple(e[i] if i >= 0 else 0 for i in pos): c
                    for e, c in f.vecs.items()})
    return out


class LaurentPoly:
    """Sparse Laurent polynomial with int or QQ coefficients on exponent
    vectors."""

    __slots__ = ("names", "vecs", "prime")

    def __init__(self, terms: Mapping[tuple, Scalar], prime=None):
        """Build from {((name, exp), ...): coeff}; l and v may both occur."""
        acc: dict = {}
        for mono, c in terms.items():
            d = dict(mono)
            e_v = d.pop(V_NAME, 0) + 2 * d.pop(L_NAME, 0)
            if e_v:
                d[V_NAME] = e_v
            key = tuple(sorted((s, e) for s, e in d.items() if e))
            acc[key] = acc.get(key, 0) + MPQ(c)
        names = tuple(sorted({s for key in acc for s, _ in key}))
        vecs = {tuple(dict(key).get(s, 0) for s in names): c
                for key, c in acc.items()}
        self.names, self.vecs = _canon(names, _fold_v(names, vecs, prime))
        self.prime = prime

    @classmethod
    def _of(cls, names: tuple, vecs: dict, prime) -> "LaurentPoly":
        out = cls.__new__(cls)
        out.names, out.vecs = _canon(names, vecs)
        out.prime = prime
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Scalar, prime: Optional[int] = None) -> "LaurentPoly":
        return LaurentPoly._of((), {(): MPQ(c)}, prime)

    @staticmethod
    def symbol(name: str, exp: int = 1, prime: Optional[int] = None) -> "LaurentPoly":
        return LaurentPoly({((name, exp),): 1}, prime)

    # -- the historical view -------------------------------------------------

    def _key(self, e: tuple) -> tuple:
        """The sorted (name, exp) key of exponent vector e, v^2 shown as l."""
        pairs = []
        for s, x in zip(self.names, e):
            if s == V_NAME and self.prime is None:
                pairs += [(L_NAME, x // 2), (V_NAME, x % 2)]
            else:
                pairs.append((s, x))
        return tuple(sorted(pair for pair in pairs if pair[1]))

    @property
    def terms(self) -> dict:
        return {self._key(e): Fraction(c.numerator, c.denominator)
                for e, c in self.vecs.items()}

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.vecs

    def is_monomial(self) -> bool:
        return len(self.vecs) == 1

    def is_const(self) -> bool:
        return not self.names

    def const_value(self) -> Fraction:
        if self.names:
            raise ExactArithmeticError("not a constant")
        return self.terms.get((), Q(0))

    def symbols(self) -> set:
        return {s for mono in self.terms for s, _ in mono}

    def with_prime(self, p: Optional[int]) -> "LaurentPoly":
        p2 = _merge_prime(self.prime, p)
        if p2 == self.prime:
            return self
        vecs = _fold_v(self.names, self.vecs, p2)
        return LaurentPoly._of(self.names, vecs, p2)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return LaurentPoly._of(self.names,
                               {e: -c for e, c in self.vecs.items()},
                               self.prime)

    def __add__(self, other):
        other = _as_poly(other, self.prime)
        p = _merge_prime(self.prime, other.prime)
        names, x, y = _align(self.with_prime(p), other.with_prime(p))
        acc = dict(x)
        for e, c in y.items():
            acc[e] = acc[e] + c if e in acc else c
        return LaurentPoly._of(names, acc, p)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other, self.prime))

    def __rsub__(self, other):
        return _as_poly(other, self.prime) - self

    def __mul__(self, other):
        other = _as_poly(other, self.prime)
        p = _merge_prime(self.prime, other.prime)
        names, x, y = _align(self.with_prime(p), other.with_prime(p))
        acc: dict = {}
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return LaurentPoly._of(names, _fold_v(names, acc, p), p)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if self.is_monomial():
            ((e, c),) = self.vecs.items()
            power = {tuple(x * n for x in e): MPQ(c) ** n}
            return LaurentPoly._of(
                self.names, _fold_v(self.names, power, self.prime), self.prime)
        if n < 0:
            raise ExactArithmeticError("negative power of a non-monomial")
        r = LaurentPoly.const(1, self.prime)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            other = _as_poly(other, self.prime)
        try:
            p = _merge_prime(self.prime, other.prime)
        except PrimeMismatch:
            return False
        a, b = self.with_prime(p), other.with_prime(p)
        return a.names == b.names and a.vecs == b.vecs

    def __hash__(self):
        return hash((self.names, frozenset(self.vecs.items())))

    # -- var-degree helpers (used by series expansion) ----------------------

    def degrees_in(self, var: str):
        return {dict(mono).get(var, 0) for mono in self.terms}

    def coeff_of(self, var: str, deg: int) -> "LaurentPoly":
        return LaurentPoly({tuple(m for m in mono if m[0] != var): c
                            for mono, c in self.terms.items()
                            if dict(mono).get(var, 0) == deg}, self.prime)

    def __repr__(self):
        if not self.vecs:
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


# -- gcd machinery (delegated to sympy on the shifted exponent vectors) -----

_IMAGE_PRIME = 2 ** 61 - 1  # q, the modulus of the coprimality images


def _coprime_images(x: dict, y: dict) -> bool:
    """True only if the polynomials x and y (exponent dicts over the same
    names) are coprime over Q.  For each x_i of positive degree on both
    sides, the other names are set to 11, 12, ... and the sides reduced
    mod q.  A primitive common factor h divides both in Z[...], and
    lc_i(h) divides an x_i-leading coefficient that does not vanish
    there, so deg_i h is at most that of the gcd of the images in
    F_q[x_i].  False means only that this proves nothing."""
    q = _IMAGE_PRIME
    if any(c.denominator % q == 0 for side in (x, y) for c in side.values()):
        return False
    point = range(11, len(next(iter(x))) + 11)
    sides = [[(e, c.numerator * pow(c.denominator, -1, q)
               * prod(map(pow, point, e, repeat(q))) % q)
              for e, c in side.items()] for side in (x, y)]
    for i, a in enumerate(point):
        images = [[0] * (1 + max(e[i] for e, _ in side)) for side in sides]
        for img, side in zip(images, sides):
            for e, w in side:
                img[-1 - e[i]] += w * pow(a, -e[i], q)
        f, g = ([c % q for c in img] for img in images)
        if len(f) > 1 and len(g) > 1 and (not (f[0] or g[0]) or len(
                gf_gcd(gf_strip(f), gf_strip(g), q, ZZ)) > 1):
            return False
    return True


def _normalize_pair(num: LaurentPoly, den: LaurentPoly,
                    coprime: bool = False):
    """Reduce a fraction of LaurentPolys to canonical form.

    A single-term denominator c*m is a unit of the Laurent ring, so its
    canonical form is (num / (c*m), 1) without a gcd.  Otherwise every
    symbol is shifted by its least exponent over both sides, which makes
    them polynomials in Q[v, ...] with no common monomial content, so a
    single-term numerator is already coprime to the denominator; any
    other pair is divided by its gcd, unless the caller knows the pair
    is ``coprime`` (a formal-prime product of reduced fractions, see the
    module docstring) or ``_coprime_images`` proves it.  With the prime
    pinned the gcd does not see v^2 = p."""
    prime = _merge_prime(num.prime, den.prime)
    num, den = num.with_prime(prime), den.with_prime(prime)
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return LaurentPoly.const(0, prime), LaurentPoly.const(1, prime)
    if den.is_monomial():
        if den.names or den.vecs[()] != 1:
            num = num * den ** -1
        return num, LaurentPoly.const(1, prime)

    names, x, y = _align(num, den)
    low = [min(col) for col in zip(*x, *y)]
    sides = [{tuple(map(sub, e, low)): c for e, c in side.items()}
             for side in (x, y)]
    if len(sides[0]) > 1 and not coprime and not _coprime_images(*sides):
        gens = [sympy.Symbol(s) for s in names]
        fn, fd = (sympy.Poly.from_dict(side, *gens, domain=QQ)
                  for side in sides)
        g = sympy.gcd(fn, fd)
        if g != 1:
            fn, rn = sympy.div(fn, g)
            fd, rd = sympy.div(fd, g)
            if not (rn.is_zero and rd.is_zero):
                raise ExactArithmeticError("gcd does not divide the pair")
            sides = [f.as_dict(native=True) for f in (fn, fd)]
    num2, den2 = (LaurentPoly._of(names, side, prime) for side in sides)

    # unit normalization: the denominator term with the lex-least key
    # gets coefficient 1
    lead = min(den2.vecs, key=den2._key)
    if any(lead) or den2.vecs[lead] != 1:
        unit = LaurentPoly._of(den2.names, {lead: den2.vecs[lead]}, prime)
        num2, den2 = num2 * unit ** -1, den2 * unit ** -1
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

    def _is_laurent(self) -> bool:
        return self.den.vecs == {(): 1}

    def __add__(self, other):
        other = as_ratfunc(other, self.prime)
        if self._is_laurent() and other._is_laurent():
            return RatFunc(self.num + other.num, _canonical=True)
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
        if self._is_laurent() and other._is_laurent():
            return RatFunc(self.num * other.num, _canonical=True)
        # cross-reduce first to keep intermediate degrees small; with the
        # prime formal the product of the reduced factors is reduced
        a = RatFunc(self.num, other.den)
        b = RatFunc(other.num, self.den)
        return RatFunc(*_normalize_pair(a.num * b.num, a.den * b.den,
                                        coprime=a.prime is None),
                       _canonical=True)

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
                if not other.coeffs[j].is_zero():
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
