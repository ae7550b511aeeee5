"""Exact sparse Laurent-polynomial and rational-function arithmetic over Q.

A LaurentPoly is a sorted tuple of symbol names, a dict from packed
monomials to nonzero int coefficients and one positive int denominator,
in lowest terms, so products and sums of coefficients are integer
arithmetic.  A packed monomial is one int with a 32-bit field per name,
in names order, holding the exponent plus a bias, so the key of a
product is k1 + k2 - bias; an exponent outside [-2^30, 2^30) raises
rather than carry into the next field.  Tuples are built only for the
``terms`` view, the gcd and the coprimality images.  Two names are
reserved, ``l`` and ``v``, tied by v*v = l.  With the prime formal, l is
stored as v^2.  Pinned to a prime p, l is the rational p and v keeps
exponent 0 or 1: a product's v^2 folds to p.  ``terms`` shows sorted
(name, exp) keys with v^2 as l and Fraction coefficients; ``repr`` and
the unit normalisation read its lexicographic order.  No canonical
operand is rebuilt: only a side whose names differ from the union is
re-keyed, a constant factor scales and a one-term factor shifts, and
unused names are looked for only where one can vanish (a product adds
the least and the greatest degrees in each name, so only a name of both
sides can).

RatFunc is a reduced fraction of two LaurentPolys, canonical at the
formal prime and at a pinned one, so equality compares num and den at
compatible primes, with no re-pinning (`with_prime` pins first).  A
Laurent polynomial over 1 is canonical, so building one, or the sum or
product of two, does not reduce; nor does a product with a rational,
or with c v^k at a pinned prime, which keeps the other denominator.
Otherwise a pinned denominator is made free of v by its conjugate
(Trager's norm, SYMSAC 1976), both sides are shifted to polynomials in
Q[v, ...] and divided by their gcd, and the denominator's
lexicographically smallest term gets coefficient 1.  The
gcd is skipped where images mod a large prime q prove the pair coprime:
for each variable x_i, with the others at fixed integers, Euclid's
algorithm in F_q[x_i] finds a constant gcd and a leading coefficient in
x_i does not vanish (evaluation images, as in Brown, JACM 1971).  The
gcd that is left is sympy's, and sympy is imported there, at the first
pair that needs it, so a run that reduces no such fraction never loads
it.  A product cross-reduces each numerator against the other
denominator; with the prime formal the product of the two reduced
fractions is reduced (Henrici's rule: the ring is a UFD and the
cross-reduced factors are coprime).  With the prime pinned, folding v^2
into p can create a common factor, so that product keeps its gcd.

The reduction works on packed keys: one packed offset shifts every
name by its least exponent over both sides, one integer subtraction per
key; exponent tuples are built only for the coprimality images and the
gcd; the denominator's lead term c*m gets coefficient 1 by one pass per
side that scales by 1/c and shifts by -m.

``dot`` is a sum of products a*b with one accumulator (the method of
Monagan & Pearce for sparse polynomials, JSC 2011): where every factor
is a Laurent polynomial over 1, all term products go into one dict of
packed keys, scaled to the lcm of the pairs' denominators, and one
range check, one fold of v^2 at a pinned prime and one ``_canon`` make
the sum, with no polynomial per product or partial sum; otherwise it is
the sum of the RatFunc products.  It shares its product loop,
``_add_products``, with ``LaurentPoly.__mul__``.

series_expand splits numerator and denominator into their coefficients
in one variable, on that variable's packed field (``coeffs``), and runs
its recurrence times the inverse of the denominator's lowest
coefficient d0, formed once: with the numerator's coefficients and the
negated higher denominator coefficients multiplied by d0^-1 once, each
step is one ``dot``.  Where d0 is a monomial, a unit of the Laurent
ring, that inverse is a Laurent polynomial over 1, and so is every
coefficient, so no step reduces a fraction; otherwise ``dot`` sums the
reduced products.

``rescale`` applies name^e -> name^e v^(c e) at the formal prime, one
pass over each side's packed keys.  It is an automorphism of the
Laurent ring, so it keeps a reduced pair coprime: the reduction redoes
only the exponent shift and the unit normalisation, which the new
exponents of v can move, with no gcd and no coprimality images.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm, prod
from typing import Mapping, Optional, Union

Q = Fraction
Scalar = Union[int, Fraction]

L_NAME = "l"
V_NAME = "v"


class ExactArithmeticError(Exception):
    pass


class DivisionByZero(ExactArithmeticError):
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


# -- packed monomials: names[i] in the _W-bit field at bit _W * i ----------

_W = 32
_B = 1 << (_W - 1)      # a field holds its exponent plus _B
_M = (1 << _W) - 1


def _bias(n: int) -> int:
    """The key of the monomial 1 over n names: _B in every field."""
    return _B * (((1 << (_W * n)) - 1) // _M)


def _pack(e) -> int:
    k = 0
    for x in reversed(e):
        if not -_B // 2 <= x < _B // 2:
            raise ExactArithmeticError(f"exponent {x} out of range")
        k = (k << _W) + x + _B
    return k


def _unpack(k: int, n: int) -> tuple:
    return tuple(((k >> (_W * i)) & _M) - _B for i in range(n))


def _key(names: tuple, prime: Optional[int], k: int) -> tuple:
    """The sorted (name, exp) key of packed monomial k over names, v^2
    shown as l where the prime is formal."""
    pairs = list(zip(names, _unpack(k, len(names))))
    if prime is None and V_NAME in names:
        x = pairs.pop(names.index(V_NAME))[1]
        pairs += [(L_NAME, x // 2), (V_NAME, x % 2)]
    return tuple(sorted(pair for pair in pairs if pair[1]))


def _fold_v(names: tuple, vecs: dict, den: int, prime: Optional[int]):
    """With the prime pinned, vecs over den with every exponent of v
    brought into {0, 1} by folding v^2 into the coefficient as the
    prime; the lowest negative power of the prime moves into the
    denominator, so every coefficient stays an int."""
    if prime is None or V_NAME not in names:
        return vecs, den
    s = _W * names.index(V_NAME)
    low = min(0, *((((k >> s) & _M) - _B) // 2 for k in vecs))
    out = {}
    for k, c in vecs.items():
        q = (((k >> s) & _M) - _B) // 2
        if q:
            k -= q << (s + 1)
        if q != low:
            c *= prime ** (q - low)
        out[k] = out[k] + c if k in out else c
    return out, den * prime ** -low


def _remap(vecs: dict, src: tuple, dst: tuple) -> dict:
    """vecs re-keyed from the fields of the names src to those of dst (a
    name only src has must have exponent 0, one only dst has gets 0); the
    fields that move by one distance move under one mask and shift."""
    moves, fill = {}, _bias(len(dst))
    for i, j in ((i, dst.index(s)) for i, s in enumerate(src) if s in dst):
        moves[j - i] = moves.get(j - i, 0) | _M << (_W * i)
        fill -= _B << (_W * j)
    if len(moves) == 1 and set(src) <= set(dst):    # src moves as a block
        (d,) = moves
        return {(k << (_W * d)) + fill: c for k, c in vecs.items()}
    steps = [(m, _W * d) for d, m in moves.items()]
    return {fill + sum((k & m) << d if d >= 0 else (k & m) >> -d
                       for m, d in steps): c for k, c in vecs.items()}


def _integral(vecs: dict):
    """Rational coefficients as int numerators over their least common
    denominator."""
    den = lcm(*(c.denominator for c in vecs.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in vecs.items()}, den


def _canon(names: tuple, vecs: dict, den: int, where=None):
    """names, vecs and den in lowest terms, without the zero terms and
    the unused names among those at the indices ``where`` (all by
    default)."""
    vecs = {k: c for k, c in vecs.items() if c}
    if not vecs:
        return (), vecs, 1
    g = gcd(den, *vecs.values())
    if g != 1:
        vecs, den = {k: c // g for k, c in vecs.items()}, den // g
    k0 = next(iter(vecs))
    unused = {names[i] for i in (range(len(names)) if where is None
                                 else where)
              if (k0 >> (_W * i)) & _M == _B
              and all((k >> (_W * i)) & _M == _B for k in vecs)}
    kept = tuple(s for s in names if s not in unused)
    return (kept, _remap(vecs, names, kept), den) if unused else (
        names, vecs, den)


def _over(f: "LaurentPoly", names: tuple) -> dict:
    """f's vecs keyed over names, a superset of f's names."""
    return f.vecs if f.names == names else _remap(f.vecs, f.names, names)


def _align(a: "LaurentPoly", b: "LaurentPoly"):
    """The union of the names of a and b, both sides' vecs over it, and
    the indices of the names they share."""
    if a.names == b.names:
        return a.names, a.vecs, b.vecs, range(len(a.names))
    names = tuple(sorted(set(a.names) | set(b.names)))
    return (names, _over(a, names), _over(b, names),
            [i for i, s in enumerate(names)
             if s in a.names and s in b.names])


def _add_products(acc: dict, x: dict, y: dict, bias: int,
                  scale: int = 1) -> dict:
    """acc with scale * c1 * c2 added at k1 + k2 - bias for each term
    k1: c1 of x and k2: c2 of y, keys over the same names: the one
    product loop of the module."""
    for k1, c1 in x.items():
        k1 -= bias
        c1 *= scale
        for k2, c2 in y.items():
            k = k1 + k2
            acc[k] = acc[k] + c1 * c2 if k in acc else c1 * c2
    return acc


def _check_range(keys, bias: int) -> None:
    """Raise unless every field of every key holds an exponent in
    [-2^(W-2), 2^(W-2)): the top two bits of each field differ.  Fields
    of two keys in that range add with no carry, so a product or a
    difference of such keys is checked after it is formed."""
    if any((k ^ (k << 1)) & bias != bias for k in keys):
        raise ExactArithmeticError("exponent out of range")


def _power(b, n: int, r):
    """r * b^n for n >= 0, by repeated squaring."""
    while n:
        if n & 1:
            r = r * b
        b = b * b
        n >>= 1
    return r


class LaurentPoly:
    """Sparse Laurent polynomial on packed monomials: int coefficients
    over one positive denominator, in lowest terms."""

    __slots__ = ("names", "vecs", "den", "prime")

    def __init__(self, terms: Mapping[tuple, Scalar], prime=None):
        """Build from {((name, exp), ...): coeff}; l and v may both occur."""
        names = tuple(sorted({V_NAME if s == L_NAME else s
                              for mono in terms for s, _ in mono}))
        vecs: dict = {}
        for mono, c in terms.items():
            e = dict.fromkeys(names, 0)
            for s, x in mono:
                e[V_NAME if s == L_NAME else s] += 2 * x if s == L_NAME else x
            k = _pack(e.values())
            vecs[k] = vecs.get(k, 0) + Fraction(c)
        self.names, self.vecs, self.den = _canon(
            names, *_fold_v(names, *_integral(vecs), prime))
        self.prime = prime

    @classmethod
    def _of(cls, names: tuple, vecs: dict, den: int,
            prime) -> "LaurentPoly":
        """The polynomial with these canonical names, vecs and den."""
        out = cls.__new__(cls)
        out.names, out.vecs, out.den, out.prime = names, vecs, den, prime
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Scalar, prime: Optional[int] = None) -> "LaurentPoly":
        c = c if type(c) is int else Fraction(c)
        return LaurentPoly._of((), {0: c.numerator} if c else {},
                               c.denominator, prime)

    @staticmethod
    def symbol(name: str, exp: int = 1, prime: Optional[int] = None) -> "LaurentPoly":
        return LaurentPoly({((name, exp),): 1}, prime)

    # -- the historical view -------------------------------------------------

    @property
    def terms(self) -> dict:
        return {_key(self.names, self.prime, k): Fraction(c, self.den)
                for k, c in self.vecs.items()}

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.vecs

    def is_monomial(self) -> bool:
        return len(self.vecs) == 1

    def _is_one(self) -> bool:
        return not self.names and self.den == 1 and self.vecs.get(0) == 1

    def with_prime(self, p: Optional[int]) -> "LaurentPoly":
        p2 = _merge_prime(self.prime, p)
        if p2 == self.prime:
            return self
        return LaurentPoly._of(*_canon(self.names, *_fold_v(
            self.names, self.vecs, self.den, p2)), p2)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return LaurentPoly._of(self.names,
                               {k: -c for k, c in self.vecs.items()},
                               self.den, self.prime)

    def __add__(self, other):
        other = _as_poly(other, self.prime)
        p = _merge_prime(self.prime, other.prime)
        a, b = self.with_prime(p), other.with_prime(p)
        if not a.vecs or not b.vecs:
            return b if not a.vecs else a
        names, x, y, shared = _align(a, b)
        g = gcd(a.den, b.den)
        fx, fy = b.den // g, a.den // g     # each side over the lcm
        acc = {k: c * fx for k, c in x.items()} if fx != 1 else dict(x)
        for k, c in y.items():
            c *= fy
            acc[k] = acc[k] + c if k in acc else c
        # only a name of both sides can cancel
        return LaurentPoly._of(*_canon(names, acc, a.den * fx, shared), p)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other, self.prime))

    def __rsub__(self, other):
        return _as_poly(other, self.prime) - self

    def __mul__(self, other):
        other = _as_poly(other, self.prime)
        p = _merge_prime(self.prime, other.prime)
        a, b = self.with_prime(p), other.with_prime(p)
        if len(a.vecs) < len(b.vecs):
            a, b = b, a
        if not b.names:     # a constant: 0, or a scale of a's coefficients
            c = b.vecs.get(0, 0)
            return b if not c else a if b._is_one() else LaurentPoly._of(
                *_canon(a.names, {k: x * c for k, x in a.vecs.items()},
                        a.den * b.den, ()), p)
        names, x, y, shared = _align(a, b)
        bias = _bias(len(names))
        if len(y) == 1:     # one term: a shift of a's exponents
            ((kb, cb),) = y.items()
            kb -= bias
            acc = {k + kb: c * cb for k, c in x.items()}
        else:
            acc = _add_products({}, x, y, bias)
        _check_range(acc, bias)
        den = a.den * b.den
        if p is not None and V_NAME in a.names and V_NAME in b.names:
            acc, den = _fold_v(names, acc, den, p)
        # only a name of both sides can vanish (see the module docstring)
        return LaurentPoly._of(*_canon(names, acc, den, shared), p)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if self.is_monomial():
            ((k, c),) = self.vecs.items()
            e = _unpack(k, len(self.names))
            # (c/den)^n in lowest terms, the denominator kept positive
            a, b = (c, self.den) if n >= 0 else (
                self.den if c > 0 else -self.den, abs(c))
            power = {_pack([x * n for x in e]): a ** abs(n)}
            return LaurentPoly._of(*_canon(self.names, *_fold_v(
                self.names, power, b ** abs(n), self.prime)), self.prime)
        if n < 0:
            raise ExactArithmeticError("negative power of a non-monomial")
        return _power(self, n, LaurentPoly.const(1, self.prime))

    def __eq__(self, other):
        """Equal packed terms at compatible primes (equal, or one formal),
        with no re-pinning, so equal polynomials have equal hashes."""
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        other = _as_poly(other, self.prime)
        return (self.prime in (None, other.prime) or other.prime is None) \
            and self.names == other.names and self.den == other.den \
            and self.vecs == other.vecs

    def __hash__(self):
        """A constant hashes as the Fraction it equals."""
        if not self.names:
            return hash(Fraction(self.vecs.get(0, 0), self.den))
        return hash((self.names, self.den, frozenset(self.vecs.items())))

    # -- var-degree helpers (used by series expansion) ----------------------

    def coeffs(self, var: str) -> dict:
        """{deg: the coefficient of var^deg}, the nonzero ones, each a
        LaurentPoly free of var: the terms are split on var's packed
        field, which is dropped and the higher fields shifted down.  var
        may not be l or v, which share one field."""
        if var in (L_NAME, V_NAME):
            raise ExactArithmeticError(f"cannot split on {var}")
        if var not in self.names:
            return {0: self} if self.vecs else {}
        i = self.names.index(var)
        s, low = _W * i, (1 << (_W * i)) - 1
        split: dict = {}
        for k, c in self.vecs.items():
            split.setdefault(((k >> s) & _M) - _B, {})[
                (k & low) | (k >> (s + _W) << s)] = c
        names = self.names[:i] + self.names[i + 1:]
        return {d: LaurentPoly._of(*_canon(names, vecs, self.den), self.prime)
                for d, vecs in split.items()}

    def __repr__(self):
        parts = []
        for mono, c in sorted(self.terms.items()):
            body = "*".join(f"{s}^{e}" if e != 1 else s for s, e in mono)
            sign = "" if c == 1 else "-" if c == -1 else f"{c}*"
            parts.append(sign + body if mono else str(c))
        return " + ".join(parts).replace("+ -", "- ") or "0"


def _as_poly(x, prime=None) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x, prime)
    raise TypeError(f"cannot coerce {x!r} to LaurentPoly")


# -- gcd machinery: images over F_q, and sympy's gcd where they fail ---------

_IMAGE_PRIME = 2 ** 61 - 1  # q, the modulus of the coprimality images


def _fq_gcd_degree(f: list, g: list, q: int) -> int:
    """The degree of gcd(f, g) in F_q[x], -1 if f = g = 0; f and g are
    dense lists over [0, q), leading coefficient first.  Euclid's
    algorithm, each long division in place, in O(deg f * deg g)."""
    while True:     # strip leading zeros, and divide the longer side
        f, g = (h[next((i for i, c in enumerate(h) if c), len(h)):]
                for h in (f, g))
        if len(f) < len(g):
            f, g = g, f
        if not g:
            return len(f) - 1
        inv, n = pow(g[0], -1, q), len(f) - len(g) + 1
        for i in range(n):
            c = f[i] * inv % q
            for j in range(1, len(g)):
                f[i + j] = (f[i + j] - c * g[j]) % q
        f = f[n:]


def _coprime_images(x: dict, y: dict) -> bool:
    """True only if the polynomials x and y (exponent dicts over the same
    names, int coefficients) are coprime over Q.  For each x_i of
    positive degree on both sides, the other names are set to 11, 12,
    ... and the sides reduced mod q.  A primitive common factor h
    divides both in Z[...], and lc_i(h) divides an x_i-leading
    coefficient that does not vanish there, so deg_i h is at most that
    of the gcd of the images in F_q[x_i].  False means only that this
    proves nothing."""
    q = _IMAGE_PRIME
    point = range(11, len(next(iter(x))) + 11)
    sides = [[(e, c * prod(map(pow, point, e, repeat(q))) % q)
              for e, c in side.items()] for side in (x, y)]
    for i, a in enumerate(point):
        images = [[0] * (1 + max(e[i] for e, _ in side)) for side in sides]
        for img, side in zip(images, sides):
            for e, w in side:
                img[-1 - e[i]] += w * pow(a, -e[i], q)
        f, g = ([c % q for c in img] for img in images)
        if len(f) > 1 and len(g) > 1 and (not (f[0] or g[0]) or
                                          _fq_gcd_degree(f, g, q) > 0):
            return False
    return True


def _normalize_pair(num: LaurentPoly, den: LaurentPoly,
                    coprime: bool = False):
    """Reduce a fraction of LaurentPolys to canonical form.  A one-term
    denominator c*m is a unit of the Laurent ring, so the form is
    (num / (c*m), 1) with no gcd.  With the prime pinned, a denominator
    A + Bv is made free of v: both sides are multiplied by A - Bv, and
    the denominator becomes A^2 - pB^2.  Then every symbol is shifted by
    its least exponent over both sides, to polynomials in Q[v, ...] with
    no common monomial content, so a one-term numerator is coprime to
    the denominator; any other pair is divided by its gcd, unless the
    caller knows the pair is ``coprime`` (a formal-prime product of
    reduced fractions, see the module docstring) or ``_coprime_images``
    proves it.  The pinned form is canonical: with D free of v and num =
    A + Bv, gcd(A + Bv, D) = gcd(A, B, D) in Q[v, ...], which the gcd
    and the images decide with v a plain variable.  Once it is 1, a
    v-free E with E*num/D integral is a multiple of D (a prime power of
    D divides E*A and E*B, and one of A, B is prime to it), so two
    reduced pairs differ by a rational unit, which the last step fixes."""
    prime = _merge_prime(num.prime, den.prime)
    num, den = num.with_prime(prime), den.with_prime(prime)
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero() or den.is_monomial():
        return (num if num.is_zero() or den._is_one() else num * den ** -1,
                LaurentPoly.const(1, prime))
    if prime is not None and V_NAME in den.names:   # v to the 0 or 1
        s = _W * den.names.index(V_NAME)
        conj = LaurentPoly._of(den.names, {
            k: -c if k >> s & 1 else c for k, c in den.vecs.items()},
            den.den, prime)
        num, den = num * conj, den * conj

    names, x, y, _ = _align(num, den)
    n, bias = len(names), _bias(len(names))
    # one packed offset lowers every field by its least exponent over
    # both sides; the differences must fit a field
    off = sum(min((k >> s) & _M for side in (x, y) for k in side) << s
              for s in range(0, _W * n, _W)) - bias
    x, y = ({k - off: c for k, c in side.items()} for side in (x, y))
    _check_range((*x, *y), bias)
    sides = [(x, num.den), (y, den.den)]
    if len(x) > 1 and not coprime:
        tx, ty = ({_unpack(k, n): c for k, c in side.items()}
                  for side in (x, y))
        if not _coprime_images(tx, ty):
            sides = [({_pack(e): c for e, c in vecs.items()}, d)
                     for vecs, d in _divide_by_gcd(
                         names, [(tx, num.den), (ty, den.den)])]

    # unit normalisation: the denominator term c*m with the lex-least key
    # gets coefficient 1, both sides scaled by 1/c and shifted by -m in
    # one pass each.  A pinned denominator is free of v, so m is too, and
    # the shift keeps the exponents of v in {0, 1}
    y, d = sides[1]
    lead = min(y, key=lambda k: _key(names, prime, k))
    if prime is not None and V_NAME in names \
            and (lead >> (_W * names.index(V_NAME))) & _M != _B:
        raise ExactArithmeticError("pinned denominator not free of v")
    c, shift = y[lead], lead - bias
    scale = d if c > 0 else -d
    return tuple(LaurentPoly._of(*_canon(names, {
        k - shift: a * scale for k, a in vecs.items()}, e * abs(c)), prime)
        for vecs, e in sides)


def _divide_by_gcd(names: tuple, sides: list) -> list:
    """num and den as (exponent dict over names, denominator), both
    divided by their gcd in Q[names].  The one place that loads sympy:
    its gcd and division, read off the module so that a wrapper on them
    sees every call, with the coefficients converted at the boundary."""
    import sympy
    qq, gens = sympy.QQ, [sympy.Symbol(s) for s in names]
    fn, fd = (sympy.Poly.from_dict({e: qq(c) for e, c in vecs.items()},
                                   *gens, domain=qq) for vecs, _ in sides)
    g = sympy.gcd(fn, fd)
    if g == 1:
        return sides
    out = []
    for f, (_, d) in zip((fn, fd), sides):
        f, r = sympy.div(f, g)
        if not r.is_zero:
            raise ExactArithmeticError("gcd does not divide the pair")
        vecs, e = _integral({k: Fraction(int(c.numerator), int(c.denominator))
                             for k, c in f.as_dict(native=True).items()})
        out.append((vecs, d * e))
    return out


class RatFunc:
    """Canonically reduced fraction of LaurentPolys."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical: bool = False):
        num = _as_poly(num)
        den = _as_poly(1 if den is None else den, num.prime)
        if _canonical:
            self.num, self.den = num, den
        elif den._is_one():     # a Laurent polynomial: canonical as it is
            p = _merge_prime(num.prime, den.prime)
            self.num, self.den = num.with_prime(p), den.with_prime(p)
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

    def with_prime(self, p) -> "RatFunc":
        if p == self.prime:
            return self
        return RatFunc(self.num.with_prime(p), self.den.with_prime(p))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_ratfunc(other, self.prime)
        if self.den._is_one() and other.den._is_one():
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
        if self.den._is_one() and other.den._is_one():
            return RatFunc(self.num * other.num, _canonical=True)
        # a rational, or c v^k at a pinned prime, times a reduced N/D at
        # that prime is (u N)/D as it stands: u changes no exponent but
        # v's and a pinned D is free of v, so the least exponents over
        # both sides, and D's unit, are those of N/D, and gcd(u N, D) =
        # gcd(N, D).  Another monomial can move the least exponents, and
        # with them the term of D that the reduction scales to 1
        for u, f in ((self, other), (other, self)):
            names = u.num.names
            if u.den._is_one() and u.num.is_monomial() \
                    and _merge_prime(u.prime, f.prime) == f.prime and (
                        not names or f.prime is not None
                        and names == (V_NAME,)):
                return RatFunc(u.num * f.num, f.den, _canonical=True)
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
        if self.den._is_one() and (n >= 0 or self.num.is_monomial()):
            return RatFunc(self.num ** n, _canonical=True)
        b = self.inv() if n < 0 else self
        return _power(b, abs(n), RatFunc.const(1, self.prime))

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, LaurentPoly, int, Fraction)):
            return NotImplemented
        other = as_ratfunc(other, self.prime)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        """A value over 1 hashes as its numerator, the LaurentPoly it
        equals, and so a constant as the Fraction it equals."""
        if self.den._is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den._is_one():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def as_ratfunc(x, prime=None) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(_as_poly(x, prime))


# -- public convenience ------------------------------------------------------


def sym(name: str, prime: Optional[int] = None) -> RatFunc:
    return RatFunc.symbol(name, prime=prime)


def ell(prime: Optional[int] = None) -> RatFunc:
    """The prime itself: the symbol l, or the concrete value."""
    if prime is None:
        return sym(L_NAME)
    return RatFunc.const(prime, prime)


def ell_pow(k2: int, prime: Optional[int] = None) -> RatFunc:
    """l^(k2/2): integer powers of v, so half-integer powers of the prime."""
    return RatFunc(LaurentPoly.symbol(V_NAME, k2, prime))


def dot(pairs) -> RatFunc:
    """sum a * b over the pairs (a, b) of RatFuncs, 0 at the formal prime
    if there are none, in one accumulator (see the module docstring)."""
    pairs, prime = [(as_ratfunc(a), as_ratfunc(b)) for a, b in pairs], None
    for a, b in pairs:
        prime = _merge_prime(_merge_prime(prime, a.prime), b.prime)
    if not all(a.den._is_one() and b.den._is_one() for a, b in pairs):
        return sum((a * b for a, b in pairs), RatFunc.const(0, prime))
    polys = [(a.num.with_prime(prime), b.num.with_prime(prime))
             for a, b in pairs if a and b]
    names = tuple(sorted({s for f in chain.from_iterable(polys)
                          for s in f.names}))
    bias, den = _bias(len(names)), lcm(*(a.den * b.den for a, b in polys))
    acc: dict = {}
    for a, b in polys:
        _add_products(acc, _over(a, names), _over(b, names), bias,
                      den // (a.den * b.den))
    _check_range(acc, bias)
    if prime is not None and V_NAME in names:
        acc, den = _fold_v(names, acc, den, prime)
    return RatFunc(LaurentPoly._of(*_canon(names, acc, den), prime),
                   _canonical=True)


def rescale(f: RatFunc, shifts: Mapping[str, int]) -> RatFunc:
    """f with name^e -> name^e v^(c e) for each name: c of shifts, the
    prime formal; tau -> l^-k tau is {tau: -2k}.  The map is an
    automorphism of the Laurent ring that fixes every other name, so a
    reduced pair stays coprime (see the module docstring)."""
    f = as_ratfunc(f)
    if f.prime is not None:
        raise ExactArithmeticError("a rescaling needs the prime formal")
    if L_NAME in shifts or V_NAME in shifts:
        raise ExactArithmeticError("cannot rescale l or v")
    num, den = (_rescaled(side, shifts) for side in (f.num, f.den))
    return RatFunc(*_normalize_pair(num, den, coprime=True), _canonical=True)


def _rescaled(f: LaurentPoly, shifts: Mapping[str, int]) -> LaurentPoly:
    """The Laurent polynomial f under rescale's map, in one pass over its
    packed keys: each key gains sum(c e) in v's field, v is added to the
    names if f lacks it and dropped if it falls out of use."""
    moves = [(s, c) for s, c in shifts.items() if c and s in f.names]
    if not moves:
        return f
    names = tuple(sorted({*f.names, V_NAME}))
    fields = [(_W * names.index(s), c) for s, c in moves]
    iv = names.index(V_NAME)
    sv = _W * iv
    vecs = {}
    for k, a in _over(f, names).items():
        e = sum(c * (((k >> s) & _M) - _B) for s, c in fields)
        if not -_B // 2 <= ((k >> sv) & _M) - _B + e < _B // 2:
            raise ExactArithmeticError("exponent out of range")
        vecs[k + (e << sv)] = a
    return LaurentPoly._of(*_canon(names, vecs, f.den, (iv,)), None)


def series_expand(f: RatFunc, var: str, order: int) -> tuple:
    """The coefficients of var^0 .. var^order in the power series of f
    about var = 0, by the recurrence out[k] = (n_k - sum_j d_j
    out[k - j]) * d0^-1 on the coefficients of f's numerator and
    denominator in var (see the module docstring)."""
    f = as_ratfunc(f)
    num, den = f.num.coeffs(var), f.den.coeffs(var)
    dmin = min(den)
    if min(num, default=dmin) < dmin:
        raise PoleAtOrigin(f"pole at {var}=0")
    # canonical forms may carry a common monomial in var; shift it out
    inv = RatFunc(den.pop(dmin)).inv()
    num = {d - dmin: RatFunc(c) * inv for d, c in num.items()}
    den = {d - dmin: -RatFunc(c) * inv for d, c in den.items()}
    zero, one = RatFunc.const(0, f.prime), RatFunc.const(1, f.prime)
    out = []
    for k in range(order + 1):
        out.append(dot([(num.get(k, zero), one)] + [
            (c, out[k - j]) for j, c in den.items() if j <= k]))
    return tuple(out)
