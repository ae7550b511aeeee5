"""p-adic machinery over exact rationals.

Group elements are matrices over Q, viewed inside Q_p for a fixed prime
p, and carried as integer rows over one denominator (Cohen, A Course in
Computational Algebraic Number Theory, ch. 2): (r, d) with r a tuple of
int rows, d > 0 and gcd(d, entries of r) = 1, so equal matrices have
equal (r, d) and equal hashes.  One kernel each gives the product, the
similitude inverse mu^-1 J^-1 g^T J (on 2x2 matrices the adjugate), the
multiplier and the level tests, which read integrality off d and
congruences off r - d.  The public functions take and return Fraction
matrices and convert at that boundary; one Gauss-Jordan loop, over Q or
F_p, does the rest.  A Schwartz table is acted on by pulling each coset
of its support back through the integer rows of g^-1.

Provides the 4x4 symplectic similitude group (antidiagonal form), the
GL2 x GL2 subgroup glued along the determinant, Iwasawa decompositions
with respect to the upper-triangular Borel (for GSp4 by column
elimination with Weyl elements and root unipotents, no null spaces),
open-compact membership tests, Schwartz functions on Q_p^2 with an exact
Fourier transform (values in a cyclotomic model, one character sum per
point in integer exponents of one root of unity), and left-coset
representatives: the two standard Hecke double cosets as explicit upper
triangular matrices n t (a torus element t times root unipotents over
ranges read off t), GSp4(Z_p) / K0(p) as an orbit of integral generators
keyed by a plane mod p.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Q = Fraction

INF = float("inf")


def val(x: Union[int, Fraction], p: int):
    """p-adic valuation; val(0) = +inf."""
    n = x.numerator
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# -- small exact matrix toolkit: (r, d) is the matrix r / d ------------------

def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _integer_rows(a):
    """(r, d) of a matrix whose entries are int or Fraction; the least
    common denominator leaves no prime common to d and every r_ij."""
    if not all(isinstance(x, (int, Fraction)) for row in a for x in row):
        raise TypeError(f"matrix entries {a!r} are not int or Fraction")
    d = math.lcm(*(x.denominator for row in a for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in a), d


def _as_fractions(x):
    r, d = x
    return tuple(tuple(Fraction(v, d) for v in row) for row in r)


def _lowest(r, d):
    """(r, d) for the matrix r / d, r a tuple of int rows and d > 0, in
    lowest terms."""
    if d != 1:
        g = math.gcd(d, *itertools.chain.from_iterable(r))
        if g != 1:
            return tuple(tuple(v // g for v in row) for row in r), d // g
    return r, d


def _int_rows(rows):
    """(r, 1) of a matrix of ints."""
    return tuple(map(tuple, rows)), 1


def _diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n))
                 for i in range(n)), 1


def _transpose(x):
    return tuple(zip(*x[0])), x[1]


def _product(x, y):
    """x y: integer row-by-column sums over the product of the two
    denominators, reduced once."""
    (ra, da), (rb, db) = x, y
    cols = tuple(zip(*rb))
    return _lowest(tuple([tuple([sum(map(operator.mul, row, c))
                                 for c in cols]) for row in ra]), da * db)


def mat_mul(a, b):
    """Exact product of int/Fraction matrices."""
    return _as_fractions(_product(_integer_rows(a), _integer_rows(b)))


def mat_t(a):
    return tuple(zip(*a))


def identity(n):
    return _as_fractions(_diag(*[1] * n))


def mat_scalar(a, c):
    c = Fraction(c)
    return tuple(tuple(x * c for x in row) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def mat_det(a):
    # its own forward pass: on u_matrix_char_poly's upper triangular 4x4
    # RatFunc matrix it took 1.4-2.5 ms, a Jordan pass 79-88 ms (2-core VM)
    n = len(a)
    m = [list(row) for row in a]
    det = Q(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return det


def _gauss_jordan(m, ncols, p=None):
    """Reduce the rows m in place to reduced row echelon form on their
    first ncols columns; return the pivot columns.  The field is Q, or
    F_p when p is given, with m then integers reduced mod p."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        if p is not None:
            m[:] = [[x % p for x in row] for row in m]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def mat_inv(a):
    n = len(a)
    m = [list(row) + list(e) for row, e in zip(a, identity(n))]
    if len(_gauss_jordan(m, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in m)


def solve(a, rhs):
    """The solution x of a x = rhs for a square nonsingular a."""
    n = len(a)
    m = [list(row) + [b] for row, b in zip(a, rhs)]
    if len(_gauss_jordan(m, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n] for row in m)


def rref_modp(rows, p: int):
    """The nonzero rows of the reduced row echelon form of rows over F_p."""
    m = [[x % p for x in row] for row in rows]
    return m[:len(_gauss_jordan(m, len(m[0]), p))]


def min_val(a, p: int):
    return min((val(x, p) for row in a for x in row), default=INF)


# -- the symplectic similitude group -----------------------------------------

J4 = mat([[0, 0, 0, 1],
          [0, 0, 1, 0],
          [0, -1, 0, 0],
          [-1, 0, 0, 0]])


def _multiplier(r):
    """The int mu_r with r^T J r = mu_r J: on 2x2 rows the determinant,
    on 4x4 rows only for a similitude, else raise."""
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    # entries i < j of the alternating r^T J r; J r reverses r with signs
    pairs = itertools.combinations(range(4), 2)
    form = [r[0][i] * r[3][j] + r[1][i] * r[2][j]
            - r[2][i] * r[1][j] - r[3][i] * r[0][j] for i, j in pairs]
    mu_r = form[2]      # (0, 3); (1, 2) must match it, the rest vanish
    if mu_r == 0 or form != [0, 0, mu_r, mu_r, 0, 0]:
        raise ValueError("matrix does not preserve the symplectic form")
    return mu_r


def _inverse(x):
    """The similitude inverse mu^-1 J^-1 g^T J of g = r / d, the adjugate
    over the determinant on 2x2 matrices: entry (i, j) is
    s_i s_j r[n-1-j][n-1-i] d / mu_r, s_i = 1 on the top half of the
    rows and -1 below."""
    r, d = x
    mu_r = _multiplier(r)
    if mu_r == 0:
        raise ZeroDivisionError("singular matrix")
    n = len(r)
    if mu_r < 0:
        mu_r, d = -mu_r, -d
    return _lowest(tuple(tuple((d if (i < n // 2) == (j < n // 2) else -d)
                               * r[n - 1 - j][n - 1 - i] for j in range(n))
                         for i in range(n)), mu_r)


def gsp4_multiplier(m) -> Fraction:
    """Return mu with m^T J m = mu J, or raise if m is not symplectic-up-to-
    scalar for the antidiagonal form."""
    r, d = _integer_rows(m)
    return Fraction(_multiplier(r), d * d)


def gsp4_inv(g):
    """Inverse of a similitude, mu^-1 J^-1 g^T J; of a 2x2 matrix, its
    adjugate over its determinant."""
    return _as_fractions(_inverse(_integer_rows(g)))


def _embed_rows(h):
    """(r, d) of the block matrix of the pair h of 2x2 (r, d), the two
    blocks brought over one denominator; its multiplier is the common
    determinant, and the pair must have one."""
    (((a, b), (c, d)), e1), (((a2, b2), (c2, d2)), e2) = h
    e = math.lcm(e1, e2)
    f1, f2 = e // e1, e // e2
    if (a * d - b * c) * f1 * f1 != (a2 * d2 - b2 * c2) * f2 * f2:
        raise ValueError("determinants differ")
    return ((a * f1, 0, 0, b * f1), (0, a2 * f2, b2 * f2, 0),
            (0, c2 * f2, d2 * f2, 0), (c * f1, 0, 0, d * f1)), e


# -- Iwasawa decompositions ---------------------------------------------------

def iwasawa_gl2(g, p: int):
    """g = b k with b upper triangular and k in GL2(Z_p).  Exact."""
    g = mat(g)
    if mat_det(g) == 0:
        raise ValueError("singular")
    c, d = g[1]
    k1 = (mat([[1, 0], [-c / d, 1]]) if val(d, p) <= val(c, p)
          else mat([[-d / c, 1], [1, 0]]))
    b = mat_mul(g, k1)
    if b[1][0] != 0:
        raise ArithmeticError("GL2 Iwasawa factor is not upper triangular")
    k = gsp4_inv(k1)
    if not in_gl2_z(k, p):
        raise ArithmeticError("GL2 Iwasawa factor is not in GL2(Z_p)")
    return b, k


def iwasawa_gsp4(g, p: int):
    """g = b k with b in the upper-triangular Borel of GSp4(Q_p) and
    k in GSp4(Z_p).  Returns (b, k).

    Column elimination over Sp4(Z): a Weyl word brings the entry of
    least valuation in the last row to the last column, and transposed
    root unipotents clear the rest of that row; each parameter is an
    entry over the pivot, so it is p-integral.  The same two steps on
    the middle block leave the lower triangle empty, since the
    symplectic form forces the first column to (mu / b[3][3], 0, 0, 0).
    The entries of b are compared, and divided, on its integer rows."""
    b = _integer_rows(mat(g))
    mu = Fraction(_multiplier(b[0]), b[1] ** 2)
    k1 = _diag(1, 1, 1, 1)

    def right(m):
        nonlocal b, k1
        b, k1 = _product(b, m), _product(k1, m)

    # s1 moves column j to j + 1 for even j, s2 for odd j
    for j in range(min(range(4), key=lambda c: val(b[0][3][c], p)), 3):
        right(_weyl(1 if j % 2 == 0 else 2))
    # the transpose of root_unipotent(i, t) adds -sign * t times the last
    # column to column j; for i = 0, 2 it also changes column 0, which is
    # cleared last
    for i, j, sign in ((0, 2, 1), (2, 1, -1), (3, 0, -1)):
        last = b[0][3]
        if last[j]:
            right(_transpose(_root_unipotent(
                i, Fraction(sign * last[j], last[3]))))
    if val(b[0][2][1], p) < val(b[0][2][2], p):
        right(_weyl(2))
    row = b[0][2]
    if row[1]:
        right(_transpose(_root_unipotent(1, Fraction(-row[1], row[2]))))

    (r, d), k = b, _inverse(k1)
    if any(r[i][j] for i in range(4) for j in range(i)):
        raise ArithmeticError("Iwasawa failed to triangularize")
    if k[1] % p == 0 or _multiplier(k[0]) % p == 0:
        raise ArithmeticError("Iwasawa factor k is not in GSp4(Z_p)")
    if mu != Fraction(r[0][0] * r[3][3], d * d) \
            or mu != Fraction(r[1][1] * r[2][2], d * d):
        raise ArithmeticError("Borel factor has the wrong multiplier")
    return _as_fractions(b), _as_fractions(k)


# -- open-compact membership ---------------------------------------------------

@dataclass(frozen=True)
class LevelSpec:
    """Catalog of the open-compact subgroups used in the suites.

    kind:
      "G"     : GSp4(Z_p)
      "K0"    : Siegel parahoric, C = 0 mod p
      "K1det" : det = 1 mod p inside GSp4(Z_p)
      "Kmn"   : C = 0, D = 1 mod p^n and mu = 1 mod p^m
    """
    kind: str
    m: int = 0
    n: int = 0


def in_level(g, spec: LevelSpec, p: int) -> bool:
    return _in_level(_integer_rows(g), spec, p)


def _in_level(x, spec: LevelSpec, p: int) -> bool:
    """in_level on (r, d): g = r / d is integral iff p does not divide d,
    its multiplier mu_r / d^2 is then a unit iff p does not divide mu_r,
    and g = 1 mod p^e reads r = d mod p^e."""
    r, d = x
    try:
        mu = _multiplier(r)
    except ValueError:
        return False
    if d % p == 0 or mu % p == 0:
        return False

    def cong(cols, e):      # rows 2, 3 of g are those of 1 mod p^e on cols
        q = p ** e
        return all((r[i][j] - d * (i == j)) % q == 0 for i in (2, 3)
                   for j in cols)
    k = spec.kind
    if k == "G":
        return True
    if k == "K0":
        return cong((0, 1), 1)
    if k == "K1det":
        return (mu * mu - d ** 4) % p == 0      # det = mu^2 on GSp4
    if k == "Kmn":
        return cong(range(4), spec.n) and (mu - d * d) % p ** spec.m == 0
    raise ValueError(f"unknown level spec {spec!r}")


def in_gl2_z(g, p: int) -> bool:
    r, d = _integer_rows(g)
    return d % p != 0 and _multiplier(r) % p != 0


# -- cyclotomic scalars --------------------------------------------------------

class Cyc:
    """Element of Q(zeta_{p^k}), stored on the power basis of zeta."""

    __slots__ = ("p", "k", "c")

    def __init__(self, p: int, k: int, coeffs: dict, reduce: bool = True):
        self.p = p
        if reduce:
            while k > 0:
                M = p ** k
                phi = M - M // p
                red: dict = {}
                for e, q in coeffs.items():
                    e %= M
                    if e < phi:
                        red[e] = red.get(e, Q(0)) + q
                    else:       # zeta^e = -sum of zeta^(e - phi + j M/p)
                        for ee in range(e - phi, phi, M // p):
                            red[ee] = red.get(ee, Q(0)) - q
                coeffs = {e: q for e, q in red.items() if q != 0}
                if any(e % p for e in coeffs):
                    break
                coeffs = {e // p: q for e, q in coeffs.items()}
                k -= 1
            if k == 0:
                total = sum(coeffs.values())
                coeffs = {0: total} if total != 0 else {}
        self.k = k
        self.c = coeffs

    @staticmethod
    def rational(p: int, q) -> "Cyc":
        q = Fraction(q)
        return Cyc(p, 0, {0: q} if q else {}, reduce=False)

    def _lift(self, k: int) -> dict:
        step = self.p ** (k - self.k)
        return {e * step: q for e, q in self.c.items()}

    def __add__(self, other):
        other = _as_cyc(other, self.p)
        k = max(self.k, other.k)
        a, b = self._lift(k), other._lift(k)
        for e, q in b.items():
            a[e] = a.get(e, Q(0)) + q
        return Cyc(self.p, k, a)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.p, self.k, {e: -q for e, q in self.c.items()},
                   reduce=False)

    def __sub__(self, other):
        return self + (-_as_cyc(other, self.p))

    def __mul__(self, other):
        other = _as_cyc(other, self.p)
        k = max(self.k, other.k)
        a, b = self._lift(k), other._lift(k)
        out: dict = {}
        for e1, q1 in a.items():
            for e2, q2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, Q(0)) + q1 * q2
        return Cyc(self.p, k, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(self.p, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.p == other.p and self.k == other.k and self.c == other.c

    def __hash__(self):
        return hash((self.p, self.k, frozenset(self.c.items())))

    def is_zero(self):
        return not self.c

    def as_rational(self) -> Fraction:
        if self.k == 0:
            return self.c.get(0, Q(0))
        raise ValueError(f"not rational: {self!r}")

    def is_rational(self) -> bool:
        return self.k == 0

    def __repr__(self):
        if self.k == 0:
            return str(self.c.get(0, Q(0)))
        return " + ".join(f"{q}*z{self.p}^{self.k}[{e}]"
                          for e, q in sorted(self.c.items()))


def _as_cyc(x, p: int) -> Cyc:
    if isinstance(x, Cyc):
        if x.p != p:
            raise ValueError(f"cyclotomic scalars at primes {x.p} and {p}")
        return x
    return Cyc.rational(p, x)


# -- Schwartz functions on Q_p^2 -----------------------------------------------

def _padic_residue(x, p: int, M: int) -> int:
    """Residue mod M = p^k of a p-integral rational (denominator prime to p)."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError("not p-integral")
    return (x.numerator * pow(x.denominator, -1, M)) % M


class SchwartzFn:
    """Finite linear combination of indicator functions of cosets
    x0 + p^n Z_p^2, with coefficients in Q or Q(zeta_{p^k}).

    Internal form: scale s >= 0 (support inside p^{-s} Z_p^2), level n
    (constant on cosets of p^n Z_p^2), and a table keyed by integer pairs
    (a, b) mod p^{s+n} representing the point (a, b) / p^s.
    """

    __slots__ = ("p", "s", "n", "table")

    def __init__(self, p: int, s: int, n: int, table: dict,
                 canonical: bool = False):
        if s < 0 or s + n < 0:
            raise ValueError(f"invalid scale {s} and level {n}")
        self.p, self.s, self.n, self.table = p, s, n, table
        if not canonical:
            self._canonicalize()

    # construction helpers

    @staticmethod
    def zero(p: int) -> "SchwartzFn":
        return SchwartzFn(p, 0, 0, {}, canonical=True)

    @staticmethod
    def coset(p: int, x, y, n: int, coeff=Q(1)) -> "SchwartzFn":
        """coeff * ch((x, y) + p^n Z_p^2)."""
        x, y = Fraction(x), Fraction(y)
        s = max(0, -val(x, p) if x else 0, -val(y, p) if y else 0, -n)
        M = p ** (s + n)
        return SchwartzFn(p, s, n, {(_padic_residue(x * p ** s, p, M),
                                     _padic_residue(y * p ** s, p, M)): coeff})

    @staticmethod
    def lattice_product(p: int, t1: int, t2: int) -> "SchwartzFn":
        """ch(p^t1 Z_p x p^t2 Z_p); t may be negative."""
        n, s = max(t1, t2), max(0, -t1, -t2)
        M = p ** (s + n)
        return SchwartzFn(p, s, n, {(a, b): Q(1)
                                    for a in range(0, M, p ** (s + t1))
                                    for b in range(0, M, p ** (s + t2))})

    @staticmethod
    def unit_column(p: int, t: int) -> "SchwartzFn":
        """ch(p^t Z_p x Z_p^x): the standard depth-t test function."""
        n = max(t, 1)
        M = p ** n
        return SchwartzFn(p, 0, n, {(a, b): Q(1) for a in range(0, M, p ** t)
                                    for b in range(M) if b % p})

    @staticmethod
    def depth_pair(p: int, t: int) -> "SchwartzFn":
        """ch(p^t Z_p x (1 + p^t Z_p)); for t = 0 this is ch(Z_p x Z_p)."""
        if t == 0:
            return SchwartzFn.lattice_product(p, 0, 0)
        return SchwartzFn(p, 0, t, {(0, 1 % p ** t): Q(1)})

    # canonical form

    def _canonicalize(self):
        p = self.p
        self.table = {k: c for k, c in self.table.items() if c != 0}
        if not self.table:      # the zero function has one form
            self.s = self.n = 0
            return
        # merge cosets upward while possible
        while self.n > -self.s:
            Mp = p ** (self.s + self.n - 1)
            parents: dict = {}
            for (a, b), c in self.table.items():
                parents.setdefault((a % Mp, b % Mp), []).append(c)
            if any(len(vals) != p * p or any(v != vals[0] for v in vals)
                   for vals in parents.values()):
                break
            self.table = {k: v[0] for k, v in parents.items()}
            self.n -= 1
        # reduce the scale when the support allows it; keys only determine
        # residues mod p when the modulus p^(s+n) is at least p
        while self.s > 0 and self.s + self.n >= 1 and all(
                a % p == 0 and b % p == 0 for a, b in self.table):
            M2 = p ** (self.s - 1 + self.n)
            self.table = {((a // p) % M2, (b // p) % M2): c
                          for (a, b), c in self.table.items()}
            self.s -= 1

    def refined(self, s2: int, n2: int) -> "SchwartzFn":
        if s2 < self.s or n2 < self.n:
            raise ValueError(f"cannot refine scale {self.s} and level "
                             f"{self.n} to {s2} and {n2}")
        p = self.p
        M, sh = p ** (s2 + n2), p ** (s2 - self.s)
        lifts = range(0, M, p ** (self.s + self.n) * sh)
        return SchwartzFn(p, s2, n2, {
            ((a * sh + da) % M, (b * sh + db) % M): c
            for (a, b), c in self.table.items() for da in lifts
            for db in lifts}, canonical=True)

    def value_at(self, x, y):
        """Evaluate at a rational point, viewed inside Q_p^2: with the
        point (x, y) / (p^e u), u a unit, p^s times it is (x, y) /
        (p^k u), k = e - s, in the lattice of the keys iff p^k divides x
        and y (k > 0), and keyed by (x, y) p^-k / u mod p^(s+n)."""
        p, x, y = self.p, Fraction(x), Fraction(y)
        d = math.lcm(x.denominator, y.denominator)
        x, y = (z.numerator * (d // z.denominator) for z in (x, y))
        e = val(d, p)
        k, M = e - self.s, p ** (self.s + self.n)
        w, q = pow(d // p ** e, -1, M) * p ** max(0, -k), p ** max(0, k)
        if x % q or y % q:
            return Q(0)
        return self.table.get((x // q * w % M, y // q * w % M), Q(0))

    def __add__(self, other):
        if self.p != other.p:
            raise ValueError(f"Schwartz functions at primes {self.p} and "
                             f"{other.p}")
        s, n = max(self.s, other.s), max(self.n, other.n)
        a, b = self.refined(s, n), other.refined(s, n)
        table = dict(a.table)
        for k, c in b.table.items():
            table[k] = table.get(k, Q(0)) + c
        return SchwartzFn(self.p, s, n, table)

    def __sub__(self, other):
        return self + other * Q(-1)

    def __mul__(self, c):
        return SchwartzFn(self.p, self.s, self.n,
                          {k: v * c for k, v in self.table.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SchwartzFn):
            return NotImplemented
        return (self.p == other.p and self.s == other.s and self.n == other.n
                and self.table == other.table)

    def is_zero(self):
        return not self.table

    def support_points(self):
        """Return (point, coeff) pairs; points are rational pairs."""
        p = self.p
        return [((Q(a, p ** self.s), Q(b, p ** self.s)), c)
                for (a, b), c in sorted(self.table.items())]

    def __repr__(self):
        pts = ", ".join(f"({x},{y}): {c}" for (x, y), c in self.support_points())
        return f"SchwartzFn(p={self.p}, level={self.n}, {{{pts}}})"


def act_schwartz(g, phi: SchwartzFn) -> SchwartzFn:
    """(g . phi)(x) = phi(x g) for row vectors x in Q_p^2."""
    return _act(_integer_rows(mat(g)), phi)


def _act(x, phi: SchwartzFn) -> SchwartzFn:
    """act_schwartz on (r, d), visiting only the support.  With g^-1 =
    ri / (p^e u), u a unit, the result has scale s2 = s + e and level
    n2 = n + val(d); the coset (a, b) / p^s + p^n Z_p^2 of phi pulls back
    to the points (a', b') ri / (p^s2 u), (a', b') = (a, b) mod p^(s+n),
    read mod p^(s+n+k) where p^(s+n+k) Z^2 ri lies in p^(s2+n2) Z^2, and
    keyed by (a', b') ri / u mod p^(s2+n2)."""
    p = phi.p
    ((r00, r01), (r10, r11)), di = ri = _inverse(x)
    e_fwd, e_bwd = val(x[1], p), val(di, p)
    s2, n2 = phi.s + e_bwd, phi.n + e_fwd
    M = p ** (s2 + n2)
    w = pow(di // p ** e_bwd, -1, M)
    k = max(0, e_bwd + e_fwd - min(val(v, p) for row in ri[0] for v in row))
    step = p ** (phi.s + phi.n)
    lifts = range(0, step * p ** k, step)
    table = {}
    for (a, b), c in phi.table.items():
        for a1 in lifts:
            x0, y0 = (a + a1) * r00, (a + a1) * r01
            for b1 in lifts:
                table[((x0 + (b + b1) * r10) * w % M,
                       (y0 + (b + b1) * r11) * w % M)] = c
    return SchwartzFn(p, s2, n2, table)


def fourier(phi: SchwartzFn) -> SchwartzFn:
    """phi_hat(x, y) = int int e_p(x v - y u) phi(u, v) du dv, exactly.

    By Tate's thesis c ch((u, v) / p^s + p^n Z_p^2) has the transform
    c p^{-2n} e_p(x v - y u) on p^{-n} Z_p^2; at the point (a, b) / p^s_out
    that is c p^{-2n} zeta_{p^K}^{a v - b u}, K = s_out + s.  Each point adds
    the exponents, lifted to one level L with those of c, into one Cyc."""
    p, s, n = phi.p, phi.s, phi.n
    if not phi.table:
        return SchwartzFn.zero(p)
    s_out = max(0, n)
    # fine enough for the support p^-n Z_p^2 and for the characters, which
    # are constant mod the p-power that clears phi's denominators
    n_out = max(0, -n, *(s - min(val(u, p), val(v, p)) for u, v in phi.table))
    K = s_out + s
    coeffs = [_as_cyc(c, p) for c in phi.table.values()]
    L = max(K, *(c.k for c in coeffs))
    ML, step = p ** L, p ** (L - K)
    w = Fraction(p) ** (-2 * n)
    terms = [(u * step, v * step,
              [(e * p ** (L - c.k), q * w) for e, q in c.c.items()])
             for (u, v), c in zip(phi.table, coeffs)]
    M = p ** (s_out + n_out)
    stride = p ** max(0, -n)        # the points of p^{-n} Z_p^2
    table = {}
    for a in range(0, M, stride):
        for b in range(0, M, stride):
            buckets: dict = {}
            for u, v, parts in terms:
                e0 = a * v - b * u
                for e, q in parts:
                    e = (e0 + e) % ML
                    buckets[e] = buckets.get(e, 0) + q
            tot = Cyc(p, L, buckets)
            if tot.c:
                table[(a, b)] = tot
    return SchwartzFn(p, s_out, n_out, table)


# -- Weyl elements, root subgroups, coset enumeration ---------------------------

def _weyl(k: int):
    """(r, 1) of s1 (k = 1) or s2 (k = 2)."""
    return _int_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
                     if k == 1 else
                     [[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])


def weyl_s1():
    return _as_fractions(_weyl(1))


def weyl_s2():
    return _as_fractions(_weyl(2))


def _root_unipotent(i: int, t):
    """(r, d) of root_unipotent(i, t): t = n / d puts d on the diagonal
    and +-n at the entries (r, c) of the root."""
    if i not in range(4):
        raise ValueError(i)
    t = Fraction(t)
    m = [[t.denominator * (r == c) for c in range(4)] for r in range(4)]
    for r, c, sign in (((0, 1, 1), (2, 3, -1)), ((1, 2, 1),),
                       ((0, 2, 1), (1, 3, 1)), ((0, 3, 1),))[i]:
        m[r][c] = sign * t.numerator
    return tuple(map(tuple, m)), t.denominator


def root_unipotent(i: int, t) -> tuple:
    """Upper unipotent one-parameter subgroups, i in 0..3:
    0: short root (1,2)&(3,4); 1: long (2,3); 2: short (1,3)&(2,4);
    3: long (1,4)."""
    return _as_fractions(_root_unipotent(i, t))


def _coset_block(p: int, u, v, w):
    """(r, 1) of coset_block(p, u, v, w)."""
    return _int_rows([[p, 0, u, v], [0, p, w, u], [0, 0, 1, 0], [0, 0, 0, 1]])


def coset_block(p: int, u, v, w) -> tuple:
    """[[p,0,u,v],[0,p,w,u],[0,0,1,0],[0,0,0,1]]: the standard coset
    matrices of the level-raising double coset and of U(p)."""
    return _as_fractions(_coset_block(p, u, v, w))


def _unipotent_generators():
    """The root unipotents with parameter 1 and their transposes, as
    (r, 1); they generate Sp4(F_p) for every p."""
    us = [_root_unipotent(i, 1) for i in range(4)]
    return [g for u in us for g in (u, _transpose(u))]


def _orbit(start, gens, key):
    """One representative per key value of the orbit of start under left
    multiplication by gens, found breadth first, all as (r, d); the key
    must be constant on the cosets that the orbit is taken modulo."""
    reps = {key(start): start}
    frontier = [start]
    while frontier:     # each new c is recorded before the next is keyed
        frontier = [reps.setdefault(k, c) for b in frontier for g in gens
                    for c in [_product(g, b)] for k in [key(c)]
                    if k not in reps]
    return list(reps.values())


def enumerate_double_coset(exps, p: int):
    """Left coset representatives of K a K / K for a = diag(p^exps),
    K = GSp4(Z_p), as upper triangular matrices, for the Hecke types
    exps = (0, 0, 1, 1) of T and (0, 1, 1, 2) of T1.

    Every coset g K holds some b = n t with t = diag(p^d), d = (d0, d1,
    k - d1, k - d0), k = exps[0] + exps[3], and n the product over i of
    root_unipotent(i, u_i); b and b' = n' t lie in one coset iff
    n^-1 n' lies in t N(Z_p) t^-1, so the u_i of root i, with entries
    (r, j), are read modulo p^(d_r - d_j).  The torus types d are the
    Weyl orbit of exps, plus d = (1, 1, 1, 1) for T1.  Each u_i lies in
    p^-a Z, with a the least d_j over the columns of its entries, which
    makes its own terms of b integral; on a Weyl-orbit type this range
    gives exactly the cosets of K a K, except that a long root with
    d_r = d_j needs a = 0 (a unit entry there gives the elementary
    divisors of diag(1, 1, p^2, p^2)).  On the central type b = p n is
    kept iff it is integral and of rank 1 mod p.  The counts per type are
    the table gsp4local.HECKE_TYPES, which the Hecke eigenvalues sum over
    at every prime; this enumeration is its oracle at pinned primes."""
    exps = tuple(exps)
    if exps not in ((0, 0, 1, 1), (0, 1, 1, 2)):
        raise ValueError(f"no coset representatives for exponents {exps}")
    k = exps[0] + exps[3]
    reps = []
    for d0, d1 in itertools.product(range(k + 1), repeat=2):
        d = (d0, d1, k - d1, k - d0)
        in_orbit = sorted(d) == list(exps)
        if not in_orbit and d != (1, 1, 1, 1):
            continue
        # n t for every choice of the u_i, built from the right
        bs = [_diag(*(p ** x for x in d))]
        for i in (3, 2, 1, 0):
            entries = [(r, j) for r, row in enumerate(_root_unipotent(i, 1)[0])
                       for j in range(r + 1, 4) if row[j]]
            r, j = entries[0]
            a = min(d[c] for _, c in entries)
            if in_orbit and len(entries) == 1 and d[r] == d[j]:
                a = 0
            us = [_root_unipotent(i, Fraction(m, p ** a))
                  for m in range(p ** (a + d[r] - d[j]))]
            bs = [_product(u, b) for u in us for b in bs]
        if not in_orbit:    # integral, and of rank 1 mod p
            bs = [b for b in bs
                  if b[1] % p and len(rref_modp(b[0], p)) == 1]
        reps += bs
    return [_as_fractions(x) for x in reps]


def siegel_u_reps(p: int):
    """Left K0(p)-coset reps of the U(p) operator on Siegel-parahoric
    invariants."""
    return [coset_block(p, *b) for b in itertools.product(range(p), repeat=3)]


def siegel_parahoric_reps(p: int):
    """Representatives k of GSp4(Z_p) / K0(p), as an orbit of integral
    symplectic matrices: k K0(p) is determined by the plane spanned by
    the first two columns of k mod p, keyed by its echelon form."""
    def plane(x):       # x = (r, 1): the generators are integral
        cols = [[x[0][r][c] for r in range(4)] for c in (0, 1)]
        return tuple(map(tuple, rref_modp(cols, p)))
    return [_as_fractions(x) for x in
            _orbit(_diag(1, 1, 1, 1), _unipotent_generators(), plane)]
