"""p-adic machinery over exact rationals.

Everything here works with Fraction matrices, viewed inside Q_p for a fixed
prime p.  Matrix products run on integers: each factor is scaled to integer
rows over one common denominator, and each entry of the product becomes
one reduced Fraction.  Provides the 4x4 symplectic similitude group
(antidiagonal form), the GL2 x GL2 subgroup glued along the determinant,
Iwasawa decompositions with respect to the upper-triangular Borel,
open-compact membership tests, Schwartz functions on Q_p^2 with an exact
Fourier transform (values in a cyclotomic model), and left-coset
enumeration for the standard Hecke operators.
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
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def is_p_integral(x, p: int) -> bool:
    return Fraction(x).denominator % p != 0 or val(x, p) >= 0


def is_p_unit(x, p: int) -> bool:
    return val(x, p) == 0


# -- small exact matrix toolkit ----------------------------------------------

def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _integer_rows(a):
    """Integer rows r and a common denominator d with a = r / d; the
    entries of a must be int or Fraction."""
    for row in a:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"matrix entry {x!r} is not int or Fraction")
    d = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in a], d


def mat_mul(a, b):
    """Exact product of int/Fraction matrices: integer row-by-column sums
    over the product of the two common denominators, reduced once per
    entry."""
    ra, da = _integer_rows(a)
    rb, db = _integer_rows(b)
    d = da * db
    cols = list(zip(*rb))
    return tuple(tuple(Fraction(sum(map(operator.mul, r, c)), d)
                       for c in cols) for r in ra)


def vec_mat(v, a):
    """The row vector v times the matrix a, by the same integer kernel."""
    (rv,), dv = _integer_rows((v,))
    ra, da = _integer_rows(a)
    d = dv * da
    return tuple(Fraction(sum(map(operator.mul, rv, c)), d)
                 for c in zip(*ra))


def mat_t(a):
    return tuple(zip(*a))


def identity(n):
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n))
                 for i in range(n))


def mat_scalar(a, c):
    c = Fraction(c)
    return tuple(tuple(x * c for x in row) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def mat_det(a):
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


def _gauss_jordan(m, ncols):
    """Reduce the rows m (lists over Q) in place to reduced row echelon
    form on their first ncols columns; return the pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def mat_inv(a):
    n = len(a)
    m = [list(row) + [Q(1) if i == j else Q(0) for j in range(n)]
         for i, row in enumerate(a)]
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


def nullspace(rows):
    """Basis of {x : rows . x = 0}, one vector per non-pivot column."""
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = _gauss_jordan(m, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [Q(0)] * ncols
        x[fc] = Q(1)
        for i, pc in enumerate(pivots):
            x[pc] = -m[i][fc]
        basis.append(tuple(x))
    return basis


def rref_modp(rows, p: int):
    """The nonzero rows of the reduced row echelon form of rows over F_p."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m[:r]


def min_val(a, p: int):
    return min((val(x, p) for row in a for x in row), default=INF)


# -- the symplectic similitude group -----------------------------------------

J4 = mat([[0, 0, 0, 1],
          [0, 0, 1, 0],
          [0, -1, 0, 0],
          [-1, 0, 0, 0]])

JHAT = mat([[0, 1], [1, 0]])


def gsp4_multiplier(m) -> Fraction:
    """Return mu with m^T J m = mu J, or raise if m is not symplectic-up-to-
    scalar for the antidiagonal form."""
    jm = (m[3], m[2], tuple(-x for x in m[1]), tuple(-x for x in m[0]))
    g = mat_mul(mat_t(m), jm)  # J4 m is a signed reversal of the rows
    mu = g[0][3]
    if g != mat_scalar(J4, mu) or mu == 0:
        raise ValueError("matrix does not preserve the symplectic form")
    return mu


@dataclass(frozen=True)
class GSp4Elt:
    m: tuple
    mu: Fraction

    @staticmethod
    def of(rows) -> "GSp4Elt":
        m = mat(rows)
        return GSp4Elt(m, gsp4_multiplier(m))

    def __mul__(self, other: "GSp4Elt") -> "GSp4Elt":
        return GSp4Elt(mat_mul(self.m, other.m), self.mu * other.mu)

    def inv(self) -> "GSp4Elt":
        return GSp4Elt(mat_inv(self.m), 1 / self.mu)


@dataclass(frozen=True)
class HElt:
    """Pair of 2x2 matrices with equal determinant."""
    g1: tuple
    g2: tuple

    @staticmethod
    def of(g1, g2) -> "HElt":
        g1, g2 = mat(g1), mat(g2)
        if mat_det(g1) != mat_det(g2):
            raise ValueError("determinants differ")
        return HElt(g1, g2)

    def __mul__(self, other: "HElt") -> "HElt":
        return HElt(mat_mul(self.g1, other.g1), mat_mul(self.g2, other.g2))

    def inv(self) -> "HElt":
        return HElt(mat_inv(self.g1), mat_inv(self.g2))

    def embed(self) -> GSp4Elt:
        (a, b), (c, d) = self.g1
        (a2, b2), (c2, d2) = self.g2
        return GSp4Elt.of([[a, 0, 0, b],
                           [0, a2, b2, 0],
                           [0, c2, d2, 0],
                           [c, 0, 0, d]])


def sympl_pair(x, y) -> Fraction:
    """x^T J y for column 4-vectors."""
    return sum(x[i] * sum(J4[i][j] * y[j] for j in range(4)) for i in range(4))


# -- Iwasawa decompositions ---------------------------------------------------

def iwasawa_gl2(g, p: int):
    """g = b k with b upper triangular and k in GL2(Z_p).  Exact."""
    g = mat(g)
    if mat_det(g) == 0:
        raise ValueError("singular")
    c, d = g[1]
    if val(d, p) <= val(c, p):
        t = -c / d
        k1 = mat([[1, 0], [t, 1]])
    else:
        t = -d / c
        k1 = mat([[t, 1], [1, 0]])
    b = mat_mul(g, k1)
    if b[1][0] != 0:
        raise ArithmeticError("GL2 Iwasawa factor is not upper triangular")
    k = mat_inv(k1)
    if min_val(k, p) < 0 or not is_p_unit(mat_det(k), p):
        raise ArithmeticError("GL2 Iwasawa factor is not in GL2(Z_p)")
    return b, k


def _primitive(v, p: int):
    """Scale a nonzero rational vector into Z^n with p-valuation zero."""
    den = math.lcm(*(Fraction(x).denominator for x in v))
    w = [Fraction(x) * den for x in v]
    mv = min(val(x, p) for x in w if x != 0)
    scale = Fraction(p) ** (-mv)
    return tuple(x * scale for x in w)


def _solve_unit_system(rows, rhs, p: int):
    """Find an integral solution x of rows*x = rhs, using a column subset
    whose minor is a p-unit.  rows: list of 4-vectors."""
    k = len(rows)
    for cols in itertools.combinations(range(4), k):
        sub = mat([[rows[i][j] for j in cols] for i in range(k)])
        if val(mat_det(sub), p) == 0:
            sol = solve(sub, rhs)
            x = [Q(0)] * 4
            for idx, j in enumerate(cols):
                x[j] = sol[idx]
            return tuple(x)
    raise ValueError("no unit minor; vectors not saturated")


def complete_isotropic_pair(w1, w2, p: int):
    """Complete a saturated isotropic pair (w1, w2) in Z_p^4 to a basis
    (w1, w2, w3, w4) whose Gram matrix for J is exactly J."""
    if sympl_pair(w1, w2) != 0:
        raise ValueError("the pair (w1, w2) is not isotropic")
    r1 = vec_mat(w1, J4)
    r2 = vec_mat(w2, J4)
    w4 = _solve_unit_system([r1, r2], (Q(1), Q(0)), p)
    r4 = vec_mat(w4, J4)
    w3 = _solve_unit_system([r1, r2, r4], (Q(0), Q(1), Q(0)), p)
    k = mat_t(mat([w1, w2, w3, w4]))  # columns w1..w4
    if gsp4_multiplier(k) != 1 or min_val(k, p) < 0:
        raise ArithmeticError("completed basis is not in Sp4(Z_p)")
    return k


def iwasawa_gsp4(g, p: int):
    """g = b k with b in the upper-triangular Borel of GSp4(Q_p) and
    k in GSp4(Z_p).  Returns (b, k)."""
    if isinstance(g, GSp4Elt):
        g = g.m
    g = mat(g)
    mu = gsp4_multiplier(g)

    # kernel of the bottom two rows is a 2-dim isotropic subspace
    r3, r4 = g[2], g[3]
    basis = nullspace([r3, r4])
    if len(basis) != 2:
        raise ValueError("bottom rows of a similitude must be independent")
    w1 = _primitive(basis[0], p)
    i = next(i for i in range(4) if val(w1[i], p) == 0)
    w2 = _primitive(basis[1], p)
    alpha = w2[i] / w1[i]
    w2 = tuple(x - alpha * y for x, y in zip(w2, w1))
    w2 = _primitive(w2, p)
    # the kernel of the bottom rows of a similitude is isotropic
    if sympl_pair(w1, w2) != 0:
        raise ArithmeticError("kernel of the bottom rows is not isotropic")

    k1 = complete_isotropic_pair(w1, w2, p)
    g1 = mat_mul(g, k1)
    if any(g1[i][j] != 0 for i in (2, 3) for j in (0, 1)):
        raise ArithmeticError("lower-left block did not vanish")

    a_blk = mat([g1[0][:2], g1[1][:2]])
    b_a, k_a = iwasawa_gl2(a_blk, p)
    k_a_inv = mat_inv(k_a)
    n_blk = mat_mul(JHAT, mat_mul(mat_t(k_a), JHAT))
    k2 = mat([[k_a_inv[0][0], k_a_inv[0][1], 0, 0],
              [k_a_inv[1][0], k_a_inv[1][1], 0, 0],
              [0, 0, n_blk[0][0], n_blk[0][1]],
              [0, 0, n_blk[1][0], n_blk[1][1]]])
    b = mat_mul(g1, k2)
    if any(b[i][j] != 0 for i in range(4) for j in range(i)):
        raise ArithmeticError("Iwasawa failed to triangularize")
    k = mat_inv(mat_mul(k1, k2))
    if min_val(k, p) < 0 or val(gsp4_multiplier(k), p) != 0:
        raise ArithmeticError("Iwasawa factor k is not in GSp4(Z_p)")
    if b[0][0] * b[3][3] != mu or b[1][1] * b[2][2] != mu:
        raise ArithmeticError("Borel factor has the wrong multiplier")
    return b, k


# -- open-compact membership ---------------------------------------------------

@dataclass(frozen=True)
class LevelSpec:
    """Catalog of the open-compact subgroups used in the suites.

    kind:
      "G"     : GSp4(Z_p)
      "K0"    : Siegel parahoric, C = 0 mod p
      "K1det" : det = 1 mod p inside GSp4(Z_p)
      "Kmn"   : C = 0, D = 1 mod p^n and mu = 1 mod p^m
      "Kmn2"  : additionally A = 0 (off-diag), B = 1 mod p^m; C, D as above
      "princ" : g = 1 mod p^n
    """
    kind: str
    m: int = 0
    n: int = 0


def _blocks(g):
    A = (g[0][:2], g[1][:2])
    B = (g[0][2:], g[1][2:])
    C = (g[2][:2], g[3][:2])
    D = (g[2][2:], g[3][2:])
    return A, B, C, D


def _cong(mat2, target, p, k):
    if k <= 0:
        return True
    for i in range(len(mat2)):
        for j in range(len(mat2[0])):
            if val(mat2[i][j] - target[i][j], p) < k:
                return False
    return True


def in_level(g, spec: LevelSpec, p: int) -> bool:
    if isinstance(g, GSp4Elt):
        g = g.m
    if min_val(g, p) < 0:
        return False
    try:
        mu = gsp4_multiplier(g)
    except ValueError:
        return False
    if val(mu, p) != 0:
        return False
    A, B, C, D = _blocks(g)
    Z2 = ((Q(0), Q(0)), (Q(0), Q(0)))
    I2 = ((Q(1), Q(0)), (Q(0), Q(1)))
    k = spec.kind
    if k == "G":
        return True
    if k == "K0":
        return _cong(C, Z2, p, 1)
    if k == "K1det":
        return val(mat_det(g) - 1, p) >= 1
    if k == "Kmn":
        return (_cong(C, Z2, p, spec.n) and _cong(D, I2, p, spec.n)
                and val(mu - 1, p) >= spec.m)
    if k == "Kmn2":
        return (_cong(C, Z2, p, spec.n) and _cong(D, I2, p, spec.n)
                and _cong(A, I2, p, spec.m) and _cong(B, Z2, p, spec.m)
                and val(mu - 1, p) >= spec.m)
    if k == "princ":
        return _cong(g, identity(4), p, spec.n)
    raise ValueError(f"unknown level spec {spec!r}")


def in_gl2_z(g, p: int) -> bool:
    return min_val(g, p) >= 0 and val(mat_det(g), p) == 0


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
                    else:
                        r = e - phi
                        for j in range(p - 1):
                            ee = r + j * (M // p)
                            red[ee] = red.get(ee, Q(0)) - q
                coeffs = {e: q for e, q in red.items() if q != 0}
                if all(e % p == 0 for e in coeffs):
                    coeffs = {e // p: q for e, q in coeffs.items()}
                    k -= 1
                else:
                    break
            if k == 0:
                coeffs = ({0: sum(coeffs.values())}
                          if sum(coeffs.values()) != 0 else {})
                coeffs = {e: q for e, q in coeffs.items() if q != 0}
        self.k = k
        self.c = coeffs

    @staticmethod
    def rational(p: int, q) -> "Cyc":
        q = Fraction(q)
        return Cyc(p, 0, {0: q} if q else {}, reduce=False)

    @staticmethod
    def root(p: int, num: int, k: int) -> "Cyc":
        """zeta_{p^k}^num."""
        return Cyc(p, k, {num % (p ** k): Q(1)})

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
                e = e1 + e2
                out[e] = out.get(e, Q(0)) + q1 * q2
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


def e_char(x, p: int) -> Cyc:
    """Additive character e_p(x) = exp(2 pi i {x}) for x in Q with p-power
    denominator (the p-part of x mod Z is all that matters)."""
    x = Fraction(x)
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if den != 1:
        raise ValueError("denominator must be a p-power")
    M = p ** k
    num = (x.numerator * pow(x.denominator // M, -1, M)) % M if M > 1 else 0
    return Cyc.root(p, num, k)


# -- Schwartz functions on Q_p^2 -----------------------------------------------

def _padic_residue(x, p: int, M: int) -> int:
    """Residue mod M = p^k of a p-integral rational (denominator prime to p)."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError("not p-integral")
    if M == 1:
        return 0
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
        self.p, self.s, self.n = p, s, n
        self.table = table
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
        a = _padic_residue(x * p ** s, p, M)
        b = _padic_residue(y * p ** s, p, M)
        return SchwartzFn(p, s, n, {(a, b): coeff})

    @staticmethod
    def lattice_product(p: int, t1: int, t2: int) -> "SchwartzFn":
        """ch(p^t1 Z_p x p^t2 Z_p); t may be negative."""
        n = max(t1, t2)
        s = max(0, -t1, -t2)
        f = SchwartzFn.zero(p)
        M = p ** (s + n)
        table = {}
        for a in range(0, M, p ** (s + t1)):
            for b in range(0, M, p ** (s + t2)):
                table[(a, b)] = Q(1)
        return SchwartzFn(p, s, n, table)

    @staticmethod
    def unit_column(p: int, t: int) -> "SchwartzFn":
        """ch(p^t Z_p x Z_p^x): the standard depth-t test function."""
        n = max(t, 1)
        table = {}
        M = p ** n
        for a in range(0, M, p ** t):
            for b in range(M):
                if b % p != 0:
                    table[(a, b)] = Q(1)
        return SchwartzFn(p, 0, n, table)

    @staticmethod
    def depth_pair(p: int, t: int) -> "SchwartzFn":
        """ch(p^t Z_p x (1 + p^t Z_p)); for t = 0 this is ch(Z_p x Z_p)."""
        if t == 0:
            return SchwartzFn.lattice_product(p, 0, 0)
        M = p ** t
        table = {(0, 1 % M): Q(1)}
        return SchwartzFn(p, 0, t, table)

    # canonical form

    def _canonicalize(self):
        p = self.p
        self.table = {k: c for k, c in self.table.items() if c != 0}
        # merge cosets upward while possible
        while self.n > -self.s and self.table:
            M = p ** (self.s + self.n)
            Mp = M // p
            parents: dict = {}
            ok = True
            for (a, b), c in self.table.items():
                parents.setdefault((a % Mp, b % Mp), []).append(c)
            for key, vals in parents.items():
                if len(vals) != p * p or any(v != vals[0] for v in vals):
                    ok = False
                    break
            if not ok:
                break
            self.table = {k: v[0] for k, v in parents.items()}
            self.n -= 1
        while self.n > -self.s and not self.table:
            self.n -= 1
        # reduce the scale when the support allows it; keys only determine
        # residues mod p when the modulus p^(s+n) is at least p
        while self.s > 0 and self.s + self.n >= 1:
            if all(a % p == 0 and b % p == 0 for a, b in self.table):
                M2 = p ** (self.s - 1 + self.n)
                self.table = {((a // p) % M2, (b // p) % M2): c
                              for (a, b), c in self.table.items()}
                self.s -= 1
            else:
                break

    def refined(self, s2: int, n2: int) -> "SchwartzFn":
        if s2 < self.s or n2 < self.n:
            raise ValueError(f"cannot refine scale {self.s} and level "
                             f"{self.n} to {s2} and {n2}")
        p = self.p
        M_old = p ** (self.s + self.n)
        M = p ** (s2 + n2)
        sh = p ** (s2 - self.s)
        table = {}
        for (a, b), c in self.table.items():
            a0, b0 = a * sh, b * sh
            step = M_old * sh
            for da in range(0, M, step):
                for db in range(0, M, step):
                    table[((a0 + da) % M, (b0 + db) % M)] = c
        return SchwartzFn(p, s2, n2, table, canonical=True)

    def value_at(self, x, y):
        """Evaluate at a rational point, viewed inside Q_p^2."""
        p = self.p
        x, y = Fraction(x), Fraction(y)
        xs, ys = x * p ** self.s, y * p ** self.s
        if (xs != 0 and val(xs, p) < 0) or (ys != 0 and val(ys, p) < 0):
            return Q(0)
        M = p ** (self.s + self.n)
        return self.table.get((_padic_residue(xs, p, M),
                               _padic_residue(ys, p, M)), Q(0))

    def __add__(self, other):
        if self.p != other.p:
            raise ValueError(f"Schwartz functions at primes {self.p} and "
                             f"{other.p}")
        s = max(self.s, other.s)
        n = max(self.n, other.n)
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
                and self.table.keys() == other.table.keys()
                and all(self.table[k] == other.table[k]
                        for k in self.table))

    def is_zero(self):
        return not self.table

    def support_points(self):
        """Return (point, coeff) pairs; points are rational pairs."""
        p = self.p
        return [((Q(a, p ** self.s), Q(b, p ** self.s)), c)
                for (a, b), c in sorted(self.table.items())]

    def integral(self):
        """Integral against the additive Haar measure, vol(Z_p^2) = 1."""
        w = Q(1, self.p ** (2 * self.n))
        total = Q(0)
        for c in self.table.values():
            total = total + c * w
        return total

    def __repr__(self):
        pts = ", ".join(f"({x},{y}): {c}" for (x, y), c in self.support_points())
        return f"SchwartzFn(p={self.p}, level={self.n}, {{{pts}}})"


def act_schwartz(g, phi: SchwartzFn) -> SchwartzFn:
    """(g . phi)(x) = phi(x g) for row vectors x in Q_p^2."""
    p = phi.p
    g = mat(g)
    gi = mat_inv(g)
    e_fwd = max(0, -int(min_val(g, p)))
    e_bwd = max(0, -int(min_val(gi, p)))
    s2 = phi.s + e_bwd
    n2 = phi.n + e_fwd
    M = p ** (s2 + n2)
    den = Fraction(p) ** s2
    table = {}
    for a in range(M):
        for b in range(M):
            x, y = vec_mat((Q(a) / den, Q(b) / den), g)
            c = phi.value_at(x, y)
            if c != 0:
                table[(a, b)] = c
    return SchwartzFn(p, s2, n2, table)


def fourier(phi: SchwartzFn) -> SchwartzFn:
    """phi_hat(x, y) = int int e_p(x v - y u) phi(u, v) du dv, exactly."""
    p = phi.p
    terms = []
    for (u0, v0), c in phi.support_points():
        pe = max(0,
                 -int(val(u0, p)) if u0 else 0,
                 -int(val(v0, p)) if v0 else 0)
        terms.append((u0, v0, c, pe))
    if not terms:
        return SchwartzFn.zero(p)
    n = phi.n
    s_out = max(0, n)
    n_out = max(0, -n, max(t[3] for t in terms))
    M = p ** (s_out + n_out)
    den = Fraction(p) ** s_out
    w = Fraction(p) ** (-2 * n)
    table = {}
    for a in range(M):
        for b in range(M):
            x, y = Q(a) / den, Q(b) / den
            if val(x, p) < -n or val(y, p) < -n:
                continue
            tot = Q(0)
            for (u0, v0, c, _) in terms:
                ph = e_char(x * v0 - y * u0, p)
                tot = tot + c * ph * w
            if tot != 0:
                table[(a, b)] = tot
    return SchwartzFn(p, s_out, n_out, table)


# -- Weyl elements, root subgroups, coset enumeration ---------------------------

def weyl_s1():
    return mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def weyl_s2():
    return mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])


def root_unipotent(i: int, t) -> tuple:
    """Upper unipotent one-parameter subgroups, i in 0..3:
    0: short root (1,2)&(3,4); 1: long (2,3); 2: short (1,3)&(2,4);
    3: long (1,4)."""
    t = Fraction(t)
    m = [list(r) for r in identity(4)]
    if i == 0:
        m[0][1] = t
        m[2][3] = -t
    elif i == 1:
        m[1][2] = t
    elif i == 2:
        m[0][2] = t
        m[1][3] = t
    elif i == 3:
        m[0][3] = t
    else:
        raise ValueError(i)
    return mat(m)


ROOT_POSITIONS = [(0, 1), (1, 2), (0, 2), (0, 3)]


def coset_block(p: int, u, v, w) -> tuple:
    """[[p,0,u,v],[0,p,w,u],[0,0,1,0],[0,0,0,1]]: the standard coset
    matrices of the level-raising double coset and of U(p)."""
    return mat([[p, 0, u, v], [0, p, w, u], [0, 0, 1, 0], [0, 0, 0, 1]])


def hnf_key(m, p: int) -> tuple:
    """Canonical invariant of the Z_p-lattice spanned by the columns of an
    integer matrix with nonzero determinant; identifies left cosets g K.
    The Z_p-span is captured over Z by adjoining p^N Z^n, where p^N clears
    every elementary divisor."""
    n = len(m)
    N = p ** val(mat_det(mat(m)), p)
    # column vectors, including the p^N-scaled standard basis
    cols = [[int(m[r][c]) for r in range(n)] for c in range(n)]
    cols += [[N * (r == i) for r in range(n)] for i in range(n)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        # Euclid on row i across the remaining pool of columns
        while True:
            nz = [c for c in cols if c[i] != 0]
            if not nz:
                raise ValueError("singular")
            c0 = min(nz, key=lambda c: abs(c[i]))
            done = True
            for c in nz:
                if c is not c0:
                    q = c[i] // c0[i]
                    for r in range(n):
                        c[r] -= q * c0[r]
                    if c[i] != 0:
                        done = False
            if done:
                break
        cols.remove(c0)
        if c0[i] < 0:
            c0 = [-x for x in c0]
        for r in range(n):
            a[r][i] = c0[r]
    # reduce sub-diagonal entries for uniqueness (lower-triangular HNF)
    for j in range(n - 1, -1, -1):
        for i in range(j + 1, n):
            q = a[i][j] // a[i][i]
            if q:
                for r in range(n):
                    a[r][j] -= q * a[r][i]
    return tuple(tuple(row) for row in a)


def smith_vals(m, p: int):
    """p-adic elementary divisor exponents (d1 <= d2 <= ...), via minor
    valuations."""
    n = len(m)
    vs = []
    for k in range(1, n + 1):
        best = INF
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = mat([[m[i][j] for j in cols] for i in rows])
                d = mat_det(sub)
                if d:
                    best = min(best, val(d, p))
        vs.append(best)
    out = [vs[0]]
    for k in range(1, n):
        out.append(vs[k] - vs[k - 1])
    return out


def _diag_p(exps, p: int):
    return mat([[Q(p) ** exps[i] if i == j else Q(0) for j in range(4)]
                for i in range(4)])


def enumerate_double_coset(exps, p: int):
    """Left coset representatives of K a K / K for a = diag(p^exps),
    K = GSp4(Z_p).  Cosets g K correspond to the lattices g Z_p^4: two
    similitude elements with the same column lattice differ by an
    integral similitude.  We therefore take the orbit of a Z_p^4 under
    generators of K (root unipotents and similitude units; the lattice
    only depends on a generator mod p^max(exps)), keyed by the Hermite
    normal form of a basis matrix."""
    dm = _diag_p(exps, p)
    e = max(exps)
    gens = []
    for i in range(4):
        u = root_unipotent(i, 1)
        gens.append(u)
        gens.append(mat_t(u))
    for lam in range(2, p ** e):
        if lam % p:
            gens.append(mat([[1, 0, 0, 0], [0, 1, 0, 0],
                             [0, 0, lam, 0], [0, 0, 0, lam]]))
    reps = {hnf_key(dm, p): dm}
    frontier = [dm]
    while frontier:
        new = []
        for b in frontier:
            for g in gens:
                c = mat_mul(g, b)
                k = hnf_key(c, p)
                if k not in reps:
                    reps[k] = c
                    new.append(c)
        frontier = new
    return list(reps.values())


def hecke_t_reps(p: int):
    """Left coset reps for K diag(1,1,p,p) K."""
    return enumerate_double_coset((0, 0, 1, 1), p)


def hecke_t1_reps(p: int):
    """Left coset reps for K diag(1,p,p,p^2) K."""
    return enumerate_double_coset((0, 1, 1, 2), p)


def hecke_r_reps(p: int):
    return [mat_scalar(identity(4), p)]


def siegel_u_reps(p: int):
    """Left K0(p)-coset reps of the U(p) operator on Siegel-parahoric
    invariants."""
    return [coset_block(p, u, v, w)
            for u in range(p) for v in range(p) for w in range(p)]


# -- Lagrangian coset representatives ------------------------------------------

def lagrangian_subspaces(p: int):
    """All 2-dim isotropic subspaces of F_p^4, each as a canonical reduced
    row-echelon basis pair."""
    seen = set()
    out = []
    vecs = [v for v in itertools.product(range(p), repeat=4)
            if any(x for x in v)]

    def pairing(x, y):
        return (x[0] * y[3] + x[1] * y[2] - x[2] * y[1] - x[3] * y[0]) % p

    for v1 in vecs:
        for v2 in vecs:
            rows = rref_modp([v1, v2], p)
            if len(rows) < 2:
                continue
            key = tuple(map(tuple, rows))
            if key in seen:
                continue
            seen.add(key)
            if pairing(*key) == 0:
                out.append(key)
    return out


def siegel_parahoric_reps(p: int):
    """Representatives of GSp4(Z_p) / K0(p), one per Lagrangian mod p,
    realized as exact integral symplectic matrices."""
    out = []
    for rows in lagrangian_subspaces(p):
        w1 = tuple(Q(x) for x in rows[0])
        w2 = tuple(Q(x) for x in rows[1])
        pr = sympl_pair(w1, w2)
        if pr != 0 and val(pr, p) < 1:
            raise ArithmeticError("Lagrangian basis is not isotropic mod p")
        if pr != 0:
            # adjust w2 by a multiple of p to make the pair exactly isotropic
            m = pr / p
            r1 = vec_mat(w1, J4)
            # solve <w1, x> = -m integrally, set w2 += p x
            x = _solve_unit_system([r1], (Q(-m),), p)
            w2 = tuple(a + p * b for a, b in zip(w2, x))
            if sympl_pair(w1, w2) != 0:
                raise ArithmeticError("isotropic adjustment failed")
        k = complete_isotropic_pair(w1, w2, p)
        out.append(k)
    return out
