"""Unramified principal series of GSp4(Q_l).

Exact-arithmetic implementation of:

* the degree-4 (spin) local L-factor with parameters {c, c*alpha, c*beta,
  c*alpha*beta},
* evaluation of vectors in an unramified principal series, either
  spherical or invariant under the Siegel parahoric, via the Iwasawa
  decomposition and the Borel transformation law,
* spherical Hecke eigenvalues for the three standard double cosets, as
  sums over the torus types of their left cosets of the Borel factor
  times the number of cosets of that type, a polynomial in the prime
  (HECKE_TYPES: no matrix is built), and the degree-4 Hecke polynomial
  identity, at a pinned or at the formal prime,
* the 4x4 matrix of the parahoric U-operator on the Siegel-parahoric
  invariants, by one Iwasawa step per (cell, coset), and its
  characteristic polynomial.

Satake parameters are carried as formal symbols, pinned to a concrete
prime or with the prime formal (p = None); the reserved symbol v is the
formal square root of the prime, carrying the half-integer modulus
exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symcore import RatFunc, as_ratfunc, ell, ell_pow, sym
from .padic import (_padic_residue, gsp4_multiplier, identity, iwasawa_gsp4,
                    mat_det, mat_mul, rref_modp, siegel_u_reps, val, weyl_s1,
                    weyl_s2)


@dataclass(frozen=True)
class PrincipalSeriesG:
    """Unramified principal-series datum: alpha, beta are the values of
    the two first torus characters at the prime, c the value of the
    similitude character."""
    p: int
    alpha: RatFunc
    beta: RatFunc
    c: RatFunc

    @staticmethod
    def formal(p: int) -> "PrincipalSeriesG":
        return PrincipalSeriesG(p, sym("alpha", p), sym("beta", p),
                                sym("c", p))

    def spin_params(self):
        return (self.c, self.c * self.alpha, self.c * self.beta,
                self.c * self.alpha * self.beta)

    def central_character(self) -> RatFunc:
        return self.alpha * self.beta * self.c ** 2


def _borel(sigma: PrincipalSeriesG, a: int, b: int, c: int) -> RatFunc:
    """Transformation factor of the principal series on an upper
    triangular similitude element with diagonal (x, y, z/y, z/x), given
    the valuations a, b, c of x, y and z:
    |x^2 y| / |z|^{3/2} * chi1(x) chi2(y) rho(z)."""
    return (ell_pow(3 * c - 2 * (2 * a + b), sigma.p) * sigma.alpha ** a
            * sigma.beta ** b * sigma.c ** c)


def borel_factor(sigma: PrincipalSeriesG, b) -> RatFunc:
    """The Borel factor of the upper triangular similitude matrix b."""
    p = sigma.p
    return _borel(sigma, val(b[0][0], p), val(b[1][1], p),
                  val(gsp4_multiplier(b), p))


# -- cells of the Siegel-parahoric quotient -------------------------------------

def cell_of(k, p: int):
    """Invariant of the Borel orbit of the reduction mod p of the plane
    spanned by the first two columns of k: the intersection dimensions
    with the standard partial flag."""
    # coordinates reversed: the rank of the projection onto the last j
    # coordinates is the number of pivots among the first j columns
    cols = [[_padic_residue(k[r][c], p, p) for r in (3, 2, 1, 0)]
            for c in (0, 1)]
    pivots = [row.index(1) for row in rref_modp(cols, p)]
    # dimension of span(cols) intersect span(e_1..e_i): 2 minus the rank
    # of the projection onto the last 4-i coordinates
    return tuple(2 - sum(j < 4 - i for j in pivots) for i in (1, 2, 3))


def parahoric_cell_reps():
    """Representatives of the four (Borel, Siegel-parahoric) cells in the
    integral points, as Weyl elements."""
    e = identity(4)
    s1, s2 = weyl_s1(), weyl_s2()
    return [e, s2, mat_mul(s1, s2), mat_mul(s2, mat_mul(s1, s2))]


@dataclass(frozen=True)
class InducedVectorG:
    """Right parahoric- (or hyperspecial-) invariant vector in a
    principal series, stored as one value per Borel-parahoric cell.
    For the spherical vector there is a single cell."""
    sigma: PrincipalSeriesG
    values: tuple  # pairs (cell invariant, RatFunc)

    @staticmethod
    def spherical(sigma: PrincipalSeriesG) -> "InducedVectorG":
        cells = {cell_of(r, sigma.p) for r in parahoric_cell_reps()}
        one = as_ratfunc(1, sigma.p)
        return InducedVectorG(sigma, tuple((c, one) for c in sorted(cells)))

    @staticmethod
    def parahoric_basis(sigma: PrincipalSeriesG):
        """The four indicator vectors of the Siegel-parahoric cells."""
        one = as_ratfunc(1, sigma.p)
        zero = as_ratfunc(0, sigma.p)
        cells = sorted(cell_of(r, sigma.p) for r in parahoric_cell_reps())
        if len(set(cells)) != 4:
            raise ArithmeticError("parahoric cells are not distinct")
        out = []
        for c0 in cells:
            out.append(InducedVectorG(
                sigma, tuple((c, one if c == c0 else zero) for c in cells)))
        return out

    def cell_value(self, cell) -> RatFunc:
        for c, x in self.values:
            if c == cell:
                return x
        raise KeyError(cell)


def eval_induced(f: InducedVectorG, g) -> RatFunc:
    """Value of f at g: Iwasawa-decompose g = b k, multiply the stored
    value on the cell of k by the Borel factor of b."""
    sigma = f.sigma
    b, k = iwasawa_gsp4(g, sigma.p)
    return borel_factor(sigma, b) * f.cell_value(cell_of(k, sigma.p))


# -- spherical Hecke operators ---------------------------------------------------

#: The left cosets of each spherical Hecke double coset K a K, by torus
#: type: every coset holds an upper triangular n t, t = diag(l^d), and the
#: type d (the valuations of the diagonal of n t) maps to the number of
#: cosets of that type, a polynomial in l (Roberts & Schmidt, Local
#: Newforms for GSp(4), LNM 1918, section 6.1).  On a Weyl-orbit type the
#: count is the product of the root ranges l^(a + d_r - d_j) that
#: padic.enumerate_double_coset loops over; the central type of T1 counts
#: the l^2 - 1 symmetric rank-1 2x2 matrices over F_l.
HECKE_TYPES = {
    "T": {(0, 0, 1, 1): lambda l: 1, (0, 1, 0, 1): lambda l: l,
          (1, 0, 1, 0): lambda l: l ** 2, (1, 1, 0, 0): lambda l: l ** 3},
    "T1": {(0, 1, 1, 2): lambda l: 1, (1, 0, 2, 1): lambda l: l,
           (1, 1, 1, 1): lambda l: l ** 2 - 1,
           (1, 2, 0, 1): lambda l: l ** 3, (2, 1, 1, 0): lambda l: l ** 4},
    "R": {(1, 1, 1, 1): lambda l: 1},
}


def hecke_eigenvalue(op: str, sigma: PrincipalSeriesG) -> RatFunc:
    """Eigenvalue of the spherical Hecke operator op on the spherical
    vector: its sum over the left cosets n t K.  The spherical vector is
    1 on GSp4(Z_l), so each coset contributes the Borel factor of its
    type d, and the sum is taken over HECKE_TYPES[op], each factor times
    the count of its type, at a pinned or at the formal prime."""
    lp = ell(sigma.p)
    total = as_ratfunc(0, sigma.p)
    for d, count in HECKE_TYPES[op].items():
        total = total + count(lp) * _borel(sigma, d[0], d[1], d[0] + d[3])
    return total


def hecke_polynomial(sigma: PrincipalSeriesG, x: RatFunc) -> RatFunc:
    """The degree-4 Hecke polynomial evaluated on the computed spherical
    eigenvalues: 1 - T x + l (T1 + (l^2+1) R) x^2 - l^3 T R x^3
    + l^6 R^2 x^4."""
    lp = ell(sigma.p)
    t = hecke_eigenvalue("T", sigma)
    t1 = hecke_eigenvalue("T1", sigma)
    r = hecke_eigenvalue("R", sigma)
    return (1 - t * x + lp * (t1 + (lp ** 2 + 1) * r) * x ** 2
            - lp ** 3 * t * r * x ** 3 + lp ** 6 * r * r * x ** 4)


def spin_reciprocal(sigma: PrincipalSeriesG, x: RatFunc) -> RatFunc:
    """prod over gamma in {c, ca, cb, cab} of (1 - gamma v^3 x): the
    reciprocal of the spin L-factor at a 3/2-shift."""
    p = sigma.p
    one = as_ratfunc(1, p)
    y = ell_pow(3, p) * x
    out = one
    for gamma in sigma.spin_params():
        out = out * (one - gamma * y)
    return out


def hecke_poly_check(sigma: PrincipalSeriesG, perturb=0):
    """Compare the Hecke polynomial at the computed eigenvalues with the
    reciprocal spin factor.  Returns (ok, lhs, rhs)."""
    p = sigma.p
    x = sym("X", p)
    lhs = hecke_polynomial(sigma, x) + as_ratfunc(perturb, p) * x
    rhs = spin_reciprocal(sigma, x)
    return lhs == rhs, lhs, rhs


# -- the parahoric U-operator ----------------------------------------------------

def parahoric_u_matrix(sigma: PrincipalSeriesG):
    """Matrix of the U-operator x -> sum_{u,v,w mod l} n(u,v,w) d x on
    the 4-dimensional Siegel-parahoric invariants, in the cell-indicator
    basis (rows index output cells): entry (r, c) sums the Borel factor
    of b over the cosets with r n(u,v,w) d = b k and k in cell c."""
    p = sigma.p
    reps = sorted(parahoric_cell_reps(), key=lambda r: cell_of(r, p))
    cells = [cell_of(r, p) for r in reps]
    mat_out = [[as_ratfunc(0, p)] * 4 for _ in reps]
    for row, r in zip(mat_out, reps):
        for cs in siegel_u_reps(p):
            b, k = iwasawa_gsp4(mat_mul(r, cs), p)
            c = cells.index(cell_of(k, p))
            row[c] = row[c] + borel_factor(sigma, b)
    return mat_out


def u_matrix_char_poly(sigma: PrincipalSeriesG, x: RatFunc) -> RatFunc:
    """det(1 - U x) on the parahoric invariants, expanded exactly."""
    p = sigma.p
    u = parahoric_u_matrix(sigma)
    one = as_ratfunc(1, p)
    m = [[(one if i == j else as_ratfunc(0, p)) - u[i][j] * x
          for j in range(4)] for i in range(4)]
    return mat_det(m)
