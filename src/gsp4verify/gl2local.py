"""Local theory for GL2(Q_l) with unramified characters.

Implements, in exact arithmetic:

* principal-series sections attached to Schwartz functions on Q_l^2 via a
  Tate-type zeta integral ("Siegel sections"); once normalised by
  L(chi/psi, 1)^{-1}, each value is a finite Laurent sum in
  q = (chi/psi)(l) l^{-1},
* the normalised standard intertwining operator, both as a direct
  integral and in closed form via the Fourier transform.  The direct
  integral is a finite sum: a section of phi (scale s, level n) is
  right-invariant under the principal congruence subgroup K(l^L),
  L = max(0, s + n), so each of its averages is taken at one modulus
  computed from L and the valuations of g,
* the duality pairing of a principal series against its inverse-character
  dual, computed as a finite average over P^1(Z/l^t).

Conventions.  An unramified character chi is described by its value
a = chi(l), a rational function in formal symbols; chi(x) = a^{val(x)}.
The auxiliary deformation chi |.|^s is absorbed into the character value:
since |l|^s = l^{-s}, replacing a by a*X (X a formal symbol playing the
role of l^{-s}) realises the deformed section exactly, so every formula
below is stated at the undeformed point.  The reserved symbol v is a
formal square root of l, used for the half-integer powers |.|^{1/2}.
"""

from __future__ import annotations

from fractions import Fraction

from .symcore import RatFunc, as_ratfunc, ell_pow
from .padic import Cyc, SchwartzFn, fourier, mat_mul, min_val, val

Q = Fraction


def _rat(x) -> Fraction:
    """Coerce a Schwartz-function value (Fraction or rational Cyc) to Q."""
    if isinstance(x, Cyc):
        return x.as_rational()
    return Fraction(x)


def _unit_average(phi: SchwartzFn, j: int, r) -> Fraction:
    """Average of u |-> phi(l^j u r) over the unit group, u ~ Z_l^x.

    r is a pair of rationals, not both zero.  The value is locally
    constant in u; the averaging modulus is chosen from the level of phi
    and the valuations involved, so the average is exact."""
    p = phi.p
    m = min(val(c, p) for c in r if c != 0)
    n_mod = max(1, phi.n - (j + m))
    mod = p ** n_mod
    scale = Q(p) ** j
    total = None
    count = 0
    for u in range(1, mod):
        if u % p == 0:
            continue
        value = phi.value_at(scale * u * r[0], scale * u * r[1])
        total = value if total is None else total + value
        count += 1
    # the average over the full unit group is Galois-stable, hence rational
    return _rat(total) / count


def eval_siegel(phi: SchwartzFn, a_chi, a_psi, g) -> RatFunc:
    """Value at g of the section attached to the Schwartz function phi and
    the unramified characters with l-values a_chi, a_psi:

        chi(det g) |det g|^{1/2} / L(chi/psi, 1)
            * integral over x in Q_l^x of phi((0,x) g) (chi/psi)(x)|x| d*x.

    The integral is decomposed into valuation shells j, each a finite exact
    average c_j; past the top shell every shell averages to phi(0, 0).
    With q = (chi/psi)(l) |l|, the factor (1 - q) = L(chi/psi, 1)^{-1}
    telescopes the geometric tail, so the value is the finite sum
    sum_j (c_j - c_{j-1}) q^j with c_{j_min - 1} = 0 and c_top = phi(0, 0)."""
    return _section(phi, a_chi, a_psi)(g)


def _section(phi: SchwartzFn, a_chi, a_psi):
    """The section of (phi, chi, psi) as a function g -> eval_siegel(phi,
    a_chi, a_psi, g), with q computed once for all the points."""
    p = phi.p
    a_chi = as_ratfunc(a_chi, p)
    q = (a_chi / as_ratfunc(a_psi, p)) * ell_pow(-2, p)

    def value(g) -> RatFunc:
        g = [[Fraction(x) for x in row] for row in g]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det == 0:
            raise ZeroDivisionError("g must be invertible")
        r = (g[1][0], g[1][1])
        m = min(val(c, p) for c in r if c != 0)
        j_min = -phi.s - m
        j_top = max(phi.n - m, j_min)
        shells = [_unit_average(phi, j, r) for j in range(j_min, j_top)]
        shells.append(_rat(phi.value_at(0, 0)))
        total = as_ratfunc(0, p)
        for j, c, c_prev in zip(range(j_min, j_top + 1), shells,
                                [0] + shells):
            if c != c_prev:
                total = total + as_ratfunc(c - c_prev, p) * q ** j
        d = val(det, p)
        return a_chi ** d * ell_pow(-d, p) * total
    return value


WEYL = ((0, 1), (-1, 0))


def intertwine(phi: SchwartzFn, a_chi, a_psi, g,
               mode: str = "closed") -> RatFunc:
    """The normalised intertwining operator applied to the section of
    (phi, chi, psi), evaluated at g.

    closed mode: (1 - (a_chi/a_psi) l^{-1}) * section of (phi^, psi, chi),
    valid for unramified characters.  direct mode: the unipotent integral
    L(chi/psi, 0)^{-1} * int f(w n(u) g) du over u in Z_l and the shells
    val(u) = -j.  The section f is right-invariant under K(l^L),
    L = max(0, s + n), and g^{-1} n(x) g, g^{-1} nbar(x) g lie in K(l^L)
    once val(x) >= top = L - min_val(g) - min_val(g^{-1}).  So the Z_l
    part is one average over u mod l^top, shell j < top is one average
    over units mod l^(top - j), and every shell from max(1, top) on equals
    f(g), which sums to a geometric tail."""
    p = phi.p
    a_chi = as_ratfunc(a_chi, p)
    a_psi = as_ratfunc(a_psi, p)
    one = as_ratfunc(1, p)
    if mode == "closed":
        lfac = one - (a_chi / a_psi) * ell_pow(-2, p)
        return lfac * eval_siegel(fourier(phi), a_psi, a_chi, g)
    if mode != "direct":
        raise ValueError("mode must be 'closed' or 'direct'")

    g = [[Fraction(x) for x in row] for row in g]
    f_at = _section(phi, a_chi, a_psi)
    fg = f_at(g)                      # raises unless g is invertible
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    # g^{-1} = adj(g) / det g, so min_val(g^{-1}) = min_val(g) - val(det g)
    top = max(0, phi.s + phi.n) - 2 * min_val(g, p) + val(det, p)

    def average(points):
        total = as_ratfunc(0, p)
        for h in points:
            total = total + f_at(h)
        return total * as_ratfunc(Q(1, len(points)), p)

    # integral over u in Z_l
    total = average([mat_mul(mat_mul(WEYL, ((1, Q(u)), (0, 1))), g)
                     for u in range(p ** top)])
    # shell val(u) = -j, rewritten via u -> 1/u as an integral over the
    # opposite unipotent:  S_j = a_r^j (1 - 1/l) avg_e f(nbar(l^j e) g)
    a_r = a_chi / a_psi
    unit_vol = one - as_ratfunc(Q(1, p), p)
    tail = max(1, top)
    for j in range(1, tail):
        total = total + a_r ** j * unit_vol * average([
            mat_mul(((1, 0), (Q(e * p ** j), 1)), g)
            for e in range(1, p ** (top - j)) if e % p])
    # geometric tail sum_{j >= tail} a_r^j (1 - 1/l) f(g)
    total = total + a_r ** tail / (one - a_r) * unit_vol * fg
    return (one - a_r) * total


def projective_line_reps(p: int, t: int):
    """Integral lifts of coset representatives for the lower Bruhat cells
    of GL2(Z/p^t) modulo the upper-triangular subgroup: matrices in
    GL2(Z) whose bottom rows exhaust P^1(Z/p^t)."""
    mod = p ** t
    reps = []
    for y in range(mod):
        # bottom row (1, y)
        reps.append(((0, -1), (1, y)))
    for x in range(0, mod, p):
        # bottom row (x, 1)
        reps.append(((1, 0), (x, 1)))
    return reps


def dual_pairing(sec1, sec2, t: int, p: int) -> RatFunc:
    """<f1, f2> = integral over GL2(Z_l) of f1(g) f2(g) dg, where sec_i =
    (phi_i, a_chi_i, a_psi_i) and both integrands are right-invariant at
    level t.  With unramified characters a section on GL2(Z_l) depends
    only on the line of the bottom row, so the integral is the exact
    average over P^1(Z/l^t)."""
    f1, f2 = _section(*sec1), _section(*sec2)
    reps = projective_line_reps(p, max(t, 1))
    total = as_ratfunc(0, p)
    for g in reps:
        total = total + f1(g) * f2(g)
    return total * as_ratfunc(Q(1, len(reps)), p)


def support_check(phi: SchwartzFn, a_chi, a_psi, t: int) -> bool:
    """True iff the section of (phi, chi, psi) vanishes on every Bruhat
    cell of GL2(Z_l) outside B * K0(l^t), tested on representatives of
    the projective line mod l^t."""
    p = phi.p
    if t == 0:
        return True
    mod = p ** t
    f = _section(phi, a_chi, a_psi)
    for rep in projective_line_reps(p, t):
        c, d = rep[1]
        in_k0 = (c % mod == 0)
        value = f(rep)
        if not in_k0 and value != as_ratfunc(0, p):
            return False
    return True
