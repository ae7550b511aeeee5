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

A section value is first a character-free table {(d, j): c} of the
coefficients of a_chi^d l^{-d/2} q^j, its shell averages read off phi's
table at integer residues, and a table is evaluated by one symcore.dot
of its rational coefficients with those monomials.  A sum over points
adds the tables and is evaluated once: the direct intertwining integral
puts its Z_l average and every shell below the geometric tail into one
table, a_r = l q moving a shell's q^i to q^(i+j) with the scale
l^j (1 - 1/l), and the duality pairing adds the products of the two
tables, keyed by both keys, and evaluates them once.

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

from .symcore import RatFunc, as_ratfunc, dot, ell_pow
from .padic import (Cyc, SchwartzFn, _padic_residue, fourier, mat_mul,
                    min_val, val)

Q = Fraction


def _rat(x) -> Fraction:
    """Coerce a Schwartz-function value (Fraction or rational Cyc) to Q."""
    if isinstance(x, Cyc):
        return x.as_rational()
    return Fraction(x)


def _unit_average(phi: SchwartzFn, j: int, r) -> Fraction:
    """Average of u |-> phi(l^j u r) over the unit group, u ~ Z_l^x.

    r is a pair of rationals, not both zero.  Unless l^{j+s} r is
    l-integral the points lie outside the support l^{-s} Z_l^2 and the
    average is 0; else the value at u is phi's table entry at u times the
    residues of l^{j+s} r mod l^{s+n}, taken once.  It is locally constant
    in u, and the averaging modulus comes from the level of phi and the
    valuations, so the average is exact."""
    p = phi.p
    m = min(val(c, p) for c in r if c != 0)
    if j + phi.s + m < 0:
        return Q(0)
    M = p ** (phi.s + phi.n)
    a, b = (_padic_residue(Q(p) ** (j + phi.s) * c, p, M) for c in r)
    mod = p ** max(1, phi.n - (j + m))
    total = None
    for u in range(1, mod):
        if u % p:
            value = phi.table.get((u * a % M, u * b % M), Q(0))
            total = value if total is None else total + value
    # the average over the full unit group is Galois-stable, hence rational
    return _rat(total) / (mod - mod // p)


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
    return _characters(a_chi, a_psi, phi.p)(_section_terms(phi, g))


def _section_terms(phi: SchwartzFn, g, terms=None, weight=1,
                   shift: int = 0) -> dict:
    """The value of eval_siegel(phi, a_chi, a_psi, g) free of the
    characters: adds weight * c to terms[(d, j + shift)] for each
    coefficient c of a_chi^d l^{-d/2} q^j, and returns terms (a new dict
    by default)."""
    terms = {} if terms is None else terms
    p = phi.p
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
    d = val(det, p)
    for j, c, c_prev in zip(range(j_min + shift, j_top + shift + 1), shells,
                            [0] + shells):
        if c != c_prev:
            terms[d, j] = terms.get((d, j), 0) + weight * (c - c_prev)
    return terms


def _monomials(a_chi, a_psi, p: int):
    """The map (d, j) -> a_chi^d l^{-d/2} q^j, q = (a_chi / a_psi) l^{-1}.
    Each monomial is built once, on first use, in a dict local to this
    call."""
    a_chi = as_ratfunc(a_chi, p)
    q = (a_chi / as_ratfunc(a_psi, p)) * ell_pow(-2, p)
    monomials = {}

    def monomial(key) -> RatFunc:
        if key not in monomials:
            d, j = key
            monomials[key] = a_chi ** d * ell_pow(-d, p) * q ** j
        return monomials[key]
    return monomial


def _characters(a_chi, a_psi, p: int):
    """The map {(d, j): c} -> sum of c a_chi^d l^{-d/2} q^j, which turns
    _section_terms into section values (see the module docstring)."""
    monomial = _monomials(a_chi, a_psi, p)

    def value(terms) -> RatFunc:
        if not terms:
            return as_ratfunc(0, p)
        return dot([(as_ratfunc(c, p), monomial(key))
                    for key, c in terms.items()])
    return value


WEYL = ((0, 1), (-1, 0))


def intertwine(phi: SchwartzFn, a_chi, a_psi, g,
               mode: str = "closed") -> RatFunc:
    """The normalised intertwining operator applied to the section of
    (phi, chi, psi), evaluated at g.

    closed mode: (1 - (a_chi/a_psi) l^{-1}) * section of (phi^, psi, chi),
    valid for unramified characters (intertwine_closed, given phi^).
    direct mode: the unipotent integral
    L(chi/psi, 0)^{-1} * int f(w n(u) g) du over u in Z_l and the shells
    val(u) = -j.  The section f is right-invariant under K(l^L),
    L = max(0, s + n), and g^{-1} n(x) g, g^{-1} nbar(x) g lie in K(l^L)
    once val(x) >= top = L - min_val(g) - min_val(g^{-1}).  So the Z_l
    part is one average over u mod l^top, shell j < top is one average
    over units mod l^(top - j), and every shell from max(1, top) on equals
    f(g), which sums to a geometric tail."""
    if mode == "closed":
        return intertwine_closed(fourier(phi), a_chi, a_psi, g)
    if mode != "direct":
        raise ValueError("mode must be 'closed' or 'direct'")
    p = phi.p
    a_chi = as_ratfunc(a_chi, p)
    a_psi = as_ratfunc(a_psi, p)
    one = as_ratfunc(1, p)

    g = [[Fraction(x) for x in row] for row in g]
    fg = _section_terms(phi, g)    # raises unless g is invertible
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    # g^{-1} = adj(g) / det g, so min_val(g^{-1}) = min_val(g) - val(det g)
    top = max(0, phi.s + phi.n) - 2 * min_val(g, p) + val(det, p)
    tail = max(1, top)
    unit_vol = 1 - Q(1, p)
    terms = {}

    def average(points, weight, shift):
        weight /= len(points)
        for h in points:
            _section_terms(phi, h, terms, weight, shift)

    # the integral over u in Z_l, then the shells val(u) = -j below the
    # tail, each rewritten via u -> 1/u as an integral over the opposite
    # unipotent: S_j = a_r^j (1 - 1/l) avg_e f(nbar(l^j e) g), all in
    # one table
    average([mat_mul(mat_mul(WEYL, ((1, Q(u)), (0, 1))), g)
             for u in range(p ** top)], Q(1), 0)
    for j in range(1, tail):
        average([mat_mul(((1, 0), (Q(e * p ** j), 1)), g)
                 for e in range(1, p ** (top - j)) if e % p],
                p ** j * unit_vol, j)
    # the geometric tail sum_{j >= tail} a_r^j (1 - 1/l) f(g), one fraction
    # a_r^tail (1 - 1/l) f(g) / (1 - a_r), f(g)'s table moved the same way
    value = _characters(a_chi, a_psi, p)
    tail_num = value({(d, j + tail): p ** tail * unit_vol * c
                      for (d, j), c in fg.items()})
    den = one - a_chi / a_psi
    total = value(terms) + RatFunc(tail_num.num * den.den,
                                   tail_num.den * den.num)
    return den * total


def intertwine_closed(phi_hat: SchwartzFn, a_chi, a_psi, g) -> RatFunc:
    """intertwine(phi, a_chi, a_psi, g, "closed") given phi_hat, the
    Fourier transform of phi."""
    p = phi_hat.p
    a_chi, a_psi = as_ratfunc(a_chi, p), as_ratfunc(a_psi, p)
    lfac = as_ratfunc(1, p) - (a_chi / a_psi) * ell_pow(-2, p)
    return lfac * eval_siegel(phi_hat, a_psi, a_chi, g)


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
    (phi1, *chars1), (phi2, *chars2) = sec1, sec2
    reps = projective_line_reps(p, max(t, 1))
    products = {}
    for g in reps:
        terms2 = _section_terms(phi2, g).items()
        for key1, c1 in _section_terms(phi1, g).items():
            for key2, c2 in terms2:
                key = key1, key2
                products[key] = products.get(key, 0) + c1 * c2
    if not products:
        return as_ratfunc(0, p)
    monomial1 = _monomials(*chars1, phi1.p)
    monomial2 = _monomials(*chars2, phi2.p)
    return dot([(as_ratfunc(Q(c, len(reps)), p),
                 monomial1(key1) * monomial2(key2))
                for (key1, key2), c in products.items()])


def support_check(phi: SchwartzFn, a_chi, a_psi, t: int) -> bool:
    """True iff the section of (phi, chi, psi) vanishes on every Bruhat
    cell of GL2(Z_l) outside B * K0(l^t), tested on representatives of
    the projective line mod l^t."""
    p = phi.p
    if t == 0:
        return True
    mod = p ** t
    value = _characters(a_chi, a_psi, p)
    for rep in projective_line_reps(p, t):
        if rep[1][0] % mod == 0:      # inside K0(l^t)
            continue
        # q may be 1, so a nonempty table can still sum to zero
        terms = _section_terms(phi, rep)
        if terms and value(terms):
            return False
    return True
