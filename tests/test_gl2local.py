"""Tests for the GL2 local module: section values, support, functional
equation of the intertwining operator, adjointness, and the duality
pairing."""

import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from gsp4verify.symcore import as_ratfunc, ell_pow, sym
from gsp4verify.padic import (SchwartzFn, _padic_residue, act_schwartz,
                              fourier, mat, mat_mul, min_val, val)
from gsp4verify import cli, gl2local as gl

I2 = ((1, 0), (0, 1))
W = ((0, 1), (-1, 0))


def chars(p):
    return sym("alpha", p), sym("beta", p), sym("X", p)


def phi_t(p, t):
    if t == 0:
        return SchwartzFn.lattice_product(p, 0, 0)
    return SchwartzFn.unit_column(p, t)


def mul2(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


# -- oracles: the matrix form of the section tables ---------------------------

def _unit_average_by_shell(phi, j, r):
    """Average of u |-> phi(l^j u r) over the unit group, u ~ Z_l^x, for a
    pair r of rationals, not both zero: 0 unless l^{j+s} r is l-integral,
    else phi's table at u times the residues of l^{j+s} r mod l^{s+n}."""
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
    return gl._rat(total) / (mod - mod // p)


def _section_terms_by_matrix(phi, g, terms=None, weight=1, shift=0):
    """The table of eval_siegel(phi, a_chi, a_psi, g) read off the matrix
    g, each shell's residues found from l^{j+s} times the bottom row:
    adds weight * c to terms[(d, j + shift)] for each coefficient c of
    a_chi^d l^{-d/2} q^j, and returns terms (a new dict by default)."""
    terms = {} if terms is None else terms
    p = phi.p
    g = [[Q(x) for x in row] for row in g]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if det == 0:
        raise ZeroDivisionError("g must be invertible")
    r = (g[1][0], g[1][1])
    m = min(val(c, p) for c in r if c != 0)
    j_min = -phi.s - m
    j_top = max(phi.n - m, j_min)
    shells = [_unit_average_by_shell(phi, j, r) for j in range(j_min, j_top)]
    shells.append(gl._rat(phi.value_at(0, 0)))
    d = val(det, p)
    for j, c, c_prev in zip(range(j_min + shift, j_top + shift + 1), shells,
                            [0] + shells):
        if c != c_prev:
            terms[d, j] = terms.get((d, j), 0) + weight * (c - c_prev)
    return terms


def _projective_line_reps(p, t):
    """Matrices in GL2(Z) whose bottom rows exhaust P^1(Z/p^t)."""
    mod = p ** t
    return ([((0, -1), (1, y)) for y in range(mod)]
            + [((1, 0), (x, 1)) for x in range(0, mod, p)])


@st.composite
def _invertible_points(draw):
    """A prime and an invertible 2x2 matrix over Q: integral, or with
    powers of l and a unit in its denominators."""
    p = draw(st.sampled_from([2, 3, 5]))
    integral = draw(st.booleans())
    entry = st.builds(
        lambda n, k, e: Q(n, p ** k * e), st.integers(-40, 40),
        st.just(0) if integral else st.integers(0, 2),
        st.just(1) if integral else st.sampled_from([1, 7]))
    g = tuple(tuple(draw(entry) for _ in range(2)) for _ in range(2))
    assume(g[0][0] * g[1][1] != g[0][1] * g[1][0])
    return p, g


@settings(max_examples=200, deadline=None)
@given(_invertible_points())
def test_row_path_matches_the_matrix_path(point):
    # the tables of the gl2 cases' sections and of a level-2 section, and
    # the values eval_siegel forms from (v(det g), bottom row)
    p, g = point
    al, be, X = chars(p)
    value = gl._characters(al * X, be / X, p)
    d = val(g[0][0] * g[1][1] - g[0][1] * g[1][0], p)
    for phi in cli._gl2_phis(p) + [SchwartzFn.unit_column(p, 2)]:
        want = _section_terms_by_matrix(phi, g)
        assert gl._section_terms(phi, d, g[1]) == want
        assert _same(gl.eval_siegel(phi, al * X, be / X, g), value(want))


# -- references: the geometric-tail section and the GL2(Z/l^t) average --------

def _eval_siegel_reference(phi, a_chi, a_psi, g):
    """The section value with the shell tail summed as a geometric series
    and the L(chi/psi, 1)^{-1} factor (1 - q) multiplied back in."""
    p = phi.p
    a_chi = as_ratfunc(a_chi, p)
    a_psi = as_ratfunc(a_psi, p)
    g = [[Q(x) for x in row] for row in g]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    r = (g[1][0], g[1][1])
    m = min(val(c, p) for c in r if c != 0)
    one = as_ratfunc(1, p)
    q = (a_chi / a_psi) * ell_pow(-2, p)
    d = val(det, p)
    prefactor = a_chi ** d * ell_pow(-d, p) * (one - q)
    j_min = -phi.s - m
    j_top = max(phi.n - m, j_min)
    total = as_ratfunc(0, p)
    for j in range(j_min, j_top):
        c = _unit_average_by_shell(phi, j, r)
        if c:
            total = total + as_ratfunc(c, p) * q ** j
    c_inf = gl._rat(phi.value_at(0, 0))
    if c_inf:
        total = total + as_ratfunc(c_inf, p) * q ** j_top / (one - q)
    return prefactor * total


def _unit_average_reference(phi, j, r):
    """The unit average as a Fraction loop over phi.value_at at each unit
    mod l^max(1, n - j - val(r))."""
    p = phi.p
    m = min(val(c, p) for c in r if c != 0)
    n_mod = max(1, phi.n - (j + m))
    scale = Q(p) ** j
    total = None
    count = 0
    for u in range(1, p ** n_mod):
        if u % p == 0:
            continue
        value = phi.value_at(scale * u * r[0], scale * u * r[1])
        total = value if total is None else total + value
        count += 1
    return gl._rat(total) / count


def _dual_pairing_reference(sec1, sec2, t, p):
    """The duality pairing as the average over all of GL2(Z/l^t)."""
    mod = p ** max(t, 1)
    total = as_ratfunc(0, p)
    count = 0
    for a in range(mod):
        for b in range(mod):
            for c in range(mod):
                for d in range(mod):
                    if (a * d - b * c) % p:
                        g = ((a, b), (c, d))
                        total = total + (gl.eval_siegel(*sec1, g)
                                         * gl.eval_siegel(*sec2, g))
                        count += 1
    return total * as_ratfunc(Q(1, count), p)


# -- references: the sums the one-table evaluations replaced ------------------

def _characters_by_sums(a_chi, a_psi, p):
    """A table {(d, j): c} evaluated one RatFunc product and sum per
    term."""
    a_chi = as_ratfunc(a_chi, p)
    q = (a_chi / as_ratfunc(a_psi, p)) * ell_pow(-2, p)

    def value(terms):
        total = as_ratfunc(0, p)
        for (d, j), c in terms.items():
            total = total + as_ratfunc(c, p) * (
                a_chi ** d * ell_pow(-d, p) * q ** j)
        return total
    return value


def _dual_pairing_by_values(sec1, sec2, t, p):
    """The duality pairing as the sum over P^1(Z/l^t) of the products of
    the two section values, each evaluated on its own."""
    (phi1, *chars1), (phi2, *chars2) = sec1, sec2
    value1 = _characters_by_sums(*chars1, phi1.p)
    value2 = _characters_by_sums(*chars2, phi2.p)
    reps = _projective_line_reps(p, max(t, 1))
    total = as_ratfunc(0, p)
    for g in reps:
        total = total + (value1(_section_terms_by_matrix(phi1, g))
                         * value2(_section_terms_by_matrix(phi2, g)))
    return total * as_ratfunc(Q(1, len(reps)), p)


def _intertwine_direct_by_shells(phi, a_chi, a_psi, g):
    """The direct intertwining integral evaluated shell by shell: the
    Z_l average, each shell times a_r^j (1 - 1/l), and the tail
    a_r^tail/(1 - a_r) (1 - 1/l) f(g), each a RatFunc."""
    p = phi.p
    a_chi, a_psi = as_ratfunc(a_chi, p), as_ratfunc(a_psi, p)
    one = as_ratfunc(1, p)
    g = [[Q(x) for x in row] for row in g]
    value = _characters_by_sums(a_chi, a_psi, p)
    fg = value(_section_terms_by_matrix(phi, g))
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    top = max(0, phi.s + phi.n) - 2 * min_val(g, p) + val(det, p)

    def average(points):
        terms, weight = {}, Q(1, len(points))
        for h in points:
            _section_terms_by_matrix(phi, h, terms, weight)
        return value(terms)

    total = average([mat_mul(mat_mul(W, ((1, Q(u)), (0, 1))), g)
                     for u in range(p ** top)])
    a_r = a_chi / a_psi
    unit_vol = one - as_ratfunc(Q(1, p), p)
    tail = max(1, top)
    for j in range(1, tail):
        total = total + a_r ** j * unit_vol * average([
            mat_mul(((1, 0), (Q(e * p ** j), 1)), g)
            for e in range(1, p ** (top - j)) if e % p])
    total = total + a_r ** tail / (one - a_r) * unit_vol * fg
    return (one - a_r) * total


def _same(f, g):
    """Equal canonical parts, so equal hashes and reprs."""
    return (f.num, f.den) == (g.num, g.den) and repr(f) == repr(g)


# -- L-factors: the oracle for the normalising factors ------------------------

def l_factor(a, shift, prime=None):
    """L(chi, shift) = 1/(1 - chi(l) l^{-shift}) for unramified chi with
    chi(l) = a.  `shift` may be a half-integer (Fraction with denominator
    2); l^{-shift} is expressed through the formal square root v."""
    a = as_ratfunc(a, prime)
    two_shift = Q(shift) * 2
    if two_shift.denominator != 1:
        raise ValueError("shift must be a half-integer")
    one = as_ratfunc(1, a.prime)
    den = one - a * ell_pow(-int(two_shift), a.prime)
    if den == as_ratfunc(0, a.prime):
        raise ZeroDivisionError("L-factor has a pole at this shift")
    return one / den


def test_l_factor_basic():
    p = 3
    X = sym("X", p)
    one = as_ratfunc(1, p)
    assert l_factor(X, 0, p) == one / (one - X)
    al, be = sym("alpha", p), sym("beta", p)
    assert l_factor(al / be, 1, p) == one / (one - (al / be) * Q(1, p))
    # half-integer shift goes through the formal square root of the prime
    assert l_factor(al, Q(1, 2), p) == one / (one - al * ell_pow(-1, p))


def test_l_factor_pole():
    p = 2
    with pytest.raises(ZeroDivisionError):
        l_factor(as_ratfunc(Q(1, 2), p), -1, p)


# -- section values (criterion 1 material) ------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_section_value_at_identity(p):
    al, be, X = chars(p)
    ac, ap = al * X, be / X
    one = as_ratfunc(1, p)
    assert gl.eval_siegel(phi_t(p, 0), ac, ap, I2) == one
    linv = one / l_factor(ac / ap, 1, p)
    for t in (1, 2, 3):
        assert gl.eval_siegel(phi_t(p, t), ac, ap, I2) == linv


def reference_phis(p):
    """Schwartz functions of scale 0 and 1, levels -1 to 2, and one with
    Cyc values."""
    return [SchwartzFn.lattice_product(p, 0, 0),
            SchwartzFn.lattice_product(p, -1, 1),
            SchwartzFn.lattice_product(p, 2, -1),
            SchwartzFn.unit_column(p, 1), SchwartzFn.unit_column(p, 2),
            SchwartzFn.depth_pair(p, 1), SchwartzFn.depth_pair(p, 2),
            SchwartzFn.coset(p, Q(1, p), 1, 1),
            fourier(SchwartzFn.coset(p, 0, 1, 1))]


@pytest.mark.parametrize("p", [2, 3])
def test_eval_siegel_matches_reference(p):
    al, be, X = chars(p)
    phis = reference_phis(p)
    assert any(phi.s > 0 for phi in phis)
    assert any(not isinstance(c, Q) for c in phis[-1].table.values())
    points = [I2, W, ((p, 0), (0, 1)), ((1, 0), (Q(1, p), 1)),
              ((1, 1), (1, 1 + p))]
    characters = [(al * X, be / X), (al + 1, be)]
    for phi in phis:
        for g in points:
            for ac, ap in characters:
                assert (gl.eval_siegel(phi, ac, ap, g)
                        == _eval_siegel_reference(phi, ac, ap, g))


@pytest.mark.parametrize("p", [2, 3])
def test_unit_average_matches_reference(p):
    # every shell the section reads, one on each side of them, and rows
    # with l in a denominator, denominators prime to l and a zero entry
    rows = [(Q(1, p), 1), (1, Q(1, p * p)), (p, Q(1, 5)), (Q(1, 5), Q(2, 7)),
            (0, Q(1, p)), (Q(2, 7), 0), (1, 1 + p)]
    for phi in reference_phis(p):
        for r in rows:
            m = min(val(c, p) for c in r if c != 0)
            j_min = -phi.s - m
            j_top = max(phi.n - m, j_min)
            for j in range(j_min - 1, j_top + 2):
                assert (_unit_average_by_shell(phi, j, r)
                        == _unit_average_reference(phi, j, r))


def test_section_value_where_q_is_one():
    # chi(l) = l and psi(l) = 1 make q = (chi/psi)(l) l^{-1} = 1: the
    # normalised section has no pole there
    p = 3
    one = as_ratfunc(1, p)
    assert gl.eval_siegel(phi_t(p, 0), 3, 1, I2) == one
    assert gl.eval_siegel(phi_t(p, 1), 3, 1, I2) == as_ratfunc(0, p)


@pytest.mark.parametrize("p", [2, 3])
def test_section_support(p):
    al, be, X = chars(p)
    ac, ap = al * X, be / X
    for t in (0, 1, 2, 3):
        assert gl.support_check(phi_t(p, t), ac, ap, t)
    # vanishing on the long Weyl element drives the support statement
    assert gl.eval_siegel(phi_t(p, 1), ac, ap, W) == as_ratfunc(0, p)


def test_support_check_detects_bad_function():
    p = 2
    al, be, X = chars(p)
    # ch(Z^x) x ch(Z^x) is not of the required shape: its section does not
    # vanish outside B K0(l)
    tbl = {}
    for a in range(1, p):
        for b in range(1, p):
            tbl[(a, b)] = Q(1)
    bad = SchwartzFn(p, 0, 1, tbl)
    assert not gl.support_check(bad, al * X, be / X, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_borel_transformation_law(p):
    rng = random.Random(11)
    al, be, X = chars(p)
    ac, ap = al * X, be / X
    phi = phi_t(p, 1)
    one = as_ratfunc(1, p)
    for _ in range(50):
        # random upper-triangular b over Q and integral k with unit det
        a = Q(p) ** rng.randint(-2, 2) * rng.choice([1, -1, 3, 5])
        d = Q(p) ** rng.randint(-2, 2) * rng.choice([1, -1, 3])
        n = Q(rng.randint(-6, 6), rng.choice([1, p]))
        b = ((a, n), (0, d))
        while True:
            k = tuple(tuple(rng.randint(-4, 4) for _ in range(2))
                      for _ in range(2))
            det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
            if det != 0 and det % p:
                break
        va, vd = val(a, p), val(d, p)
        factor = ac ** va * ap ** vd * ell_pow(-(va - vd), p)
        lhs = gl.eval_siegel(phi, ac, ap, mul2(b, k))
        assert lhs == factor * gl.eval_siegel(phi, ac, ap, k)


@pytest.mark.parametrize("p", [2, 3])
def test_equivariance_of_sections(p):
    rng = random.Random(5)
    al, be, X = chars(p)
    ac, ap = al * X, be / X
    phi = phi_t(p, 1)
    for _ in range(8):
        while True:
            g = tuple(tuple(Q(rng.randint(-5, 5), rng.choice([1, 1, p]))
                            for _ in range(2)) for _ in range(2))
            det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
            if det != 0:
                break
        h = rng.choice([I2, W, ((1, 0), (Q(1, p), 1))])
        dg = val(det, p)
        gphi = act_schwartz(mat([list(r) for r in g]), phi)
        # direct law
        lhs = gl.eval_siegel(gphi, ac, ap, h)
        rhs = (ac ** -dg * ell_pow(dg, p)
               * gl.eval_siegel(phi, ac, ap, mul2(h, g)))
        assert lhs == rhs
        # Fourier-side law
        lhs = gl.eval_siegel(fourier(gphi), ac, ap, h)
        rhs = (ap ** -dg * ell_pow(dg, p)
               * gl.eval_siegel(fourier(phi), ac, ap, mul2(h, g)))
        assert lhs == rhs


# -- intertwining operator (criterion 2 material) ------------------------------

def points_for(p):
    return [I2, W, ((p, 0), (0, 1)), ((1, 0), (Q(1, p), 1))]


def phis_for(p):
    return [SchwartzFn.lattice_product(p, 0, 0), SchwartzFn.unit_column(p, 1),
            SchwartzFn.coset(p, 0, 1, 1)]


@pytest.mark.parametrize("p", [2, 3])
def test_intertwining_functional_equation(p):
    al, be, X = chars(p)
    ac, ap = al * X, be / X
    for phi in phis_for(p):
        for g in points_for(p):
            closed = gl.intertwine(phi, ac, ap, g, "closed")
            direct = gl.intertwine(phi, ac, ap, g, "direct")
            assert closed == direct


@pytest.mark.parametrize("p", [2, 3])
def test_intertwining_direct_at_deep_modulus(p):
    # sections of scale s > 0 or level 2 at points with 1/l^2 entries: the
    # direct mode averages modulo l^top with top = 5 or 6 here, beyond the
    # top <= 3 of the default CLI grid
    al, be, X = chars(p)
    ac, ap = al * X, be / X
    phis = [SchwartzFn.coset(p, Q(1, p), 1, 1),
            SchwartzFn.lattice_product(p, -1, 1),
            SchwartzFn.unit_column(p, 2), SchwartzFn.depth_pair(p, 2)]
    assert all(phi.s > 0 or phi.n == 2 for phi in phis)
    for phi in phis:
        for g in [((Q(1, p), 2), (3, p * p)), ((1, Q(1, p * p)), (0, 1))]:
            assert (gl.intertwine(phi, ac, ap, g, "direct")
                    == gl.intertwine(phi, ac, ap, g, "closed"))


@pytest.mark.parametrize("p", [2, 3])
def test_direct_intertwine_matches_shell_by_shell_reference(p):
    # every Schwartz function and point of the gl2 cases, and deeper ones,
    # at the cases' characters and at a non-monomial chi/psi
    al, be, X = chars(p)
    deep = [((Q(1, p), 2), (3, p * p)), ((1, Q(1, p * p)), (0, 1))]
    phis = cli._gl2_phis(p) + [SchwartzFn.coset(p, Q(1, p), 1, 1),
                               SchwartzFn.unit_column(p, 2)]
    for ac, ap in [(al * X, be / X), ((al + 1) * X, be)]:
        for phi in phis:
            for g in points_for(p) + deep:
                assert _same(gl.intertwine(phi, ac, ap, g, "direct"),
                             _intertwine_direct_by_shells(phi, ac, ap, g))


def test_intertwining_special_reducible_point():
    # chi/psi = |.|^{-1} forces the closed form to vanish identically
    p = 2
    one = as_ratfunc(1, p)
    ac = ell_pow(2, p)  # chi(l) = l
    ap = one            # psi(l) = 1
    phi = SchwartzFn.lattice_product(p, 0, 0)
    assert gl.intertwine(phi, ac, ap, I2, "closed") == as_ratfunc(0, p)


@pytest.mark.parametrize("p", [2, 3])
def test_adjointness(p):
    al, be, X = chars(p)
    one = as_ratfunc(1, p)
    ac, ap = al * X, be / X
    # f1 in I(chi, psi), f2 in I(psi^{-1}, chi^{-1})
    for phi1 in phis_for(p):
        for phi2 in phis_for(p):
            f1 = (phi1, ac, ap)
            f2 = (phi2, one / ap, one / ac)
            # M f1 lives in I(psi, chi); pair with f2
            lf1 = one - (ac / ap) * ell_pow(-2, p)
            mf1 = (fourier(phi1), ap, ac)
            lf2 = one - (ac / ap) * ell_pow(-2, p)
            mf2 = (fourier(phi2), one / ac, one / ap)
            lhs = lf1 * gl.dual_pairing(mf1, f2, 1, p)
            rhs = lf2 * gl.dual_pairing(f1, mf2, 1, p)
            assert lhs == rhs


# -- duality pairing ------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_pairing_spherical(p):
    al, be, X = chars(p)
    one = as_ratfunc(1, p)
    phi0 = phi_t(p, 0)
    f1 = (phi0, al * X, be / X)
    f2 = (phi0, (one / be) * X, (one / al) / X)
    assert gl.dual_pairing(f1, f2, 1, p) == one


@pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (2, 2)])
def test_dual_pairing_matches_reference(p, t):
    al, be, X = chars(p)
    one = as_ratfunc(1, p)
    ac, ap = al * X, be / X
    if t == 1:
        phis = phis_for(p) + [fourier(SchwartzFn.unit_column(p, 1))]
    else:
        phis = [SchwartzFn.unit_column(p, 2), SchwartzFn.depth_pair(p, 2)]
    for phi1 in phis:
        for phi2 in phis:
            f1 = (phi1, ac, ap)
            f2 = (phi2, one / ap, one / ac)
            assert (gl.dual_pairing(f1, f2, t, p)
                    == _dual_pairing_reference(f1, f2, t, p))


@pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_dual_pairing_matches_sum_of_value_products(p, t):
    # the adjoint cases' pairs, sections of level 2, zero sections, and
    # characters whose ratio is not a monomial
    al, be, X = chars(p)
    one = as_ratfunc(1, p)
    phis = cli._gl2_phis(p) + [fourier(phi) for phi in cli._gl2_phis(p)]
    phis += [SchwartzFn.unit_column(p, 2), SchwartzFn.depth_pair(p, 2)]
    for ac, ap in [(al * X, be / X), (al + 1, be * X)]:
        for phi1 in phis:
            for phi2 in phis:
                f1 = (phi1, ac, ap)
                f2 = (phi2, one / ap, one / ac)
                assert _same(gl.dual_pairing(f1, f2, t, p),
                             _dual_pairing_by_values(f1, f2, t, p))
    zero = SchwartzFn(p, 0, 1, {})
    vanishing = gl.dual_pairing((zero, al, be), (phis[0], al, be), t, p)
    assert vanishing == 0 and vanishing.prime == p


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_projective_line_reps(p, t):
    mod = p ** t
    rows = gl.projective_line(p, t)
    assert len(rows) == p ** t + p ** (t - 1)
    # each row is the bottom row of a matrix of determinant +-1, so the
    # pairing and the support check read it at v(det) = 0
    reps = _projective_line_reps(p, t)
    assert [bottom for _, bottom in reps] == rows
    for (a, b), (c, d) in reps:
        assert a * d - b * c in (1, -1)
    # every primitive row mod p^t is a unit multiple of exactly one row
    hits = Counter((u * c % mod, u * d % mod)
                   for c, d in rows for u in range(mod) if u % p)
    primitive = {(c, d) for c in range(mod) for d in range(mod)
                 if c % p or d % p}
    assert set(hits) == primitive
    assert set(hits.values()) == {1}


def test_pairing_level_independence():
    p = 2
    al, be, X = chars(p)
    one = as_ratfunc(1, p)
    phi1 = phi_t(p, 1)
    f1 = (phi1, al * X, be / X)
    f2 = (phi1, (one / be) * X, (one / al) / X)
    assert (gl.dual_pairing(f1, f2, 1, p)
            == gl.dual_pairing(f1, f2, 2, p))


# -- tensor-product sections ---------------------------------------------------

def h_section_value(phi_pair, chi_pair, psi_pair, point):
    """Value of the tensor-product section on the subgroup of pairs of
    GL2 elements with equal determinant: the product of the two GL2
    section values at the two components of the point."""
    (phi1, phi2) = phi_pair
    (ac1, ac2) = chi_pair
    (ap1, ap2) = psi_pair
    (g1, g2) = point
    return (gl.eval_siegel(phi1, ac1, ap1, g1)
            * gl.eval_siegel(phi2, ac2, ap2, g2))


@pytest.mark.parametrize("p", [2, 3])
def test_h_section_values(p):
    a1, b1 = sym("alpha1", p), sym("beta1", p)
    a2, b2 = sym("alpha2", p), sym("beta2", p)
    one = as_ratfunc(1, p)
    expect = ((one - (a1 / b1) * Q(1, p)) * (one - (a2 / b2) * Q(1, p)))
    for t in (0, 1, 2):
        value = h_section_value(
            (phi_t(p, t), phi_t(p, t)), (a1, a2), (b1, b2), (I2, I2))
        assert value == (one if t == 0 else expect)
    # support: one long Weyl component kills the value for t >= 1
    value = h_section_value(
        (phi_t(p, 1), phi_t(p, 1)), (a1, a2), (b1, b2), (W, I2))
    assert value == as_ratfunc(0, p)
