"""Tests for the GSp4 principal-series module."""

import collections
from fractions import Fraction

import pytest

from gsp4verify import gsp4local, padic
from gsp4verify.gsp4local import (HECKE_TYPES, InducedVectorG,
                                  PrincipalSeriesG, borel_factor, cell_of,
                                  eval_induced, hecke_eigenvalue,
                                  hecke_poly_check, parahoric_cell_reps,
                                  parahoric_u_matrix, spin_reciprocal,
                                  u_matrix_char_poly)
from gsp4verify.padic import (LevelSpec, identity, in_level, mat, mat_mul,
                              mat_t, root_unipotent, siegel_u_reps, weyl_s2)
from gsp4verify.symcore import as_ratfunc, ell_pow, sym
from test_padic import hecke_r_reps, hecke_t1_reps, hecke_t_reps

Q = Fraction


def sigma_for(p):
    return PrincipalSeriesG.formal(p)


def spin_l_factor(sigma: PrincipalSeriesG, shift, twist=1):
    """Oracle: L(sigma x twist, shift), the product of the four degree-1
    factors with parameters {c, c a, c b, c a b} times the twist value;
    `shift` may be a half-integer."""
    p = sigma.p
    two_shift = Fraction(shift) * 2
    if two_shift.denominator != 1:
        raise ValueError("shift must be a half-integer")
    tw = as_ratfunc(twist, p)
    one = as_ratfunc(1, p)
    out = one
    for gamma in sigma.spin_params():
        out = out / (one - gamma * tw * ell_pow(-int(two_shift), p))
    return out


def test_spin_l_factor_shape():
    s = sigma_for(2)
    lf = spin_l_factor(s, Q(0))
    one = as_ratfunc(1, 2)
    prod = one
    for g in s.spin_params():
        prod = prod * (one - g)
    assert lf * prod == one


def test_spin_l_factor_half_shift():
    s = sigma_for(3)
    lf = spin_l_factor(s, Q(-1, 2))
    one = as_ratfunc(1, 3)
    prod = one
    for g in s.spin_params():
        prod = prod * (one - g * ell_pow(1, 3))
    assert lf * prod == one
    with pytest.raises(ValueError):
        spin_l_factor(s, Q(1, 3))


@pytest.mark.parametrize("p", [2, 3])
def test_spin_reciprocal_inverts_spin_l_factor(p):
    # spin_reciprocal(sigma, x) is the reciprocal of L(sigma, shift) at
    # x = prime^{-(shift + 3/2)}
    s = sigma_for(p)
    for two_shift in (-1, 0, 3):
        lf = spin_l_factor(s, Q(two_shift, 2))
        assert lf * spin_reciprocal(s, ell_pow(-3 - two_shift, p)) == 1


def test_cells_are_distinct_and_four():
    for p in (2, 3, 5):
        cells = [cell_of(r, p) for r in parahoric_cell_reps()]
        assert len(set(cells)) == 4


def test_cell_constant_on_parahoric_orbit():
    # right translation by the parahoric preserves the cell; left
    # translation by upper-triangular integral elements too
    p = 3
    spec = LevelSpec("K0", m=1)
    k0s = [identity(4),
           root_unipotent(0, 1),
           mat_mul(root_unipotent(2, 2), root_unipotent(3, 5)),
           mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]])]
    for k in k0s:
        assert in_level(k, spec, p)
    for r in parahoric_cell_reps():
        c = cell_of(r, p)
        for k in k0s:
            assert cell_of(mat_mul(r, k), p) == c


def test_spherical_normalisation():
    for p in (2, 3):
        s = sigma_for(p)
        sph = InducedVectorG.spherical(s)
        assert eval_induced(sph, identity(4)) == as_ratfunc(1, p)


def test_spherical_value_on_diagonal():
    # f(diag(l,l,1,1)) = alpha beta c v^{-3}
    for p in (2, 3):
        s = sigma_for(p)
        sph = InducedVectorG.spherical(s)
        d = mat([[p, 0, 0, 0], [0, p, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert eval_induced(sph, d) == s.alpha * s.beta * s.c * ell_pow(-3, p)


def test_borel_law():
    # f(b g) = factor(b) f(g) for upper-triangular similitude b
    p = 2
    s = sigma_for(p)
    sph = InducedVectorG.spherical(s)
    b = mat_mul(mat([[4, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0],
                     [0, 0, 0, Q(1, 2)]]),
                mat_mul(root_unipotent(0, 1), root_unipotent(3, 5)))
    g = mat_mul(weyl_s2(), mat_t(root_unipotent(2, 2)))
    assert eval_induced(sph, mat_mul(b, g)) == \
        borel_factor(s, b) * eval_induced(sph, g)


def test_hecke_t_eigenvalue_factored():
    # T eigenvalue: v^3 c (1+alpha)(1+beta)
    for p in (2, 3):
        s = sigma_for(p)
        one = as_ratfunc(1, p)
        expect = ell_pow(3, p) * s.c * (one + s.alpha) * (one + s.beta)
        assert hecke_eigenvalue("T", s) == expect


def test_hecke_r_is_central_character():
    for p in (2, 3):
        s = sigma_for(p)
        assert hecke_eigenvalue("R", s) == s.central_character()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hecke_polynomial_identity(p):
    ok, lhs, rhs = hecke_poly_check(sigma_for(p))
    assert ok, (lhs, rhs)


def test_hecke_polynomial_perturbed_fails():
    ok, _, _ = hecke_poly_check(sigma_for(2), perturb=1)
    assert not ok


@pytest.mark.parametrize("op,reps", [("T", hecke_t_reps),
                                     ("T1", hecke_t1_reps),
                                     ("R", hecke_r_reps)])
def test_hecke_eigenvalue_is_sum_over_representatives(monkeypatch, op, reps):
    # one Borel factor per diagonal, times the number of representatives
    # that share it, equals the sum over every representative
    p = 3
    s = sigma_for(p)
    plain = as_ratfunc(0, p)
    for r in reps(p):
        plain = plain + borel_factor(s, r)
    diagonals = {tuple(padic.val(r[i][i], p) for i in range(4))
                 for r in reps(p)}
    calls = []
    good = gsp4local._borel

    def counting(sigma, a, b, c):
        calls.append((a, b, c))
        return good(sigma, a, b, c)
    monkeypatch.setattr(gsp4local, "_borel", counting)
    assert hecke_eigenvalue(op, s) == plain
    assert len(calls) == len(diagonals)


def test_hecke_path_makes_no_iwasawa_call(monkeypatch):
    """The spherical eigenvalues sum Borel factors over the coset counts
    per torus type: no decomposition, no lattice keys, no coset
    enumeration and no matrix product."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the Hecke path built a coset or an Iwasawa step")
    for module in (gsp4local, padic):
        monkeypatch.setattr(module, "iwasawa_gsp4", forbidden)
    for name in ("enumerate_double_coset", "_product"):
        monkeypatch.setattr(padic, name, forbidden)
    monkeypatch.setattr(gsp4local, "eval_induced", forbidden)
    assert not hasattr(padic, "hnf_key")
    assert hecke_poly_check(sigma_for(2))[0]
    assert not hecke_poly_check(sigma_for(2), perturb=1)[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hecke_types_count_the_enumerated_cosets(p):
    """The oracle of the table: at a pinned prime, the representatives
    of each double coset, grouped by the valuations of their diagonal,
    have the counts of HECKE_TYPES."""
    for op, reps in (("T", hecke_t_reps), ("T1", hecke_t1_reps),
                     ("R", hecke_r_reps)):
        counts = collections.Counter(
            tuple(padic.val(r[i][i], p) for i in range(4)) for r in reps(p))
        assert counts == {d: count(p)
                          for d, count in HECKE_TYPES[op].items()}, op


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_formal_hecke_eigenvalues_specialise_to_pinned_prime(p):
    formal = PrincipalSeriesG.formal(None)
    for op in HECKE_TYPES:
        assert (hecke_eigenvalue(op, formal).with_prime(p)
                == hecke_eigenvalue(op, sigma_for(p))), op


def test_hecke_polynomial_identity_at_formal_prime():
    formal = PrincipalSeriesG.formal(None)
    ok, lhs, rhs = hecke_poly_check(formal)
    assert ok, (lhs, rhs)
    assert not hecke_poly_check(formal, perturb=1)[0]


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_hecke_polynomial_fails_with_l_squared_central_count(monkeypatch, p):
    # T1's central type counted as all l^2 symmetric 2x2 matrices, the
    # zero matrix included, not the l^2 - 1 of rank 1
    monkeypatch.setitem(HECKE_TYPES["T1"], (1, 1, 1, 1), lambda l: l ** 2)
    assert not hecke_poly_check(PrincipalSeriesG.formal(p))[0]


def test_eigenvalues_weyl_invariant():
    # the eigenvalues are symmetric under the Weyl conjugations
    # (alpha, beta) -> (beta, alpha) and (alpha, c) -> (1/alpha, c alpha)
    p = 2
    s = sigma_for(p)
    swapped = PrincipalSeriesG(p, s.beta, s.alpha, s.c)
    refl = PrincipalSeriesG(p, as_ratfunc(1, p) / s.alpha, s.beta,
                            s.c * s.alpha)
    for op in ("T", "T1", "R"):
        ev = hecke_eigenvalue(op, s)
        assert ev == hecke_eigenvalue(op, swapped)
        assert ev == hecke_eigenvalue(op, refl)


@pytest.mark.parametrize("p", [2, 3])
def test_u_matrix_char_poly(p):
    s = sigma_for(p)
    x = sym("X", p)
    assert u_matrix_char_poly(s, x) == spin_reciprocal(s, x)


@pytest.mark.parametrize("p", [2, 3])
def test_u_matrix_matches_the_eval_induced_sum(p):
    # the reference evaluates each basis vector at each r n(u,v,w) d; the
    # matrix decomposes each r n(u,v,w) d once
    s = sigma_for(p)
    basis = InducedVectorG.parahoric_basis(s)
    reps = sorted(parahoric_cell_reps(), key=lambda r: cell_of(r, p))
    u = parahoric_u_matrix(s)
    for i, r in enumerate(reps):
        for j, f in enumerate(basis):
            want = as_ratfunc(0, p)
            for cs in siegel_u_reps(p):
                want = want + eval_induced(f, mat_mul(r, cs))
            assert (u[i][j].num, u[i][j].den) == (want.num, want.den)


def test_u_matrix_trace():
    # trace of U = sum of the four parameters times v^3
    p = 2
    s = sigma_for(p)
    u = parahoric_u_matrix(s)
    tr = u[0][0] + u[1][1] + u[2][2] + u[3][3]
    expect = as_ratfunc(0, p)
    for g in s.spin_params():
        expect = expect + g * ell_pow(3, p)
    assert tr == expect


def hecke_module_action(xi, f: InducedVectorG) -> InducedVectorG:
    """Act by xi = sum of (g, coeff) pairs, interpreted as the compactly
    supported function sum coeff * ch(g K') where K' is f's invariance
    group with volume normalised to that of the hyperspecial subgroup:
    (xi . f)(h) = sum coeff * f(h g).  An oracle for eval_induced: the
    tests below compose and combine its values."""
    sigma = f.sigma
    new_values = []
    for r in parahoric_cell_reps():
        total = as_ratfunc(0, sigma.p)
        for g, coeff in xi:
            total = total + as_ratfunc(coeff, sigma.p) * eval_induced(
                f, mat_mul(mat(r), mat(g)))
        new_values.append((cell_of(r, sigma.p), total))
    new_values = tuple(sorted(set(new_values)))
    cells = [c for c, _ in new_values]
    if len(cells) != len(set(cells)):
        raise ValueError("action left the invariant space")
    return InducedVectorG(sigma, new_values)


def test_module_action_identity_and_composition():
    p = 2
    s = sigma_for(p)
    sph = InducedVectorG.spherical(s)
    e = identity(4)
    # unit element acts trivially
    out = hecke_module_action([(e, Q(1))], sph)
    for r in parahoric_cell_reps():
        assert eval_induced(out, r) == eval_induced(sph, r)
    # the U-operator element acts on the spherical vector with the sum of
    # one-variable translates; acting twice = composing translations
    xi = [(g, Q(1)) for g in siegel_u_reps(p)]
    once = hecke_module_action(xi, sph)
    twice = hecke_module_action(xi, once)
    d = mat([[p, 0, 0, 0], [0, p, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    direct = as_ratfunc(0, p)
    for g1 in siegel_u_reps(p):
        for g2 in siegel_u_reps(p):
            direct = direct + eval_induced(sph, mat_mul(mat_mul(e, g1), g2))
    assert eval_induced(twice, e) == direct


def test_module_action_linear():
    p = 3
    s = sigma_for(p)
    basis = InducedVectorG.parahoric_basis(s)
    f = basis[0]
    g = mat_mul(mat([[p, 0, 0, 0], [0, p, 0, 0], [0, 0, 1, 0],
                     [0, 0, 0, 1]]), weyl_s2())
    a, b = Q(3), Q(-2)
    xi = [(g, a), (identity(4), b)]
    out = hecke_module_action(xi, f)
    for r in parahoric_cell_reps():
        expect = a * eval_induced(f, mat_mul(r, g)) + b * eval_induced(f, r)
        assert eval_induced(out, r) == expect

