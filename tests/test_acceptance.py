"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and enforces its runtime budget.
"""

import random
import time
from fractions import Fraction as Q

from gsp4verify.symcore import as_ratfunc, ell_pow, sym
from gsp4verify import padic as pa
from gsp4verify.padic import (LevelSpec, SchwartzFn, act_schwartz, fourier,
                              gsp4_multiplier, identity, in_level,
                              iwasawa_gl2, iwasawa_gsp4, mat, mat_det,
                              mat_mul)
from gsp4verify import gl2local as gl
from gsp4verify.gsp4local import (PrincipalSeriesG, hecke_poly_check,
                                  spin_reciprocal, u_matrix_char_poly)
from gsp4verify.besselzeta import (BesselDatum, tame_norm_check,
                                   tame_norm_final_check, tame_norm_ul_check,
                                   tame_pairing, zeta, zeta_spherical_closed,
                                   zeta_ul_closed)
from gsp4verify.branching import (TensorSpace, W_INDEX, W_PRIME,
                                  branch_decompose, build_rep,
                                  dual_character_check, grid, hw_vector,
                                  rep_dimension_formula, twist_element,
                                  twist_lemma_check, wedge_group_matrix)
from gsp4verify.normrel import (indept_identity, sufficiency_check,
                                wild_coset_identity)
from test_besselzeta import (corollary_with_ell_for_ell_minus_one,
                             depth_ones, depth_pairing)
from test_gsp4local import hecke_polynomial_plus_x

I2 = ((1, 0), (0, 1))
LONG_WEYL = ((0, 1), (-1, 0))


def _gate(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("CRITERION %2d [%s]: %s (%.1fs, budget %ds)"
          % (num, label, status, elapsed, budget))
    assert ok, "criterion %d failed: %s" % (num, label)
    assert elapsed < budget, "criterion %d over budget: %.1fs" % (num, elapsed)


def _phi_t(p, t):
    if t == 0:
        return SchwartzFn.lattice_product(p, 0, 0)
    return SchwartzFn.unit_column(p, t)


def _chars(p):
    al, be, x = sym("alpha", p), sym("beta", p), sym("X", p)
    return al * x, be / x, al, be, x


def test_criterion_01_gl2_section_values_and_support():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        ac, ap, al, be, x = _chars(p)
        one = as_ratfunc(1, p)
        linv = one - (al / be) * x * x * ell_pow(-2, p)
        ok &= gl.eval_siegel(_phi_t(p, 0), ac, ap, I2) == one
        for t in (1, 2, 3):
            ok &= gl.eval_siegel(_phi_t(p, t), ac, ap, I2) == linv
        # support on both Bruhat cells: the support check sweeps P^1(Z/l^t)
        for t in (0, 1, 2, 3):
            ok &= gl.support_check(_phi_t(p, t), ac, ap, t)
        ok &= gl.eval_siegel(_phi_t(p, 1), ac, ap, LONG_WEYL) == as_ratfunc(0, p)
    _gate(1, "gl2 section values + support", ok,
          time.monotonic() - start, 10)


def test_criterion_02_intertwining_and_adjointness():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        ac, ap, al, be, x = _chars(p)
        one = as_ratfunc(1, p)
        phis = [SchwartzFn.lattice_product(p, 0, 0),
                SchwartzFn.unit_column(p, 1),
                SchwartzFn.coset(p, 0, 1, 1)]
        points = [I2, LONG_WEYL, ((p, 0), (0, 1)), ((1, 0), (Q(1, p), 1))]
        for phi in phis:
            for g in points:
                ok &= (gl.intertwine_closed(fourier(phi), ac, ap, g)
                       == gl.intertwine(phi, ac, ap, g))
        lf = one - (ac / ap) * ell_pow(-2, p)
        for phi1 in phis:
            for phi2 in phis:
                f1 = (phi1, ac, ap)
                f2 = (phi2, one / ap, one / ac)
                mf1 = (fourier(phi1), ap, ac)
                mf2 = (fourier(phi2), one / ac, one / ap)
                ok &= (lf * gl.dual_pairing(mf1, f2, 1, p)
                       == lf * gl.dual_pairing(f1, mf2, 1, p))
    _gate(2, "intertwining closed=direct + adjointness", ok,
          time.monotonic() - start, 60)


def test_criterion_03_hecke_polynomial(monkeypatch):
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        good, _, _ = hecke_poly_check(PrincipalSeriesG.formal(p))
        ok &= good
    hecke_polynomial_plus_x(monkeypatch)
    bad, _, _ = hecke_poly_check(PrincipalSeriesG.formal(2))
    ok &= not bad
    _gate(3, "spherical Hecke polynomial factorization", ok,
          time.monotonic() - start, 300)


def test_criterion_04_parahoric_u_char_poly():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        sigma = PrincipalSeriesG.formal(p)
        x = sym("x", p)
        ok &= u_matrix_char_poly(sigma, x) == spin_reciprocal(sigma, x)
    _gate(4, "parahoric U-operator char poly", ok,
          time.monotonic() - start, 60)


def test_criterion_05_bessel_zeta_identities():
    start = time.monotonic()
    datum = BesselDatum.formal(None)  # lam1*lam2 = central character
    ok = zeta("spherical", datum) == zeta_spherical_closed(datum)
    ok &= zeta("ul", datum) == zeta_ul_closed(datum)
    _gate(5, "Bessel zeta closed forms", ok, time.monotonic() - start, 10)


def test_criterion_06_tame_norm_identities():
    start = time.monotonic()
    ok = True
    for k1 in (0, 1, 2):
        for k2 in (0, 1, 2):
            datum = tame_pairing(k1, k2)
            for t in (1, 2, 3):
                good, _, _ = tame_norm_check(
                    t, datum, depth_pairing(datum, "spherical", t))
                ok &= good
            good, _, _ = tame_norm_ul_check(datum,
                                            depth_pairing(datum, "ul", 1))
            ok &= good
    _gate(6, "tame norm relation (both identities)", ok,
          time.monotonic() - start, 30)


def test_criterion_07_tame_norm_corollary():
    start = time.monotonic()
    ok = True
    for k1 in (1, 2):
        for k2 in (1, 2):
            datum = tame_pairing(k1, k2)
            good, _, _ = tame_norm_final_check(datum, *depth_ones(datum))
            ok &= good
    bad, _, _ = corollary_with_ell_for_ell_minus_one(tame_pairing(1, 1))
    ok &= not bad
    _gate(7, "combined tame norm corollary", ok,
          time.monotonic() - start, 30)


def test_criterion_08_wild_coset_identities():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        for m in (0, 1, 2):
            for n in (1, 2):
                if n < max(m, 1):
                    continue
                good, report = wild_coset_identity(p, m, n)
                ok &= good
                ok &= report["cosets"] == p ** 3
                if m == 0:
                    ok &= report["special_case"] is not None
        for (big_t, t) in ((1, 2), (1, 3) if p == 2 else (1, 2)):
            good, size = indept_identity(p, big_t, t)
            ok &= good and size == p ** (4 * (t - big_t))
    _gate(8, "wild coset identities + transversal", ok,
          time.monotonic() - start, 60)


def test_criterion_09_sufficiency_bound():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        for m in (0, 1, 2):
            for n in (1, 2):
                if n < max(m, 1):
                    continue
                least = sufficiency_check(p, m, n)
                ok &= least <= n + 2 * m
    _gate(9, "symmetry-depth sufficiency t = n + 2m", ok,
          time.monotonic() - start, 30)


def test_criterion_10_branching_laws():
    start = time.monotonic()
    ok = True
    pairs = grid()
    for a, b in pairs:
        rep = build_rep(a, b)
        ok &= rep.dimension == rep_dimension_formula(a, b)
        summands = branch_decompose(rep)
        ok &= sum((c + 1) * (d + 1) for c, d, q in summands) == rep.dimension
        ok &= dual_character_check(rep)
        space = TensorSpace(a, b)
        for q in range(a + 1):
            for r in range(b + 1):
                ok &= bool(hw_vector(a, b, q, r, space))
    # twist lemma on representative pairs covering every (q, r) shape
    for a, b in [(1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2)]:
        space = TensorSpace(a, b)
        for q in range(a + 1):
            for r in range(b + 1):
                v, v0 = (hw_vector(a, b, j, r, space) for j in (q, 0))
                for h in (-2, -1, 1, 2):
                    good, _, _ = twist_lemma_check(space, v, v0, q, h)
                    ok &= good
    # micro-identity: the unipotent twist sends w' to w' + 2h w
    for h in (-2, -1, 1, 2):
        u6 = wedge_group_matrix(twist_element(h))
        image = {}
        for idx, coeff in W_PRIME:
            for i in range(6):
                if u6[i][idx]:
                    image[i] = image.get(i, 0) + coeff * u6[i][idx]
        expected = dict(W_PRIME)
        expected[W_INDEX] = expected.get(W_INDEX, 0) + 2 * h
        ok &= {k: v for k, v in image.items() if v} == \
              {k: v for k, v in expected.items() if v}
    _gate(10, "branching: dims, decomposition, hw vectors, twists", ok,
          time.monotonic() - start, 300)


def _rand_ratfunc(rng, gens, p):
    f = as_ratfunc(Q(rng.randint(-5, 5), rng.randint(1, 4)), p)
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(gens)
        f = f * g ** rng.randint(-2, 2) + as_ratfunc(rng.randint(-3, 3), p)
    return f


def test_criterion_11_foundations():
    start = time.monotonic()
    ok = True
    rng = random.Random(2026)

    # ring axioms on random rational functions (>= 500 cases)
    p = 3
    gens = [sym("alpha", p), sym("beta", p), ell_pow(1, p), ell_pow(-1, p)]
    zero, one = as_ratfunc(0, p), as_ratfunc(1, p)
    for _ in range(170):
        a = _rand_ratfunc(rng, gens, p)
        b = _rand_ratfunc(rng, gens, p)
        c = _rand_ratfunc(rng, gens, p)
        ok &= (a + b) + c == a + (b + c)          # case 1
        ok &= a * (b * c) == (a * b) * c          # case 2
        ok &= a + b == b + a and a * b == b * a   # case 3
        ok &= a * (b + c) == a * b + a * c        # case 4
        ok &= a + zero == a and a * one == a      # case 5
        ok &= a - a == zero                       # case 6
        if a != zero:
            ok &= a / a == one                    # case 7
    # 170 triples x 7 axiom checks > 500 random cases

    # Fourier involution and action homomorphism
    def rand_phi(rng, p):
        x = Q(rng.randint(-3, 3), rng.choice([1, p]))
        y = Q(rng.randint(-3, 3), rng.choice([1, p]))
        # non-integral support with deep level makes the cyclotomic
        # coefficients of the transform large; keep each case small
        depth = 1 if (x.denominator > 1 or y.denominator > 1) else \
            rng.randint(1, 2)
        return SchwartzFn.coset(p, x, y, depth, Q(rng.randint(1, 5)))

    def rand_gl2(rng, p):
        while True:
            m = mat([[rng.randint(-4, 4) for _ in range(2)]
                     for _ in range(2)])
            if mat_det(m) != 0:
                break
        if rng.random() < 0.3:
            m = mat_mul(m, mat([[1, 0], [0, Q(1, p)]]))
        return m

    for p in (2, 3):
        for _ in range(15):
            phi = rand_phi(rng, p)
            ok &= fourier(fourier(phi)) == phi
            g1, g2 = rand_gl2(rng, p), rand_gl2(rng, p)
            ok &= (act_schwartz(g1, act_schwartz(g2, phi))
                   == act_schwartz(mat_mul(g1, g2), phi))

    # Iwasawa round-trips (>= 500 cases across both groups)
    def rand_frac(rng, p):
        return Q(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, p, p * p]))

    count = 0
    for p in (2, 3, 5):
        for _ in range(90):
            g = mat([[rand_frac(rng, p) for _ in range(2)]
                     for _ in range(2)])
            if mat_det(g) == 0:
                continue
            b, k = iwasawa_gl2(g, p)
            ok &= mat_mul(b, k) == g and b[1][0] == 0
            ok &= pa.in_gl2_z(k, p)
            count += 1
    for p in (2, 3):
        for _ in range(130):
            g = identity(4)
            for _ in range(rng.randint(1, 5)):
                kind = rng.randint(0, 2)
                if kind == 0:
                    g = mat_mul(g, pa.root_unipotent(
                        rng.randint(0, 3), rand_frac(rng, p)))
                elif kind == 1:
                    g = mat_mul(g, rng.choice([pa.weyl_s1(), pa.weyl_s2()]))
                else:
                    a = Q(p) ** rng.randint(-2, 2) * rng.choice([1, 3])
                    d = Q(p) ** rng.randint(-2, 2)
                    c = Q(p) ** rng.randint(-2, 2)
                    g = mat_mul(g, mat([[a, 0, 0, 0], [0, d, 0, 0],
                                        [0, 0, c / d, 0], [0, 0, 0, c / a]]))
            b, k = iwasawa_gsp4(g, p)
            ok &= mat_mul(b, k) == g
            ok &= all(b[i][j] == 0 for i in range(4) for j in range(i))
            ok &= in_level(k, LevelSpec("G"), p)
            mu = gsp4_multiplier(g)
            ok &= b[0][0] * b[3][3] == mu and b[1][1] * b[2][2] == mu
            count += 1
    ok &= count >= 500 - 170 - 100  # iwasawa share of the 500+ case total
    assert count >= 250
    _gate(11, "foundations: ring axioms, Fourier, Iwasawa", ok,
          time.monotonic() - start, 60)
