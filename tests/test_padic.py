"""Tests for the p-adic layer: Iwasawa, Schwartz/Fourier, cosets."""

import itertools
import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from gsp4verify import padic as pa
from gsp4verify.padic import (
    Cyc, GSp4Elt, HElt, LevelSpec, SchwartzFn, act_schwartz, e_char, fourier,
    gsp4_multiplier, hecke_r_reps, hecke_t1_reps, hecke_t_reps, identity,
    in_level, iwasawa_gl2, iwasawa_gsp4, mat, mat_det, mat_inv, mat_mul,
    nullspace, rref_modp, siegel_parahoric_reps, siegel_u_reps, smith_vals,
    solve, val, vec_mat, weyl_s1, weyl_s2,
)
from gsp4verify.symcore import ell


def test_val():
    assert val(Q(4), 2) == 2
    assert val(Q(3, 8), 2) == -3
    assert val(0, 2) == pa.INF


def test_symplectic_form_and_weyl():
    for w in (weyl_s1(), weyl_s2()):
        assert gsp4_multiplier(w) == 1
    with pytest.raises(ValueError):
        gsp4_multiplier(mat([[1, 1, 0, 0], [0, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_h_embedding():
    h = HElt.of([[1, 2], [3, 7]], [[1, 0], [1, 1]])
    g = h.embed()
    assert g.mu == 1
    h2 = HElt.of([[0, 1], [-1, 0]], [[1, 1], [-1, 0]])
    assert (h * h2).embed().m == mat_mul(g.m, h2.embed().m)


def rand_fraction(rng, p):
    return Q(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, p, p * p, 5]))


def rand_gl2(rng, p):
    while True:
        m = mat([[rand_fraction(rng, p) for _ in range(2)] for _ in range(2)])
        if mat_det(m) != 0:
            return m


def test_iwasawa_gl2_random():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(60):
            g = rand_gl2(rng, p)
            b, k = iwasawa_gl2(g, p)
            assert mat_mul(b, k) == g
            assert b[1][0] == 0
            assert pa.in_gl2_z(k, p)


def rand_gsp4(rng, p):
    """Random element of GSp4(Q_p): product of torus, unipotents, Weyl."""
    g = identity(4)
    for _ in range(rng.randint(1, 6)):
        kind = rng.randint(0, 2)
        if kind == 0:
            i = rng.randint(0, 3)
            g = mat_mul(g, pa.root_unipotent(i, rand_fraction(rng, p)))
        elif kind == 1:
            g = mat_mul(g, rng.choice([weyl_s1(), weyl_s2()]))
        else:
            a = Q(p) ** rng.randint(-2, 2) * rng.choice([1, 3])
            b = Q(p) ** rng.randint(-2, 2)
            c = Q(p) ** rng.randint(-2, 2)
            g = mat_mul(g, mat([[a, 0, 0, 0], [0, b, 0, 0],
                                [0, 0, c / b, 0], [0, 0, 0, c / a]]))
    return g


def test_iwasawa_gsp4_random():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(80):
            g = rand_gsp4(rng, p)
            b, k = iwasawa_gsp4(g, p)
            assert mat_mul(b, k) == g
            for i in range(4):
                for j in range(i):
                    assert b[i][j] == 0
            assert in_level(k, LevelSpec("G"), p)
            mu = gsp4_multiplier(g)
            assert b[0][0] * b[3][3] == mu
            assert b[1][1] * b[2][2] == mu


def test_membership_catalog():
    p = 3
    g = identity(4)
    for kind in ("G", "K0", "K1det"):
        assert in_level(g, LevelSpec(kind), p)
    assert in_level(g, LevelSpec("Kmn", m=2, n=1), p)
    u = pa.root_unipotent(2, 1)
    assert in_level(u, LevelSpec("K0"), p)
    low = pa.mat_t(pa.root_unipotent(2, 1))
    # check it is symplectic and not in the parahoric
    assert gsp4_multiplier(low) == 1
    assert in_level(low, LevelSpec("G"), p)
    assert not in_level(low, LevelSpec("K0"), p)
    d = mat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    assert not in_level(d, LevelSpec("K1det"), 5)  # det = 4 != 1 mod 5
    assert in_level(d, LevelSpec("G"), 5)


def _product_oracle(a, b):
    """Sum of products, entry by entry."""
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), Q(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _entries(p):
    """int entries, and Fractions whose denominators are prime to p or
    divisible by p (or p^2)."""
    fractions = st.builds(lambda n, k, u: Q(n, p ** k * u),
                          st.integers(-30, 30), st.integers(0, 2),
                          st.sampled_from([1, 7, 11]))
    return st.one_of(st.integers(-30, 30), fractions)


@st.composite
def _product_operands(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n, k, m = draw(st.sampled_from([(2, 2, 2), (4, 4, 4), (2, 4, 2)]))
    entry = _entries(p)

    def matrix(rows, cols):
        return tuple(tuple(draw(entry) for _ in range(cols))
                     for _ in range(rows))
    return matrix(n, k), matrix(k, m)


@settings(max_examples=200, deadline=None)
@given(_product_operands())
def test_mat_mul_and_vec_mat_match_sum_of_products(operands):
    a, b = operands
    prod = mat_mul(a, b)
    assert prod == _product_oracle(a, b)
    assert all(type(x) is Q for row in prod for x in row)
    for v in a:
        assert vec_mat(v, b) == _product_oracle((v,), b)[0]


def test_mat_mul_rejects_ratfunc_entries():
    with pytest.raises(TypeError):
        mat_mul(((ell(3), 0), (0, 1)), identity(2))
    with pytest.raises(TypeError):
        vec_mat((1, ell(3)), identity(2))


def _in_level_reference(g, spec, p):
    """in_level written out in its original order: the multiplier first
    (from g^T J g as a sum of products), then integrality, then the
    congruences of the level."""
    jg = _product_oracle(pa.J4, g)
    gram = _product_oracle(tuple(zip(*g)), jg)
    mu = gram[0][3]
    if mu == 0 or any(gram[i][j] != mu * pa.J4[i][j]
                      for i in range(4) for j in range(4)):
        return False
    if any(val(x, p) < 0 for row in g for x in row) or val(mu, p) != 0:
        return False

    def cong(rows, cols, target, k):
        return all(val(g[i][j] - target(i, j), p) >= k
                   for i in rows for j in cols)

    def zero(i, j):
        return 0

    def one(i, j):
        return int(i == j)
    top, bottom = (0, 1), (2, 3)
    if spec.kind == "G":
        return True
    if spec.kind == "K0":
        return cong(bottom, top, zero, 1)
    if spec.kind == "K1det":
        return val(mat_det(g) - 1, p) >= 1
    kmn = (cong(bottom, top, zero, spec.n)
           and cong(bottom, bottom, one, spec.n)
           and val(mu - 1, p) >= spec.m)
    if spec.kind == "Kmn":
        return kmn
    if spec.kind == "Kmn2":
        return (kmn and cong(top, top, one, spec.m)
                and cong(top, bottom, zero, spec.m))
    assert spec.kind == "princ"
    return cong(range(4), range(4), one, spec.n)


@st.composite
def _level_inputs(draw):
    """A 4x4 matrix that is integral, non-integral or not a similitude,
    built as a word in root unipotents, their transposes and central
    scalings, optionally with one entry moved; and a prime."""
    p = draw(st.sampled_from([2, 3]))
    g = identity(4)
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            t = Q(draw(st.integers(-3, 3))) * Q(p) ** draw(st.integers(-1, 2))
            u = pa.root_unipotent(draw(st.integers(0, 3)), t)
            h = pa.mat_t(u) if draw(st.booleans()) else u
        else:
            lam = draw(st.sampled_from([1, -1, p - 1, 1 + p, p]))
            h = mat([[1, 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, lam, 0], [0, 0, 0, lam]])
        g = mat_mul(g, h)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rows = [list(r) for r in g]
        rows[i][j] += draw(st.sampled_from([1, p, Q(1, p)]))
        g = mat(rows)
    return g, p


@settings(max_examples=300, deadline=None)
@given(_level_inputs(), st.integers(0, 2), st.integers(0, 2))
def test_in_level_matches_reference_conjunction(inputs, m, n):
    g, p = inputs
    for spec in (LevelSpec("G"), LevelSpec("K0"), LevelSpec("K1det"),
                 LevelSpec("Kmn", m, n), LevelSpec("Kmn2", m, n),
                 LevelSpec("princ", 0, n)):
        assert in_level(g, spec, p) == _in_level_reference(g, spec, p), spec


# -- cyclotomic scalars ---------------------------------------------------

def test_cyc_basics():
    p = 3
    z = Cyc.root(p, 1, 1)
    s = z + z * z  # zeta + zeta^2 = -1
    assert s.is_rational() and s.as_rational() == -1
    full = sum((Cyc.root(p, j, 1) for j in range(1, 3)), Cyc.root(p, 0, 1))
    assert full.is_rational() and full.as_rational() == 0
    # zeta_9^3 is a primitive cube root
    assert Cyc.root(3, 3, 2) == Cyc.root(3, 1, 1)


def test_cyc_sum_across_primes_raises():
    with pytest.raises(ValueError):
        Cyc.root(2, 1, 1) + Cyc.root(3, 1, 1)


def test_e_char():
    assert e_char(Q(1, 2), 2) == Cyc.rational(2, -1)
    assert e_char(Q(1), 3) == Cyc.rational(3, 1)
    assert e_char(Q(5, 3), 3) == Cyc.root(3, 2, 1)
    # character sum over all residues vanishes
    s = Cyc.rational(3, 0)
    for u in range(9):
        s = s + e_char(Q(u, 9), 3)
    assert s.as_rational() == 0


# -- Schwartz functions ----------------------------------------------------

def test_schwartz_canonical_merge():
    p = 2
    f = SchwartzFn.zero(p)
    for a in range(2):
        for b in range(2):
            f = f + SchwartzFn.coset(p, a, b, 1)
    assert f == SchwartzFn.lattice_product(p, 0, 0)
    assert f.n == 0 and f.s == 0


def test_schwartz_bad_scale_and_downward_refinement_raise():
    with pytest.raises(ValueError):
        SchwartzFn(3, -1, 2, {})
    phi = SchwartzFn.depth_pair(3, 2)
    with pytest.raises(ValueError):
        phi.refined(phi.s, phi.n - 1)
    with pytest.raises(ValueError):
        phi + SchwartzFn.depth_pair(2, 2)


def test_schwartz_eval_and_action():
    p = 3
    phi = SchwartzFn.unit_column(p, 1)  # ch(3Z x Z^x)
    assert phi.value_at(3, 1) == 1
    assert phi.value_at(1, 1) == 0
    assert phi.value_at(0, 3) == 0
    # phi_t = diag(p^{1-t}, 1) . phi_1
    for t in (2, 3):
        g = mat([[Q(p) ** (1 - t), 0], [0, 1]])
        assert act_schwartz(g, phi) == SchwartzFn.unit_column(p, t)


def test_schwartz_action_is_right_action():
    rng = random.Random(3)
    p = 2
    phi = SchwartzFn.coset(p, Q(1, 2), 1, 1)
    for _ in range(10):
        g1, g2 = rand_gl2(rng, p), rand_gl2(rng, p)
        lhs = act_schwartz(g1, act_schwartz(g2, phi))
        rhs = act_schwartz(mat_mul(g1, g2), phi)
        assert lhs == rhs


def test_fourier_basic():
    for p in (2, 3):
        f0 = SchwartzFn.lattice_product(p, 0, 0)
        assert fourier(f0) == f0
        # ch(pZ x Z) -> (1/p) ch(Z x p^{-1}Z)
        f = SchwartzFn.lattice_product(p, 1, 0)
        g = fourier(f)
        assert g == SchwartzFn.lattice_product(p, 0, -1) * Q(1, p)


def test_fourier_unit_column():
    # phi_1 = ch(pZ x Z^x): hat has rational coefficients
    for p in (2, 3):
        phi = SchwartzFn.unit_column(p, 1)
        g = fourier(phi)
        xs = [Q(0), Q(1), Q(1, p), Q(p)]
        for x in xs:
            for y in xs:
                # hat(x,y) = [ch(Z)-p^{-1}ch(p^{-1}Z)](x) * p^{-1}ch(p^{-1}Z)(y)
                a = (1 if x.denominator == 1 else 0) - Q(1, p) * (
                    1 if (x * p).denominator == 1 else 0)
                b = Q(1, p) * (1 if (y * p).denominator == 1 else 0)
                assert g.value_at(x, y) == a * b


def test_fourier_involution():
    p = 3
    phi = SchwartzFn.coset(p, 1, Q(1, 3), 1)
    # the antisymmetric kernel makes the transform an involution
    assert fourier(fourier(phi)) == phi
    # and it commutes with x -> -x
    neg = act_schwartz(mat([[-1, 0], [0, -1]]), phi)
    assert fourier(neg) == act_schwartz(mat([[-1, 0], [0, -1]]), fourier(phi))


# -- exact linear algebra, against sympy ------------------------------------

def int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-4, 4), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


square_matrices = st.integers(1, 4).flatmap(lambda n: int_matrices(n, n))
rect_matrices = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: int_matrices(*shape))


def _q(x) -> Q:
    return Q(int(x.p), int(x.q))


@settings(max_examples=150, deadline=None)
@given(square_matrices, st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_mat_inv_and_solve_match_sympy(rows, rhs):
    a = mat(rows)
    b = [Q(x) for x in rhs[:len(rows)]]
    sm = sympy.Matrix(rows)
    if sm.det() == 0:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
        with pytest.raises(ZeroDivisionError):
            solve(a, b)
        return
    assert mat_inv(a) == tuple(tuple(_q(x) for x in sm.inv().row(i))
                               for i in range(len(rows)))
    assert solve(a, b) == tuple(_q(x) for x in sm.LUsolve(sympy.Matrix(b)))


@settings(max_examples=150, deadline=None)
@given(rect_matrices)
def test_nullspace_spans_sympy_nullspace(rows):
    basis = nullspace(mat(rows))
    theirs = sympy.Matrix(rows).nullspace()
    assert len(basis) == len(theirs)
    for x in basis:
        assert all(sum(r[j] * x[j] for j in range(len(x))) == 0
                   for r in rows)
    if basis:
        ours = sympy.Matrix([list(x) for x in basis])
        both = ours.col_join(sympy.Matrix.hstack(*theirs).T)
        assert ours.rank() == both.rank() == len(basis)


@settings(max_examples=150, deadline=None)
@given(rect_matrices, st.sampled_from([2, 3, 5, 7]))
def test_rref_modp_matches_sympy_over_gf_p(rows, p):
    gf = sympy.GF(p)
    dm = DomainMatrix([[gf(x) for x in r] for r in rows],
                      (len(rows), len(rows[0])), gf)
    reduced = rref_modp(rows, p)
    assert len(reduced) == dm.rank()
    theirs = [[int(x) % p for x in r] for r in dm.rref()[0].to_list()]
    assert reduced == theirs[:len(reduced)]


# -- coset enumeration ------------------------------------------------------

def test_smith_vals():
    p = 2
    m = mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]])
    assert smith_vals(m, p) == [0, 1, 1, 2]


@pytest.mark.parametrize("p", [2, 3])
def test_hecke_t_reps_count(p):
    reps = hecke_t_reps(p)
    assert len(reps) == p ** 3 + p ** 2 + p + 1
    for g in reps:
        assert smith_vals(g, p) == [0, 0, 1, 1]
        assert val(gsp4_multiplier(g), p) == 1
    # pairwise inequivalent
    for g1, g2 in itertools.combinations(reps, 2):
        assert not in_level(mat_mul(mat_inv(g1), g2), LevelSpec("G"), p)


@pytest.mark.parametrize("p", [2, 3])
def test_hecke_t1_reps_count(p):
    reps = hecke_t1_reps(p)
    # degree p(p+1)(p^2+1), cross-checked by brute-force lattice count
    assert len(reps) == p * (p + 1) * (p ** 2 + 1)
    for g in reps:
        assert smith_vals(g, p) == [0, 1, 1, 2]
        assert val(gsp4_multiplier(g), p) == 2


def test_r_and_u_reps():
    assert hecke_r_reps(3)[0] == mat_scalar_3()
    assert len(siegel_u_reps(2)) == 8


def mat_scalar_3():
    return pa.mat_scalar(identity(4), 3)


@pytest.mark.parametrize("p", [2, 3])
def test_siegel_parahoric_reps(p):
    reps = siegel_parahoric_reps(p)
    assert len(reps) == (p ** 2 + 1) * (p + 1)
    for k in reps:
        assert in_level(k, LevelSpec("G"), p)
    for k1, k2 in itertools.combinations(reps, 2):
        assert not in_level(mat_mul(mat_inv(k1), k2), LevelSpec("K0"), p)
