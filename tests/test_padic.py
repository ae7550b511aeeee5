"""Tests for the p-adic layer: Iwasawa, Schwartz/Fourier, cosets."""

import itertools
import math
import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from gsp4verify import normrel as nr
from gsp4verify import padic as pa
from gsp4verify.gsp4local import (InducedVectorG, PrincipalSeriesG,
                                  eval_induced, hecke_eigenvalue)
from gsp4verify.padic import (
    Cyc, LevelSpec, SchwartzFn, act_schwartz, fourier,
    gsp4_inv, gsp4_multiplier, identity, in_level, iwasawa_gl2,
    iwasawa_gsp4, mat, mat_det, mat_inv, mat_mul, min_val, rref_modp,
    siegel_parahoric_reps, siegel_u_reps, solve, val, weyl_s1, weyl_s2,
)
from gsp4verify.symcore import as_ratfunc, ell


def hecke_t_reps(p: int):
    """Left coset reps for K diag(1,1,p,p) K."""
    return pa.enumerate_double_coset((0, 0, 1, 1), p)


def hecke_t1_reps(p: int):
    """Left coset reps for K diag(1,p,p,p^2) K."""
    return pa.enumerate_double_coset((0, 1, 1, 2), p)


def hecke_r_reps(p: int):
    """The one left coset of K p K."""
    return [pa.mat_scalar(identity(4), p)]


def test_val():
    assert val(Q(4), 2) == 2
    assert val(Q(3, 8), 2) == -3
    assert val(0, 2) == pa.INF
    assert val(-12, 2) == 2
    assert val(Q(-5, 27), 3) == -3
    assert val(Q(-5, 27), 5) == 1


def test_symplectic_form_and_weyl():
    for w in (weyl_s1(), weyl_s2()):
        assert gsp4_multiplier(w) == 1
    with pytest.raises(ValueError):
        gsp4_multiplier(mat([[1, 1, 0, 0], [0, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]]))


def _embed(g1, g2):
    """The block matrix of the pair (g1, g2) of Fraction 2x2 matrices,
    through the (r, d) embedding."""
    return pa._as_fractions(pa._embed_rows((pa._integer_rows(g1),
                                            pa._integer_rows(g2))))


def test_h_embedding():
    g1, g2 = mat([[1, 2], [3, 7]]), mat([[1, 0], [1, 1]])
    g = _embed(g1, g2)
    # g1 on the outer rows and columns, g2 on the inner ones
    assert g == mat([[1, 0, 0, 2], [0, 1, 0, 0], [0, 1, 1, 0], [3, 0, 0, 7]])
    assert gsp4_multiplier(g) == 1
    h1, h2 = mat([[0, 1], [-1, 0]]), mat([[1, 1], [-1, 0]])
    assert _embed(mat_mul(g1, h1), mat_mul(g2, h2)) == mat_mul(g, _embed(h1, h2))
    # the blocks are brought over one denominator, in lowest terms
    a, b = mat([[Q(1, 2), 0], [0, 2]]), mat([[1, Q(1, 3)], [0, 1]])
    x = pa._embed_rows((pa._integer_rows(a), pa._integer_rows(b)))
    assert x[1] == 6 and pa._as_fractions(x) == mat(
        [[Q(1, 2), 0, 0, 0], [0, 1, Q(1, 3), 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert pa._lowest(*x) == x
    with pytest.raises(ValueError, match="determinants differ"):
        _embed(mat([[1, 2], [3, 7]]), mat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="determinants differ"):
        _embed(mat([[Q(1, 2), 0], [0, 1]]), mat([[1, 0], [0, 2]]))


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


def _iwasawa_invariants(g, p):
    """Valuations fixed on g GSp4(Z_p): the least valuation of the last
    row, and the least valuation of the 2x2 minors of the last two rows
    (the Pluecker vector moves by the second exterior power of k)."""
    row4 = min(val(x, p) for x in g[3])
    minors = min(val(g[2][i] * g[3][j] - g[2][j] * g[3][i], p)
                 for i, j in itertools.combinations(range(4), 2))
    return row4, minors


def _iwasawa_oracle_inputs():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(80):
            yield rand_gsp4(rng, p), p
        for exps in ((0, 0, 1, 1), (0, 1, 1, 2)):
            for g in orbit_double_coset(exps, p):
                yield g, p


def test_iwasawa_gsp4_borel_diagonal_against_invariants():
    count = 0
    for g, p in _iwasawa_oracle_inputs():
        b, k = iwasawa_gsp4(g, p)
        assert mat_mul(b, k) == g
        assert _iwasawa_invariants(g, p) == (
            val(b[3][3], p), val(b[2][2] * b[3][3], p))
        count += 1
    assert count == 2 * 80 + (15 + 30) + (40 + 120)


def test_iwasawa_gsp4_accepts_elements_and_rejects_non_similitudes():
    g = mat_mul(weyl_s1(), pa.root_unipotent(2, Q(4)))
    # an element given as nested lists of ints is read as its matrix
    assert iwasawa_gsp4([[int(x) for x in row] for row in g], 2) == \
        iwasawa_gsp4(g, 2)
    with pytest.raises(ValueError):
        iwasawa_gsp4(mat([[1, 1, 0, 0], [0, 1, 0, 0],
                          [0, 0, 1, 0], [0, 0, 0, 1]]), 2)


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


def vec_mat(v, a):
    """The row vector v times the matrix a."""
    return mat_mul((v,), a)[0]


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
    assert spec.kind == "Kmn"
    return (cong(bottom, top, zero, spec.n)
            and cong(bottom, bottom, one, spec.n)
            and val(mu - 1, p) >= spec.m)


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
                 LevelSpec("Kmn", m, n)):
        assert in_level(g, spec, p) == _in_level_reference(g, spec, p), spec


# -- cyclotomic scalars ---------------------------------------------------

def cyc_root(p, num, k):
    """zeta_{p^k}^num."""
    return Cyc(p, k, {num % (p ** k): Q(1)})


def e_char(x, p):
    """Additive character e_p(x) = exp(2 pi i {x}) for x in Q with p-power
    denominator (the p-part of x mod Z is all that matters)."""
    x = Q(x)
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if den != 1:
        raise ValueError("denominator must be a p-power")
    M = p ** k
    num = (x.numerator * pow(x.denominator // M, -1, M)) % M if M > 1 else 0
    return cyc_root(p, num, k)


def test_cyc_basics():
    p = 3
    z = cyc_root(p, 1, 1)
    s = z + z * z  # zeta + zeta^2 = -1
    assert s.is_rational() and s.as_rational() == -1
    full = sum((cyc_root(p, j, 1) for j in range(1, 3)), cyc_root(p, 0, 1))
    assert full.is_rational() and full.as_rational() == 0
    # zeta_9^3 is a primitive cube root
    assert cyc_root(3, 3, 2) == cyc_root(3, 1, 1)


def test_cyc_sum_across_primes_raises():
    with pytest.raises(ValueError):
        cyc_root(2, 1, 1) + cyc_root(3, 1, 1)


def test_e_char():
    assert e_char(Q(1, 2), 2) == Cyc.rational(2, -1)
    assert e_char(Q(1), 3) == Cyc.rational(3, 1)
    assert e_char(Q(5, 3), 3) == cyc_root(3, 2, 1)
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


@pytest.mark.parametrize("h", [
    SchwartzFn.coset(2, Q(1, 2), 0, 1),
    SchwartzFn.coset(3, Q(1, 3), 0, 1),
    SchwartzFn.coset(3, Q(1, 9), Q(2, 3), -1, Q(2)),
], ids=["p2", "p3", "p3-level-1"])
def test_schwartz_zero_is_unique(h):
    # every cancelling sum is the one zero, at scale and level 0, and
    # the transform maps it to itself
    zero = h - h
    assert zero == SchwartzFn.zero(h.p) and (zero.s, zero.n) == (0, 0)
    assert fourier(fourier(zero)) == zero == fourier(zero)
    assert zero + h == h and h + zero == h


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


def _value_at_reference(phi, x, y):
    """SchwartzFn.value_at on Fractions: scale by p^s, test the valuations,
    reduce each coordinate mod p^(s+n)."""
    p = phi.p
    xs, ys = Q(x) * p ** phi.s, Q(y) * p ** phi.s
    if (xs != 0 and val(xs, p) < 0) or (ys != 0 and val(ys, p) < 0):
        return Q(0)
    M = p ** (phi.s + phi.n)
    key = tuple(z.numerator * pow(z.denominator, -1, M) % M for z in (xs, ys))
    return phi.table.get(key, Q(0))


def _act_schwartz_reference(g, phi):
    """act_schwartz on Fractions: map every grid point (a, b) / p^s2 by g
    and evaluate phi there."""
    p = phi.p
    g = mat(g)
    gi = mat_inv(g)
    e_fwd = max(0, -int(min_val(g, p)))
    e_bwd = max(0, -int(min_val(gi, p)))
    s2 = phi.s + e_bwd
    n2 = phi.n + e_fwd
    M = p ** (s2 + n2)
    den = Q(p) ** s2
    table = {}
    for a in range(M):
        for b in range(M):
            x, y = vec_mat((Q(a) / den, Q(b) / den), g)
            c = _value_at_reference(phi, x, y)
            if c != 0:
                table[(a, b)] = c
    return SchwartzFn(p, s2, n2, table)


def _grid_size(g, phi):
    p = phi.p
    e_fwd = max(0, -int(min_val(g, p)))
    e_bwd = max(0, -int(min_val(mat_inv(g), p)))
    return p ** (phi.s + e_bwd + phi.n + e_fwd)


@st.composite
def _schwartz_action_inputs(draw):
    """A prime p in {2, 3, 5}, an invertible 2x2 g whose denominators are
    prime to p, divisible by p or divisible by p^2, a test function from
    one of the four constructors (cosets include points of negative
    valuation, so scale s > 0), optionally plus a coset term so that the
    table is not invariant under scaling by units, and a rational
    point."""
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(0, 2))

    def rational(top):
        return Q(draw(st.integers(-2 * p, 2 * p)),
                 p ** draw(st.integers(0, top))
                 * draw(st.sampled_from([1, 7, 11, 13])))

    def coset():
        return SchwartzFn.coset(p, rational(1), rational(1),
                                draw(st.integers(-1, 2)),
                                draw(st.sampled_from([Q(1), Q(-3, 2)])))
    g = mat([[rational(k), rational(k)], [rational(k), rational(k)]])
    assume(mat_det(g) != 0)
    kind = draw(st.sampled_from(["coset", "lattice_product", "unit_column",
                                 "depth_pair"]))
    if kind == "coset":
        phi = coset()
    elif kind == "lattice_product":
        phi = SchwartzFn.lattice_product(p, draw(st.integers(-1, 1)),
                                         draw(st.integers(-1, 1)))
    elif kind == "unit_column":
        phi = SchwartzFn.unit_column(p, draw(st.integers(0, 2)))
    else:
        phi = SchwartzFn.depth_pair(p, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        phi = phi + coset()
    assume(_grid_size(g, phi) <= 64)
    return g, phi, (rational(2), rational(2))


@settings(max_examples=200, deadline=None)
@given(_schwartz_action_inputs())
@example((mat([[Q(1, 25), 1], [0, 1]]), SchwartzFn.lattice_product(5, 0, 0),
          (Q(3, 25), Q(2, 7))))
@example((mat([[Q(1, 9), Q(2, 3)], [0, 1]]),
          SchwartzFn.coset(3, Q(1, 3), 1, 0), (Q(1), Q(1, 3))))
@example((mat([[Q(1, 7), 0], [0, Q(1, 7)]]), SchwartzFn.depth_pair(5, 1),
          (Q(0), Q(2, 7))))
def test_act_schwartz_matches_fraction_reference(inputs):
    g, phi, (x, y) = inputs
    assert act_schwartz(g, phi) == _act_schwartz_reference(g, phi)
    assert phi.value_at(x, y) == _value_at_reference(phi, x, y)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_act_schwartz_reference_edge_cases(p):
    """g = p I, and functions with s + n = 0.  In act_schwartz the
    divisor exponent is e_bwd + val(den g) >= 0; a negative one arises in
    value_at, at points whose denominator has p-valuation below the
    scale s (here the integral points on functions with s = 1)."""
    scalar = mat([[p, 0], [0, p]])
    for phi in (SchwartzFn.lattice_product(p, 0, 0),     # s + n = 0
                SchwartzFn.lattice_product(p, -1, -1),   # s + n = 0, s = 1
                SchwartzFn.coset(p, Q(1, p), 1, 1),      # s = 1
                SchwartzFn.unit_column(p, 1)):
        assert act_schwartz(scalar, phi) == _act_schwartz_reference(scalar,
                                                                    phi)
        for x, y in ((0, 0), (1, p), (p, -1), (Q(1, p), 2), (Q(2, 7), 3)):
            assert phi.value_at(x, y) == _value_at_reference(phi, x, y)


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


def _fourier_by_definition(phi, x, y, N):
    """int int e_p(x v - y u) phi(u, v) du dv as a sum over (u, v) mod p^N:
    exact when phi is supported in Z_p^2 and constant mod p^N, and x and
    y lie in p^-N Z_p, so that the character is constant mod p^N too."""
    p = phi.p
    tot = Q(0)
    for u in range(p ** N):
        for v in range(p ** N):
            c = phi.value_at(u, v)
            if c:
                tot = tot + c * e_char(x * v - y * u, p) * Q(1, p ** (2 * N))
    return tot


def test_fourier_matches_its_defining_sum():
    # phi = ch((0, 1) + 3 Z_3^2) is not even, so the sum sees the sign of
    # the character: the transform reflected, phi_hat(-x), must fail
    p, N = 3, 2
    phi = SchwartzFn.coset(p, 0, 1, 1)
    assert phi.s == 0 and phi.n <= N
    got = fourier(phi)
    M = p ** (got.s + got.n)
    reflected = SchwartzFn(p, got.s, got.n, {(-a % M, -b % M): c
                                             for (a, b), c in got.table.items()})
    points = [(Q(a, p ** N), Q(b, p ** N))
              for a in range(p ** N) for b in range(p ** N)]
    want = [_fourier_by_definition(phi, x, y, N) for x, y in points]
    assert [got.value_at(x, y) for x, y in points] == want
    assert [reflected.value_at(x, y) for x, y in points] != want


def fourier_by_terms(phi):
    """The transform built term by term: one e_char and one Cyc product
    per support term per grid point of the output."""
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
    den = Q(p) ** s_out
    w = Q(p) ** (-2 * n)
    table = {}
    for a in range(M):
        for b in range(M):
            x, y = Q(a) / den, Q(b) / den
            if val(x, p) < -n or val(y, p) < -n:
                continue
            tot = Q(0)
            for (u0, v0, c, _) in terms:
                tot = tot + c * e_char(x * v0 - y * u0, p) * w
            if tot != 0:
                table[(a, b)] = tot
    return SchwartzFn(p, s_out, n_out, table)


def _random_schwartz(rng, p):
    """A sum of one to three cosets with scale and level 0 or 1 and
    coefficients of either sign; a term may cancel the one before it,
    so the sum may be zero."""
    phi, term = SchwartzFn.zero(p), None
    for _ in range(rng.randint(1, 3)):
        if term is not None and rng.random() < 0.3:
            term = term * Q(-1)
        else:
            x = Q(rng.randint(-4, 4), p ** rng.randint(0, 1))
            y = Q(rng.randint(-4, 4), p ** rng.randint(0, 1))
            term = SchwartzFn.coset(p, x, y, rng.randint(0, 1),
                                    Q(rng.choice((-3, -1, 1, 2, 5))))
        phi = phi + term
    return phi


def _same_table(f, g):
    """Equal as functions, with equal scale and level, and every value
    of both a Cyc."""
    return f == g and all(isinstance(c, Cyc)
                          for c in (*f.table.values(), *g.table.values()))


def test_fourier_matches_term_by_term_oracle():
    rng = random.Random(19)
    phis = [_random_schwartz(rng, p) for p in (2, 3) for _ in range(16)]
    assert {(phi.s, phi.n) for phi in phis} >= {(0, 0), (0, 1), (1, 0),
                                                 (1, 1)}
    assert {phi.p for phi in phis if phi.is_zero()} == {2, 3}
    # level -1: the transform lives on p Z_p^2 and is stepped over by p
    phis += [SchwartzFn.coset(3, Q(1, 9), Q(2, 3), -1, Q(2)),
             SchwartzFn.lattice_product(2, -1, -1)]
    assert phis[-1].n < 0 and phis[-2].n < 0
    cyc_valued = 0
    for phi in phis:
        got = fourier(phi)
        assert _same_table(got, fourier_by_terms(phi)), phi
        # Cyc-valued tables: the transform of a transform is phi again; the
        # oracle on them only at p = 2, where it takes milliseconds, not
        # half a second
        cyc_valued += any(not c.is_rational() for c in got.table.values())
        back = fourier(got)
        assert back == phi
        assert all(isinstance(c, Cyc) for c in back.table.values())
        if phi.p == 2:
            assert _same_table(back, fourier_by_terms(got)), got
    assert cyc_valued >= 10


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
    assert mat_det(a) == _q(sm.det())
    if sm.det() == 0:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
        with pytest.raises(ZeroDivisionError):
            solve(a, b)
        return
    assert mat_inv(a) == tuple(tuple(_q(x) for x in sm.inv().row(i))
                               for i in range(len(rows)))
    assert solve(a, b) == tuple(_q(x) for x in sm.LUsolve(sympy.Matrix(b)))


_rationals = st.builds(Q, st.integers(-12, 12), st.integers(1, 12))
_nonzero = _rationals.filter(bool)


@st.composite
def _similitudes(draw):
    """A word in the Weyl elements, root unipotents with rational
    parameters and torus elements diag(a, b, c/b, c/a)."""
    g = identity(4)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["weyl", "root", "torus"]))
        if kind == "weyl":
            h = draw(st.sampled_from([weyl_s1(), weyl_s2()]))
        elif kind == "root":
            h = pa.root_unipotent(draw(st.integers(0, 3)), draw(_rationals))
        else:
            a, b, c = draw(_nonzero), draw(_nonzero), draw(_nonzero)
            h = mat([[a, 0, 0, 0], [0, b, 0, 0],
                     [0, 0, c / b, 0], [0, 0, 0, c / a]])
        g = mat_mul(g, h)
    return g


@settings(max_examples=200, deadline=None)
@given(_similitudes())
def test_gsp4_inv_matches_mat_inv(g):
    gi = gsp4_inv(g)
    assert gi == mat_inv(g)
    assert all(type(x) is Q for row in gi for x in row)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rationals, min_size=4, max_size=4))
def test_gl2_inv_matches_mat_inv(entries):
    g = mat([entries[:2], entries[2:]])
    assume(mat_det(g) != 0)
    assert gsp4_inv(g) == mat_inv(g)


def test_closed_form_inverses_reject_their_bad_inputs():
    shear = mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):      # invertible, not a similitude
        gsp4_inv(shear)
    with pytest.raises(ValueError):      # r^T J r = 0 J: mu must be nonzero
        gsp4_inv(mat([[0] * 4] * 4))
    with pytest.raises(ZeroDivisionError):
        gsp4_inv(mat([[1, 2], [2, 4]]))
    with pytest.raises(ZeroDivisionError):
        gsp4_inv(mat([[0, 0], [0, 0]]))


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

def is_p_integral(x, p):
    return val(x, p) >= 0


def smith_vals(m, p: int):
    """p-adic elementary divisor exponents (d1 <= d2 <= ...), via minor
    valuations."""
    n = len(m)
    vs = []
    for k in range(1, n + 1):
        best = pa.INF
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


def hnf_key(m, p: int, N: int) -> tuple:
    """Canonical invariant of the Z_p-lattice spanned by the columns of an
    integer matrix with nonzero determinant; identifies left cosets g K.
    Entries are ints or Fractions with denominator 1; a non-integral
    entry raises ValueError.  The Z_p-span is captured over Z by
    adjoining p^N Z^n; the caller passes an N that clears every
    elementary divisor, such as the valuation of the determinant."""
    n = len(m)
    pN = p ** N
    if any(x.denominator != 1 for row in m for x in row):
        raise ValueError("hnf_key needs an integer matrix")
    # column vectors, including the p^N-scaled standard basis
    cols = [[m[r][c].numerator for r in range(n)] for c in range(n)]
    cols += [[pN * (r == i) for r in range(n)] for i in range(n)]
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


def orbit_double_coset(exps, p):
    """Left coset representatives of K diag(p^exps) K / K found by
    search: cosets g K correspond to the lattices g Z_p^4, so take the
    orbit of diag(p^exps) under generators of K (root unipotents, their
    transposes and the similitudes diag(1, 1, lam, lam), lam a unit mod
    p^max(exps)), keyed by the Hermite form modulo p^sum(exps).  The
    orbit runs on integer rows over one denominator, (r, d)."""
    a = pa._diag(*(p ** x for x in exps))
    gens = pa._unipotent_generators() + [
        pa._diag(1, 1, lam, lam) for lam in range(2, p ** max(exps))
        if lam % p]
    return [pa._as_fractions(x) for x in pa._orbit(
        a, gens, lambda x: hnf_key(pa._as_fractions(x), p, sum(exps)))]


HECKE_TYPES = [(0, 0, 1, 1), (0, 1, 1, 2)]


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


@pytest.mark.parametrize("exps", HECKE_TYPES)
@pytest.mark.parametrize("p", [2, 3])
def test_double_coset_reps_have_the_orbit_lattices(exps, p):
    """The explicit representatives span exactly the lattices of the
    orbit search, one representative per lattice."""
    N = sum(exps)
    keys = [hnf_key(r, p, N) for r in pa.enumerate_double_coset(exps, p)]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {hnf_key(r, p, N)
                         for r in orbit_double_coset(exps, p)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_double_coset_reps_are_integral_borel_elements(p):
    """Degrees (1 + p)(1 + p^2) and p(1 + p)(1 + p^2), split over the
    torus types as 1, p, p^2, p^3 and 1, p, p^2 - 1, p^3, p^4."""
    for exps, per_type in (((0, 0, 1, 1), [1, p, p ** 2, p ** 3]),
                           ((0, 1, 1, 2), [1, p, p ** 2 - 1, p ** 3,
                                           p ** 4])):
        reps = pa.enumerate_double_coset(exps, p)
        assert len(reps) == sum(per_type)
        types = {}
        for b in reps:
            assert all(b[i][j] == 0 for i in range(4) for j in range(i))
            assert all(is_p_integral(x, p) for row in b for x in row)
            assert val(gsp4_multiplier(b), p) == exps[0] + exps[3]
            d = tuple(val(b[i][i], p) for i in range(4))
            types[d] = types.get(d, 0) + 1
        assert sorted(types.values()) == sorted(per_type)


@pytest.mark.parametrize("p", [2, 3])
def test_hecke_eigenvalues_match_the_orbit_sum_of_eval_induced(p):
    sigma = PrincipalSeriesG.formal(p)
    sph = InducedVectorG.spherical(sigma)
    for op, exps in zip(("T", "T1"), HECKE_TYPES):
        total = as_ratfunc(0, p)
        for g in orbit_double_coset(exps, p):
            total = total + eval_induced(sph, g)
        assert hecke_eigenvalue(op, sigma) == total


def test_enumerate_double_coset_rejects_other_exponents():
    for exps in ((0, 0, 0, 0), (0, 0, 2, 2), (1, 1, 2, 2), (0, 1, 2, 3),
                 (1, 1, 0, 0)):
        with pytest.raises(ValueError):
            pa.enumerate_double_coset(exps, 3)


@pytest.mark.parametrize("exps,p,count", [
    ((0, 0, 1, 1), 2, 15), ((0, 0, 1, 1), 3, 40),
    ((0, 1, 1, 2), 2, 30), ((0, 1, 1, 2), 3, 120)])
def test_hnf_key_does_not_depend_on_the_modulus(exps, p, count):
    reps = orbit_double_coset(exps, p)
    assert len(reps) == count
    N = sum(exps)
    for r in reps:
        key = hnf_key(r, p, N)
        assert key == hnf_key(r, p, N + 1)
        assert key == hnf_key(r, p, val(mat_det(r), p))


def test_hnf_key_rejects_non_integral_entries():
    p, N = 2, 2
    assert hnf_key(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0],
                        [0, 0, 0, 2]]), p, N)
    for x in (Q(5, 2), Q(1, 3)):
        with pytest.raises(ValueError):
            hnf_key(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, x, 0],
                         [0, 0, 0, 2]]), p, N)


def test_r_and_u_reps():
    assert hecke_r_reps(3)[0] == mat_scalar_3()
    assert len(siegel_u_reps(2)) == 8


def mat_scalar_3():
    return pa.mat_scalar(identity(4), 3)


def lagrangian_subspaces(p: int):
    """All 2-dim isotropic subspaces of F_p^4, each as a canonical reduced
    row-echelon basis pair, by brute force over pairs of vectors."""
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


@pytest.mark.parametrize("p", [2, 3])
def test_siegel_parahoric_reps_are_the_isotropic_planes(p):
    planes = []
    for k in siegel_parahoric_reps(p):
        cols = [[int(k[r][c]) for r in range(4)] for c in (0, 1)]
        planes.append(tuple(map(tuple, rref_modp(cols, p))))
    assert len(set(planes)) == len(planes)
    assert sorted(planes) == sorted(lagrangian_subspaces(p))


@pytest.mark.parametrize("p", [2, 3])
def test_siegel_parahoric_reps(p):
    reps = siegel_parahoric_reps(p)
    assert len(reps) == (p ** 2 + 1) * (p + 1)
    for k in reps:
        assert in_level(k, LevelSpec("G"), p)
    for k1, k2 in itertools.combinations(reps, 2):
        assert not in_level(mat_mul(mat_inv(k1), k2), LevelSpec("K0"), p)


# -- the integer kernel against the Fraction reference ---------------------

def _reference_integer_rows(a):
    """Integer rows (lists) r and the least common denominator d of an
    int/Fraction matrix, with a = r / d."""
    d = math.lcm(*(Q(x).denominator for row in a for x in row))
    return [[Q(x).numerator * (d // Q(x).denominator) for x in row]
            for row in a], d


def _reference_mat_mul(a, b):
    """mat_mul on Fractions: integer row-by-column sums over the product
    of the two common denominators, one reduced Fraction per entry."""
    ra, da = _reference_integer_rows(a)
    rb, db = _reference_integer_rows(b)
    return tuple(tuple(Q(sum(x * y for x, y in zip(r, c)), da * db)
                       for c in zip(*rb)) for r in ra)


def _reference_symplectic_rows(m):
    r, d = _reference_integer_rows(m)
    pairs = itertools.combinations(range(4), 2)
    form = [r[0][i] * r[3][j] + r[1][i] * r[2][j]
            - r[2][i] * r[1][j] - r[3][i] * r[0][j] for i, j in pairs]
    mu_r = form[2]
    if mu_r == 0 or form != [0, 0, mu_r, mu_r, 0, 0]:
        raise ValueError("matrix does not preserve the symplectic form")
    return r, d, mu_r


def _reference_multiplier(m):
    _, d, mu_r = _reference_symplectic_rows(m)
    return Q(mu_r, d * d)


def _reference_gsp4_inv(g):
    """mu^-1 J^-1 g^T J: entry (i, j) is s_i s_j g[3-j][3-i] / mu."""
    r, d, mu_r = _reference_symplectic_rows(g)
    s = (1, 1, -1, -1)
    return tuple(tuple(Q(s[i] * s[j] * r[3 - j][3 - i] * d, mu_r)
                       for j in range(4)) for i in range(4))


def _reference_in_level(g, spec, p):
    """in_level on Fractions: integrality, a unit multiplier, then the
    congruences of rows 2 and 3 read as valuations."""
    if min_val(g, p) < 0:
        return False
    try:
        mu = _reference_multiplier(g)
    except ValueError:
        return False
    if val(mu, p) != 0:
        return False

    def cong(cols, e):
        return all(val(g[i][j] - (i == j), p) >= e for i in (2, 3)
                   for j in cols)
    if spec.kind == "G":
        return True
    if spec.kind == "K0":
        return cong((0, 1), 1)
    if spec.kind == "K1det":
        return val(mu * mu - 1, p) >= 1
    return cong(range(4), spec.n) and val(mu - 1, p) >= spec.m


_KERNEL_SPECS = [LevelSpec("G"), LevelSpec("K0"), LevelSpec("K1det")] + [
    LevelSpec("Kmn", m, n) for m in range(3) for n in range(3)]


@st.composite
def _gsp4_z_1_over_p(draw):
    """A prime p in {2, 3, 5} and a word in GSp4(Z[1/p]), each factor
    given twice: as a Fraction matrix and as the kernel's (r, d), built
    by the kernel's own constructors.  Factors: root unipotents and
    their transposes with parameters n / p^k, torus elements
    diag(a, b, c/b, c/a) with a, b, c units times powers of p, Weyl
    elements, and the matrices of the wild coset identity."""
    p = draw(st.sampled_from([2, 3, 5]))
    unit = st.sampled_from([1, -1, p + 1, p - 1, 2 * p + 1])
    factors = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["root", "torus", "weyl", "wild"]))
        if kind == "root":
            i = draw(st.integers(0, 3))
            t = Q(draw(st.integers(-p * p, p * p)),
                  p ** draw(st.integers(0, 2)))
            x = pa._root_unipotent(i, t)
            g = pa.root_unipotent(i, t)
            if draw(st.booleans()):
                x, g = pa._transpose(x), pa.mat_t(g)
        elif kind == "torus":
            a, b, c = (draw(unit) * Q(p) ** draw(st.integers(-2, 2))
                       for _ in range(3))
            g = mat([[a, 0, 0, 0], [0, b, 0, 0], [0, 0, c / b, 0],
                     [0, 0, 0, c / a]])
            x = pa._integer_rows(g)
        elif kind == "weyl":
            k = draw(st.sampled_from([1, 2]))
            x, g = pa._weyl(k), (weyl_s1() if k == 1 else weyl_s2())
        else:
            m, u, v, w = (draw(st.integers(0, 2)) for _ in range(4))
            x = pa._product(pa._root_unipotent(2, Q(1, p ** m)),
                            pa._coset_block(p, u, v, w))
            g = _reference_mat_mul(pa.root_unipotent(2, Q(1, p ** m)),
                                   pa.coset_block(p, u, v, w))
        factors.append((g, x))
    return p, factors


@settings(max_examples=200, deadline=None)
@given(_gsp4_z_1_over_p())
def test_integer_kernel_matches_fraction_reference(word):
    p, factors = word
    g, x = identity(4), pa._diag(1, 1, 1, 1)
    for h, y in factors:
        g, x = _reference_mat_mul(g, h), pa._product(x, y)
        # one canonical form: equal matrices, equal (r, d), equal hashes
        assert x == pa._integer_rows(g)
        assert hash(x) == hash(pa._integer_rows(g))
        assert pa._as_fractions(x) == g
        assert mat_mul(g, h) == _reference_mat_mul(g, h)
    if len(factors) >= 3:       # the same matrix by another bracketing
        (_, a), (_, b), (_, c) = factors[-3:]
        assert pa._product(pa._product(a, b), c) == \
            pa._product(a, pa._product(b, c))
    gi = _reference_gsp4_inv(g)
    assert pa._inverse(x) == pa._integer_rows(gi)
    assert gsp4_inv(g) == gi
    assert pa._product(x, pa._inverse(x)) == pa._diag(1, 1, 1, 1)
    mu = _reference_multiplier(g)
    assert Q(pa._multiplier(x[0]), x[1] ** 2) == mu == gsp4_multiplier(g)
    for spec in _KERNEL_SPECS:
        want = _reference_in_level(g, spec, p)
        assert pa._in_level(x, spec, p) == want == in_level(g, spec, p), spec


@pytest.mark.parametrize("p,m,n", [(2, 0, 1), (2, 1, 1), (3, 0, 1),
                                   (3, 1, 2)])
def test_wild_coset_matrices_match_fraction_reference(p, m, n):
    """The wild coset identity's step-0 products and its witnesses
    k = (h eta(p, m + 1, a))^-1 eta(p, m) X against the Fraction path."""
    ok, report = nr.wild_coset_identity(p, m, n)
    assert ok
    gens, spec = nr._kmn_generators(p, m, n), LevelSpec("Kmn", m, n)
    for (u, v, w), h, k in report["witnesses"]:
        block = pa.coset_block(p, u, v, w)
        target = pa.root_unipotent(2, Q(1 + p ** m * u, p ** (m + 1)))
        emb = mat([[p, 0, 0, v], [0, p, w, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        want = _reference_mat_mul(
            _reference_gsp4_inv(_reference_mat_mul(emb, target)),
            _reference_mat_mul(pa.root_unipotent(2, Q(1, p ** m)), block))
        assert pa._as_fractions(k) == want
        assert k == pa._integer_rows(want)
        assert pa._as_fractions(pa._embed_rows(h)) == emb
        for kind in _KERNEL_SPECS:
            assert pa._in_level(k, kind, p) == \
                _reference_in_level(want, kind, p)
        inv = _reference_gsp4_inv(block)
        for x in gens:
            moved = _reference_mat_mul(pa._as_fractions(x), block)
            step = pa._product(pa._inverse(pa._coset_block(p, u, v, w)),
                               pa._product(x, pa._coset_block(p, u, v, w)))
            want = _reference_mat_mul(inv, moved)
            assert step == pa._integer_rows(want)
            assert pa._in_level(step, spec, p) == _reference_in_level(
                want, spec, p)
