"""Tests for the local norm-relation plumbing."""

import dataclasses
import random
from fractions import Fraction as Q

import pytest

from gsp4verify import normrel as nr
from gsp4verify import padic as pa
from gsp4verify.besselzeta import tame_pairing
from gsp4verify.padic import (LevelSpec, SchwartzFn, act_schwartz, gsp4_inv,
                              gsp4_multiplier, identity, in_level, mat,
                              mat_det, mat_mul, mat_t, min_val,
                              root_unipotent, val)
from test_besselzeta import depth_ones
from test_cli import euler_eigenvalue_times_ell
from test_padic import sympy_inv


def eta(p: int, r: int, a=1) -> tuple:
    """The rational unipotent 1 + a p^{-r} (E13 + E24)."""
    return root_unipotent(2, Q(a, p ** r))


# ------------------------------------------------------------- local data


@pytest.mark.parametrize("p", [2, 3, 5])
def test_good_entry(p):
    e = nr.make_local_data("good", p)
    assert e.role == "good"
    assert len(e.xi.terms) == 1
    assert e.phi[0].value_at(0, 0) == 1  # full lattice function


@pytest.mark.parametrize("p", [2, 3])
def test_tame_entry(p):
    e = nr.make_local_data("tame", p)
    coeffs = sorted(c for _, c in e.xi.terms)
    assert coeffs == [Q(-1), Q(1)]
    # test function is the depth-2 lattice pair, vanishing at 0
    assert e.phi[0].value_at(0, 0) == 0
    assert e.phi[0].value_at(p ** 2, 1 + p ** 2) == 1
    assert e.phi[0].value_at(p, 1) == 0


@pytest.mark.parametrize("pmn", [(2, 0, 1), (2, 1, 1), (3, 1, 1), (2, 1, 2)])
def test_wild_entry(pmn):
    p, m, n = pmn
    e = nr.make_local_data("wild", p, m=m, n=n)
    assert e.params["t"] == n + 2 * m
    assert e.phi[0].value_at(0, 0) == 0


@pytest.mark.parametrize("role,p,params", [("good", 3, {}), ("tame", 2, {}),
                                           ("wild", 2, {"m": 1, "n": 1})])
def test_w_generators_fix_phi_through_the_fraction_path(role, p, params):
    """Each symmetry generator is a pair of 2x2 (r, d) with one
    determinant, which its block matrix carries as its multiplier, and
    each factor fixes its test function under the public action."""
    e = nr.make_local_data(role, p, **params)
    assert e.w_generators
    for h in e.w_generators:
        g1, g2 = map(pa._as_fractions, h)
        assert all(pa._lowest(*x) == x for x in h)
        assert gsp4_multiplier(pa._as_fractions(pa._embed_rows(h))) \
            == mat_det(g1) == mat_det(g2)
        assert act_schwartz(g1, e.phi[0]) == e.phi[0]
        assert act_schwartz(g2, e.phi[1]) == e.phi[1]


def test_invalid_roles_and_params():
    with pytest.raises(ValueError):
        nr.make_local_data("mystery", 2)
    with pytest.raises(ValueError):
        nr.make_local_data("wild", 2, m=2, n=1)   # n < max(m, 1)
    with pytest.raises(ValueError):
        nr.make_local_data("wild", 2, m=1)        # n missing
    with pytest.raises(ValueError):
        nr.make_local_data("wild", 2, n=1)        # m missing
    with pytest.raises(ValueError):
        nr.make_local_data("good", 2, m=1)


def test_xi_equality_is_coset_aware():
    p = 3
    spec = LevelSpec("G")
    g = root_unipotent(0, 1)
    # terms are integer rows over one denominator
    a = nr.XiElt(p, spec, ((pa._integer_rows(identity(4)), Q(1)),))
    b = nr.XiElt(p, spec, ((pa._integer_rows(g), Q(1)),))  # one coset
    c = nr.XiElt(p, spec, ((pa._integer_rows(eta(p, 1)), Q(1)),))
    assert a == b
    assert len({a, b}) == 1
    assert a != c


# ------------------------------------------------------------ sufficiency


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("mn", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
def test_sufficiency_within_bound(p, mn):
    m, n = mn
    t = nr.sufficiency_check(p, m, n)
    assert 1 <= t <= n + 2 * m
    # monotonicity: any deeper level is still contained
    assert nr._w_contained(p, m, n, t + 1)


def test_sufficiency_threshold_is_sharp():
    # below the returned depth at least one generator escapes
    for (p, m, n) in [(2, 1, 1), (3, 1, 2)]:
        t = nr.sufficiency_check(p, m, n)
        assert t > 1
        assert not nr._w_contained(p, m, n, t - 1)


def test_sufficiency_rejects_bad_params():
    with pytest.raises(ValueError):
        nr.sufficiency_check(2, 2, 1)


# ------------------------------------------------- depth independence


@pytest.mark.parametrize("ptt", [(2, 1, 1), (2, 1, 2), (2, 2, 3),
                                 (3, 1, 1), (3, 1, 2), (3, 2, 3)])
def test_indept_identity(ptt):
    p, T, t = ptt
    ok, nj = nr.indept_identity(p, T, t)
    assert ok
    assert nj == p ** (4 * (t - T))


def test_indept_index_against_brute_count():
    # index of the depth-2 group in the depth-1 group at p = 2, counted
    # by enumerating matrix pairs modulo 4 directly
    p, T, t = 2, 1, 2
    M = p ** t

    def factor_counts(depth):
        counts = {}
        for a in range(M):
            for b in range(M):
                for c in range(0, M, p ** depth):
                    for d in range(1, M, p ** depth):
                        det = (a * d - b * c) % M
                        if det % p == 0:
                            continue
                        counts[det] = counts.get(det, 0) + 1
        return counts

    big, small = factor_counts(T), factor_counts(t)
    pairs_big = sum(v * v for v in big.values())
    pairs_small = sum(v * v for v in small.values())
    assert pairs_big % pairs_small == 0
    assert pairs_big // pairs_small == p ** (4 * (t - T))


def _rows(h):
    """A pair of Fraction 2x2 matrices as a pair of (r, d)."""
    return tuple(map(pa._integer_rows, h))


def _pair_mul(h, h2):
    return tuple(mat_mul(g, g2) for g, g2 in zip(h, h2))


def _pair_inv(h):
    return tuple(map(gsp4_inv, h))


def _in_kh1(h, p: int, t: int) -> bool:
    """Pairs integral at p with unit equal determinants whose lower
    rows are (0, 1) mod p^t: the membership test behind the key."""
    for g in h:
        if min_val(g, p) < 0:
            return False
        if val(mat_det(g), p) != 0:
            return False
        if val(g[1][0], p) < t or val(g[1][1] - 1, p) < t:
            return False
    return True


def _rand_unit_pair(rng, p, lower=1):
    """A random pair of integral 2x2 matrices with equal unit
    determinants; lower = p^t makes both lower rows (0, 1) mod p^t."""
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        c = lower * rng.randint(-9, 9)
        d = 1 + lower * rng.randint(-9, 9)
        if (a * d - b * c) % p:
            break
    g1 = mat([[a, b], [c, d]])
    x, y = rng.randint(-9, 9), lower * rng.randint(-9, 9)
    shear = mat_mul(mat([[1, x], [0, 1]]), mat([[1, 0], [y, 1]]))
    h = (g1, mat_mul(g1, shear))
    pa._embed_rows(_rows(h))        # raises unless the determinants agree
    return h


def _kh1_key_reference(h, p: int, t: int) -> tuple:
    """The key computed on Fraction matrices, as before the transversal
    was carried as (r, d)."""
    return tuple(pa._padic_residue(x, p, p ** t) for g in _pair_inv(h)
                 for x in g[1])


def _kh1_key(h, p: int, t: int) -> tuple:
    key = nr._kh1_key(_rows(h), p, t)
    assert key == _kh1_key_reference(h, p, t)
    return key


@pytest.mark.parametrize("p,t", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_kh1_key_agrees_with_membership(p, t):
    rng = random.Random(100 * p + t)
    same = 0
    for _ in range(60):
        h = _rand_unit_pair(rng, p)
        for h2 in (_pair_mul(h, _rand_unit_pair(rng, p, p ** t)),
                   _rand_unit_pair(rng, p)):
            equal = _kh1_key(h, p, t) == _kh1_key(h2, p, t)
            assert equal == _in_kh1(_pair_mul(_pair_inv(h), h2), p, t)
            same += equal
    assert 60 <= same < 120


def test_indept_rejects_bad_range():
    with pytest.raises(ValueError):
        nr.indept_identity(2, 0, 1)
    with pytest.raises(ValueError):
        nr.indept_identity(2, 2, 1)


# ------------------------------------------------------ wild coset steps


@pytest.mark.parametrize("pmn", [(2, 0, 1), (2, 1, 1), (2, 2, 2),
                                 (2, 1, 2), (3, 0, 1), (3, 1, 1)])
def test_wild_coset_identity(pmn):
    p, m, n = pmn
    ok, report = nr.wild_coset_identity(p, m, n)
    assert ok, report
    assert report["cosets"] == p ** 3
    if m == 0:
        assert report["special_case"] == p - 1
        assert report["conjugate_terms"] == p - 1
    else:
        assert report["special_case"] is None
        assert report["conjugate_terms"] == p


@pytest.mark.parametrize("pmn,at", [((2, 0, 1), (0, 0, 1)),
                                    ((3, 1, 1), (0, 0, 1)),
                                    ((2, 1, 2), (0, 0, 0))])
def test_wild_coset_stability_rejects_a_generator_outside_the_level(
        pmn, at, monkeypatch):
    # the transposed shear adds row 1 of the coset matrix (u, v, w) to
    # row 2, putting p into its C block and w, u into its D block: at n = 1
    # the first coset it moves off the family is (0, 0, 1), at n = 2 it is
    # (0, 0, 0)
    p, m, n = pmn
    generators = nr._kmn_generators
    monkeypatch.setattr(nr, "_kmn_generators", lambda *a: (
        generators(*a) + [pa._integer_rows(mat_t(root_unipotent(1, 1)))]))
    ok, report = nr.wild_coset_identity(p, m, n)
    assert (ok, report) == (False, {"failed": "coset stability", "at": at})


def _first_equivalent_blocks(p, m, n):
    """The pairwise disjointness oracle: the first pair of coset blocks
    (in the order of wild_coset_identity) whose matrices lie in one left
    coset of the level group, or None."""
    spec = LevelSpec("Kmn", m, n)
    blocks = [(u, v, w) for u in range(p) for v in range(p)
              for w in range(p)]
    mats = {b: pa._as_fractions(nr._coset_block(p, *b)) for b in blocks}
    inverses = {b: sympy_inv(g) for b, g in mats.items()}
    for i, b in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            if in_level(mat_mul(inverses[b], mats[b2]), spec, p):
                return b, b2
    return None


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("mn", [(0, 1), (1, 1)])
@pytest.mark.parametrize("dup", [None, ((0, 0, 0), (0, 0, 1)),
                                 ((0, 1, 0), (1, 1, 1))])
def test_wild_coset_disjointness_matches_pairwise_oracle(p, mn, dup,
                                                         monkeypatch):
    # dup = (first, later): the coset matrix of `later` is replaced by the
    # one of `first` with p added to u, which lies in the same left coset
    m, n = mn
    if dup is not None:
        coset_block = nr._coset_block
        first, later = dup
        monkeypatch.setattr(nr, "_coset_block", lambda q, *b: coset_block(
            q, first[0] + q, *first[1:]) if b == later else coset_block(q, *b))
    assert _first_equivalent_blocks(p, m, n) == dup
    ok, report = nr.wild_coset_identity(p, m, n)
    if dup is None:
        assert ok, report
    else:
        assert (ok, report) == (False, {"failed": "coset disjointness",
                                        "at": dup})


def test_wild_witnesses_are_exact_factorisations():
    p, m, n = 2, 1, 1
    ok, report = nr.wild_coset_identity(p, m, n)
    assert ok
    spec = LevelSpec("Kmn", m, n)
    for (u, v, w), h, k in report["witnesses"]:
        # h is the pair of shears, k the level-group factor, as (r, d)
        assert tuple(map(pa._as_fractions, h)) == (
            mat([[p, v], [0, 1]]), mat([[p, w], [0, 1]]))
        a = 1 + p ** m * u
        k = pa._as_fractions(k)
        lhs = mat_mul(eta(p, m), pa.coset_block(p, u, v, w))
        emb = pa._as_fractions(pa._embed_rows(h))
        rhs = mat_mul(mat_mul(emb, eta(p, m + 1, a)), k)
        assert lhs == rhs
        assert in_level(k, spec, p)


def test_wild_schwartz_sum_per_factor():
    # the inverse shears average the depth-n pair to p times the
    # deeper lattice pair
    for p, n in [(2, 1), (3, 2)]:
        phi = SchwartzFn.depth_pair(p, n)
        acc = SchwartzFn.zero(p)
        for v in range(p):
            acc = acc + act_schwartz(sympy_inv(mat([[p, v], [0, 1]])), phi)
        for x, y, want in [(0, 1, p), (p ** n, 1, 0),
                           (p ** (n + 1), 1 + p ** n, p), (1, 1, 0)]:
            assert acc.value_at(x, y) == want


def test_wild_rejects_bad_params():
    with pytest.raises(ValueError):
        nr.wild_coset_identity(2, 1, 0)


# ------------------------------------------- Frobenius reciprocity pairing


@pytest.fixture(scope="module")
def tame_data():
    """The tame data that the tests below check, each built once for the
    module; the key is (k1, k2, prime)."""
    return {w: tame_pairing(w[0], w[1], p=w[2])
            for w in ((1, 1, None), (2, 1, None), (1, 1, 2))}


def test_frobrecip_scalar_case(tame_data):
    # the identity is linear in the pairings, so it holds for 5/7 of
    # them, and both sides scale by 5/7
    datum = tame_data[1, 1, None]
    b1, b2 = depth_ones(datum)
    scaled = dataclasses.replace(datum, base={
        k: Q(5, 7) * v for k, v in datum.base.items()})
    ok, lhs, rhs = nr.frobrecip_pairing_check(scaled, Q(5, 7) * b1,
                                              Q(5, 7) * b2)
    _, lhs1, rhs1 = nr.frobrecip_pairing_check(datum, b1, b2)
    assert ok and lhs == Q(5, 7) * lhs1 and rhs == Q(5, 7) * rhs1


def test_frobrecip_formal(tame_data):
    for k1, k2 in [(1, 1), (2, 1)]:
        datum = tame_data[k1, k2, None]
        ok, lhs, rhs = nr.frobrecip_pairing_check(datum, *depth_ones(datum))
        assert ok, (k1, k2)


def test_frobrecip_concrete_prime(tame_data):
    datum = tame_data[1, 1, 2]
    ok, lhs, rhs = nr.frobrecip_pairing_check(datum, *depth_ones(datum))
    assert ok


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobrecip_formal_sides_specialise_to_pinned_prime(p, tame_data):
    # both sides of the formal weight-(1, 1) identity, taken to p, equal
    # those computed with p pinned, where the Euler element is summed
    # over explicit coset representatives instead of read off the spin
    # parameters.  A pole of the specialisation is a failure, not a skip
    formal, pinned = tame_data[1, 1, None], tame_pairing(1, 1, p=p)
    _, lhs, rhs = nr.frobrecip_pairing_check(formal, *depth_ones(formal))
    ok, lhs_p, rhs_p = nr.frobrecip_pairing_check(pinned,
                                                  *depth_ones(pinned))
    assert ok
    assert lhs.with_prime(p) == lhs_p
    assert rhs.with_prime(p) == rhs_p


def test_frobrecip_wrong_parahoric_index_fails(monkeypatch, tame_data):
    from gsp4verify import padic
    monkeypatch.setattr(nr, "siegel_parahoric_reps",
                        lambda p: padic.siegel_parahoric_reps(p)[:-1])
    datum = tame_data[1, 1, 2]
    ok, lhs, rhs = nr.frobrecip_pairing_check(datum, *depth_ones(datum))
    assert ok is False


def test_frobrecip_perturbed_fails(monkeypatch, tame_data):
    euler_eigenvalue_times_ell(monkeypatch)
    datum = tame_data[1, 1, None]
    ok, lhs, rhs = nr.frobrecip_pairing_check(datum, *depth_ones(datum))
    assert not ok


def test_euler_element_formal_matches_spin_product():
    from gsp4verify.besselzeta import tame_sigma
    from gsp4verify.symcore import as_ratfunc, ell_pow, sym
    sigma = tame_sigma(1, 2, sym("tau1"), sym("tau2"))
    e = nr.euler_element_eigenvalue(sigma)
    prod = as_ratfunc(1, None)
    for gam in sigma.spin_params():
        prod = prod * (1 - gam * ell_pow(1))
    assert e == prod


def _euler_element_by_eigenvalues(sigma):
    """The Euler element's eigenvalue written out from the eigenvalues of
    T, T1 and R: 1 - T/p + (T1 + (p^2+1) R)/p - T R + p^2 R^2."""
    from gsp4verify.gsp4local import hecke_eigenvalue
    from gsp4verify.symcore import ell
    lp = ell(sigma.p)
    t = hecke_eigenvalue("T", sigma)
    r = hecke_eigenvalue("R", sigma)
    t1pr = hecke_eigenvalue("T1", sigma) + (lp ** 2 + 1) * r
    return 1 - t / lp + t1pr / lp - t * r + lp ** 2 * r * r


@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_euler_element_is_the_hecke_polynomial_at_one_over_p(p):
    from gsp4verify.gsp4local import PrincipalSeriesG
    sigma = PrincipalSeriesG.formal(p)
    assert nr.euler_element_eigenvalue(sigma) == \
        _euler_element_by_eigenvalues(sigma)


def test_parahoric_index_formula():
    from gsp4verify.padic import siegel_parahoric_reps
    for p in (2, 3):
        assert len(siegel_parahoric_reps(p)) == (p + 1) * (p ** 2 + 1)
