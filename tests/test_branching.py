"""Tests for the algebraic representation theory module."""

import copy
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gsp4verify import branching as br
from gsp4verify.padic import identity, mat, mat_add, mat_mul, mat_t
from test_padic import J4

# ---------------------------------------------------------------- Lie algebra


def _flat(m):
    return [m[i][j] for i in range(4) for j in range(4)]


def _rank(rows):
    rows = [[Q(x) for x in r] for r in rows]
    r0 = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r0, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        d = rows[r0][c]
        rows[r0] = [x / d for x in rows[r0]]
        for i in range(len(rows)):
            if i != r0 and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r0])]
        r0 += 1
    return r0


def _scaled(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def lie_bracket(x, y):
    return mat_add(mat_mul(x, y), _scaled(mat_mul(y, x), -1))


def similitude_derivative(x):
    """Oracle for the Lie basis: the scalar s with x^T J + J x = s J, or
    None if x is not in the Lie algebra of the similitude group."""
    lhs = mat_add(mat_mul(mat_t(mat(x)), J4), mat_mul(J4, mat(x)))
    s = lhs[0][3]
    if lhs != _scaled(J4, s):
        return None
    return s


def test_lie_basis_shape():
    basis = br.lie_basis()
    assert len(basis) == 11
    assert _rank([_flat(x) for _, x in basis]) == 11
    for name, x in basis:
        s = similitude_derivative(x)
        assert s == (2 if name == "id" else 0)


def test_bracket_closure():
    basis = br.lie_basis()
    span = [_flat(x) for _, x in basis]
    base_rank = _rank(span)
    for _, x in basis:
        for _, y in basis:
            b = lie_bracket(x, y)
            assert _rank(span + [_flat(b)]) == base_rank


def test_chevalley_generators_generate_the_algebra():
    # RepSpace searches with CHEVALLEY alone: under brackets they span the
    # 10-dimensional semisimple part, and with id the whole algebra
    basis = dict(br.lie_basis())
    span = [basis[name] for name in br.CHEVALLEY]
    assert _rank([_flat(x) for x in span]) == 4
    # bracket each element kept with every one kept, keeping those that
    # raise the rank, until the span is closed
    for x in span:
        for y in list(span):
            b = lie_bracket(x, y)
            if _rank([_flat(z) for z in span + [b]]) > len(span):
                span.append(b)
    assert len(span) == 10
    assert _rank([_flat(x) for x in span + [basis["id"]]]) == 11


def _dense(cols, n):
    """The n x n matrix with the given sparse columns (see _columns)."""
    out = [[Q(0)] * n for _ in range(n)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = Q(x)
    return tuple(tuple(r) for r in out)


def test_wedge_lie_is_a_representation():
    # the wedge columns the library acts by, densified, respect brackets:
    # rho([x, y]) = [rho(x), rho(y)], with rho([x, y]) from the Leibniz
    # rule on the bracket; this also reads n2, n3, m2 and m3, which the
    # cyclic construction does not apply
    basis = br.lie_basis()
    rho = {name: _dense(br._LIE_COLUMNS[name][1], 6) for name, _ in basis}
    for name, x in basis:
        assert _dense(br._LIE_COLUMNS[name][0], 4) == x
        for other, y in basis:
            assert (br.wedge_lie_matrix(lie_bracket(x, y))
                    == lie_bracket(rho[name], rho[other])), (name, other)


def test_not_in_lie_algebra():
    bad = br._e(2, 0)  # lower-left entry without its symplectic companion
    assert similitude_derivative(bad) is None


# ------------------------------------------- packed keys against tuple keys


def _act_factor_by_tuples(space, pos, cols4, cols6, vec, out):
    """TensorSpace._act_factor as it was on tuple keys: the reference for
    the packed keys."""
    cols = cols6 if space.kinds[pos] == "w" else cols4
    for idx, c in vec.items():
        for r, x in cols[idx[pos]]:
            nidx = idx[:pos] + (r,) + idx[pos + 1:]
            out[nidx] = out.get(nidx, 0) + c * x
    return out


def apply_lie_by_tuples(space, name, vec):
    out = {}
    for pos in range(len(space.kinds)):
        _act_factor_by_tuples(space, pos, *br._LIE_COLUMNS[name], vec, out)
    return {k: v for k, v in out.items() if v != 0}


def apply_group_by_tuples(space, g, vec):
    g4 = [[br._integral(x) for x in row] for row in mat(g)]
    cols = (br._columns(g4), br._columns(br.wedge_group_matrix(g4)))
    for pos in range(len(space.kinds)):
        vec = _act_factor_by_tuples(space, pos, *cols, vec, {})
        vec = {k: v for k, v in vec.items() if v != 0}
    return vec


def gweight_by_tuples(space, idx):
    w = (0, 0, 0)
    for k, i in zip(space.kinds, idx):
        piece = br._wedge_weight(i) if k == "w" else br._STD_WEIGHTS[i]
        w = tuple(x + y for x, y in zip(w, piece))
    return w


@st.composite
def _tensor_vectors(draw):
    """A tensor space of the grid with its factors in any order, and a
    vector on it with int or Fraction coefficients, keyed by tuples."""
    a, b = draw(st.sampled_from(br.grid()))
    kinds = draw(st.permutations(("w",) * a + ("v",) * b))
    space = br.TensorSpace(a, b, kinds)
    coeffs = st.integers(-5, 5) | st.fractions(max_denominator=4)
    vec = draw(st.dictionaries(
        st.tuples(*(st.integers(0, d - 1) for d in space.dims)), coeffs,
        max_size=6))
    return space, {k: c for k, c in vec.items() if c}


_GROUP = (st.sampled_from([-2, -1, 1, 2]).map(br.twist_element)
          | st.lists(st.integers(-3, 3) | st.fractions(max_denominator=3),
                     min_size=16, max_size=16).map(
              lambda xs: mat([xs[i:i + 4] for i in range(0, 16, 4)])))


@settings(max_examples=150, deadline=None)
@given(_tensor_vectors(), st.sampled_from(sorted(br._LIE_COLUMNS)), _GROUP)
def test_packed_action_against_tuple_reference(sv, name, g):
    space, vec = sv
    packed = {br.pack(k): c for k, c in vec.items()}
    for got, want in ((space.apply_lie(name, packed),
                       apply_lie_by_tuples(space, name, vec)),
                      (space.apply_group(g, packed),
                       apply_group_by_tuples(space, g, vec))):
        assert {space.unpack(k): c for k, c in got.items()} == want
        assert all(type(c) is type(want[space.unpack(k)])
                   for k, c in got.items())
    for idx in vec:
        assert space.gweight(br.pack(idx)) == gweight_by_tuples(space, idx)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.tuples(*(st.integers(0, 5),) * n), max_size=8)))
def test_pack_preserves_order(idxs):
    assert [br.pack(t) for t in sorted(idxs)] == sorted(map(br.pack, idxs))
    assert len(set(map(br.pack, idxs))) == len(set(idxs))


def _indices(space):
    """The packed keys of the basis of space, in the order of their
    tuples."""
    return map(br.pack, itertools.product(*(range(d) for d in space.dims)))


@pytest.mark.parametrize("kinds", ["", "w", "v", "wv", "vw", "wwv", "vvvv"])
def test_indices_are_packed_in_tuple_order(kinds):
    space = br.TensorSpace(kinds.count("w"), kinds.count("v"), tuple(kinds))
    tuples = list(itertools.product(*(range(d) for d in space.dims)))
    assert list(_indices(space)) == [br.pack(t) for t in tuples]
    assert list(_indices(space)) == sorted(_indices(space))
    assert [space.unpack(k) for k in _indices(space)] == tuples
    assert space.top_tensor() == {br.pack((0,) * len(kinds)): 1}


# ------------------------------------------------------------------- Casimir


@pytest.mark.parametrize("ab", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
def test_casimir_eigenvalue_matches_direct_action(ab):
    a, b = ab
    sp = br.TensorSpace(a, b)
    top = sp.top_tensor()
    img = br._casimir4(sp, top)
    idx = next(iter(top))
    assert img == {idx: br._casimir4_eigenvalue((a + b, a, 0))}


def _casimir_eigenvalue_reference(weight):
    """The pairing of weight with weight + 2 rho under the dual trace
    form, over Q."""
    def coords(w):
        return (Q(w[0]), Q(w[1]), Q(w[0] + w[1] + 2 * w[2]))
    lam = coords(weight)
    lam2 = coords(tuple(x + y for x, y in zip(weight, (4, 2, -3))))
    return lam[0] * lam2[0] / 2 + lam[1] * lam2[1] / 2 + lam[2] * lam2[2] / 4


def test_integer_casimir_eigenvalue_matches_fraction_reference():
    for w in itertools.product(range(-8, 9), repeat=3):
        want = _casimir_eigenvalue_reference(w)
        got = br._casimir4_eigenvalue(w)
        assert type(got) is int and got == 4 * want, w


def test_casimir_commutes_with_lie_action():
    sp = br.TensorSpace(1, 1)
    rng = random.Random(7)
    idxs = list(_indices(sp))
    for _ in range(5):
        vec = {rng.choice(idxs): Q(rng.randint(-3, 3)) for _ in range(4)}
        vec = {k: v for k, v in vec.items() if v}
        for name in ("n0", "m2", "t1"):
            lhs = br._casimir4(sp, sp.apply_lie(name, vec))
            rhs = sp.apply_lie(name, br._casimir4(sp, vec))
            assert lhs == rhs


# -------------------------------------------------- cyclic modules and sizes


@pytest.fixture(scope="module")
def reps():
    """The irreducibles of the grid, each built once for the module."""
    return {(a, b): br.build_rep(a, b) for a, b in br.grid()}


def test_dimension_formula_across_grid(reps):
    for (a, b), rep in reps.items():
        assert rep.dimension == br.rep_dimension_formula(a, b)


def test_size_bound_enforced():
    with pytest.raises(ValueError):
        br.TensorSpace(4, 0)
    with pytest.raises(ValueError):
        br.TensorSpace(2, 3)


def test_rep_space_applies_only_the_chevalley_generators(monkeypatch):
    applied = set()
    apply_lie = br.TensorSpace.apply_lie

    def recording(space, name, vec):
        applied.add(name)
        return apply_lie(space, name, vec)
    monkeypatch.setattr(br.TensorSpace, "apply_lie", recording)
    assert br.build_rep(1, 1).dimension == 16
    assert applied == set(br.CHEVALLEY)


def test_wedge_factor_is_five_dimensional_with_companion_vector():
    rep = br.build_rep(1, 0)
    assert rep.dimension == 5
    # the Lie element with ones at (2,0) and (3,1) sends the generator
    # e1^e2 to e1^e4 - e2^e3
    sp = rep.space
    z = "m2"  # transpose of the (0,2)&(1,3) root vector
    img = sp.apply_lie(z, sp.top_tensor())
    assert img == {br.pack((i,)): c for i, c in br.W_PRIME}


def test_central_and_dual_characters(reps):
    for rep in reps.values():
        assert br.central_character_check(rep)
        assert br.dual_character_check(rep)


def test_character_checks_detect_a_wrong_highest_weight(reps):
    # the built module of (a, b) read as that of (a + 1, b): both checks
    # compare against 2a + b, which moves by 2
    for rep in reps.values():
        wrong = copy.copy(rep)
        wrong.a += 1
        assert not br.central_character_check(wrong)
        assert not br.dual_character_check(wrong)


# ---------------------------------------------- fraction-free echelon form

#: sparse integer vectors on the keys 0..7
_SPARSE = st.dictionaries(st.integers(0, 7),
                          st.integers(-4, 4).filter(bool), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SPARSE, max_size=8), st.lists(st.integers(-3, 3),
                                               min_size=8, max_size=8))
def test_reduce_keeps_a_primitive_echelon_basis(vecs, weights):
    rows = []
    for vec in vecs:
        red = br._reduce(rows, vec)
        if red:
            rows.append((min(red), red))
    dense = sympy.Matrix(len(vecs), 8, lambda i, j: vecs[i].get(j, 0))
    assert len(rows) == dense.rank()
    earlier = []
    for pivot, row in rows:
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert min(row) == pivot
        assert not any(p in row for p in earlier)
        earlier.append(pivot)
    combo = {}
    for c, vec in zip(weights, vecs):
        for k, x in vec.items():
            combo[k] = combo.get(k, 0) + c * x
    assert br._reduce(rows, {k: x for k, x in combo.items() if x}) == {}


def _reduce_reference(rows, vec: dict):
    """Reduce vec against echelon rows [(pivot, row)], each row equal to 1
    at its pivot and 0 at the pivots before it, over Q."""
    vec = dict(vec)
    for pivot, row in rows:
        c = vec.get(pivot, 0)
        if c:
            for k, x in row.items():
                vec[k] = vec.get(k, 0) - c * x
    return {k: x for k, x in vec.items() if x != 0}


def _push_reference(rows, vec: dict):
    """Append the non-zero residual vec as a row normalised at its least
    key."""
    pivot = min(vec)
    d = vec[pivot]
    rows.append((pivot, {k: x / d for k, x in vec.items()}))


def _reference_multiplicities(a, b):
    """The cyclic construction with Fraction vectors, the normalising
    elimination and all 11 basis elements: the weight multiplicities."""
    space = br.TensorSpace(a, b)
    by_weight = {}

    def insert(vec):
        rows = by_weight.setdefault(space.gweight(next(iter(vec))), [])
        red = _reduce_reference(rows, vec)
        if red:
            _push_reference(rows, red)
        return bool(red)

    seed = {k: Q(c) for k, c in space.top_tensor().items()}
    insert(seed)
    frontier = [seed]
    while frontier:
        frontier = [img for v in frontier for name in br._LIE_COLUMNS
                    if (img := space.apply_lie(name, v)) and insert(img)]
    return {w: len(rows) for w, rows in by_weight.items() if rows}


def test_integer_construction_matches_fraction_reference(reps):
    for (a, b), rep in reps.items():
        assert rep.weight_multiplicities() == _reference_multiplicities(a, b)
        assert all(type(x) is int for rows in rep._by_weight.values()
                   for _, row in rows for x in row.values())


# ------------------------------------------------------ restriction law


def test_branch_decompose_across_grid(reps):
    for (a, b), rep in reps.items():
        index = br.branch_decompose(rep)
        assert len(index) == (a + 1) * (b + 1)
        assert sorted(index) == sorted(
            (a + b - q - r, a - q + r, q)
            for q in range(a + 1) for r in range(b + 1))


def test_branch_weights_detect_perturbation():
    # dropping one summand must break the multiset comparison
    rep = br.build_rep(1, 1)
    actual = {}
    for w, mult in rep.weight_multiplicities().items():
        hw = br._h_weight(w)
        actual[hw] = actual.get(hw, 0) + mult
    expected = {}
    for q in range(2):
        for r in range(2):
            if (q, r) == (1, 1):
                continue
            for hw in br._w_cd_weights(2 - q - r, 1 - q + r, q):
                expected[hw] = expected.get(hw, 0) + 1
    assert actual != expected


# ------------------------------------------------ highest-weight vectors


def test_hw_vector_top_is_plain_tensor():
    sp = br.TensorSpace(2, 1)
    assert br.hw_vector(2, 1, 0, 0, sp) == sp.top_tensor()


def test_hw_vector_out_of_range():
    with pytest.raises(ValueError):
        br.hw_tensor(1, 1, 2, 0)


@pytest.mark.parametrize("ab", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_hw_vector_weights(ab):
    a, b = ab
    sp = br.TensorSpace(a, b)
    for q in range(a + 1):
        for r in range(b + 1):
            v = br.hw_vector(a, b, q, r, sp)
            assert v
            # every term carries the predicted torus weight
            gw = (a - q + b - r, a - q + r, q)
            assert all(sp.gweight(idx) == gw for idx in v)
            # annihilated by the positive nilpotents of the subgroup
            assert sp.apply_lie("n3", v) == {}
            assert sp.apply_lie("n1", v) == {}


def test_hw_vector_ordering_independence():
    # building with the wedge factor first or last gives the same vector
    # up to the factor permutation
    sp_wv = br.TensorSpace(1, 1)
    sp_vw = br.TensorSpace(1, 1, kinds=("v", "w"))
    for q in range(2):
        for r in range(2):
            v1 = br.hw_vector(1, 1, q, r, sp_wv)
            seed = {br.pack(sp_wv.unpack(k)[::-1]): c
                    for k, c in br.hw_tensor(1, 1, q, r).items()}
            v2 = br.cartan_project(sp_vw, seed, (2, 1, 0))
            assert v2 == {br.pack(sp_wv.unpack(k)[::-1]): c
                          for k, c in v1.items()}


# ------------------------------------------------------ isotypic projection


def test_cartan_project_kills_missing_component():
    sp = br.TensorSpace(0, 2)
    antisym = {br.pack((0, 1)): Q(1), br.pack((1, 0)): Q(-1)}
    assert br.cartan_project(sp, antisym, (2, 0, 0)) == {}


def test_cartan_project_requires_maximal_eigenvalue():
    sp = br.TensorSpace(0, 2)
    # mixes the symmetric and antisymmetric parts
    vec = {br.pack((0, 1)): Q(1)}
    with pytest.raises(br.ProjectorError):
        br.cartan_project(sp, vec, (1, 1, 0))
    proj = br.cartan_project(sp, vec, (1, 1, 0), require_max=False)
    assert proj == {br.pack((0, 1)): Q(1, 2), br.pack((1, 0)): Q(-1, 2)}


def test_cartan_project_idempotent_and_equivariant():
    sp = br.TensorSpace(1, 1)
    rng = random.Random(11)
    idxs = list(_indices(sp))
    target = (2, 1, 0)
    lie_names = ["n0", "n2", "m1", "m3", "t2"]
    for _ in range(20):
        vec = {rng.choice(idxs): Q(rng.randint(-4, 4), rng.randint(1, 3))
               for _ in range(5)}
        vec = {k: v for k, v in vec.items() if v}
        p = br.cartan_project(sp, vec, target)
        assert br.cartan_project(sp, p, target) == p
        for name in lie_names:
            lhs = br.cartan_project(sp, sp.apply_lie(name, vec), target)
            assert lhs == sp.apply_lie(name, p)


@pytest.mark.parametrize("ab", [(1, 1), (2, 1)])
def test_cartan_project_clears_denominators(ab):
    a, b = ab
    sp = br.TensorSpace(a, b)
    target = (a + b, a, 0)
    for q in range(a + 1):
        for r in range(b + 1):
            vec = br.hw_tensor(a, b, q, r)
            third = {k: Q(1, 3) * c for k, c in vec.items()}
            want = {k: Q(1, 3) * c
                    for k, c in br.cartan_project(sp, vec, target).items()}
            assert br.cartan_project(sp, third, target) == want


def test_cartan_project_raises_without_a_true_eigenvalue(monkeypatch):
    # negative control: with one eigenvalue of 4C on the Krylov span
    # missing from the candidates, the minimal polynomial has fewer
    # candidate roots than its degree, and no vector may come back
    a, b = 2, 1
    sp = br.TensorSpace(a, b)
    vec = br.hw_tensor(a, b, 1, 1)
    target = (a + b, a, 0)
    want = br.cartan_project(sp, vec, target)
    candidates = br._casimir4_candidates(sp)
    raised = set()
    for r in sorted(candidates):
        monkeypatch.setattr(br, "_casimir4_candidates",
                            lambda space, r=r: candidates - {r})
        try:
            got = br.cartan_project(sp, vec, target)
        except br.ProjectorError as exc:
            assert str(exc) == "projector not separating"
            raised.add(r)
        else:
            assert got == want      # r is no eigenvalue on the span
    assert br._casimir4_eigenvalue(target) in raised
    assert 2 <= len(raised) < len(candidates)


@pytest.mark.parametrize("ab", [(1, 0), (1, 1), (2, 1), (1, 2)])
def test_cartan_project_matches_dense_spectral_projector(ab):
    # oracle: the Casimir as a dense sympy matrix on the weight space of
    # the plain tensor, and the spectral projector prod (C - r)/(c0 - r)
    # over its other eigenvalues
    a, b = ab
    sp = br.TensorSpace(a, b)
    c0 = sympy.Rational(br._casimir4_eigenvalue((a + b, a, 0)), 4)
    for q in range(a + 1):
        for r in range(b + 1):
            vec = br.hw_tensor(a, b, q, r)
            weight = sp.gweight(next(iter(vec)))
            basis = [idx for idx in _indices(sp)
                     if sp.gweight(idx) == weight]
            ident = sympy.eye(len(basis))
            cas = sympy.zeros(len(basis))
            for j, idx in enumerate(basis):
                for k, c in br._casimir4(sp, {idx: 1}).items():
                    cas[basis.index(k), j] = sympy.Rational(c, 4)
            eigenvalues = cas.eigenvals()
            assert c0 in eigenvalues
            proj = ident
            for ev in eigenvalues:
                if ev != c0:
                    proj = proj * (cas - ev * ident) / (c0 - ev)
            col = proj * sympy.Matrix([vec.get(idx, 0) for idx in basis])
            want = {idx: Q(int(x.p), int(x.q))
                    for idx, x in zip(basis, col) if x != 0}
            assert br.cartan_project(sp, vec, (a + b, a, 0)) == want


# ------------------------------------------------------------ twist lemma


def test_unipotent_is_exponential_of_nilpotent():
    n = mat_add(br._e(0, 2), br._e(1, 3))
    u = br.twist_element(1)
    zero4 = tuple(tuple(Q(0) for _ in range(4)) for _ in range(4))
    assert mat_add(identity(4), n) == u
    assert mat_mul(n, n) == zero4
    big = br.wedge_lie_matrix(n)
    big2 = mat_mul(big, big)
    zero6 = tuple(tuple(Q(0) for _ in range(6)) for _ in range(6))
    assert mat_mul(big2, big) == zero6
    exp = mat_add(mat_add(identity(6), big), _scaled(big2, Q(1, 2)))
    assert exp == br.wedge_group_matrix(u)


def _wedge_group_matrix_reference(g):
    """g e_i ^ g e_j expanded over every pair (r, s), with e_s ^ e_r =
    -e_r ^ e_s and e_r ^ e_r = 0."""
    index = {pair: k for k, pair in enumerate(br.WEDGE_PAIRS)}
    out = [[Q(0)] * 6 for _ in range(6)]
    for col, (i, j) in enumerate(br.WEDGE_PAIRS):
        for r in range(4):
            for s in range(4):
                coeff = Q(g[r][i]) * Q(g[s][j])
                if r < s:
                    out[index[(r, s)]][col] += coeff
                elif r > s:
                    out[index[(s, r)]][col] -= coeff
    return tuple(tuple(row) for row in out)


def test_wedge_matrices_are_minors():
    rng = random.Random(19)

    def rand4():
        return mat([[Q(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                     for _ in range(4)] for _ in range(4)])

    for _ in range(100):
        g, h = rand4(), rand4()
        wg = br.wedge_group_matrix(g)
        assert wg == _wedge_group_matrix_reference(g)
        assert (br.wedge_group_matrix(mat_mul(g, h))
                == mat_mul(wg, br.wedge_group_matrix(h)))
        # the minors of 1 + g: constant, linear (the Lie action) and
        # quadratic (the minors of g) parts
        assert (br.wedge_group_matrix(mat_add(identity(4), g))
                == mat_add(mat_add(identity(6), br.wedge_lie_matrix(g)), wg))


@pytest.mark.parametrize("h", [-2, -1, 1, 2])
def test_twist_micro_identity(h):
    # the twist sends the companion vector to itself plus 2h times the
    # generator in the wedge factor
    sp = br.TensorSpace(1, 0)
    wp = {br.pack((i,)): c for i, c in br.W_PRIME}
    out = sp.apply_group(br.twist_element(h), wp)
    want = dict(wp)
    top = br.pack((br.W_INDEX,))
    want[top] = want.get(top, Q(0)) + 2 * h
    assert out == want


def _apply_group_over_fractions(space, g, vec):
    """The group action with every entry of g and of its minors a
    Fraction: the reference for TensorSpace.apply_group."""
    g4 = mat(g)
    cols = (br._columns(g4), br._columns(br.wedge_group_matrix(g4)))
    for pos in range(len(space.kinds)):
        vec = space._act_factor(pos, *cols, vec, {})
        vec = {k: v for k, v in vec.items() if v != 0}
    return vec


def test_apply_group_matches_fraction_reference():
    # the twists and 20 random g, half of them integral, on vectors of
    # every factor order of (1, 1) and (2, 1); an integral g keeps
    # integer coefficients ints
    rng = random.Random(20)
    gs = [br.twist_element(h) for h in (-2, -1, 1, 2)]
    gs += [mat([[Q(rng.randint(-4, 4), rng.choice((1, 2, 3)) if i % 2
                   else 1) for _ in range(4)] for _ in range(4)])
           for i in range(20)]
    spaces = [br.TensorSpace(1, 1, kinds) for kinds in ("wv", "vw")]
    spaces += [br.TensorSpace(2, 1, kinds) for kinds in ("wwv", "wvw")]
    for g in gs:
        integral = all(x.denominator == 1 for row in g for x in row)
        for sp in spaces:
            vec = {idx: rng.randint(-3, 3) for idx in rng.sample(
                sorted(_indices(sp)), 5)}
            got = sp.apply_group(g, vec)
            assert got == _apply_group_over_fractions(sp, g, vec)
            assert not integral or all(type(c) is int for c in got.values())


@pytest.mark.parametrize("ab", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_twist_lemma_grid(ab):
    a, b = ab
    sp = br.TensorSpace(a, b)
    for q in range(a + 1):
        for r in range(b + 1):
            v, v0 = (br.hw_vector(a, b, j, r, sp) for j in (q, 0))
            for h in (-2, -1, 1, 2):
                ok, lhs, rhs = br.twist_lemma_check(sp, v, v0, q, h)
                assert ok, (a, b, q, r, h)


def test_twist_failure_shows_tuple_keys():
    # the sides of a failed twist, as the runner reports them, keep the
    # tuple keys of the factor indices
    sp = br.TensorSpace(2, 1)
    v, v0 = (br.hw_vector(2, 1, q, 1, sp) for q in (1, 0))
    ok, lhs, rhs = br.twist_lemma_check(sp, v, v0, 2, 1)
    assert not ok and lhs and rhs
    assert all(isinstance(k, tuple) and len(k) == 3 for k in (*lhs, *rhs))
    good, lhs1, rhs1 = br.twist_lemma_check(sp, v, v0, 1, 1)
    assert good and lhs1 == rhs1 == {k: c / 2 for k, c in rhs.items()}


def test_twist_lemma_rejects_zero_twist():
    sp = br.TensorSpace(1, 1)
    v = br.hw_vector(1, 1, 1, 0, sp)
    with pytest.raises(ValueError):
        br.twist_lemma_check(sp, v, br.hw_vector(1, 1, 0, 0, sp), 1, 0)
