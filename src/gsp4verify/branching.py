"""Algebraic representations of the rank-2 similitude symplectic group
over Q, and their restriction to the fibre product of two 2x2 groups.

The irreducible representation with highest weight (a+b, a, 0) — in the
basis (chi1, chi2, mu) of the diagonal-torus character lattice — is
realised as the cyclic module generated by the top tensor inside
(wedge^2 of the standard representation)^(tensor a) tensor (standard
representation)^(tensor b).  Its vectors are dicts keyed by packed
factor indices: one int with a 3-bit field per tensor factor, factor 0
in the highest field, so the order of the keys is that of the index
tuples and the pivots of the echelon form do not depend on the packing;
acting on one factor adds (r - i) << shift to a key.  Only the sides of
a twist failure are shown with tuple keys.  The Lie action, four times
the Casimir and the echelon form (fraction-free, on primitive rows) run
on Python ints; the isotypic projection clears the denominators of its
input, reads the Krylov relation off the same echelon and divides once
over Q at the end; its eigenvalues are the candidates 4c(w), w a weight
of the tensor space, where the Krylov polynomial vanishes.

Provided here:

* an 11-element basis of the Lie algebra (2 semisimple Cartan elements,
  the identity, and 8 root vectors) with its trace form and the
  resulting Casimir operator,
* cyclic construction of the irreducibles from the four Chevalley
  generators, with the dimension formula (a+1)(b+1)(a+b+2)(2a+b+3)/6
  and full weight multiplicities,
* Casimir-Krylov isotypic projection (the Cartan product),
* the restriction law to the fibre product of two 2x2 groups, with its
  explicit highest-weight vectors, and
* the unipotent-twist projection identity used by the norm-relation
  bookkeeping.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import mat, mat_add, mat_mul, mat_t, root_unipotent

Q = Fraction

#: desk-scale bound on the ambient tensor dimension 6^a 4^b
SIZE_BOUND = 1000


# -- the Lie algebra -------------------------------------------------------------

def _e(i, j, c=1):
    m = [[Q(0)] * 4 for _ in range(4)]
    m[i][j] = Q(c)
    return tuple(tuple(r) for r in m)


def lie_basis():
    """Ordered 11-element basis: two Cartan coroots, the identity, the
    four positive root vectors, the four negative root vectors."""
    t1 = mat_add(_e(0, 0), _e(3, 3, -1))
    t2 = mat_add(_e(1, 1), _e(2, 2, -1))
    ident = mat_add(mat_add(_e(0, 0), _e(1, 1)), mat_add(_e(2, 2), _e(3, 3)))
    n0 = mat_add(_e(0, 1), _e(2, 3, -1))      # chi1 - chi2
    n1 = _e(1, 2)                             # 2 chi2 - mu
    n2 = mat_add(_e(0, 2), _e(1, 3))          # chi1 + chi2 - mu
    n3 = _e(0, 3)                             # 2 chi1 - mu
    pos = [n0, n1, n2, n3]
    neg = [mat_t(mat(x)) for x in pos]
    return ([("t1", t1), ("t2", t2), ("id", ident)]
            + [(f"n{i}", x) for i, x in enumerate(pos)]
            + [(f"m{i}", tuple(tuple(Q(v) for v in r) for r in x))
               for i, x in enumerate(neg)])


# weights of the standard basis vectors in the (chi1, chi2, mu) basis
_STD_WEIGHTS = ((1, 0, 0), (0, 1, 0), (0, -1, 1), (-1, 0, 1))
#: index pairs of the wedge-square basis
WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_WEDGE_INDEX = {p: i for i, p in enumerate(WEDGE_PAIRS)}


def _wedge_weight(k):
    i, j = WEDGE_PAIRS[k]
    return tuple(a + b for a, b in zip(_STD_WEIGHTS[i], _STD_WEIGHTS[j]))


def wedge_lie_matrix(x):
    """Induced action of a Lie element on the wedge square (Leibniz)."""
    out = [[Q(0)] * 6 for _ in range(6)]
    for col, (i, j) in enumerate(WEDGE_PAIRS):
        # x.(e_i ^ e_j) = (x e_i) ^ e_j + e_i ^ (x e_j)
        for r in range(4):
            _wedge_add(out, col, r, j, x[r][i])
            _wedge_add(out, col, i, r, x[r][j])
    return tuple(tuple(r) for r in out)


def wedge_group_matrix(g):
    """Induced action of a group element on the wedge square: the matrix
    of 2x2 minors, g e_i ^ g e_j = sum_{r<s} (g_ri g_sj - g_si g_rj)
    e_r ^ e_s."""
    return tuple(tuple(g[r][i] * g[s][j] - g[s][i] * g[r][j]
                       for i, j in WEDGE_PAIRS)
                 for r, s in WEDGE_PAIRS)


def _wedge_add(out, col, i, j, coeff):
    if coeff == 0 or i == j:
        return
    if i < j:
        out[_WEDGE_INDEX[(i, j)]][col] += coeff
    else:
        out[_WEDGE_INDEX[(j, i)]][col] -= coeff


def _integral(x):
    """x as an int when its denominator is 1, else x unchanged."""
    return int(x) if x.denominator == 1 else x


def _columns(m):
    """Sparse columns of a square matrix: entry j lists the pairs
    (i, m[i][j]) with m[i][j] non-zero, as an int if it is integral."""
    return tuple(tuple((i, _integral(row[j])) for i, row in enumerate(m)
                       if row[j])
                 for j in range(len(m)))


#: name -> sparse columns of the Lie element on the standard and on the
#: wedge representation
_LIE_COLUMNS = {name: (_columns(x), _columns(wedge_lie_matrix(x)))
                for name, x in lie_basis()}


# -- ambient tensor spaces -------------------------------------------------------

#: bits per tensor factor in a packed key; a factor index is below 6
_FIELD = 3
_MASK = (1 << _FIELD) - 1

#: the torus weights of the basis vectors of a factor, by its kind
_FACTOR_WEIGHTS = {"w": tuple(map(_wedge_weight, range(6))),
                   "v": _STD_WEIGHTS}


def pack(idx) -> int:
    """The packed key of a tuple of factor indices: 3 bits per factor,
    factor 0 in the highest field, so keys of one length sort as their
    tuples do."""
    k = 0
    for i in idx:
        k = (k << _FIELD) | i
    return k


class TensorSpace:
    """(wedge square)^(tensor a) tensor (standard)^(tensor b), with
    exact sparse vectors keyed by packed factor indices (see pack)."""

    def __init__(self, a: int, b: int):
        if a < 0 or b < 0 or 6 ** a * 4 ** b > SIZE_BOUND:
            raise ValueError("size bound exceeded")
        self.a, self.b = a, b
        self.kinds = ("w",) * a + ("v",) * b
        # the shift of each factor's field, factor 0 highest
        self._shifts = tuple(_FIELD * pos
                            for pos in reversed(range(len(self.kinds))))

    def unpack(self, key: int) -> tuple:
        """The tuple of factor indices of a packed key."""
        return tuple((key >> s) & _MASK for s in self._shifts)

    def gweight(self, idx: int):
        """The torus weight of the basis vector with packed key idx."""
        n1 = n2 = m = 0
        for kind, s in zip(self.kinds, self._shifts):
            x, y, z = _FACTOR_WEIGHTS[kind][(idx >> s) & _MASK]
            n1, n2, m = n1 + x, n2 + y, m + z
        return n1, n2, m

    def sweight(self, idx: int) -> int:
        """Weight under the rank-1 torus diag(x, x, 1, 1)."""
        n1, n2, m = self.gweight(idx)
        return n1 + n2 + m

    def _act_factor(self, pos: int, cols4, cols6, vec: dict, out: dict):
        """Add to out the image of vec under one matrix acting on tensor
        factor pos; cols4 and cols6 are the sparse columns (see _columns)
        of its action on the standard and on the wedge representation.
        The entry (r, x) of column i sends a key with i in the field of
        pos to the key with r there: it adds (r - i) << shift."""
        cols = cols6 if self.kinds[pos] == "w" else cols4
        s = self._shifts[pos]
        for k, c in vec.items():
            i = (k >> s) & _MASK
            for r, x in cols[i]:
                nk = k + ((r - i) << s)
                out[nk] = out[nk] + c * x if nk in out else c * x
        return out

    def apply_lie(self, name: str, vec: dict) -> dict:
        """Lie action: the sum over factors of the action on one factor."""
        out: dict = {}
        for pos in range(len(self.kinds)):
            self._act_factor(pos, *_LIE_COLUMNS[name], vec, out)
        return {k: v for k, v in out.items() if v != 0}

    def apply_group(self, g, vec: dict) -> dict:
        """Group action: the composite over factors of the action on one
        factor.  An integral entry of g is an int, so an integral g acts,
        on the standard and the wedge factors alike, through ints."""
        g4 = [[_integral(x) for x in row] for row in mat(g)]
        cols = (_columns(g4), _columns(wedge_group_matrix(g4)))
        for pos in range(len(self.kinds)):
            vec = self._act_factor(pos, *cols, vec, {})
            vec = {k: v for k, v in vec.items() if v != 0}
        return vec

    def top_tensor(self) -> dict:
        """w^(tensor a) tensor v^(tensor b): the generating vector."""
        return {pack((0,) * (self.a + self.b)): 1}


def _casimir_terms():
    """The terms (x, y, 4 / tr(x y)) of four times the Casimir, the sum
    over x of x times its dual: the trace form pairs each basis element
    x with exactly one y, and the dual of x is y / tr(x y).  Raises
    ArithmeticError on a basis that the form does not pair so."""
    basis = lie_basis()
    for x, mx in basis:
        pairs = [(y, tr) for y, my in basis
                 if (tr := sum(mx[i][j] * my[j][i] for i in range(4)
                               for j in range(4) if mx[i][j]))]
        if len(pairs) != 1:
            raise ArithmeticError(f"the trace form pairs {x} with "
                                  f"{len(pairs)} basis elements")
        yield x, pairs[0][0], _integral(4 / pairs[0][1])


#: four times the Casimir of the trace form: 11 terms with coefficients
#: 1, 2 and 4, one per basis element y, since the form is diagonal on the
#: Cartan part and pairs each root vector with its negative
_CASIMIR_TERMS = tuple(_casimir_terms())


def _casimir4(space: TensorSpace, vec: dict) -> dict:
    """Apply four times the Casimir operator: integral on integral vec."""
    out: dict = {}
    for x, y, g in _CASIMIR_TERMS:
        for k, c in space.apply_lie(x, space.apply_lie(y, vec)).items():
            out[k] = out.get(k, 0) + g * c
    return {k: v for k, v in out.items() if v != 0}


def _casimir4_candidates(space: TensorSpace) -> set:
    """4c(w) for every weight w of space: each eigenvalue of 4C there is
    4c of a constituent's highest weight, a weight of space."""
    weights = {(0, 0, 0)}
    for kind in space.kinds:
        weights = {tuple(x + y for x, y in zip(w, piece))
                   for w in weights for piece in _FACTOR_WEIGHTS[kind]}
    return {_casimir4_eigenvalue(w) for w in weights}


def _casimir4_eigenvalue(weight) -> int:
    """4c for the highest weight w = (n1, n2, m): the pairing of w with
    w + 2 rho, 2 rho = (4, 2, -3), under four times the dual trace form."""
    n1, n2, m = weight
    s = n1 + n2 + 2 * m
    return 2 * n1 * (n1 + 4) + 2 * n2 * (n2 + 2) + s * s


# -- sparse echelon form ---------------------------------------------------------

def _reduce(rows, vec: dict) -> dict:
    """Reduce the integer vector vec against echelon rows [(pivot, row)],
    each primitive, with its least key as pivot and 0 at the pivots
    before it.  Returns the residual divided by its content: {} or a row
    to append at its least key."""
    vec = dict(vec)
    for pivot, row in rows:
        c = vec.get(pivot, 0)
        if c:
            pv = row[pivot]
            g = math.gcd(c, pv)
            s, t = pv // g, c // g
            if s != 1:
                vec = {k: s * x for k, x in vec.items()}
            for k, x in row.items():
                vec[k] = vec.get(k, 0) - t * x
    vec = {k: x for k, x in vec.items() if x != 0}
    g = math.gcd(*vec.values())
    return {k: x // g for k, x in vec.items()} if g > 1 else vec


# -- cyclic construction of the irreducibles ------------------------------------

#: the Chevalley generators: the simple root vectors and their negatives
CHEVALLEY = ("n0", "n1", "m0", "m1")


class RepSpace:
    """Irreducible representation with highest weight (a+b, a, 0),
    realised as an exact cyclic submodule of a TensorSpace.  The basis
    is stored weight space by weight space.

    The search applies only CHEVALLEY, which generate the semisimple
    part (Humphreys, Lie algebras, 1972, section 18): n2, n3, m2 and m3
    are brackets of them, a span closed under x and y is closed under
    xy - yx, and t1, t2 and id scale each weight vector.  The lowering
    pair alone would span the module; the raising pair stays so that a
    damaged generator shows as a wrong dimension."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        self.space = TensorSpace(a, b)
        self._by_weight: dict = {}
        seed = self.space.top_tensor()
        frontier = [seed]
        self._insert(seed)
        while frontier:
            nxt = []
            for v in frontier:
                for name in CHEVALLEY:
                    img = self.space.apply_lie(name, v)
                    if img and self._insert(img):
                        nxt.append(img)
            frontier = nxt

    def _insert(self, vec: dict) -> bool:
        """Reduce against the same-weight echelon basis; insert if new."""
        w = self.space.gweight(next(iter(vec)))
        rows = self._by_weight.setdefault(w, [])
        red = _reduce(rows, vec)
        if red:
            rows.append((min(red), red))
        return bool(red)

    @property
    def dimension(self) -> int:
        return sum(len(rows) for rows in self._by_weight.values())

    def weight_multiplicities(self) -> dict:
        return {w: len(rows) for w, rows in self._by_weight.items() if rows}


def rep_dimension_formula(a: int, b: int) -> int:
    n = (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3)
    if n % 6:
        raise ArithmeticError("Weyl dimension formula is not integral")
    return n // 6


def build_rep(a: int, b: int) -> RepSpace:
    rep = RepSpace(a, b)
    expected = rep_dimension_formula(a, b)
    if rep.dimension != expected:
        raise AssertionError(
            f"cyclic module has dimension {rep.dimension}, "
            f"formula gives {expected}")
    return rep


# -- isotypic projection (Cartan product) ---------------------------------------

class ProjectorError(AssertionError):
    """The Casimir does not separate the isotypic parts it is asked to:
    a failed identity of the representation, which the runner records
    as a failure."""


def _krylov_relation(space: TensorSpace, vec: dict) -> list:
    """Integers c_0, ..., c_n, c_n != 0, with sum c_i (4C)^i vec = 0 for
    the least n: (4C)^i vec carries 1 at the marker key mark + i, above
    every tensor key, so the markers of an echelon row say what it is."""
    mark = 1 << (_FIELD * (space.a + space.b))
    rows: list = []
    while True:
        red = _reduce(rows, {**vec, mark + len(rows): 1})
        if min(red) >= mark:
            return [red.get(mark + i, 0) for i in range(len(rows) + 1)]
        rows.append((min(red), red))
        vec = _casimir4(space, vec)


def cartan_project(space: TensorSpace, vec: dict, target_weight) -> dict:
    """Component of vec in the isotypic part whose Casimir eigenvalue is
    that of target_weight, via a Krylov minimal polynomial of the
    Casimir on the cyclic span of vec.  Raises ProjectorError if vec has
    a component of larger eigenvalue: the target is then not the Cartan
    product."""
    if not vec:
        return {}
    e0 = _casimir4_eigenvalue(target_weight)
    scale = math.lcm(*(x.denominator for x in vec.values()))
    base = {k: x.numerator * (scale // x.denominator) for k, x in vec.items()}
    rel = _krylov_relation(space, base)
    # the minimal polynomial sum c_i x^i of a diagonalisable 4C has n
    # distinct roots among the candidates; fewer means a repeated root
    # or one outside them
    rts = [r for r in sorted(_casimir4_candidates(space))
           if not sum(c * r ** i for i, c in enumerate(rel))]
    if len(rts) != len(rel) - 1:
        raise ProjectorError("projector not separating")
    if e0 not in rts:
        return {}
    if any(r > e0 for r in rts):
        raise ProjectorError("target eigenvalue is not maximal")
    out, den = base, scale
    for r in rts:
        if r != e0:
            img = _casimir4(space, out)
            out = {k: img.get(k, 0) - r * out.get(k, 0)
                   for k in {**out, **img}}
            out = {k: v for k, v in out.items() if v != 0}
            den *= e0 - r
    return {k: Q(v, den) for k, v in out.items()}


# -- restriction to the fibre product --------------------------------------------

def _h_weight(gw):
    """Convert a torus weight (n1, n2, m) to exponents of the coordinates
    (a, d, a') of the restricted-torus parametrisation with d' = a d/a'."""
    n1, n2, m = gw
    return (n1 + m, m, n2)


def _w_cd_weights(c: int, d: int, q: int):
    """Multiset of restricted-torus weights of Sym^c box Sym^d times the
    q-th power of the determinant character."""
    out = []
    for i in range(c + 1):
        for j in range(d + 1):
            out.append((c - i + j + q, i + j + q, d - 2 * j))
    return out


def branch_decompose(rep: RepSpace):
    """Verify the restriction law of the built irreducible and return
    the index list [(c, d, q)] with c = a+b-q-r, d = a-q+r over
    0<=q<=a, 0<=r<=b."""
    a, b = rep.a, rep.b
    actual: dict = {}
    for w, mult in rep.weight_multiplicities().items():
        hw = _h_weight(w)
        actual[hw] = actual.get(hw, 0) + mult
    expected: dict = {}
    index = []
    total = 0
    for q in range(a + 1):
        for r in range(b + 1):
            c, d = a + b - q - r, a - q + r
            index.append((c, d, q))
            total += (c + 1) * (d + 1)
            for hw in _w_cd_weights(c, d, q):
                expected[hw] = expected.get(hw, 0) + 1
    if total != rep.dimension:
        raise AssertionError("dimension mismatch in restriction law")
    if actual != expected:
        bad = {w for w in set(actual) | set(expected)
               if actual.get(w, 0) != expected.get(w, 0)}
        raise AssertionError(f"weight multiplicity mismatch at {bad}")
    return index


# named vectors in the two fundamental factors
#: highest-weight vector of the wedge factor: e1 ^ e2
W_INDEX = _WEDGE_INDEX[(0, 1)]
#: its torus-weight-mu companion: e1 ^ e4 - e2 ^ e3
W_PRIME = ((_WEDGE_INDEX[(0, 3)], 1), (_WEDGE_INDEX[(1, 2)], -1))


def hw_tensor(a: int, b: int, q: int, r: int) -> dict:
    """The plain tensor w^(a-q) (w')^q v^(b-r) (v')^r in the fixed
    factor order (wedge factors first), on packed keys."""
    if not (0 <= q <= a and 0 <= r <= b):
        raise ValueError("parameters out of range")
    vec = {(): 1}
    for pos in range(a + b):
        nxt = {}
        if pos < a - q:
            choices = ((W_INDEX, 1),)
        elif pos < a:
            choices = W_PRIME
        elif pos < a + (b - r):
            choices = ((0, 1),)
        else:
            choices = ((1, 1),)
        for idx, c in vec.items():
            for i, x in choices:
                nxt[idx + (i,)] = c * x
        vec = nxt
    return {pack(idx): c for idx, c in vec.items()}


def hw_vector(a: int, b: int, q: int, r: int, space: TensorSpace) -> dict:
    """The highest-weight vector of the (q, r) summand of the
    restriction, in the tensor space of (a, b): the isotypic projection
    of the plain tensor.  Asserts that it is non-zero and annihilated by
    the positive unipotents of the restricted group."""
    vec = cartan_project(space, hw_tensor(a, b, q, r), (a + b, a, 0))
    if not vec:
        raise AssertionError("projected highest-weight vector vanished")
    # annihilated by the two positive nilpotents of the fibre product
    # (root positions (0,3) and (1,2))
    for name in ("n3", "n1"):
        if space.apply_lie(name, vec):
            raise AssertionError(
                "vector is not a highest-weight vector for the subgroup")
    return vec


def twist_element(h: int):
    """The unipotent 1 + h(E13 + E24)."""
    return root_unipotent(2, h)


def s_weight_projection(space: TensorSpace, vec: dict, weight: int) -> dict:
    return {k: c for k, c in vec.items() if space.sweight(k) == weight}


def twist_lemma_check(space: TensorSpace, v: dict, v0: dict, q: int,
                      h: int):
    """Check that the projection of the h-th twist of the (q, r)
    highest-weight vector v to the top weight space of the rank-1 torus
    diag(x,x,1,1) equals (2h)^q times the (0, r) vector v0, both built
    by hw_vector in space.  Returns (ok, lhs, rhs), the sides keyed by
    tuples of factor indices."""
    if h == 0:
        raise ValueError("h must be non-zero")
    twisted = space.apply_group(twist_element(h), v)
    lhs = s_weight_projection(space, twisted, 2 * space.a + space.b)
    rhs = {k: Q(2 * h) ** q * c for k, c in v0.items()}
    return lhs == rhs, *({space.unpack(k): c for k, c in side.items()}
                         for side in (lhs, rhs))


def dual_character_check(rep: RepSpace) -> bool:
    """The weight multiset of the built irreducible, negated, equals the
    multiset shifted by -(2a+b) in the similitude direction."""
    shift = 2 * rep.a + rep.b
    mult = rep.weight_multiplicities()
    negated = {tuple(-x for x in w): m for w, m in mult.items()}
    shifted = {(w[0], w[1], w[2] - shift): m for w, m in mult.items()}
    return negated == shifted


def central_character_check(rep: RepSpace) -> bool:
    """Every weight (n1, n2, m) of the built irreducible satisfies
    n1 + n2 + 2m = 2a + b: the centre acts by the (2a+b)-th power."""
    return all(w[0] + w[1] + 2 * w[2] == 2 * rep.a + rep.b
               for w in rep.weight_multiplicities())


def grid():
    """All (a, b) with 6^a 4^b within the desk-scale bound."""
    out = []
    a = 0
    while 6 ** a <= SIZE_BOUND:
        b = 0
        while 6 ** a * 4 ** b <= SIZE_BOUND:
            out.append((a, b))
            b += 1
        a += 1
    return out
