"""Local plumbing for the norm-relation machinery: a catalog of level
data at each prime (an indicator-sum Hecke element, a symmetry group,
and a pair of lattice test functions), together with exact finite
verifications of the coset and test-function identities that drive the
norm relations in both the tame and wild directions, and the
Frobenius-reciprocity pairing identity that converts them into an
Euler-factor statement.

All matrix identities are exact over Q; subgroup membership is decided
by the exact congruence tests of the p-adic toolkit, so no floating
point or truncation enters anywhere.  Group elements are the toolkit's
integer rows over one denominator, (r, d), throughout; an element of
GL2 x GL2 glued along the determinant is a pair of 2x2 (r, d), which
the toolkit's block embedding checks and places in GSp4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .besselzeta import TameDatum
from .gsp4local import hecke_eigenvalue
from .padic import (LevelSpec, SchwartzFn, _act, _as_fractions, _coset_block,
                    _diag, _embed_rows, _in_level, _int_rows, _inverse,
                    _multiplier, _product, _root_unipotent, _transpose,
                    siegel_parahoric_reps)
from .symcore import ell

Q = Fraction


# -- basic elements -------------------------------------------------------------

def _eta(p: int, r: int, a=1):
    """(r, d) of the rational unipotent 1 + a p^{-r} (E13 + E24)."""
    return _root_unipotent(2, Q(a, p ** r))


def eta(p: int, r: int, a=1) -> tuple:
    """The rational unipotent 1 + a p^{-r} (E13 + E24)."""
    return _as_fractions(_eta(p, r, a))


# -- indicator-sum Hecke elements ------------------------------------------------

@dataclass(frozen=True)
class XiElt:
    """A finite sum of indicator functions of left cosets g U, for a
    fixed open subgroup U (given by a LevelSpec at a prime); each g is
    given as (r, d)."""
    p: int
    level: LevelSpec
    terms: tuple  # of ((r, d), coeff)

    def left_translate(self, g) -> "XiElt":
        """The translate by g = (r, d): each coset h U becomes g h U."""
        return XiElt(self.p, self.level,
                     tuple((_product(g, h), c) for h, c in self.terms))

    def _collapse(self):
        """Merge terms indexing the same coset."""
        out = []    # of (g0, inverse of g0, coefficient)
        for g, c in self.terms:
            for i, (g0, g0_inv, c0) in enumerate(out):
                if _in_level(_product(g0_inv, g), self.level, self.p):
                    out[i] = (g0, g0_inv, c0 + c)
                    break
            else:
                out.append((g, _inverse(g), c))
        return [(g, c) for g, _, c in out if c != 0]

    def __eq__(self, other):
        if not isinstance(other, XiElt):
            return NotImplemented
        if (self.p, self.level) != (other.p, other.level):
            return False
        # equal exactly when their difference leaves no coset
        return not XiElt(self.p, self.level, self.terms + tuple(
            (g, -c) for g, c in other.terms))._collapse()


# -- the local-data catalog ------------------------------------------------------

@dataclass
class LocalDataEntry:
    prime: int
    role: str                      # "good" | "tame" | "wild"
    params: dict
    xi: XiElt
    w_generators: list             # of pairs of 2x2 (r, d)
    phi: tuple                     # pair of SchwartzFn


def _unit_gens(p: int, m: int):
    """Units a with a = 1 mod p^m; for m = 0 include generators of the
    full unit group."""
    if m == 0:
        return [-1, 3 if p == 2 else 2, 1 + p]
    return [1 + p ** m]


def _w_group_generators(p: int, m: int, t: int):
    """Generators of the pairs (h1, h2) integral at p with equal
    determinants = 1 mod p^m and lower rows = (0, 1) mod p^t, as pairs
    of (r, 1)."""
    one, s = _diag(1, 1), max(t, m, 1)
    up, low = _int_rows([[1, 1], [0, 1]]), _int_rows([[1, 0], [p ** t, 1]])
    gens = [(up, one), (one, up), (low, one), (one, low),
            (_diag(1, 1 + p ** s), _diag(1, 1 + p ** s)),
            (_diag(1 + p ** s, 1), _diag(1, 1 + p ** s))]
    gens += [(_diag(a, 1), _diag(a, 1)) for a in _unit_gens(p, m)]
    for h in gens:
        _embed_rows(h)      # raises unless the determinants agree
    return gens


def make_local_data(role: str, p: int, **params) -> LocalDataEntry:
    """Construct the catalog entry for one prime and verify its own
    invariance properties (the symmetry group fixes the test functions
    and left-fixes the Hecke element)."""
    if role == "good":
        if params:
            raise ValueError("good entries take no parameters")
        xi = XiElt(p, LevelSpec("G"), ((_diag(1, 1, 1, 1), Q(1)),))
        phi = (SchwartzFn.lattice_product(p, 0, 0),
               SchwartzFn.lattice_product(p, 0, 0))
        gens = _w_group_generators(p, 0, 0)
    elif role == "tame":
        if params:
            raise ValueError("tame entries take no parameters")
        xi = XiElt(p, LevelSpec("K1det"),
                   ((_diag(1, 1, 1, 1), Q(1)), (_eta(p, 1), Q(-1))))
        phi = (SchwartzFn.depth_pair(p, 2), SchwartzFn.depth_pair(p, 2))
        gens = _w_group_generators(p, 1, 2)
    elif role == "wild":
        m, n = params.pop("m", None), params.pop("n", None)
        if m is None or n is None:
            raise ValueError("invalid wild parameters")
        t = params.pop("t", n + 2 * m)
        if params or n < max(m, 1) or t < 1:
            raise ValueError("invalid wild parameters")
        xi = XiElt(p, LevelSpec("Kmn", m, n), ((_eta(p, m), Q(1)),))
        phi = (SchwartzFn.depth_pair(p, t), SchwartzFn.depth_pair(p, t))
        gens = _w_group_generators(p, m, t)
        if phi[0].value_at(0, 0) != 0 or phi[1].value_at(0, 0) != 0:
            raise AssertionError("wild test function must vanish at 0")
    else:
        raise ValueError(f"unknown role {role!r}")
    entry = LocalDataEntry(p, role,
                           {"m": m, "n": n, "t": t} if role == "wild" else {},
                           xi, gens, phi)
    _validate_entry(entry)
    return entry


def _validate_entry(entry: LocalDataEntry):
    for h in entry.w_generators:
        if any(_act(g, f) != f for g, f in zip(h, entry.phi)):
            raise AssertionError("symmetry group does not fix phi")
        if entry.xi.left_translate(_embed_rows(h)) != entry.xi:
            raise AssertionError("symmetry group does not left-fix xi")


# -- sufficiency of the depth bound ---------------------------------------------

def _w_contained(p: int, m: int, n: int, t: int) -> bool:
    e, ei = _eta(p, m), _eta(p, m, -1)
    spec = LevelSpec("Kmn", m, n)
    return all(_in_level(_product(_product(ei, _embed_rows(h)), e), spec, p)
               for h in _w_group_generators(p, m, t))


def sufficiency_check(p: int, m: int, n: int) -> int:
    """Least depth t (on generators) at which the symmetry group of
    depth t is contained in the eta-conjugate of the level group; the
    result is asserted to be at most n + 2m."""
    if n < max(m, 1):
        raise ValueError("need n >= max(m, 1)")
    for t in range(1, n + 2 * m + 2):
        if _w_contained(p, m, n, t):
            if t > n + 2 * m:
                raise AssertionError(
                    f"bound n + 2m = {n + 2 * m} insufficient at "
                    f"(p, m, n) = {(p, m, n)}")
            return t
    raise AssertionError(f"no sufficient depth found for {(p, m, n)}")


# -- depth-independence identity -------------------------------------------------

def _kh1_key(h, p: int, t: int) -> tuple:
    """Residues mod p^t of the lower rows of both factors of h^-1, h a
    pair of (r, d).  For integral h, h' with unit determinants, h^-1 h'
    has lower rows (0, 1) mod p^t exactly when h and h' have the same
    key."""
    M, key = p ** t, []
    for r, d in map(_inverse, h):
        w = pow(d, -1, M)       # d divides the unit determinant
        key += [x * w % M for x in r[1]]
    return tuple(key)


def _pair_table(f1: SchwartzFn, f2: SchwartzFn, t: int) -> dict:
    """Table of a pure-tensor pair at the fixed modulus p^t (both
    factors must have scale 0 and level at most t)."""
    if f1.s != 0 or f2.s != 0 or f1.n > t or f2.n > t:
        raise ValueError("pair factors need scale 0 and level at most t")
    a = f1.refined(0, t)
    b = f2.refined(0, t)
    return {(k1, k2): c1 * c2
            for k1, c1 in a.table.items() for k2, c2 in b.table.items()}


def indept_identity(p: int, T: int, t: int):
    """Verify that the depth-T test function is the sum of the
    translates of the depth-t one over an explicit transversal J taken
    inside the principal congruence subgroup of level p^T; also checks
    that |J| equals the index p^{4(t-T)} and that the transversal is
    pairwise inequivalent.  Returns (ok, size_of_J)."""
    if not 1 <= T <= t:
        raise ValueError("need 1 <= T <= t")
    q, P = p ** (t - T), p ** T
    reps = []   # pairs of (r, 1) with equal determinants
    for c1, d1, c2, d2 in itertools.product(range(q), repeat=4):
        h = (_int_rows(((1 + P * d2, 0), (P * c1, 1 + P * d1))),
             _int_rows(((1 + P * d1, 0), (P * c2, 1 + P * d2))))
        if _multiplier(h[0][0]) != _multiplier(h[1][0]):
            raise ValueError("determinants differ")
        reps.append(h)
    if len(reps) != q ** 4:
        raise ArithmeticError("transversal has the wrong size")
    # transversal lies in the principal congruence subgroup of level p^T
    for h in reps:
        for r, _ in h:
            if any((r[i][j] - (i == j)) % P
                   for i in range(2) for j in range(2)):
                raise AssertionError("representative not principal")
    # pairwise inequivalent modulo the deeper group; the check above makes
    # every element integral with unit determinant, as the key needs
    if len({_kh1_key(h, p, t) for h in reps}) != len(reps):
        return False, len(reps)
    phi_t = SchwartzFn.depth_pair(p, t)
    total: dict = {}
    for h in reps:
        tab = _pair_table(_act(h[0], phi_t), _act(h[1], phi_t), t)
        for k, c in tab.items():
            total[k] = total.get(k, Q(0)) + c
    total = {k: c for k, c in total.items() if c}
    phi_T = SchwartzFn.depth_pair(p, T)
    want = _pair_table(phi_T, phi_T, t)
    return total == want, len(reps)


# -- the wild coset identities ---------------------------------------------------

def _kmn_generators(p: int, m: int, n: int):
    """Generating elements of the level group used for the coset-orbit
    closure check, as (r, d)."""
    gens = []
    for i in (1, 2, 3):                      # upper-right block shears
        gens.append(_root_unipotent(i, 1))
        gens.append(_transpose(_root_unipotent(i, p ** n)))
    gens.append(_root_unipotent(0, p ** n))  # block-diagonal shears
    gens.append(_transpose(_root_unipotent(0, p ** n)))
    for a in _unit_gens(p, m):
        gens.append(_diag(a, a, 1, 1))
    gens.append(_diag(*[1 + p ** n] * 4))
    return gens


def wild_coset_identity(p: int, m: int, n: int):
    """Verify the three steps behind the wild norm relation at finite
    level and return (ok, report):

    (i)   the level-raising double coset splits into exactly p^3 left
          cosets indexed by the upper-block residues, and each coset
          matrix factors through a pair of 2x2 shears times the
          depth-(m+1) unipotent with parameter 1 + p^m u;
    (ii)  for units 1 + p^m u these unipotents are conjugate inside the
          level group by central-block scalings that act trivially on
          the test functions (all p terms for m >= 1, the p - 1 unit
          terms for m = 0);
    (iii) for m = 0 the term u = -1 degenerates to the coset of the
          level group itself;
    plus the test-function identity: the shear-translates of the
    depth-n pair sum to p^2 times the (n+1, n) lattice pair.
    """
    if m < 0 or n < max(m, 1):
        raise ValueError("invalid parameters")
    spec = LevelSpec("Kmn", m, n)
    report = {"cosets": 0, "witnesses": [], "conjugate_terms": 0,
              "special_case": None,
              "factor": ("1/p * U" if m >= 1 else "1/(p-1) * (U - 1)")}

    # step 0: the p^3 coset matrices are pairwise inequivalent and the
    # family is stable under left translation by level-group generators.
    # For X, X2 = [[u, v], [w, u]] of two coset matrices,
    # coset_block(X)^{-1} coset_block(X2) has the upper-right block
    # (X2 - X) / p and is in the level group exactly when X2 = X mod p,
    # so each block is keyed by the residues of (u, v, w), read off its
    # upper-right block, and two blocks are equivalent exactly when their
    # keys agree
    def key(x):         # x = (r, d), d prime to p
        r, w = x[0], pow(x[1], -1, p)
        return tuple(r[i][j] * w % p for i, j in ((0, 2), (0, 3), (1, 2)))

    blocks = [(u, v, w) for u in range(p) for v in range(p)
              for w in range(p)]
    mats = {b: _coset_block(p, *b) for b in blocks}
    keyed = {}
    for b in blocks:
        first = keyed.setdefault(key(mats[b]), b)
        if first != b:
            return False, {"failed": "coset disjointness", "at": (first, b)}
    inverses = {k: _inverse(mats[b]) for k, b in keyed.items()}
    for g in _kmn_generators(p, m, n):
        for b in blocks:
            moved = _product(g, mats[b])
            # coset_block(X2)^{-1} moved has the lower rows of moved and
            # the upper-right block (B - X2 D) / p, where B, D are the
            # right-hand blocks of moved; the level group needs D = 1 mod
            # p, so the only candidate is X2 = B mod p, keyed by B
            back = _product(inverses[key(moved)], moved)
            if not _in_level(back, spec, p):
                return False, {"failed": "coset stability", "at": b}
    report["cosets"] = len(blocks)

    # step (i): the factorisation witnesses
    eta_m = _eta(p, m)
    for (u, v, w) in blocks:
        a = 1 + p ** m * u
        h = (_int_rows([[p, v], [0, 1]]), _int_rows([[p, w], [0, 1]]))
        lhs = _product(eta_m, mats[(u, v, w)])
        target = _eta(p, m + 1, a)
        k = _product(_inverse(_product(_embed_rows(h), target)), lhs)
        if not _in_level(k, spec, p):
            return False, {"failed": "factorisation", "at": (u, v, w)}
        report["witnesses"].append(((u, v, w), h, k))

    # test-function identity, checked per factor:
    # sum over v of the inverse-shear translates of ch(p^n Z x (1+p^n Z))
    # equals p * ch(p^{n+1} Z x (1 + p^n Z))
    phi = SchwartzFn.depth_pair(p, n)
    acc = SchwartzFn.zero(p)
    for v in range(p):
        g = _inverse(_int_rows([[p, v], [0, 1]]))
        acc = acc + _act(g, phi)
    deeper = SchwartzFn.coset(p, 0, 1, n)  # ch(p^{n+1} Z x (1 + p^n Z))
    deeper = _intersect_first_factor(deeper, p, n + 1)
    if acc != p * deeper:
        return False, {"failed": "test-function sum"}

    # step (ii): conjugacy of the unit-parameter unipotents
    units = [u for u in range(p) if (1 + p ** m * u) % p != 0]
    for u in units:
        a = 1 + p ** m * u
        d = _diag(a, a, 1, 1)
        if not _in_level(d, spec, p):
            return False, {"failed": "conjugator membership", "at": u}
        conj = _product(_product(d, _eta(p, m + 1)), _inverse(d))
        if conj != _eta(p, m + 1, a):
            return False, {"failed": "conjugation identity", "at": u}
        if _act(_diag(a, 1), deeper) != deeper:
            return False, {"failed": "conjugator acts on phi", "at": u}
    report["conjugate_terms"] = len(units)

    # step (iii): the degenerate term at m = 0
    if m == 0:
        u = p - 1
        hv = _diag(p, p, 1, 1)       # (diag(p, 1), diag(p, 1)) embedded
        lhs = _product(_eta(p, 0), _coset_block(p, u, 0, 0))
        k = _product(_inverse(hv), lhs)
        if not _in_level(k, spec, p):
            return False, {"failed": "degenerate term", "at": u}
        report["special_case"] = u
    else:
        if len(units) != p:
            return False, {"failed": "term count"}
    return True, report


def _intersect_first_factor(f: SchwartzFn, p: int, depth: int) -> SchwartzFn:
    """Restrict a test function to points whose first coordinate lies
    in p^depth Z."""
    g = f.refined(f.s, max(f.n, depth))
    step = p ** (g.s + depth)
    table = {(a, b): c for (a, b), c in g.table.items() if a % step == 0}
    return SchwartzFn(p, g.s, g.n, table)


# -- Frobenius-reciprocity pairing check ------------------------------------------

def euler_element_eigenvalue(sigma):
    """Eigenvalue on the spherical vector of the Hecke element

        1 - T/p + (T1 + (p^2+1) R)/p - T R + p^2 R^2,

    from the double-coset eigenvalues of T, T1 and R, each a sum over the
    coset counts per torus type of gsp4local.HECKE_TYPES, at a pinned or
    at the formal prime."""
    lp = ell(sigma.p)
    t = hecke_eigenvalue("T", sigma)
    r = hecke_eigenvalue("R", sigma)
    t1pr = hecke_eigenvalue("T1", sigma) + (lp ** 2 + 1) * r
    return 1 - t / lp + t1pr / lp - t * r + lp ** 2 * r * r


def frobrecip_pairing_check(datum: TameDatum, perturb: bool = False):
    """Verify the pairing identity that converts the tame computation
    into an Euler-factor statement for the tame datum: the
    full-level/parahoric coset sum of the depth-1 functional equals the
    transposed Euler element applied to the depth-0 functional, checked
    as a single rational identity after pairing with the spherical
    vector.

    perturb=True damages the Euler element and must fail.  Returns
    (ok, lhs, rhs)."""
    p = datum.p
    b0 = datum.pairing("spherical", 0)
    # the coset-sum bookkeeping: #(U0/U1) * vol(U1) = vol(U0), with the
    # parahoric index verified by explicit enumeration
    index_ok = (p is None or
                len(siegel_parahoric_reps(p)) == (p + 1) * (p ** 2 + 1))
    b1 = datum.pairing("spherical", 1)
    b2 = datum.pairing("ul", 1)
    lp = ell(p)
    e = euler_element_eigenvalue(datum.sigma)
    if perturb:
        e = e * lp
    lhs = (lp + 1) ** 2 * (lp / (lp - 1) * b1 - 1 / (lp - 1) * b2)
    rhs = lp / (lp - 1) * e * b0
    return index_ok and lhs == rhs, lhs, rhs
