"""Local plumbing for the norm-relation machinery: a catalog of level
data at each prime (an indicator-sum Hecke element, a symmetry group,
and a pair of lattice test functions), together with exact finite
verifications of the coset and test-function identities that drive the
norm relations in both the tame and wild directions, and the
Frobenius-reciprocity pairing identity that converts them into an
Euler-factor statement.

All matrix identities are exact over Q; subgroup membership is decided
by the exact congruence tests of the p-adic toolkit, so no floating
point or truncation enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .besselzeta import tame_pairing
from .gsp4local import hecke_eigenvalue
from .padic import (HElt, LevelSpec, SchwartzFn, act_schwartz, coset_block,
                    identity, in_level, mat, mat_add, mat_inv, mat_mul,
                    mat_scalar, mat_t, root_unipotent, siegel_parahoric_reps)
from .symcore import as_ratfunc, ell, ell_pow, ratfunc_eq

Q = Fraction


# -- basic elements -------------------------------------------------------------

def eta(p: int, r: int, a=1) -> tuple:
    """The rational unipotent 1 + a p^{-r} (E13 + E24)."""
    return root_unipotent(2, Q(a) / Q(p) ** r)


def upper_shear(b) -> tuple:
    return mat([[1, b], [0, 1]])


def lower_shear(c) -> tuple:
    return mat([[1, 0], [c, 1]])


def diag2(a, d) -> tuple:
    return mat([[a, 0], [0, d]])


# -- indicator-sum Hecke elements ------------------------------------------------

@dataclass(frozen=True)
class XiElt:
    """A finite sum of indicator functions of left cosets g U, for a
    fixed open subgroup U (given by a LevelSpec at a prime)."""
    p: int
    level: LevelSpec
    terms: tuple  # of (matrix, coeff)

    def left_translate(self, g) -> "XiElt":
        g = mat(g)
        return XiElt(self.p, self.level,
                     tuple((mat_mul(g, h), c) for h, c in self.terms))

    def _collapse(self):
        """Merge terms indexing the same coset."""
        out = []    # of (g0, inverse of g0, coefficient)
        for g, c in self.terms:
            for i, (g0, g0_inv, c0) in enumerate(out):
                if in_level(mat_mul(g0_inv, g), self.level, self.p):
                    out[i] = (g0, g0_inv, c0 + c)
                    break
            else:
                out.append((g, mat_inv(g), c))
        return [(g, c) for g, _, c in out if c != 0]

    def __eq__(self, other):
        if not isinstance(other, XiElt):
            return NotImplemented
        if (self.p, self.level) != (other.p, other.level):
            return False
        a, b = self._collapse(), other._collapse()
        if len(a) != len(b):
            return False
        b_inv = [(mat_inv(g2), c2) for g2, c2 in b]
        for g, c in a:
            if not any(c == c2 and in_level(mat_mul(g2_inv, g),
                                            self.level, self.p)
                       for g2_inv, c2 in b_inv):
                return False
        return True


# -- the local-data catalog ------------------------------------------------------

@dataclass
class LocalDataEntry:
    prime: int
    role: str                      # "good" | "tame" | "wild"
    params: dict
    xi: XiElt
    w_generators: list             # of HElt
    phi: tuple                     # pair of SchwartzFn


def _unit_gens(p: int, m: int):
    """Units a with a = 1 mod p^m; for m = 0 include generators of the
    full unit group."""
    if m == 0:
        return [Q(-1), Q(3 if p == 2 else 2), Q(1 + p)]
    return [Q(1 + p ** m)]


def _w_group_generators(p: int, m: int, t: int):
    """Generators of the pairs (h1, h2) integral at p with equal
    determinants = 1 mod p^m and lower rows = (0, 1) mod p^t."""
    one = identity(2)
    s = max(t, m, 1)
    gens = [HElt.of(upper_shear(1), one),
            HElt.of(one, upper_shear(1)),
            HElt.of(lower_shear(p ** t), one),
            HElt.of(one, lower_shear(p ** t)),
            HElt.of(diag2(1, 1 + p ** s), diag2(1, 1 + p ** s)),
            HElt.of(diag2(1 + p ** s, 1), diag2(1, 1 + p ** s))]
    for a in _unit_gens(p, m):
        gens.append(HElt.of(diag2(a, 1), diag2(a, 1)))
    return gens


def make_local_data(role: str, p: int, **params) -> LocalDataEntry:
    """Construct the catalog entry for one prime and verify its own
    invariance properties (the symmetry group fixes the test functions
    and left-fixes the Hecke element)."""
    if role == "good":
        if params:
            raise ValueError("good entries take no parameters")
        xi = XiElt(p, LevelSpec("G"), ((identity(4), Q(1)),))
        phi = (SchwartzFn.lattice_product(p, 0, 0),
               SchwartzFn.lattice_product(p, 0, 0))
        gens = _w_group_generators(p, 0, 0)
    elif role == "tame":
        if params:
            raise ValueError("tame entries take no parameters")
        xi = XiElt(p, LevelSpec("K1det"),
                   ((identity(4), Q(1)), (eta(p, 1), Q(-1))))
        phi = (SchwartzFn.depth_pair(p, 2), SchwartzFn.depth_pair(p, 2))
        gens = [h for h in _w_group_generators(p, 1, 2)]
    elif role == "wild":
        m, n = params.pop("m"), params.pop("n")
        t = params.pop("t", n + 2 * m)
        if params or n < max(m, 1) or t < 1:
            raise ValueError("invalid wild parameters")
        xi = XiElt(p, LevelSpec("Kmn", m, n), ((eta(p, m), Q(1)),))
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
        if act_schwartz(h.g1, entry.phi[0]) != entry.phi[0] \
                or act_schwartz(h.g2, entry.phi[1]) != entry.phi[1]:
            raise AssertionError("symmetry group does not fix phi")
        if entry.xi.left_translate(h.embed().m) != entry.xi:
            raise AssertionError("symmetry group does not left-fix xi")


# -- sufficiency of the depth bound ---------------------------------------------

def _w_contained(p: int, m: int, n: int, t: int) -> bool:
    e = eta(p, m)
    ei = mat_inv(e)
    spec = LevelSpec("Kmn", m, n)
    return all(in_level(mat_mul(mat_mul(ei, h.embed().m), e), spec, p)
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

def _in_kh1(h: HElt, p: int, t: int) -> bool:
    """Pairs integral at p with unit equal determinants whose lower
    rows are (0, 1) mod p^t."""
    from .padic import is_p_integral, is_p_unit, mat_det, val
    for g in (h.g1, h.g2):
        if not all(is_p_integral(x, p) for row in g for x in row):
            return False
        if not is_p_unit(mat_det(g), p):
            return False
        if val(g[1][0], p) < t or val(g[1][1] - 1, p) < t:
            return False
    return True


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
    q = p ** (t - T)
    reps = []
    for c1 in range(q):
        for d1 in range(q):
            for c2 in range(q):
                for d2 in range(q):
                    g1 = mat([[1 + p ** T * d2, 0],
                              [p ** T * c1, 1 + p ** T * d1]])
                    g2 = mat([[1 + p ** T * d1, 0],
                              [p ** T * c2, 1 + p ** T * d2]])
                    reps.append(HElt.of(g1, g2))
    if len(reps) != q ** 4:
        raise ArithmeticError("transversal has the wrong size")
    # transversal lies in the principal congruence subgroup of level p^T
    for h in reps:
        for g in (h.g1, h.g2):
            diff = mat_add(g, mat_scalar(identity(2), -1))
            if any(x % p ** T for row in diff for x in row):
                raise AssertionError("representative not principal")
    # pairwise inequivalent modulo the deeper group
    for i, h in enumerate(reps):
        for h2 in reps[i + 1:]:
            if _in_kh1(h.inv() * h2, p, t):
                return False, len(reps)
    phi_t = SchwartzFn.depth_pair(p, t)
    total: dict = {}
    for h in reps:
        tab = _pair_table(act_schwartz(h.g1, phi_t),
                          act_schwartz(h.g2, phi_t), t)
        for k, c in tab.items():
            total[k] = total.get(k, Q(0)) + c
    total = {k: c for k, c in total.items() if c}
    phi_T = SchwartzFn.depth_pair(p, T)
    want = _pair_table(phi_T, phi_T, t)
    return total == want, len(reps)


# -- the wild coset identities ---------------------------------------------------

def _kmn_generators(p: int, m: int, n: int):
    """Generating elements of the level group used for the coset-orbit
    closure check."""
    gens = []
    for i in (1, 2, 3):                      # upper-right block shears
        gens.append(root_unipotent(i, 1))
        gens.append(mat_t(root_unipotent(i, p ** n)))
    gens.append(root_unipotent(0, p ** n))   # block-diagonal shears
    gens.append(mat_t(root_unipotent(0, p ** n)))
    for a in _unit_gens(p, m):
        gens.append(mat([[a, 0, 0, 0], [0, a, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]]))
    gens.append(mat_scalar(identity(4), 1 + p ** n))
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
    # family is stable under left translation by level-group generators
    blocks = [(u, v, w) for u in range(p) for v in range(p)
              for w in range(p)]
    mats = {b: coset_block(p, *b) for b in blocks}
    inverses = {b: mat_inv(mats[b]) for b in blocks}
    for i, b in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            if in_level(mat_mul(inverses[b], mats[b2]), spec, p):
                return False, {"failed": "coset disjointness", "at": (b, b2)}
    for g in _kmn_generators(p, m, n):
        for b in blocks:
            moved = mat_mul(g, mats[b])
            if not any(in_level(mat_mul(inverses[b2], moved), spec, p)
                       for b2 in blocks):
                return False, {"failed": "coset stability", "at": b}
    report["cosets"] = len(blocks)

    # step (i): the factorisation witnesses
    for (u, v, w) in blocks:
        a = 1 + p ** m * u
        h = HElt.of(mat([[p, v], [0, 1]]), mat([[p, w], [0, 1]]))
        lhs = mat_mul(eta(p, m), coset_block(p, u, v, w))
        target = eta(p, m + 1, a)
        k = mat_mul(mat_inv(mat_mul(h.embed().m, target)), lhs)
        if not in_level(k, spec, p):
            return False, {"failed": "factorisation", "at": (u, v, w)}
        report["witnesses"].append(((u, v, w), h, k))

    # test-function identity, checked per factor:
    # sum over v of the inverse-shear translates of ch(p^n Z x (1+p^n Z))
    # equals p * ch(p^{n+1} Z x (1 + p^n Z))
    phi = SchwartzFn.depth_pair(p, n)
    acc = SchwartzFn.zero(p)
    for v in range(p):
        g = mat_inv(mat([[p, v], [0, 1]]))
        acc = acc + act_schwartz(g, phi)
    deeper = SchwartzFn.coset(p, 0, 1, n)  # ch(p^{n+1} Z x (1 + p^n Z))
    deeper = _intersect_first_factor(deeper, p, n + 1)
    if acc != p * deeper:
        return False, {"failed": "test-function sum"}

    # step (ii): conjugacy of the unit-parameter unipotents
    units = [u for u in range(p) if (1 + p ** m * u) % p != 0]
    for u in units:
        a = 1 + p ** m * u
        d = mat([[a, 0, 0, 0], [0, a, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        if not in_level(d, spec, p):
            return False, {"failed": "conjugator membership", "at": u}
        conj = mat_mul(mat_mul(d, eta(p, m + 1)), mat_inv(d))
        if conj != eta(p, m + 1, a):
            return False, {"failed": "conjugation identity", "at": u}
        hd = diag2(a, 1)
        if act_schwartz(hd, deeper) != deeper:
            return False, {"failed": "conjugator acts on phi", "at": u}
    report["conjugate_terms"] = len(units)

    # step (iii): the degenerate term at m = 0
    if m == 0:
        u = p - 1
        hv = HElt.of(mat([[p, 0], [0, 1]]), mat([[p, 0], [0, 1]]))
        lhs = mat_mul(eta(p, 0), coset_block(p, u, 0, 0))
        k = mat_mul(mat_inv(hv.embed().m), lhs)
        if not in_level(k, spec, p):
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
    M = p ** (g.s + g.n)
    step = p ** (g.s + depth)
    table = {(a, b): c for (a, b), c in g.table.items() if a % step == 0}
    return SchwartzFn(p, g.s, g.n, table)


# -- Frobenius-reciprocity pairing check ------------------------------------------

def euler_element_eigenvalue(sigma):
    """Eigenvalue on the spherical vector of the Hecke element

        1 - T/p + (T1 + (p^2+1) R)/p - T R + p^2 R^2,

    computed from the individual double-coset eigenvalues (by explicit
    coset enumeration when the prime is concrete)."""
    p = sigma.p
    lp = ell(p)
    if p is None:
        al, be, c = sigma.alpha, sigma.beta, sigma.c
        t = ell_pow(3, p) * c * (1 + al) * (1 + be)
        r = al * be * c * c
        # recover T1 + (p^2+1) R from the quartic coefficient identity
        # e2 * p^3 = p (T1 + (p^2+1) R)
        gammas = sigma.spin_params()
        e2 = as_ratfunc(0, p)
        for i in range(4):
            for j in range(i + 1, 4):
                e2 = e2 + gammas[i] * gammas[j]
        t1pr = e2 * ell_pow(6, p) / lp   # = T1 + (p^2 + 1) R
    else:
        t = hecke_eigenvalue("T", sigma)
        r = hecke_eigenvalue("R", sigma)
        t1pr = hecke_eigenvalue("T1", sigma) + (lp ** 2 + 1) * r
    one = as_ratfunc(1, p)
    return one - t / lp + t1pr / lp - t * r + lp ** 2 * r * r


def frobrecip_pairing_check(k1: int, k2: int, p=None, scalar=None,
                            perturb: bool = False):
    """Verify the pairing identity that converts the tame computation
    into an Euler-factor statement: the full-level/parahoric coset sum
    of the depth-1 functional equals the transposed Euler element
    applied to the depth-0 functional, checked as a single rational
    identity after pairing with the spherical vector.

    With scalar=c the trivially-true scaling configuration is checked
    instead; perturb=True damages the Euler element and must fail.
    Returns (ok, lhs, rhs)."""
    _, _, sigma, pairing = tame_pairing(k1, k2, p=p)
    b0 = pairing("spherical", 0)
    if scalar is not None:
        # R = c * ch(U0) with identical data on both sides
        lhs = as_ratfunc(scalar, p) * b0
        rhs = as_ratfunc(scalar, p) * b0
        return ratfunc_eq(lhs, rhs), lhs, rhs
    # the coset-sum bookkeeping: #(U0/U1) * vol(U1) = vol(U0), with the
    # parahoric index verified by explicit enumeration
    index_ok = (p is None or
                len(siegel_parahoric_reps(p)) == (p + 1) * (p ** 2 + 1))
    b1 = pairing("spherical", 1)
    b2 = pairing("ul", 1)
    lp = ell(p)
    e = euler_element_eigenvalue(sigma)
    if perturb:
        e = e * lp
    lhs = (lp + 1) ** 2 * (lp / (lp - 1) * b1 - 1 / (lp - 1) * b2)
    rhs = lp / (lp - 1) * e * b0
    return index_ok and ratfunc_eq(lhs, rhs), lhs, rhs
