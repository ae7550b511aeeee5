"""Norm relations and branching laws.

The tame norm relation compares a depth-t pairing with the depth-0
pairing through an explicit Euler factor; the wild relation factors a
Hecke translate into p^3 explicit cosets.  The branching law
decomposes an irreducible of the rank-2 similitude symplectic group
after restriction to a fibre product of two 2x2 groups, with exact
highest-weight vectors and a twist identity for a one-parameter
unipotent.
"""

from gsp4verify.besselzeta import tame_norm_final_check, tame_pairing
from gsp4verify.normrel import (frobrecip_pairing_check, indept_identity,
                                sufficiency_check, wild_coset_identity)
from gsp4verify.branching import (TensorSpace, branch_decompose, build_rep,
                                  hw_vector, rep_dimension_formula,
                                  twist_lemma_check)

print("== tame norm relation (combined form, formal prime) ==")
# the weight-(1, 1) tame datum: its pairings are computed once and read
# by both forms of the identity below
datum = tame_pairing(1, 1)
ok, lhs, rhs = tame_norm_final_check(datum)
print("identity holds:", ok)
print("both sides:", lhs)

print()
print("== frobenius-reciprocity pairing form of the same identity ==")
ok, lhs, rhs = frobrecip_pairing_check(datum)
print("pairing identity (formal):", ok)
ok, _, _ = frobrecip_pairing_check(tame_pairing(1, 1, p=2))
print("pairing identity (concrete p=2, enumerated cosets):", ok)

print()
print("== wild norm relation: explicit coset factorization ==")
ok, report = wild_coset_identity(2, 1, 1)
print("all steps verified:", ok)
print("number of cosets:", report["cosets"])
print("least sufficient symmetry depth at (p,m,n)=(2,1,1):",
      sufficiency_check(2, 1, 1), "<= n+2m =", 1 + 2)
ok, size = indept_identity(2, 1, 2)
print("transversal identity holds with |J| =", size)

print()
print("== branching law ==")
a, b = 2, 1
print("dim V(%d,%d) =" % (a, b), rep_dimension_formula(a, b))
print("restriction decomposes as (c, d, twist q):")
for c, d, q in branch_decompose(build_rep(a, b)):
    print("   W(%d,%d) tensor det^%d" % (c, d, q))
space = TensorSpace(a, b)
ok, lhs, rhs = twist_lemma_check(space, hw_vector(a, b, 1, 0, space),
                                 hw_vector(a, b, 0, 0, space), 1, 2)
print("unipotent twist identity at (q,r,h)=(1,0,2):", ok)
