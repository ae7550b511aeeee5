"""Tour of the exact-arithmetic foundations.

Everything in this library is computed over the rationals: multivariate
Laurent polynomials with a reserved symbol `l` (a formal prime) and its
formal square root `v` (v^2 = l), rational functions with canonical
gcd-reduced form, p-adic matrix utilities, and exactly-represented
Schwartz functions on Q_p^2.
"""

from fractions import Fraction as Q

from gsp4verify.symcore import ell, ell_pow, sym
from gsp4verify.padic import (SchwartzFn, act_schwartz, fourier,
                              gsp4_multiplier, iwasawa_gsp4, mat, mat_mul,
                              root_unipotent, weyl_s1)

print("== rational functions with a formal prime ==")
alpha, beta = sym("alpha"), sym("beta")
lp = ell(None)          # the formal prime l
half = ell_pow(1)       # v = l^(1/2)
f = (1 - alpha * beta) / (1 - alpha * half / lp)
print("f =", f)
print("f == f (canonical form):", f == f)
print("v*v == l:", half * half == lp)

print()
print("== Iwasawa decomposition in the rank-2 similitude group ==")
g = mat_mul(mat_mul(root_unipotent(3, Q(7, 9)), weyl_s1()),
            root_unipotent(0, Q(1, 3)))
b, k = iwasawa_gsp4(g, 3)
print("g = b k with b upper triangular and k integral")
print("b diagonal:", [b[i][i] for i in range(4)])
print("similitude factor of g:", gsp4_multiplier(g))
assert mat_mul(b, k) == g

print()
print("== Schwartz functions and the symplectic Fourier transform ==")
phi = SchwartzFn.depth_pair(3, 2)  # ch(9Z x (1+9Z))
print("phi =", phi)
# the transform at 0 is the integral against the Haar measure of Z_3^2
print("integral of phi:", fourier(phi).value_at(0, 0))
print("Fourier transform is an involution:",
      fourier(fourier(phi)) == phi)
g2 = mat([[1, 0], [Q(1, 3), 1]])
print("group action stays exact:",
      fourier(act_schwartz(g2, phi)).value_at(0, 0)
      == fourier(phi).value_at(0, 0))
