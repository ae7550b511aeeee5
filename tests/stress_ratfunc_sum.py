"""A RatFunc sum whose exact reduction is slow: a stress case kept outside
Tier-1 (pytest collects only test_*.py).

The value w is a fraction in l, v, x and z whose denominator has ten
terms; taken to the prime 3 and made free of v, that denominator D has
21 terms.  The fourth power of w is over D^4 (542 terms) and its
sixth power over D^6 (1299 terms).  The sum of 1 - 9/104 w^4 and a
multiple of w^6 y^6 takes the cross-denominator path of RatFunc.__add__:
the numerator is formed over D^4 * D^6, and the pair is then divided by
its gcd, D^4, which sympy's dense gcd and division compute.  Adding the
w^8 term as well (--full) runs for minutes.

Run:  PYTHONPATH=src python tests/stress_ratfunc_sum.py [--full]
"""

import sys
import time
from fractions import Fraction as Q

from gsp4verify.symcore import ell, ell_pow, sym


def value(prime=3):
    """The fraction that a hypothesis draw once bound x to (its
    denominator contains x itself), pinned to ``prime``."""
    x, z = sym("x"), sym("z")
    w = ell() ** -2 * ell_pow(1)
    den = (1 + Q(7, 4) * w + Q(49, 32) * w * x ** -2
           + Q(49, 32) * w * x ** -2 * z + Q(3, 4) * w * x * z ** 2
           + Q(3, 4) * w * x * z ** 3 - Q(1, 2) * w * x ** 3
           - Q(1, 2) * w * x ** 3 * z + Q(7, 4) * w / z + z)
    return (Q(5, 4) * w / z / den).with_prime(prime)


def main(argv):
    w = value()
    w2 = w * w
    w4 = w2 * w2
    terms = [1 - Q(9, 104) * w4,
             -Q(6075, 132496) * w4 * w2 * sym("y", 3) ** 6]
    if "--full" in argv:
        terms.append(Q(81, 43264) * w4 * w4)
    total, start = terms[0], time.perf_counter()
    for term in terms[1:]:
        total = total + term
    print("%d terms over %d: %.1f s" % (len(total.num.vecs),
                                         len(total.den.vecs),
                                         time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
