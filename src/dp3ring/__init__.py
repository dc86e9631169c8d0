"""Exact computer algebra for the graded ring C<x,y> with x^5 = yxy and
y^2 = xyx, for the twisted homogeneous coordinate ring of the degree-six
del Pezzo surface, and for the degree-by-degree comparison of the two.

All arithmetic is exact (rationals and Q(zeta) with zeta a primitive sixth
root of unity); the verification suite in `dp3ring.verify` checks every
finitely decidable identity and reports the rest as not machine-checkable.
"""
