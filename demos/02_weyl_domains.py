"""Weyl orbits, the dominance order, and spectral membership domains.

The valuation image of the spectral domain attached to a dominant weight
has two equivalent descriptions: a dominance-order inequality against
eta_L + xi_L, and the convex hull of the Weyl translates
w(eta_L + xi_L) - eta_L.  The first is decided by integer cone forms (the
root cone's inequalities, cached per root datum, with no solve), the
second by exact linear programming; this script sweeps a lattice box and
watches them coincide.
"""

import itertools
from fractions import Fraction

from wadm import FieldData, HighestWeight, RootDatum, in_hull, in_Vxi
from wadm.rootdata import dominance_leq, dominant_rep, eta_L, half_sum_positive_roots, weyl_orbit

field = FieldData(p=3, e=1, f=1)
gl3 = RootDatum.gl(3)

def fmt(vec):
    return "(" + ", ".join(str(v) for v in vec) + ")"


print("half sum of positive roots for gl(3):", fmt(half_sum_positive_roots(gl3)))
print("orbit of (0,1,2):", [fmt(v) for v in sorted(weyl_orbit(gl3, (0, 1, 2)))])
print("dominant representative of (3,-1,0):", fmt(dominant_rep(gl3, (3, -1, 0))))
print("(1/2,1/2,0) <= (0,1,0) in dominance?",
      dominance_leq(gl3, (Fraction(1, 2), Fraction(1, 2), 0), (0, 1, 0)))

# Membership domain for a small weight, swept over a box of half-integers.
xi = HighestWeight.of([(-1, 0, 1)])
el = eta_L(gl3, field)
print("\nxi_L =", fmt(xi.xi_L()), " eta_L =", fmt(el))

members = 0
points = 0
for z in itertools.product([Fraction(k, 2) for k in range(-6, 7)], repeat=3):
    by_dominance = in_Vxi(gl3, field, xi, z, normalized=False)
    by_hull = in_hull(gl3, field, xi, z)
    assert by_dominance == by_hull, z
    members += by_dominance
    points += 1
print(f"swept {points} half-lattice points: {members} members, "
      "dominance test == hull membership everywhere")

# The non-type-A preset works the same way, including half-integral data.
sp4 = RootDatum.sp4()
xi4 = HighestWeight.of([(2, 1)])
inside = in_Vxi(sp4, field, xi4, (Fraction(1, 2), Fraction(-1, 2)), normalized=True)
print("\nsp(4): is (1/2, -1/2) in the normalized domain of xi=(2,1)?", inside)
