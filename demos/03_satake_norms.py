"""The twisted group ring and its highest-weight norm.

Group ring elements are finite sums of cocharacters with coefficients in
the formal quadratic extension by sqrt(q).  The Weyl group acts through a
modulus cocycle, the action is isometric for the highest-weight norm, and
the norm is submultiplicative; a point of the dual torus pairs with all
of this through its valuation vector alone.
"""

import random
from fractions import Fraction

from wadm import (
    FieldData,
    GroupRingElem,
    HighestWeight,
    QSqrtQ,
    RootDatum,
    cocycle_gamma_val,
    delta_half_val,
    in_Vxi,
    norm_xi_val,
    twisted_action,
)
from wadm.rootdata import antidominant_rep_cochar, weyl_elements

field = FieldData(p=3, e=1, f=1)
gl2 = RootDatum.gl(2)
q = field.q

print("delta^(1/2) valuations on gl(2):",
      {lam: str(delta_half_val(gl2, lam)) for lam in [(1, 0), (0, 1), (1, 1)]})

swap = next(w for w in weyl_elements(gl2) if w.on_cochar((1, 0)) == (0, 1))
print("cocycle valuation gamma(swap, (1,0)):", cocycle_gamma_val(gl2, swap, (1, 0)))

x = GroupRingElem.monomial((1, 0), QSqrtQ.one(q))
y = twisted_action(gl2, swap, x)
print("swap . [(1,0)] =", [(lam, str(c)) for lam, c in y.terms])

# Norms: the zero weight gives the spherical situation.  The norm of a
# monomial is read at the antidominant Weyl translate of its cocharacter.
xi0 = HighestWeight.zero(gl2, field)
print("\nnorm valuations with trivial weight:")
for lam in [(1, 0), (0, 1), (1, 1), (-1, 2)]:
    elem = GroupRingElem.monomial(lam, QSqrtQ.one(q))
    print(f"  ||[{lam}]|| (antidominant translate {antidominant_rep_cochar(gl2, lam)})"
          " has q-valuation", norm_xi_val(gl2, field, xi0, elem))

rng = random.Random(0)
print("\nrandom checks (isometry and submultiplicativity):")
for _ in range(3):
    terms = [
        (
            (rng.randint(-2, 2), rng.randint(-2, 2)),
            QSqrtQ.of(rng.randint(-4, 4), rng.randint(-4, 4), q),
        )
        for _ in range(2)
    ]
    a = GroupRingElem.from_terms(terms)
    b = twisted_action(gl2, swap, a)
    va, vb = (norm_xi_val(gl2, field, xi0, e) for e in (a, b))
    vprod = norm_xi_val(gl2, field, xi0, a * a)
    print(f"  val(a)={va} val(swap.a)={vb} val(a*a)={vprod} >= 2*val(a)? {vprod >= 2 * va}")

# Spectral membership through the valuation vector.
print("\nspectral points for the trivial weight (normalized):")
for z in [(0, 0), (Fraction(1, 2), Fraction(-1, 2)), (-1, 1)]:
    print(f"  val(zeta) = {z}: member = {in_Vxi(gl2, field, xi0, z, normalized=True)}")
