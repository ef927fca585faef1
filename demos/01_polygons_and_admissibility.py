"""Newton and Hodge polygons, and when a filtration type is admissible.

A Frobenius module is described by its slopes (valuations of the
Frobenius-power eigenvalues); a filtration type by its jumps, one sorted
list per field embedding.  The module admits an admissible filtration
with those jumps exactly when the Hodge polygon stays on or below the
Newton polygon with matching endpoints, equivalently when the partial-sum
inequalities hold.  This script walks through one admissible and one
inadmissible pair, then confirms the verdict against the brute-force
subobject oracle on an explicitly constructed filtration.
"""

from fractions import Fraction

from wadm import (
    FieldData,
    Filtration,
    PhiModule,
    admissible_by_inequalities,
    build_admissible_filtration,
    hodge_polygon,
    newton_polygon,
    polygon_dominates,
    t_H,
    t_N,
    weak_admissible,
)

field = FieldData(p=3, e=1, f=1)

# Slopes (0, -2) mean eigenvalue valuations 0 and -2; with a single
# embedding and jumps (-2, 0) the numbers balance:
module = PhiModule.of_slopes(field, [0, -2])
jumps = [[-2, 0]]

print("module slopes:", [str(b.slope) for b in module.blocks])
print("t_N =", t_N(module))
print("jumps:", jumps, "-> t_H =", t_H(jumps))

def fmt(poly):
    return " ".join(f"({x}, {y})" for x, y in poly.vertices)


newton = newton_polygon(module)
hodge = hodge_polygon(jumps)
print("newton vertices:", fmt(newton))
print("hodge vertices:  ", fmt(hodge))
print("hodge under newton with equal endpoints?", polygon_dominates(newton, hodge))
print("partial-sum inequalities?", admissible_by_inequalities(module, jumps))

# The library can also construct an explicit admissible filtration: flag
# vectors in deterministic generic position (powers of distinct rationals,
# so every relevant minor is a nonzero generalized Vandermonde).
filt = build_admissible_filtration(module, jumps)
print("\nconstructed flag vectors (per embedding):")
for sigma, flag in enumerate(filt.flags, 1):
    for v in flag:
        print(f"  sigma{sigma}:", [str(c) for c in v])
print("brute-force oracle accepts the construction?", weak_admissible(module, filt))

# Tilt one valuation and the first inequality fails; no filtration works,
# and random flags are rejected by the oracle too.
bad = PhiModule.of_slopes(field, [1, -3])
print("\nshifted slopes (1, -3):")
print("partial-sum inequalities?", admissible_by_inequalities(bad, jumps))
line = Filtration(jumps, (((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))),))
print("a sample explicit flag passes the oracle?", weak_admissible(bad, line))
