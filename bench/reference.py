"""Reference verdicts, computed without calling wadm.

Every generated input carries the verdict this module predicts for it, and
the benchmark counts each program answer that disagrees as a wrong verdict.
The formulas are restated from the definitions, not from the library code:

* gl(n) membership and the invariant-norm inequalities are tail-sum
  majorization of the sorted values by the bound b_k = agg_k + deg*k
  (agg = per-coordinate weight sum over embeddings), tested on integers
  after clearing denominators.
* A distinct-slope zeta instance is admissible iff the same test passes;
  repeated values are undecided.
* A single declared chain is admissible iff t_H = t_N (integer jumps).
* A declared block sum is admissible iff the aggregated jump prefix sums
  stay at or below the cumulative block Newton numbers at every block
  boundary, with equality at the end.
* The highest-weight norm on gl(n) is the minimum over the support of
  val_q(c) + <eta, lam^-> - <eta, lam> + <xi_L, lam^-> / deg, where lam^-
  is lam sorted nonincreasingly and eta = (-d/2, ..., d/2).
"""

from __future__ import annotations

import math
from fractions import Fraction

PASS, FAIL, UNDECIDED = "pass", "fail", "undecided"
EXIT = {PASS: 0, FAIL: 1, UNDECIDED: 2}


def to_ints(*vectors):
    """Scale rational vectors by the lcm of all their denominators."""
    fracs = [[Fraction(v) for v in vec] for vec in vectors]
    den = math.lcm(1, *(v.denominator for vec in fracs for v in vec))
    return [[int(v * den) for v in vec] for vec in fracs]


def majorized(values, bound) -> bool:
    """Every tail sum of sorted(values) is at most the same tail sum of
    sorted(bound), and the totals are equal; decided on integers."""
    if len(values) != len(bound):
        raise ValueError("length mismatch")
    vals, top = to_ints(sorted(values), sorted(bound))
    tail_v = tail_b = 0
    for v, b in zip(reversed(vals), reversed(top)):
        tail_v += v
        tail_b += b
        if tail_v > tail_b:
            return False
    return tail_v == tail_b


def agg(rows):
    """Per-coordinate sum over the embeddings."""
    return [sum(col) for col in zip(*rows)]


def weight_bound(a_rows, deg: int):
    """b_k = agg_k + deg*k: the norm-inequality bound of a highest weight."""
    return [s + deg * k for k, s in enumerate(agg(a_rows))]


def weights_from_jumps(jump_rows):
    """a_j = -i_{d-j} - j per embedding (0-based j)."""
    out = []
    for row in jump_rows:
        d = len(row) - 1
        out.append([-row[d - j] - j for j in range(d + 1)])
    return out


def galois_expect(arith_vals, a_rows, deg: int, adm: str) -> dict:
    """Expected report lines for general-linear data with the given
    arithmetic Frobenius valuations and admissibility status."""
    bound = weight_bound(a_rows, deg)
    member = PASS if majorized(arith_vals, bound) else FAIL
    central = sum(Fraction(v) for v in arith_vals) == sum(bound)
    return {"norm": member, "central": central, "adm": adm, "membership": member}


def zeta_expect(vals, a_rows, deg: int) -> dict:
    if len(set(vals)) != len(vals):
        adm = UNDECIDED
    else:
        adm = PASS if majorized(vals, weight_bound(a_rows, deg)) else FAIL
    return galois_expect(vals, a_rows, deg, adm)


def chain_newton(base, piece: int, length: int, deg: int) -> Fraction:
    """Newton number of a chain: piece * (length*base + deg*(0+1+...+(length-1)))."""
    return piece * (length * Fraction(base) + Fraction(deg * length * (length - 1), 2))


def chain_arith_vals(base, piece: int, length: int, deg: int):
    return [-(Fraction(base) + j * deg) for j in range(length) for _ in range(piece)]


def chain_expect(base, piece: int, length: int, jump_rows, deg: int) -> dict:
    t_h = sum(sum(row) for row in jump_rows)
    adm = PASS if t_h == chain_newton(base, piece, length, deg) else FAIL
    return galois_expect(chain_arith_vals(base, piece, length, deg),
                         weights_from_jumps(jump_rows), deg, adm)


def block_pieces(parts, deg: int):
    """(Newton number, dimension) per indecomposable piece.  A part is
    ("unramified", val, mult) or ("steinberg", base, piece, length)."""
    out = []
    for part in parts:
        if part[0] == "unramified":
            out += [(Fraction(part[1]), 1)] * part[2]
        else:
            _, base, piece, length = part
            out.append((chain_newton(base, piece, length, deg), piece * length))
    return out


def block_admissible(parts, jump_rows, deg: int) -> bool:
    pieces = sorted(block_pieces(parts, deg), key=lambda p: (p[0], -p[1]))
    sums = agg(jump_rows)
    total = len(sums)
    x, newton = 0, Fraction(0)
    for tn, dim in pieces:
        x += dim
        newton += tn
        hodge = sum(sums[:x])
        if hodge > newton or (x == total and hodge != newton):
            return False
    return x == total


def parts_arith_vals(parts, deg: int):
    vals = []
    for part in parts:
        if part[0] == "unramified":
            vals += [-Fraction(part[1])] * part[2]
        else:
            vals += chain_arith_vals(part[1], part[2], part[3], deg)
    return vals


def block_expect(parts, jump_rows, deg: int) -> dict:
    adm = PASS if block_admissible(parts, jump_rows, deg) else FAIL
    return galois_expect(parts_arith_vals(parts, deg), weights_from_jumps(jump_rows), deg, adm)


def gl_eta(n: int):
    d = n - 1
    return [Fraction(2 * k - d, 2) for k in range(n)]


def gl_member(point, xi_rows, deg: int, normalized: bool) -> bool:
    """z^dom <= eta_L + xi_L (normalized) or (z + eta_L)^dom <= eta_L + xi_L."""
    eta_l = [deg * e for e in gl_eta(len(point))]
    bound = [e + s for e, s in zip(eta_l, agg(xi_rows))]
    probe = point if normalized else [Fraction(z) + e for z, e in zip(point, eta_l)]
    return majorized(probe, bound)


def val_p(x: Fraction, p: int) -> int:
    def mult(n: int) -> int:
        n, k = abs(n), 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    return mult(x.numerator) - mult(x.denominator)


def val_q(a, b, p: int, f: int):
    """q-valuation of a + b*sqrt(q), q = p^f; None for zero."""
    a, b = Fraction(a), Fraction(b)
    vals = []
    if a:
        vals.append(Fraction(val_p(a, p), f))
    if b:
        vals.append(Fraction(val_p(b, p), f) + Fraction(1, 2))
    return min(vals) if vals else None


def gl_norm_val(terms, xi_rows, p: int, f: int, deg: int):
    """Highest-weight norm valuation on gl(n); None for the zero element.
    ``terms`` are (lam, a, b) with distinct lam."""
    best = None
    for lam, a, b in terms:
        v = val_q(a, b, p, f)
        if v is None:
            continue
        eta = gl_eta(len(lam))
        anti = sorted(lam, reverse=True)
        v += sum(e * (x - y) for e, x, y in zip(eta, anti, lam))
        v += Fraction(sum(s * x for s, x in zip(agg(xi_rows), anti)), deg)
        best = v if best is None else min(best, v)
    return best

