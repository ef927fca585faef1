"""Theory as a third check: what p-adic Hodge theory says must hold under
duality and tensor products, asked of the subobject oracle and of the
criteria.  The pairs check each criterion against a second procedure;
these tests check both against the theory.

* D is weakly admissible iff its dual D^* is: on the dual basis the
  slopes and the jumps change sign, and the subobjects of D^* are the
  annihilators of D's quotients.
* Weak admissibility is preserved by tensor products (Faltings 1994;
  Totaro, "Tensor products in p-adic Hodge theory", Duke Math. J. 83,
  1996), embedding by embedding, with the flag vectors v_a (x) w_b
  carrying the jumps j_a + j'_b.
* Newton above Hodge is necessary for weak admissibility (Mazur's
  inequality), so a tensor product of passing (slopes, jump type) pairs
  passes the partial-sum criterion at any rank, with no oracle cap.

Only public entry points are called.
"""

import itertools
import random
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
    weak_admissible,
)

FIELDS = [FieldData(p=3, e=1, f=1), FieldData(p=2, e=2, f=1)]


def _inverse(rows):
    """The inverse of a square matrix by Gauss-Jordan in ``Fraction``s, or
    None when the rows are dependent."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _jump_type(rng, field, n):
    return [sorted(rng.randint(-2, 2) for _ in range(n)) for _ in range(field.degree)]


def _slopes(rng, n, total):
    """n distinct slopes summing to ``total``, or None."""
    slopes = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n - 1)]
    slopes.append(total - sum(slopes))
    return slopes if len(set(slopes)) == n else None


def _passing_pair(rng, field, n):
    """A module with distinct slopes and a jump type it admits: slopes
    drawn near the jump sums, so that most draws pass."""
    while True:
        jumps = _jump_type(rng, field, n)
        sums = [sum(column) for column in zip(*jumps)]
        slopes = [h + Fraction(rng.randint(-3, 3), 2) for h in sums[:-1]]
        slopes.append(sum(sums) - sum(slopes))
        if len(set(slopes)) == n:
            module = PhiModule.of_slopes(field, slopes)
            if admissible_by_inequalities(module, jumps):
                return module, jumps


def _dual(module, filtration):
    """D^* with the dual filtration: slope -s_i on the dual coordinate e_i^*,
    and per embedding the dual basis g_k of the flag (g_k . f_l = delta_kl,
    the columns of the flag's inverse) with g_k carrying -j_k, listed in
    reverse so that the jumps stay nondecreasing."""
    jumps, flags = [], []
    for js, flag in zip(filtration.jumps, filtration.flags):
        inv = _inverse(flag)
        dual = [tuple(row[k] for row in inv) for k in range(len(flag))]
        jumps.append([-j for j in reversed(js)])
        flags.append(dual[::-1])
    return (PhiModule.of_slopes(module.field, [-s for s in module.slopes_expanded()]),
            Filtration(jumps, flags))


def _tensor(m1, f1, m2, f2):
    """D1 (x) D2 on the coordinates e_a (x) e_b, index a * rank2 + b: slopes
    s_a + t_b, and per embedding the Kronecker flag vectors v_a (x) w_b
    ordered by their jumps j_a + j'_b."""
    slopes = [a + b for a in m1.slopes_expanded() for b in m2.slopes_expanded()]
    jumps, flags = [], []
    for j1, v1, j2, v2 in zip(f1.jumps, f1.flags, f2.jumps, f2.flags):
        pairs = sorted(((a + b, tuple(x * y for x in u for y in w))
                        for (a, u), (b, w) in itertools.product(zip(j1, v1), zip(j2, v2))),
                       key=lambda pair: pair[0])
        jumps.append([j for j, _ in pairs])
        flags.append([v for _, v in pairs])
    return PhiModule.of_slopes(m1.field, slopes), Filtration(jumps, flags)


def test_duality_keeps_the_oracle_verdict_on_arbitrary_flags():
    rng = random.Random(61)
    verdicts = []
    while len(verdicts) < 160:
        field, n = rng.choice(FIELDS), rng.randint(1, 5)
        jumps = _jump_type(rng, field, n)
        total = sum(map(sum, jumps)) + rng.choice((0, 0, 0, 1))  # now and then t_H != t_N
        slopes = _slopes(rng, n, total)
        flags = []
        while len(flags) < field.degree:  # small entries: often far from generic position
            flag = [tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n)) for _ in range(n)]
            if _inverse(flag) is not None:
                flags.append(flag)
        if slopes is None:
            continue
        module, filtration = PhiModule.of_slopes(field, slopes), Filtration(jumps, flags)
        verdict = weak_admissible(module, filtration)
        assert weak_admissible(*_dual(module, filtration)) == verdict, (slopes, jumps, flags)
        # the embeddings are a set: listing them in another order is the same filtration
        assert weak_admissible(module, Filtration(jumps[::-1], flags[::-1])) == verdict
        verdicts.append(verdict)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_tensor_products_of_admissible_witnesses_pass_the_oracle():
    rng = random.Random(67)
    ranks = []
    while len(ranks) < 40:
        field = rng.choice(FIELDS)
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 8 // n1)
        (m1, j1), (m2, j2) = _passing_pair(rng, field, n1), _passing_pair(rng, field, n2)
        f1, f2 = build_admissible_filtration(m1, j1), build_admissible_filtration(m2, j2)
        module, filtration = _tensor(m1, f1, m2, f2)
        if len(set(module.slopes_expanded())) < n1 * n2:
            continue  # the oracle enumerates subobjects for distinct slopes only
        assert weak_admissible(m1, f1) and weak_admissible(m2, f2)
        assert weak_admissible(module, filtration), (m1, f1, m2, f2)
        ranks.append((field.degree, n1, n2))
    assert {d for d, _, _ in ranks} == {1, 2}
    assert max(n1 * n2 for _, n1, n2 in ranks) == 8
    assert sum(n1 > 1 and n2 > 1 for _, n1, n2 in ranks) >= 10


def test_tensor_products_of_passing_pairs_pass_the_criterion():
    rng = random.Random(71)
    ranks = set()
    for _ in range(120):
        field = rng.choice(FIELDS)
        (m1, j1), (m2, j2) = (_passing_pair(rng, field, rng.randint(1, 6)) for _ in range(2))
        slopes = [a + b for a in m1.slopes_expanded() for b in m2.slopes_expanded()]
        jumps = [sorted(a + b for a in s1 for b in s2) for s1, s2 in zip(j1, j2)]
        module = PhiModule.of_slopes(field, slopes)
        assert admissible_by_inequalities(module, jumps), (m1, j1, m2, j2)
        assert polygon_dominates(newton_polygon(module), hodge_polygon(jumps))
        ranks.add(len(slopes))
    assert max(ranks) >= 25


def test_negating_slopes_and_jumps_keeps_the_verdict():
    rng = random.Random(73)
    verdicts = []
    for _ in range(600):
        field, n = rng.choice(FIELDS), rng.randint(1, 7)
        jumps = _jump_type(rng, field, n)
        total = sum(map(sum, jumps)) + rng.choice((0, 0, 0, Fraction(1, 2)))
        slopes = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n - 1)]
        slopes.append(total - sum(slopes))  # repeated slopes are allowed here
        module = PhiModule.of_slopes(field, slopes)
        negated = PhiModule.of_slopes(field, [-s for s in slopes])
        flipped = [sorted(-j for j in sigma) for sigma in jumps]
        verdict = admissible_by_inequalities(module, jumps)
        assert admissible_by_inequalities(negated, flipped) == verdict, (slopes, jumps)
        assert polygon_dominates(newton_polygon(negated), hodge_polygon(flipped)) == verdict
        verdicts.append(verdict)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100
