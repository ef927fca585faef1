"""Group ring of the cocharacter lattice with its twisted Weyl action and
the highest-weight sup norm.  Spectral membership, whether the character
of a point of the dual torus extends to the completed Hecke algebra, is
``rootdata.in_Vxi`` on the point's valuation vector.

Elements of the group ring K[Lambda] are finitely supported sums
sum_lambda c_lambda * lambda with lambda an integer cocharacter vector and
c_lambda in the formal quadratic extension by sqrt(q).  Only valuations of
the half modulus character, the cocycle and the weight character are ever
needed, and all of them are reported in the q-normalized valuation
(val(q) = 1, val(sqrt q) = 1/2); multiply by [L:Q_p] to convert to the
uniformizer-normalized valuation.

Sign convention, frozen once: the preferred square root of the Borel
modulus character evaluates on lambda with q-valuation +<eta, lambda>
where eta is the half sum of positive roots.  The opposite sign breaks
submultiplicativity of the norm already on GL_2 monomials; the frozen
golden value is delta_half_val(gl(2), (1,0)) = -1/2.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import INF, FieldData, QSqrtQ, _Frozen, _twice_f_val_q
from .rootdata import (
    HighestWeight,
    RootDatum,
    WeylElement,
    _chamber_walk,
    _domain_bound,
    _dual,
    _int_tuple,
    _two_eta,
    dot,
)

Cochar = tuple[int, ...]


class GroupRingElem(_Frozen):
    """Finitely supported map lambda -> coefficient, zero terms pruned."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Iterable[tuple[Sequence[int], QSqrtQ]]) -> None:
        pruned = tuple((_int_tuple(lam), c) for lam, c in terms if not c.is_zero())
        qs = {c.q for _, c in pruned}
        if len(qs) > 1:
            raise ValueError(f"coefficients with mismatched q: {sorted(qs)}")
        lams = [lam for lam, _ in pruned]
        if len(set(lams)) != len(lams):
            raise ValueError("duplicate cocharacters in support")
        object.__setattr__(self, "terms", tuple(sorted(pruned)))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Sequence[int], QSqrtQ]]) -> "GroupRingElem":
        acc: dict[Cochar, QSqrtQ] = {}
        for lam, c in terms:
            key = _int_tuple(lam)
            acc[key] = acc[key] + c if key in acc else c
        return cls(tuple(acc.items()))

    @classmethod
    def monomial(cls, lam: Sequence[int], coeff: QSqrtQ) -> "GroupRingElem":
        return cls(((lam, coeff),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem.from_terms(self.terms + other.terms)

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        """Convolution product: lambda * mu = lambda + mu on the lattice.
        The products are summed in one dict keyed by the int tuples
        lambda + mu; the zero sums are dropped and the rest sorted once.
        Both operands are checked already, so the product is not checked
        again: its keys are int tuples, and ``QSqrtQ``'s product checks
        that the operands share q."""
        acc: dict[Cochar, QSqrtQ] = {}
        for lam, c in self.terms:
            for mu, d in other.terms:
                key = tuple(map(operator.add, lam, mu))
                cd = c * d
                acc[key] = acc[key] + cd if key in acc else cd
        out = object.__new__(GroupRingElem)
        object.__setattr__(out, "terms", tuple(sorted(
            (lam, c) for lam, c in acc.items() if not c.is_zero())))
        return out


def delta_half_val(datum: RootDatum, lam: Sequence[int]) -> Fraction:
    """q-valuation of the preferred square root of the Borel modulus at lambda.

    Linear in lambda: +<eta, lambda> = <2*eta, lambda> / 2, paired on the
    cached integer 2*eta.  On GL_2 with lambda = (1, 0) this is -1/2
    (golden value; the sign is locked by the norm invariants).
    """
    return Fraction(dot(_two_eta(datum), lam), 2)


def _gamma_val(datum: RootDatum, lam: Sequence[int], wlam: Sequence[int]) -> int:
    """<2*eta, w lambda - lambda> / 2 from lambda and its translate w lambda;
    raises ArithmeticError when the pairing is odd."""
    v = dot(_two_eta(datum), [a - b for a, b in zip(wlam, lam)])
    if v % 2:
        raise ArithmeticError(f"cocycle valuation {Fraction(v, 2)} is not an integer")
    return v // 2


def cocycle_gamma_val(datum: RootDatum, w: WeylElement, lam: Sequence[int]) -> Fraction:
    """q-valuation of the twisting cocycle gamma(w, lambda).

    Equals delta_half_val(w lambda) - delta_half_val(lambda) =
    <2*eta, w lambda - lambda> / 2, one integer pairing; always an integer
    because w lambda - lambda lies in the coroot lattice and eta pairs
    integrally with coroots.
    """
    return Fraction(_gamma_val(datum, lam, w.on_cochar(lam)))


def twisted_action(datum: RootDatum, w: WeylElement, x: GroupRingElem) -> GroupRingElem:
    """The twisted Weyl action w . sum c_lambda lambda = sum gamma(w,lambda)
    c_lambda (w lambda), with gamma realized as the exact power q^val.  As w
    is injective on cocharacters no two image terms merge, which the
    constructor's duplicate-key check guards."""
    out = []
    for lam, c in x.terms:
        wlam = w.on_cochar(lam)
        scale = Fraction(c.q) ** _gamma_val(datum, lam, wlam)
        out.append((wlam, c * scale))
    return GroupRingElem(out)


def norm_xi_val(datum: RootDatum, field: FieldData, xi: HighestWeight, x: GroupRingElem):
    """q-valuation of the highest-weight sup norm of a group ring element.

    Every lambda is first moved to its antidominant Weyl translate; the
    value is min over the support of

        val_q(c_lambda) + <eta, lambda^- - lambda> + <xi_L, lambda^-> / [L:Q_p]

    and INF for the zero element.  With d = [L:Q_p] and q = p^f (p and f
    read from ``field``, whose q every coefficient must share), each term
    times 2*d*f is the integer

        d * 2f*val_q(c_lambda) + f * (<2*(eta_L + xi_L), lambda^-> - <2*eta_L, lambda>)

    from ``exact._twice_f_val_q`` and integer pairings on ``_domain_bound``'s
    cached 2*eta_L and 2*(eta_L + xi_L), the spectral domain's bound, read
    once per call with the dual datum; the least one becomes the one
    ``Fraction`` built.  Each lambda^- is ``antidominant_rep_cochar``'s walk
    of -lambda on the dual datum, negated, and one loop over the walked point
    gives both pairings.  A bad xi or lambda length raises ValueError.
    The norm itself is q^(-value); for an antidominant monomial with unit
    coefficient the value is the q-valuation of the weight character at
    the corresponding torus point.
    """
    two_el, two_bound = _domain_bound(datum, field, xi)
    if x.is_zero():
        return INF
    if any(c.q != field.q for _, c in x.terms):
        raise ValueError(f"coefficient q does not match the field's q = {field.q}")
    dual = _dual(datum)
    deg, p, f = field.degree, field.p, field.f
    best = None
    for lam, c in x.terms:
        if len(lam) != datum.rank:
            raise ValueError("dimension mismatch in pairing")
        pair = 0  # <2*(eta_L + xi_L), lambda^-> - <2*eta_L, lambda>
        for b, e, neg, k in zip(two_bound, two_el, _chamber_walk(dual, [-k for k in lam]), lam):
            pair -= b * neg + e * k  # neg = -lambda^-, the walk's entry
        v = deg * _twice_f_val_q(c, p, f) + f * pair
        if best is None or v < best:
            best = v
    return Fraction(best, 2 * deg * f)
