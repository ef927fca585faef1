"""Dictionary between unramified-or-Steinberg Weil-Deligne data and
Frobenius modules, F-semisimplification, and block decomposition.

The summand types are the module's own: ``Unramified`` is
``isocrystal.Block`` (its ``val`` reads the block's ``slope``), and
``SteinbergChain`` is ``isocrystal.SteinbergChain``; both are re-exported
here.

Convention table (see also the checker module):

* A ``WDRep`` stores valuations of GEOMETRIC Frobenius eigenvalues, in the
  val_L normalization.  Under the dictionary the geometric Frobenius
  matches the f-th Frobenius power directly, so these valuations are the
  module slopes with no sign change.
* Raw zeta-valuation lists at the checker boundary are ARITHMETIC
  Frobenius valuations (slope = -valuation); the flip happens there, not
  here.
* Within an indecomposable chain, successive geometric Frobenius
  valuations differ by exactly val_L(q) = [L:Q_p] (the nilpotent operator
  intertwines the Frobenius with a twist by p).

Only unramified data (and chains over unramified pieces) are
representable; inputs flagged ramified are rejected, since a faithful
treatment needs an honest Galois action rather than valuations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .exact import FieldData, UnsupportedRegimeError, _Frozen
from .isocrystal import Block, PhiModule, SteinbergChain

# An unramified summand (geometric Frobenius valuation ``val``, multiplicity,
# Jordan partition) carries exactly a Frobenius block's data.
Unramified = Block

Summand = Union[Unramified, SteinbergChain]


def _sort_key(part: Summand):
    if isinstance(part, SteinbergChain):
        return (1, part.base_val, part.piece_dim, part.length)
    return (0, part.val, part.mult, part.jordan)


class WDRep(_Frozen):
    """An unramified-or-Steinberg Weil-Deligne datum, as a direct sum of
    declared summands.  ``ramified`` marks out-of-scope inputs so the
    error surface exists at this layer too."""

    __slots__ = _fields = ("field", "parts", "ramified")

    def __init__(self, field: FieldData, parts: tuple[Summand, ...],
                 ramified: bool = False) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "ramified", ramified)
        if not parts:
            raise ValueError("a representation needs at least one summand")
        for part in parts:
            if not isinstance(part, (Unramified, SteinbergChain)):
                raise TypeError(f"unsupported summand {part!r}")

    @property
    def dimension(self) -> int:
        return sum(p.dimension for p in self.parts)

    def canonical(self) -> "WDRep":
        """Sorted canonical form (summand order and Jordan order are
        choices the dictionary does not see)."""
        return WDRep(self.field, tuple(sorted(self.parts, key=_sort_key)), self.ramified)

    def has_nilpotent(self) -> bool:
        return any(isinstance(p, SteinbergChain) for p in self.parts)


def mod_of_wd(rep: WDRep) -> PhiModule:
    """The Frobenius module of an unramified-or-chain datum.

    The underlying module is the sum of one copy of the space per residue
    Frobenius step, with the wrap map acting by geometric Frobenius, so
    the f-th power eigenvalues on each isotypic component are exactly the
    geometric Frobenius eigenvalues and slopes equal the stored
    valuations.  A single chain summand maps to the chain module; mixed
    sums have no single-module representation here and raise.
    """
    if rep.ramified:
        raise UnsupportedRegimeError("ramified data cannot be transported by valuations alone")
    if not rep.has_nilpotent():
        return PhiModule(rep.field, rep.parts)
    if len(rep.parts) == 1:
        chain = rep.parts[0]
        return PhiModule(rep.field, chain.blocks(rep.field.degree), chain)
    raise UnsupportedRegimeError(
        "mixed nilpotent and plain summands: decompose into blocks instead"
    )


def wd_of_mod(module: PhiModule) -> WDRep:
    """Inverse dictionary, up to canonical form of the data."""
    parts = (module.steinberg,) if module.steinberg is not None else module.blocks
    return WDRep(module.field, parts).canonical()


def f_semisimplify(rep: WDRep) -> WDRep:
    """Replace every Jordan partition by all-1 parts; chain descriptors
    (the nilpotent data) are preserved."""
    parts = tuple(Unramified(p.val, p.mult) if isinstance(p, Unramified) else p for p in rep.parts)
    return WDRep(rep.field, parts, rep.ramified)


def block_decompose(rep: WDRep) -> tuple[tuple[Fraction, int], ...]:
    """Per indecomposable summand of the F-semisimplification: the
    normalized Newton number and the dimension.

    Unramified summands split into multiplicity-many one-dimensional
    pieces (Jordan data is invisible here, by design: semisimplification
    must not change the output).  A chain of length L over a piece of
    dimension p at base valuation v contributes
    (L*p*v + p*[L:Q_p]*(0+1+...+(L-1)), L*p).
    """
    if rep.ramified:
        raise UnsupportedRegimeError("ramified data cannot be decomposed by valuations alone")
    out: list[tuple[Fraction, int]] = []
    deg = rep.field.degree
    for p in rep.parts:
        if isinstance(p, Unramified):
            out.extend([(p.val, 1)] * p.mult)
        else:
            tn = p.length * p.piece_dim * p.base_val + Fraction(
                p.piece_dim * deg * p.length * (p.length - 1), 2
            )
            out.append((tn, p.dimension))
    return tuple(out)
