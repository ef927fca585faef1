"""Top-level checker: weight/jump conversions, invariant-norm inequalities
(their total row is the central character's integrality), existence
verdicts with witnesses, and normalized spectral membership.

The existence criteria are evaluated in ``isocrystal`` (the partial-sum
rows, the polygon rows, the chain oracle); this module picks the regime
once per instance and renders what those functions return.  Only
``check_instance`` compares membership with the norm inequalities.

Every row is evaluated in integers, one side at a time: each side takes
one scale per instance (the lcm of its value denominators) and running
tail or prefix sums, and a ``Fraction`` is built only for each lhs and
rhs a ``CheckLine`` reports.  The polygon rows come from one merge walk
over both vertex lists (``isocrystal.polygon_rows``).

Sign and inversion table -- the single reconciliation point between the
Galois-side and spectral-side conventions.  Every module boundary below
refers to this table; the translation identity in the acceptance suite
(norm inequalities <=> partial-sum inequalities after weight conversion
<=> normalized membership) is the machine check that it is consistent.

  ==============================  =========================================
  quantity                        convention
  ==============================  =========================================
  galois.zeta_vals                val_L of ARITHMETIC Frobenius eigenvalues
  WDRep Frobenius valuations      val_L of GEOMETRIC Frobenius eigenvalues,
                                  equal to the module slopes
  module slope                    -zeta_val  (geometric = arithmetic^-1)
  spectral point, normalized      zeta_vals - [L:Q_p]*(d/2)*(1,...,1)
  spectral point, unnormalized    zeta_vals - [L:Q_p]*(0,1,...,d)
  dual-parameter inversion        negation at valuation level; absorbed by
                                  the two rows above
  ==============================  =========================================

Checker instances are GL(n) pairs, always tested in the normalized domain;
other split groups, and the unnormalized domain, are reached through
spectral membership queries on the dual torus (``rootdata.in_Vxi``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .exact import FieldData, _Frozen, format_rat
from .isocrystal import (
    Filtration,
    PhiModule,
    Polygon,
    SteinbergChain,
    UnsupportedRegimeError,
    _generic_flags,
    admissible_by_inequalities,
    block_polygons,
    hodge_polygon,
    inequality_rows,
    newton_polygon,
    polygon_rows,
    steinberg_filtration,
    t_H,
    t_N,
    weak_admissible,
)
from .rootdata import HighestWeight, RootDatum, _int_tuple, in_Vxi
from .weildeligne import WDRep, block_decompose, mod_of_wd

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"


# ---------------------------------------------------------------------------
# Weight conversions
# ---------------------------------------------------------------------------


def jumps_from_weights(a_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Jump type of a highest weight: i_j = -a_{d+2-j} - (d+1-j), per
    embedding (1-based j); the inverse of weights_from_jumps.  An entry
    that is not an integer raises ValueError, as in weights_from_jumps."""
    out = []
    for row in a_rows:
        a = list(_int_tuple(row))
        if any(x > y for x, y in zip(a, a[1:])):
            raise ValueError(f"weights must be nondecreasing, got {a}")
        d = len(a) - 1
        out.append([-a[d - j] - (d - j) for j in range(d + 1)])
    return out


def weights_from_jumps(i_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Highest weight of a jump type: a_j = -i_{d+2-j} - (j-1), per
    embedding (1-based j)."""
    out = []
    for row in i_rows:
        i = list(_int_tuple(row))
        if any(x >= y for x, y in zip(i, i[1:])):
            raise ValueError(f"jumps must be strictly increasing, got {i}")
        d = len(i) - 1
        out.append([-i[d - j] - j for j in range(d + 1)])
    return out


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class CheckLine:
    """One evaluated condition with both sides as exact rationals."""

    __slots__ = _fields = ("name", "ok", "lhs", "rhs", "note")
    __hash__ = None  # a mutable record
    __repr__ = _Frozen.__repr__

    def __init__(self, name: str, ok: Optional[bool], lhs: Optional[Fraction] = None,
                 rhs: Optional[Fraction] = None, note: str = "") -> None:
        self.name = name
        self.ok = ok
        self.lhs = lhs
        self.rhs = rhs
        self.note = note

    def render(self) -> str:
        parts = []
        if self.lhs is not None:
            parts.append(f"lhs={format_rat(self.lhs)}")
        if self.rhs is not None:
            parts.append(f"rhs={format_rat(self.rhs)}")
        if self.ok is not None:
            parts.append(f"ok={'true' if self.ok else 'false'}")
        if self.note:
            parts.append(f"note={self.note}")
        return f"{self.name}: " + " ".join(parts)


class Verdict:
    """Named results plus witness data and a trace of every inequality."""

    __slots__ = _fields = ("status", "checks", "witness", "newton", "hodge", "reason")
    __hash__ = None  # a mutable record
    __repr__ = _Frozen.__repr__

    def __init__(self, status: str, checks: Optional[list[CheckLine]] = None,
                 witness: Optional[Filtration] = None, newton: Optional[Polygon] = None,
                 hodge: Optional[Polygon] = None, reason: str = "") -> None:
        self.status = status
        self.checks = [] if checks is None else checks
        self.witness = witness
        self.newton = newton
        self.hodge = hodge
        self.reason = reason

    @property
    def passed(self) -> bool:
        return self.status == PASS


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class Instance(_Frozen):
    """One structured problem instance.

    ``weights_a`` is the canonical highest-weight form (integers,
    nondecreasing per embedding); its jump type is converted through
    jumps_from_weights once, here, which rejects any other rows.  The
    Galois side is either a tuple of arithmetic Frobenius valuations or a
    WDRep with declared summands (see the sign table above).  The group
    is GL(n), n the length of the weight rows.  The arithmetic valuations
    of a Weil-Deligne side are read off its summands' blocks once, here.
    """

    _fields = ("ident", "field", "weights_a", "zeta_vals", "wd")
    __slots__ = _fields + ("_jumps", "_arithmetic_vals")

    def __init__(self, ident: str, field: FieldData, weights_a: tuple[tuple[int, ...], ...],
                 zeta_vals: Optional[tuple[Fraction, ...]] = None,
                 wd: Optional[WDRep] = None) -> None:
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "weights_a", weights_a)
        object.__setattr__(self, "zeta_vals", zeta_vals)
        object.__setattr__(self, "wd", wd)
        if (zeta_vals is None) == (wd is None):
            raise ValueError("exactly one of zeta_vals and wd must be given")
        if len(weights_a) != field.degree:
            raise ValueError(
                f"expected {field.degree} embeddings of weights, got {len(weights_a)}"
            )
        n = len(weights_a[0])
        if n == 0:
            raise ValueError("an instance needs rank >= 1, got empty weight rows")
        if any(len(row) != n for row in weights_a):
            raise ValueError("weight rows must have equal length")
        object.__setattr__(self, "_jumps", tuple(map(tuple, jumps_from_weights(weights_a))))
        if zeta_vals is not None and len(zeta_vals) != n:
            raise ValueError("zeta valuation count must match the weight length")
        if wd is not None and wd.dimension != n:
            raise ValueError("Weil-Deligne dimension must match the weight length")
        if wd is None:
            vals = tuple(zeta_vals)
        else:
            vals = tuple(-b.slope for part in wd.parts for b in part.blocks(field.degree)
                         for _ in range(b.mult))
        object.__setattr__(self, "_arithmetic_vals", vals)

    @property
    def dimension(self) -> int:
        return len(self.weights_a[0])

    def datum(self) -> RootDatum:
        return RootDatum.gl(self.dimension)

    def jumps(self) -> tuple[tuple[int, ...], ...]:
        return self._jumps

    def arithmetic_vals(self) -> list[Fraction]:
        """Arithmetic Frobenius valuations of the Galois side (sign table)."""
        return list(self._arithmetic_vals)


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------


def invariant_norm_inequalities(zeta_vals: Sequence, a_rows: Sequence[Sequence[int]],
                                field: FieldData) -> Verdict:
    """Necessary conditions for an invariant norm on the attached locally
    algebraic representation: sorted tail sums of the zeta valuations
    against weight tail sums plus the modulus constant, with equality of
    the totals.

    The modulus constant of the tail from 1-based i on,
    [L:Q_p] * (d(d+1) - (i-2)(i-1)) / 2, is [L:Q_p] * ((i-1) + ... + d),
    so each right side is a running tail sum of the integers agg_j +
    [L:Q_p] * j (0-based j).  The left sides are running tail sums of the
    valuations times ``scale``, the lcm of their denominators, sorted as
    integers; a row compares lhs with rhs * scale and builds its two
    ``Fraction`` sides only for the report.
    """
    vals = [v if type(v) is Fraction else Fraction(v) for v in zeta_vals]
    n = len(vals)
    if len(a_rows) != field.degree:
        raise ValueError(f"expected {field.degree} embeddings, got {len(a_rows)}")
    if any(len(row) != n for row in a_rows):
        raise ValueError("weight rows must match the valuation count")
    degree = field.degree
    scale = math.lcm(*[v.denominator for v in vals])
    scaled = sorted(v.numerator * (scale // v.denominator) for v in vals)
    tails = []  # (lhs, rhs) of the tails from 0-based n-1, n-2, ..., 0 on
    lhs = rhs = 0
    for j in range(n - 1, -1, -1):
        lhs += scaled[j]
        rhs += sum(row[j] for row in a_rows) + degree * j
        tails.append((lhs, rhs))
    checks = []
    ok_all = True
    for i in range(2, n + 1):  # 1-based tail start
        tail_lhs, tail_rhs = tails[n - i]
        ok = tail_lhs <= tail_rhs * scale
        ok_all &= ok
        checks.append(CheckLine(f"norm.ineq.i={i}", ok, Fraction(tail_lhs, scale),
                                Fraction(tail_rhs)))
    ok = lhs == rhs * scale  # the whole tail
    ok_all &= ok
    checks.append(CheckLine("norm.eq.total", ok, Fraction(lhs, scale), Fraction(rhs)))
    return Verdict(PASS if ok_all else FAIL, checks)


def _inequality_route(instance: Instance, module: PhiModule, newton: Polygon,
                      hodge: Polygon) -> Verdict:
    """Existence via the partial-sum inequalities, decided once by the rows,
    with a witness on the ``_generic_flags`` re-verified by the subobject
    oracle; distinct slopes required.  Past the oracle's rank cap a passing
    witness cannot be re-verified, and a witness the oracle rejects
    contradicts the inequalities; either way the verdict is undecided, with
    the rows and polygons kept."""
    jumps = instance.jumps()
    rows = inequality_rows(module, jumps)
    n = len(rows)
    checks = [
        CheckLine(f"adm.ineq.i={i}" if i < n else "adm.eq.total", ok, lhs, rhs)
        for i, (lhs, rhs, ok) in enumerate(rows, 1)
    ]
    ok_all = all(ok for _, _, ok in rows)
    witness = None
    if ok_all:
        witness = Filtration(jumps, _generic_flags(module))
        try:
            verified = weak_admissible(module, witness)
        except UnsupportedRegimeError as exc:
            reason = f"the inequalities hold, but the witness oracle did not run: {exc}"
            return Verdict(UNDECIDED, checks, None, newton, hodge, reason)
        checks.append(CheckLine("adm.witness.oracle", verified))
        if not verified:
            reason = "the inequalities hold, but the constructed witness failed the subobject oracle"
            return Verdict(UNDECIDED, checks, None, newton, hodge, reason)
    return Verdict(PASS if ok_all else FAIL, checks, witness, newton, hodge)


def _chain_route(instance: Instance, module: PhiModule, newton: Polygon,
                 hodge: Polygon) -> Verdict:
    """Existence for a single declared chain: the chain filtration is the
    simultaneous minimizer over the chain subobjects, so the oracle on it
    decides existence; for integer jumps this is the central equality."""
    filt = steinberg_filtration(module, instance.jumps())
    ok = weak_admissible(module, filt)
    th, tn = t_H(filt.jumps), t_N(module)
    checks = [CheckLine("adm.chain.equality", th == tn, th, tn), CheckLine("adm.chain.oracle", ok)]
    return Verdict(PASS if ok else FAIL, checks, filt if ok else None, newton, hodge)


def _block_route(newton: Polygon, hodge: Polygon) -> Verdict:
    """Existence for declared direct sums via the block polygon criterion,
    rendered from ``polygon_rows`` past the origin.  Non-constructive: no
    witness filtration is attached."""
    rows = list(polygon_rows(newton, hodge))[1:]
    checks = [CheckLine(f"adm.block.x={x}", ok, hy, ny) for x, ny, hy, ok in rows]
    ok = all(row_ok for *_, row_ok in rows)
    checks.append(CheckLine("adm.block.criterion", ok, note="no constructive witness in this regime"))
    return Verdict(PASS if ok else FAIL, checks, None, newton, hodge)


def _regime(instance: Instance):
    """The one regime dispatch: ("ineq", plain module), ("chain", chain
    module) or ("block", per-summand (Newton number, dimension) pairs).
    Raw valuations always give "ineq", repeated or not; declared data
    gives "ineq" only with distinct multiplicity-one summands."""
    if instance.zeta_vals is not None:
        return "ineq", PhiModule.of_slopes(instance.field, [-v for v in instance.zeta_vals])
    rep = instance.wd
    if rep.ramified:
        raise UnsupportedRegimeError("ramified Galois data is outside the decidable regimes")
    if len(rep.parts) == 1 and isinstance(rep.parts[0], SteinbergChain):
        return "chain", mod_of_wd(rep)
    if not rep.has_nilpotent():
        module = mod_of_wd(rep)
        if module.has_distinct_unit_blocks():
            return "ineq", module
    return "block", block_decompose(rep)


def _polygon_pair(instance: Instance, kind: str, data) -> tuple[Polygon, Polygon]:
    """The (newton, hodge) pair of a regime: the block paths of a declared
    direct sum, else the Newton polygon and the jump type's Hodge polygon."""
    if kind == "block":
        return block_polygons(data, instance.jumps())
    return newton_polygon(data), hodge_polygon(instance.jumps())


def exists_admissible(instance: Instance) -> Verdict:
    """Existence of an admissible filtration with the instance's jump type.

    Decision paths: partial-sum inequalities with constructed witness for
    distinct-slope unramified data; chain oracle for a single declared
    chain; block polygon criterion for declared direct sums.  Unsupported
    regimes return an undecided verdict with the reason, never a guess.
    """
    try:
        kind, data = _regime(instance)
    except UnsupportedRegimeError as exc:
        return Verdict(UNDECIDED, reason=str(exc))
    if kind == "ineq" and not data.has_distinct_unit_blocks():
        return Verdict(
            UNDECIDED, reason="repeated zeta valuations without declared summand structure"
        )
    newton, hodge = _polygon_pair(instance, kind, data)
    if kind == "block":
        return _block_route(newton, hodge)
    route = _chain_route if kind == "chain" else _inequality_route
    return route(instance, data, newton, hodge)


def membership_check(instance: Instance) -> Verdict:
    """Normalized spectral membership of the instance's parameter, alone
    (``check_instance`` compares it with the invariant-norm inequalities).
    The spectral point is the zeta-valuation vector shifted by the modulus
    (see the sign table).
    """
    shift = Fraction(instance.field.degree * (instance.dimension - 1), 2)
    point = tuple(sorted(Fraction(v) - shift for v in instance.arithmetic_vals()))
    member = in_Vxi(instance.datum(), instance.field, HighestWeight.of(instance.weights_a),
                    point, normalized=True)
    check = CheckLine("membership.normalized", member,
                      note="point=(" + ", ".join(format_rat(v) for v in point) + ")")
    return Verdict(PASS if member else FAIL, [check])


def translation_verdicts(instance: Instance) -> tuple[bool, bool, bool]:
    """The translation identity's three independent verdicts on general-linear
    data: norm inequalities, partial sums after weight conversion, normalized membership."""
    vals = instance.arithmetic_vals()
    ineq = invariant_norm_inequalities(vals, instance.weights_a, instance.field).passed
    module = PhiModule.of_slopes(instance.field, [-v for v in vals])
    adm = admissible_by_inequalities(module, instance.jumps())
    return ineq, adm, membership_check(instance).passed


# ---------------------------------------------------------------------------
# Full instance check
# ---------------------------------------------------------------------------


def polygons_for_instance(instance: Instance) -> tuple[Polygon, Polygon, list[tuple]]:
    """Newton/Hodge pair of an instance and its ``polygon_rows``, evaluated
    once: the Hodge side is dominated when every row's ``ok`` holds.
    Unlike the existence verdict this is defined for repeated raw
    valuations too (the polygons are purely numerical); it builds no
    witness and runs no oracle."""
    newton, hodge = _polygon_pair(instance, *_regime(instance))
    return newton, hodge, list(polygon_rows(newton, hodge))


class InstanceResult:
    """Every named verdict on one instance, and the overall status."""

    __slots__ = _fields = ("instance", "norm", "central_ok", "adm", "membership", "status")
    __hash__ = None  # a mutable record
    __repr__ = _Frozen.__repr__

    def __init__(self, instance: Instance, norm: Verdict, central_ok: bool, adm: Verdict,
                 membership: Verdict, status: str) -> None:
        self.instance = instance
        self.norm = norm
        self.central_ok = central_ok
        self.adm = adm
        self.membership = membership
        self.status = status


def check_instance(instance: Instance) -> InstanceResult:
    """Run every named check on one instance; the overall status is the
    existence verdict's, or undecided if membership and the norm disagree.
    ``central_ok`` is the ``norm.eq.total`` row: equal totals, integral
    central character."""
    vals = instance.arithmetic_vals()
    norm = invariant_norm_inequalities(vals, instance.weights_a, instance.field)
    adm = exists_admissible(instance)
    status = adm.status
    membership = membership_check(instance)
    agree = membership.passed == norm.passed
    membership.checks.append(CheckLine("membership.agrees_with_norm_inequalities", agree))
    if not agree:
        membership.reason = "membership and the norm inequalities disagree"
        status = UNDECIDED
    return InstanceResult(instance, norm, norm.checks[-1].ok, adm, membership, status)
