"""Top-level checker: weight/jump conversions, invariant-norm inequalities,
central character integrality, existence verdicts with witnesses, and
normalized spectral membership.

The existence criteria are evaluated in ``isocrystal`` (the partial-sum
rows, the block paths, the chain oracle); this module picks the regime
once per instance and renders what those functions return.

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

For non-GL group presets the membership test takes the spectral point
directly (no shift, no cross-check): the parameter there already lives on
the dual torus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact import FieldData, format_rat
from .isocrystal import (
    Filtration,
    PhiModule,
    Polygon,
    SteinbergChain,
    UnsupportedRegimeError,
    block_polygons,
    build_admissible_filtration,
    hodge_polygon,
    inequality_rows,
    newton_polygon,
    polygon_dominates,
    steinberg_filtration,
    t_H,
    t_N,
    weak_admissible,
)
from .rootdata import HighestWeight, RootDatum, in_Vxi
from .weildeligne import WDRep, block_decompose, f_semisimplify, mod_of_wd

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"


# ---------------------------------------------------------------------------
# Weight conversions
# ---------------------------------------------------------------------------


def jumps_from_weights(a_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Jump type of a highest weight: i_j = -a_{d+2-j} - (d+1-j), per
    embedding (1-based j); the inverse of weights_from_jumps."""
    out = []
    for row in a_rows:
        a = [int(v) for v in row]
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
        i = [int(v) for v in row]
        if any(x >= y for x, y in zip(i, i[1:])):
            raise ValueError(f"jumps must be strictly increasing, got {i}")
        d = len(i) - 1
        out.append([-i[d - j] - j for j in range(d + 1)])
    return out


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass
class CheckLine:
    """One evaluated condition with both sides as exact rationals."""

    name: str
    ok: Optional[bool]
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    note: str = ""

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


@dataclass
class Verdict:
    """Named results plus witness data and a trace of every inequality."""

    status: str
    checks: list[CheckLine] = dc_field(default_factory=list)
    witness: Optional[Filtration] = None
    newton: Optional[Polygon] = None
    hodge: Optional[Polygon] = None
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


GaloisSide = Union[tuple, WDRep]  # ("zeta", vals) or a WDRep


@dataclass(frozen=True)
class Instance:
    """One structured problem instance.

    ``weights_a`` is the canonical highest-weight form (nondecreasing per
    embedding); the jump form converts through jumps_from_weights.  The
    Galois side is either a tuple of arithmetic Frobenius valuations or a
    WDRep with declared summands (see the sign table above).
    """

    ident: str
    field: FieldData
    weights_a: tuple[tuple[int, ...], ...]
    zeta_vals: Optional[tuple[Fraction, ...]] = None
    wd: Optional[WDRep] = None
    group: Optional[RootDatum] = None
    normalized: bool = True

    def __post_init__(self) -> None:
        if (self.zeta_vals is None) == (self.wd is None):
            raise ValueError("exactly one of zeta_vals and wd must be given")
        if len(self.weights_a) != self.field.degree:
            raise ValueError(
                f"expected {self.field.degree} embeddings of weights, got {len(self.weights_a)}"
            )
        n = len(self.weights_a[0])
        if n == 0:
            raise ValueError("an instance needs rank >= 1, got empty weight rows")
        if any(len(row) != n for row in self.weights_a):
            raise ValueError("weight rows must have equal length")
        if self.zeta_vals is not None and len(self.zeta_vals) != n:
            raise ValueError("zeta valuation count must match the weight length")
        if self.wd is not None and self.wd.dimension != n:
            raise ValueError("Weil-Deligne dimension must match the weight length")
        if self.group is not None and self.group.name.startswith("gl(") \
                and self.group.rank != n:
            raise ValueError(
                f"group rank {self.group.rank} does not match the data dimension {n}"
            )

    @property
    def dimension(self) -> int:
        return len(self.weights_a[0])

    def datum(self) -> RootDatum:
        return self.group if self.group is not None else RootDatum.gl(self.dimension)

    def jumps(self) -> list[list[int]]:
        return jumps_from_weights(self.weights_a)

    def arithmetic_vals(self) -> list[Fraction]:
        """Arithmetic Frobenius valuations of the Galois side (sign table)."""
        if self.zeta_vals is not None:
            return list(self.zeta_vals)
        return [-b.slope for part in self.wd.parts for b in part.blocks(self.field.degree)
                for _ in range(b.mult)]


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------


def invariant_norm_inequalities(zeta_vals: Sequence, a_rows: Sequence[Sequence[int]],
                                field: FieldData) -> Verdict:
    """Necessary conditions for an invariant norm on the attached locally
    algebraic representation: sorted tail sums of the zeta valuations
    against weight tail sums plus the modulus constant, with equality of
    the totals.
    """
    vals = sorted(Fraction(v) for v in zeta_vals)
    n = len(vals)
    d = n - 1
    if len(a_rows) != field.degree:
        raise ValueError(f"expected {field.degree} embeddings, got {len(a_rows)}")
    if any(len(row) != n for row in a_rows):
        raise ValueError("weight rows must match the valuation count")
    agg = [sum(row[j] for row in a_rows) for j in range(n)]
    checks = []
    ok_all = True
    for i in range(2, n + 1):  # 1-based tail start
        lhs = sum(vals[i - 1:], Fraction(0))
        rhs = sum(agg[i - 1:], Fraction(0)) + Fraction(
            field.degree * (d * (d + 1) - (i - 2) * (i - 1)), 2
        )
        ok = lhs <= rhs
        ok_all &= ok
        checks.append(CheckLine(f"norm.ineq.i={i}", ok, lhs, rhs))
    lhs = sum(vals, Fraction(0))
    rhs = sum(agg, Fraction(0)) + Fraction(field.degree * d * (d + 1), 2)
    ok = lhs == rhs
    ok_all &= ok
    checks.append(CheckLine("norm.eq.total", ok, lhs, rhs))
    return Verdict(PASS if ok_all else FAIL, checks)


def central_char_integral(galois: Union[Sequence, WDRep], a_rows: Sequence[Sequence[int]],
                          field: FieldData) -> bool:
    """Whether the central character is integral: the weight-character
    valuation plus the smooth-side central valuation must vanish.

    Equivalent to the endpoint equality t_H = t_N of every polygon
    verdict, which the acceptance suite checks.
    """
    if isinstance(galois, WDRep):
        det_arith = -sum((tn for tn, _ in block_decompose(galois)), Fraction(0))
        n = galois.dimension
    else:
        vals = [Fraction(v) for v in galois]
        det_arith = sum(vals, Fraction(0))
        n = len(vals)
    if any(len(row) != n for row in a_rows) or len(a_rows) != field.degree:
        raise ValueError("weight shape mismatch")
    d = n - 1
    chi_rho = sum(sum(row) for row in a_rows)
    chi_pi = -det_arith + Fraction(field.degree * d * (d + 1), 2)
    return chi_rho + chi_pi == 0


def _inequality_route(instance: Instance, module: PhiModule) -> Verdict:
    """Existence via the partial-sum inequalities, with a witness built and
    re-verified by the subobject oracle; distinct slopes required."""
    jumps = instance.jumps()
    rows = inequality_rows(module, jumps)
    n = len(rows)
    checks = [
        CheckLine(f"adm.ineq.i={i}" if i < n else "adm.eq.total", ok, lhs, rhs)
        for i, (lhs, rhs, ok) in enumerate(rows, 1)
    ]
    ok_all = all(ok for _, _, ok in rows)
    newton = newton_polygon(module)
    hodge = hodge_polygon(Filtration.of_jumps(jumps))
    witness = None
    if ok_all:
        witness = build_admissible_filtration(module, jumps)
        if not weak_admissible(module, witness):  # pragma: no cover - internal consistency
            raise RuntimeError("constructed witness failed the subobject oracle")
        checks.append(CheckLine("adm.witness.oracle", True))
    return Verdict(PASS if ok_all else FAIL, checks, witness, newton, hodge)


def _chain_route(instance: Instance, module: PhiModule) -> Verdict:
    """Existence for a single declared chain: the chain filtration is the
    simultaneous minimizer over the chain subobjects, so the oracle on it
    decides existence; for integer jumps this is the central equality."""
    filt = steinberg_filtration(module, instance.jumps())
    ok = weak_admissible(module, filt)
    checks = [
        CheckLine("adm.chain.equality", t_H(filt) == t_N(module), t_H(filt), t_N(module)),
        CheckLine("adm.chain.oracle", ok),
    ]
    newton = newton_polygon(module)
    hodge = hodge_polygon(filt)
    return Verdict(PASS if ok else FAIL, checks, filt if ok else None, newton, hodge)


def _block_route(instance: Instance, blocks: Sequence[tuple]) -> Verdict:
    """Existence for declared direct sums via the block polygon criterion.
    Non-constructive: no witness filtration is attached."""
    newton, hodge = block_polygons(blocks, instance.jumps())
    ok = polygon_dominates(newton, hodge)
    checks = [
        CheckLine(f"adm.block.x={x}", hy <= ny if x < newton.width else hy == ny, hy, ny)
        for (x, ny), (_, hy) in zip(newton.vertices[1:], hodge.vertices[1:])
    ]
    checks.append(CheckLine("adm.block.criterion", ok, note="no constructive witness in this regime"))
    return Verdict(PASS if ok else FAIL, checks, None, newton, hodge)


def _regime(instance: Instance):
    """The one regime dispatch: ("ineq", plain module), ("chain", chain
    module) or ("block", per-summand (Newton number, dimension) pairs).
    Raw valuations always give "ineq", repeated or not; declared data
    gives "ineq" only with distinct multiplicity-one summands."""
    if instance.zeta_vals is not None:
        return "ineq", PhiModule.of_slopes(instance.field, [-v for v in instance.zeta_vals])
    rep = f_semisimplify(instance.wd)
    if rep.ramified:
        raise UnsupportedRegimeError("ramified Galois data is outside the decidable regimes")
    if len(rep.parts) == 1 and isinstance(rep.parts[0], SteinbergChain):
        return "chain", mod_of_wd(rep)
    if not rep.has_nilpotent():
        module = mod_of_wd(rep)
        if module.has_distinct_unit_blocks():
            return "ineq", module
    return "block", block_decompose(rep)


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
    if kind == "chain":
        return _chain_route(instance, data)
    if kind == "block":
        return _block_route(instance, data)
    if not data.has_distinct_unit_blocks():
        return Verdict(
            UNDECIDED, reason="repeated zeta valuations without declared summand structure"
        )
    return _inequality_route(instance, data)


def membership_check(instance: Instance) -> Verdict:
    """Normalized spectral membership of the instance's parameter.

    For general-linear data the spectral point is the zeta-valuation
    vector shifted by the modulus (see the sign table), and the verdict is
    cross-checked against the invariant-norm inequalities; the two must
    agree identically.  For other group presets the Galois-side valuations
    are taken as the spectral point itself and tested under the instance's
    normalized/unnormalized option; half-integral data needs no special
    path.
    """
    datum = instance.datum()
    is_gl = datum.name.startswith("gl(")
    xi = HighestWeight.of(instance.weights_a)
    checks: list[CheckLine] = []
    if is_gl:
        vals = instance.arithmetic_vals()
        d = instance.dimension - 1
        shift = Fraction(instance.field.degree * d, 2)
        point = tuple(sorted(Fraction(v) - shift for v in vals))
        member = in_Vxi(datum, instance.field, xi, point, normalized=True)
        checks.append(CheckLine("membership.normalized", member,
                                note="point=(" + ", ".join(format_rat(v) for v in point) + ")"))
        norm_verdict = invariant_norm_inequalities(vals, instance.weights_a, instance.field)
        agree = member == norm_verdict.passed
        checks.append(CheckLine("membership.agrees_with_norm_inequalities", agree))
        if not agree:  # pragma: no cover - identity violation means a bug
            raise RuntimeError("membership and norm inequalities disagree")
        return Verdict(PASS if member else FAIL, checks)
    vals = instance.arithmetic_vals()
    if len(vals) != datum.rank:
        raise ValueError("spectral point length must equal the group rank")
    member = in_Vxi(datum, instance.field, xi, vals, normalized=instance.normalized)
    flavor = "normalized" if instance.normalized else "unnormalized"
    checks.append(CheckLine(f"membership.{flavor}", member))
    return Verdict(PASS if member else FAIL, checks)


# ---------------------------------------------------------------------------
# Full instance check
# ---------------------------------------------------------------------------


def polygons_for_instance(instance: Instance) -> tuple[Polygon, Polygon, bool]:
    """Newton/Hodge pair of an instance and whether the Hodge side is
    dominated.  Unlike the existence verdict this is defined for repeated
    raw valuations too (the polygons are purely numerical); it builds no
    witness and runs no oracle."""
    kind, data = _regime(instance)
    if kind == "block":
        newton, hodge = block_polygons(data, instance.jumps())
    else:
        newton = newton_polygon(data)
        hodge = hodge_polygon(Filtration.of_jumps(instance.jumps()))
    return newton, hodge, polygon_dominates(newton, hodge)


@dataclass
class InstanceResult:
    instance: Instance
    norm: Verdict
    central_ok: bool
    adm: Verdict
    membership: Optional[Verdict]
    status: str


def check_instance(instance: Instance) -> InstanceResult:
    """Run every named check on one instance; the overall status is the
    existence verdict's."""
    vals = instance.arithmetic_vals()
    norm = invariant_norm_inequalities(vals, instance.weights_a, instance.field)
    central = central_char_integral(vals, instance.weights_a, instance.field)
    adm = exists_admissible(instance)
    membership = None
    datum = instance.datum()
    if datum.name.startswith("gl(") or len(vals) == datum.rank:
        membership = membership_check(instance)
    return InstanceResult(instance, norm, central, adm, membership, adm.status)
