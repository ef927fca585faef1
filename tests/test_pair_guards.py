"""Guards for the paired, independent checks: the two sides of a pair share
no code but the input readers listed here.

Each side runs on a fixed input set under ``sys.setprofile``, which
records every ``wadm`` function it calls (with the library's caches
cleared first, so that a cached helper is recorded too).  The two call
sets may meet only in an allowlist of input readers, each with the reason
it is shared; a new shared helper, whatever its name, fails the guard.
"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wadm
from wadm.checker import Instance, invariant_norm_inequalities, membership_check
from wadm.exact import FieldData
from wadm.isocrystal import (
    PhiModule,
    admissible_by_inequalities,
    block_polygons,
    build_admissible_filtration,
    hodge_polygon,
    inequality_rows,
    newton_polygon,
    polygon_dominates,
    polygon_rows,
    weak_admissible,
)
from wadm.rootdata import HighestWeight, RootDatum, in_hull, in_Vxi, positive_roots

WADM = str(Path(wadm.__file__).parent)


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name != "wadm" and not name.startswith("wadm."):
            continue
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _calls(side) -> set:
    """The ``wadm`` functions that ``side()`` calls, as module.qualname; a
    comprehension or generator counts as the function it is written in."""
    _clear_caches()
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(WADM):
            qualname = frame.f_code.co_qualname.partition(".<locals>")[0]
            seen.add(f"{frame.f_globals['__name__']}.{qualname}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(previous)
    return seen


# The fixed inputs: GL(n) instances of ranks 1-5 over 1-3 embeddings with
# valuations in halves and thirds, passing and failing.
INSTANCES = [
    Instance("a", FieldData(3, 1, 1), ((0, 1),), zeta_vals=(Fraction(0), Fraction(2))),
    Instance("b", FieldData(3, 1, 1), ((0, 1),), zeta_vals=(Fraction(-1), Fraction(3))),
    Instance("c", FieldData(2, 2, 1), ((-1, 0, 2), (0, 0, 1)),
             zeta_vals=(Fraction(1, 2), Fraction(3, 2), Fraction(6))),
    Instance("d", FieldData(5, 1, 3), ((0, 1, 1, 2), (-2, 0, 0, 0), (1, 1, 1, 3)),
             zeta_vals=(Fraction(1, 3), Fraction(-2, 3), Fraction(7), Fraction(20, 3))),
    Instance("e", FieldData(3, 1, 1), ((-2, -1, 0, 1, 3),),
             zeta_vals=(Fraction(-3, 2), Fraction(1, 3), Fraction(2), Fraction(5, 2),
                        Fraction(41, 6))),
    Instance("f", FieldData(3, 1, 1), ((4,),), zeta_vals=(Fraction(4),)),
]
MODULES = [(PhiModule.of_slopes(inst.field, [-v for v in inst.arithmetic_vals()]), inst.jumps())
           for inst in INSTANCES]
# distinct-slope modules whose partial-sum inequalities hold, for the
# construction and the oracle
PASSING = [(module, jumps) for module, jumps in MODULES
           if module.has_distinct_unit_blocks() and admissible_by_inequalities(module, jumps)]


def _norm_side():
    for inst in INSTANCES:
        invariant_norm_inequalities(inst.arithmetic_vals(), inst.weights_a, inst.field)


def _membership_side():
    for inst in INSTANCES:
        membership_check(inst)


def _partial_sum_side():
    # the weight conversion and the module of slopes, as the translation
    # identity builds them
    for inst in INSTANCES:
        module = PhiModule.of_slopes(inst.field, [-v for v in inst.arithmetic_vals()])
        admissible_by_inequalities(module, inst.jumps())


def _inequality_side():
    for module, jumps in MODULES:
        inequality_rows(module, jumps)


def _polygon_side():
    for module, jumps in MODULES:
        newton, hodge = newton_polygon(module), hodge_polygon(jumps)
        list(polygon_rows(newton, hodge))
        polygon_dominates(newton, hodge)
        polygon_dominates(*block_polygons([(b.slope, 1) for b in module.blocks], jumps))


def _construction_side():
    for module, jumps in PASSING:
        build_admissible_filtration(module, jumps)


WITNESSES = [build_admissible_filtration(module, jumps) for module, jumps in PASSING]


def _oracle_side():
    for (module, _), witness in zip(PASSING, WITNESSES):
        assert weak_admissible(module, witness)


# criterion 4's domain, unnormalized: sp(4) over two embeddings on a grid
# of half-integral points, and gl(3) on integral ones, inside and outside
DOMAINS = [
    (RootDatum.sp4(), FieldData(2, 2, 1), HighestWeight.of([(2, 1), (1, 1)]),
     [tuple(Fraction(a, 2) for a in z) for z in itertools.product(range(-9, 10, 3), repeat=2)]),
    (RootDatum.gl(3), FieldData(3, 1, 1), HighestWeight.of([(0, 1, 3)]),
     [(a, b, 4 - a - b) for a in range(-2, 5, 2) for b in range(-3, 4, 3)]),
]


def _dominance_side():
    for datum, field, xi, points in DOMAINS:
        for z in points:
            in_Vxi(datum, field, xi, z)


def _hull_side():
    for datum, field, xi, points in DOMAINS:
        for z in points:
            in_hull(datum, field, xi, z)


READS_THE_JUMP_TYPE = "reads and checks the jump type, the input both sides take"
READS_THE_SLOPES = "reads the module's slopes, the input both sides take"
READS_THE_GALOIS_SIDE = "reads the instance's arithmetic Frobenius valuations"
READS_THE_DEGREE = "reads [L:Q_p], the embedding count both sides scale by"
READS_THE_RANK = "reads the module's rank"
READS_THE_REGIME = ("reads whether the module is in the distinct-slope regime, which "
                    "both the construction and the oracle require")
READS_THE_FILTRATION = "reads the filtration's shape (the construction builds it)"
BUILDS_THE_OUTPUT_ROWS = ("constructs the report rows and the verdict, the output records "
                          "both sides return")
VALIDATES_THE_WEIGHT = "validates the highest weight, the input both sides take"
READS_THE_POINT = "reads the point, the input both sides take"
HASHES_THE_INPUTS = "hashes the frozen datum, field and weight as per-datum cache keys"
READS_THE_ROOT_SYSTEM = ("the datum's 2*eta, solved once from its Cartan matrix, which both "
                         "domains are built from")

# pair -> (side a, side b, {shared reader: why it may be shared}, functions
# each side must be seen to call)
PAIRS = {
    "inequalities-vs-polygons": (
        _inequality_side, _polygon_side,
        {"wadm.isocrystal._jump_lists": READS_THE_JUMP_TYPE,
         "wadm.isocrystal.PhiModule.slopes_expanded": READS_THE_SLOPES},
        ("wadm.isocrystal.inequality_rows", "wadm.isocrystal.polygon_rows"),
    ),
    "norm-vs-membership": (
        _norm_side, _membership_side,
        {"wadm.checker.Instance.arithmetic_vals": READS_THE_GALOIS_SIDE,
         "wadm.exact.FieldData.degree": READS_THE_DEGREE,
         "wadm.checker.CheckLine.__init__": BUILDS_THE_OUTPUT_ROWS,
         "wadm.checker.Verdict.__init__": BUILDS_THE_OUTPUT_ROWS},
        ("wadm.checker.invariant_norm_inequalities", "wadm.rootdata.in_Vxi"),
    ),
    "norm-vs-partial-sums": (
        _norm_side, _partial_sum_side,
        {"wadm.checker.Instance.arithmetic_vals": READS_THE_GALOIS_SIDE,
         "wadm.exact.FieldData.degree": READS_THE_DEGREE},
        ("wadm.checker.invariant_norm_inequalities", "wadm.isocrystal.inequality_rows"),
    ),
    "construction-vs-oracle": (
        _construction_side, _oracle_side,
        {"wadm.isocrystal.PhiModule.has_distinct_unit_blocks": READS_THE_REGIME,
         "wadm.isocrystal.PhiModule.rank": READS_THE_RANK,
         "wadm.exact.FieldData.degree": READS_THE_DEGREE,
         "wadm.isocrystal.Filtration.rank": READS_THE_FILTRATION,
         "wadm.isocrystal.Filtration.embeddings": READS_THE_FILTRATION},
        ("wadm.isocrystal.build_admissible_filtration", "wadm.isocrystal.weak_admissible"),
    ),
    "dominance-vs-hull": (
        _dominance_side, _hull_side,
        {"wadm.rootdata.validate_highest_weight": VALIDATES_THE_WEIGHT,
         "wadm.rootdata.RootDatum.is_dominant": VALIDATES_THE_WEIGHT,
         "wadm.rootdata.HighestWeight.embeddings": VALIDATES_THE_WEIGHT,
         "wadm.rootdata.dot": VALIDATES_THE_WEIGHT,
         "wadm.exact.FieldData.degree": READS_THE_DEGREE,
         "wadm.rootdata.vec": READS_THE_POINT,
         "wadm.exact.FieldData.__hash__": HASHES_THE_INPUTS,
         "wadm.rootdata.RootDatum.__hash__": HASHES_THE_INPUTS,
         "wadm.rootdata.HighestWeight.__hash__": HASHES_THE_INPUTS,
         "wadm.rootdata._two_eta": READS_THE_ROOT_SYSTEM},
        ("wadm.rootdata.in_Vxi", "wadm.rootdata.in_hull"),
    ),
}

# A known exception, not an input reader: ``Filtration``'s independence
# check (run when the construction builds its witness) and the subobject
# oracle both rank through ``exact.rank``, so a common-mode fault in the
# elimination reaches both sides of construction vs. oracle.  It goes once
# the oracle runs its own elimination (ROADMAP, the depth-first oracle);
# the guard then fails until this entry is dropped.
KNOWN_SHARED = {
    "construction-vs-oracle": {"wadm.exact.rank", "wadm.exact._echelon",
                               "wadm.exact._integer_rows"},
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_pair_sides_share_only_input_readers(pair):
    side_a, side_b, readers, entries = PAIRS[pair]
    calls_a, calls_b = _calls(side_a), _calls(side_b)
    assert entries[0] in calls_a and entries[1] in calls_b
    assert entries[0] not in calls_b and entries[1] not in calls_a
    known = KNOWN_SHARED.get(pair, set())
    shared = calls_a & calls_b
    assert shared - known <= set(readers), sorted(shared - known - set(readers))
    assert set(readers) <= shared, (
        f"no longer shared, drop the reader: {sorted(set(readers) - shared)}")
    assert known <= shared, f"no longer shared, drop the known exception: {sorted(known - shared)}"


def test_call_recording_sees_a_cached_helper_on_every_side():
    # the recorder itself: a cached helper that both sides reach is in
    # both call sets, although the second side would hit the cache
    datum = RootDatum.gl(3)
    a = _calls(lambda: positive_roots(datum))
    b = _calls(lambda: positive_roots(datum))
    assert "wadm.rootdata.positive_roots" in a & b
