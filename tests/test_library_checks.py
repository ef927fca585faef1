"""The library's own input checks: each refuses its bad input with its own
exception type and message, for callers that build values directly rather
than through an instance file."""

from fractions import Fraction

import pytest

from wadm.exact import FieldData, QSqrtQ
from wadm.isocrystal import (
    Block,
    Filtration,
    PhiModule,
    Polygon,
    SteinbergChain,
    UnsupportedRegimeError,
    block_polygons,
    chain_sum_bounds,
    steinberg_filtration,
    weak_admissible,
    _jump_lists,
)
from wadm.rootdata import InfiniteWeylGroupError, RootDatum, dot, weyl_orbit
from wadm.satake import GroupRingElem
from wadm.weildeligne import Unramified, WDRep, block_decompose

QP = FieldData(p=3, e=1, f=1)
E2 = FieldData(p=3, e=2, f=1)
I2 = ((1, 0), (0, 1))
ONE = QSqrtQ(Fraction(1), Fraction(0), 3)

# (call, exception type, the whole message)
CHECKS = {
    "block-multiplicity": (lambda: Block(0, 0), ValueError, "multiplicity must be >= 1"),
    "block-partition": (lambda: Block(0, 2, (1,)), ValueError,
                        "jordan (1,) is not a partition of 2"),
    "module-no-blocks": (lambda: PhiModule(QP, ()), ValueError,
                         "a module needs at least one block"),
    "module-chain-mismatch": (lambda: PhiModule(QP, (Block(0, 1), Block(2, 1)),
                                                SteinbergChain(0, 1, 2)),
                              ValueError, "blocks do not match the declared chain structure"),
    "jumps-embedding-count": (lambda: _jump_lists([[0, 1]], 2, 2), ValueError,
                              "expected 2 embeddings of jumps, got 1"),
    "filtration-cover": (lambda: Filtration([[0, 1]], []), ValueError,
                         "flags must cover every embedding"),
    "filtration-shape": (lambda: Filtration([[0, 1]], [((1, 0),)]), ValueError,
                         "each flag needs rank-many vectors of full length"),
    "filtration-independence": (lambda: Filtration([[0, 1]], [((1, 0), (2, 0))]), ValueError,
                                "flag vectors must be linearly independent"),
    # equal flag sets are checked once; a later, different one still is
    "filtration-dependent-after-equal": (
        lambda: Filtration([[0, 1]] * 3, [I2, I2, ((1, 1), (2, 2))]), ValueError,
        "flag vectors must be linearly independent"),
    "polygon-origin": (lambda: Polygon([(1, 0)]), ValueError, "polygon must start at (0, 0)"),
    "polygon-increasing-x": (lambda: Polygon([(0, 0), (0, 1)]), ValueError,
                             "x-coordinates must be strictly increasing"),
    "oracle-rank": (lambda: weak_admissible(PhiModule.of_slopes(QP, [0, 1, 2]),
                                            Filtration([[0, 1]], [I2])),
                    ValueError, "filtration rank does not match the module"),
    "oracle-embeddings": (lambda: weak_admissible(PhiModule.of_slopes(E2, [0, 1]),
                                                  Filtration([[0, 1]], [I2])),
                          ValueError, "expected 2 embeddings"),
    "chain-filtration-strict": (lambda: steinberg_filtration(PhiModule.chain(QP, 1, 1, 0),
                                                             [[0, 0]]),
                                ValueError, "chain filtration jumps must be strictly increasing"),
    "chain-sum-empty": (lambda: chain_sum_bounds(1, 0, []), ValueError, "need at least i_0"),
    "block-polygons-empty": (lambda: block_polygons([], [[0]]), ValueError,
                             "need at least one block"),
    "block-polygons-dimension": (lambda: block_polygons([(0, 0), (1, 1)], [[0]]), ValueError,
                                 "block dimensions must be >= 1"),
    "datum-counts": (lambda: RootDatum(2, [(1, -1)], []), ValueError,
                     "simple roots and coroots must come in equal numbers"),
    "datum-lengths": (lambda: RootDatum(2, [(1, -1, 0)], [(1, -1, 0)]), ValueError,
                      "root/coroot length must equal the rank"),
    "datum-cartan-diagonal": (lambda: RootDatum(2, [(1, -1)], [(1, 0)]), ValueError,
                              "<alpha_0, alpha_0^vee> = 1, expected 2"),
    "datum-cartan-off-diagonal": (lambda: RootDatum.from_cartan([[2, 1], [1, 2]]), ValueError,
                                  "<alpha_0, alpha_1^vee> = 1 > 0 off the diagonal"),
    # Cartan [[2,-2],[-2,2]] passes both Cartan checks and has a finite closure
    "datum-dependent-roots": (lambda: RootDatum(2, ((1, 0), (-1, 0)), ((2, 0), (-2, 0))),
                              ValueError, "simple roots must be linearly independent"),
    # independent roots whose Cartan matrix [[2,-2],[-2,2]] is singular: W is infinite
    "datum-singular-cartan": (lambda: RootDatum(3, ((1, 0, 0), (0, 1, 0)),
                                                ((2, -2, 1), (-2, 2, 1))),
                              InfiniteWeylGroupError,
                              "the Cartan matrix is not of finite type: pivot 0 at alpha_0; "
                              "the Weyl group is infinite"),
    "datum-sl1": (lambda: RootDatum.sl(1), ValueError, "n must be >= 2"),
    "cartan-not-square": (lambda: RootDatum.from_cartan([[2, -1]]), ValueError,
                          "Cartan matrix must be square"),
    "cartan-unknown-kind": (lambda: RootDatum.from_cartan([[2]], kind="other"), ValueError,
                            "unknown kind 'other'"),
    "orbit-length": (lambda: weyl_orbit(RootDatum.gl(2), (0,)), ValueError,
                     "vector length must equal the rank"),
    "dot-length": (lambda: dot((1, 2), (1,)), ValueError, "dimension mismatch in pairing"),
    "group-ring-duplicate": (lambda: GroupRingElem([((1, 0), ONE), ((1, 0), ONE)]), ValueError,
                             "duplicate cocharacters in support"),
    "wd-empty": (lambda: WDRep(QP, ()), ValueError, "a representation needs at least one summand"),
    "wd-bad-summand": (lambda: WDRep(QP, (1,)), TypeError, "unsupported summand 1"),
    "decompose-ramified": (lambda: block_decompose(WDRep(QP, (Unramified(0, 1),), ramified=True)),
                           UnsupportedRegimeError,
                           "ramified data cannot be decomposed by valuations alone"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_library_check_refuses_its_input(name):
    call, kind, message = CHECKS[name]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
