"""Exact-arithmetic toolkit for filtered Frobenius modules.

Everything is computed in exact rational arithmetic: Newton and Hodge
polygons, weak admissibility of filtered modules (criterion and
brute-force subobject oracle), Weyl-orbit valuation domains with their
convex-hull characterization, twisted group-ring norms, the dictionary
with unramified Weil-Deligne data, and a structured instance checker with
a command line front end (``python -m wadm`` or the ``wadm`` script).
"""

from .exact import INF, FieldData, QSqrtQ, val_q
from .isocrystal import (
    Block,
    Filtration,
    PhiModule,
    Polygon,
    SteinbergChain,
    UnsupportedRegimeError,
    admissible_by_inequalities,
    block_polygons,
    build_admissible_filtration,
    chain_sum_bounds,
    hodge_polygon,
    inequality_rows,
    newton_polygon,
    polygon_dominates,
    steinberg_filtration,
    t_H,
    t_N,
    weak_admissible,
)
from .rootdata import (
    HighestWeight,
    RootDatum,
    dominance_leq,
    dominant_rep,
    half_sum_positive_roots,
    in_hull,
    in_Vxi,
    weyl_elements,
    weyl_orbit,
)
from .satake import (
    GroupRingElem,
    cocycle_gamma_val,
    delta_half_val,
    norm_xi_val,
    twisted_action,
)
from .weildeligne import (
    Unramified,
    WDRep,
    block_decompose,
    f_semisimplify,
    mod_of_wd,
    wd_of_mod,
)
from .checker import (
    Instance,
    Verdict,
    check_instance,
    exists_admissible,
    invariant_norm_inequalities,
    jumps_from_weights,
    membership_check,
    weights_from_jumps,
)

__version__ = "0.1.0"
