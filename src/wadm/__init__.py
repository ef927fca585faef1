"""Exact-arithmetic toolkit for filtered Frobenius modules.

Everything is computed in exact rational arithmetic: Newton and Hodge
polygons, weak admissibility of filtered modules (criterion and
brute-force subobject oracle), Weyl-orbit valuation domains with their
convex-hull characterization, twisted group-ring norms, the dictionary
with unramified Weil-Deligne data, and a structured instance checker with
a command line front end (``python -m wadm`` or the ``wadm`` script).

``import wadm`` loads no submodule.  Each name below is looked up in the
module that defines it on first access (a module ``__getattr__``, PEP 562),
so a process compiles only the modules it uses.
"""

# module -> the public names it defines; a module's own name reaches it too
_EXPORTS = {
    "exact": "INF FieldData QSqrtQ UnsupportedRegimeError val_q",
    "isocrystal": "Block Filtration PhiModule Polygon SteinbergChain admissible_by_inequalities "
                  "block_polygons build_admissible_filtration chain_sum_bounds hodge_polygon "
                  "inequality_rows newton_polygon polygon_dominates steinberg_filtration t_H t_N "
                  "weak_admissible",
    "rootdata": "HighestWeight RootDatum dominance_leq dominant_rep half_sum_positive_roots "
                "in_hull in_Vxi jumps_from_weights weights_from_jumps weyl_elements weyl_orbit",
    "satake": "GroupRingElem cocycle_gamma_val delta_half_val norm_xi_val twisted_action",
    "weildeligne": "Unramified WDRep block_decompose f_semisimplify mod_of_wd wd_of_mod",
    "checker": "Instance Verdict check_instance exists_admissible invariant_norm_inequalities "
               "membership_check",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names.split())}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, or a name from the module that defines it, imported on
    first access and then bound here like an eager import."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value
