"""The library's package and value types: a cold ``import wadm.cli`` stays
light, a query loads none of the check side, every name ``wadm`` exports
resolves to its module's object, and every value class keeps its
construction, equality, hashing, immutability and repr."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wadm
from wadm.checker import CheckLine, Instance, InstanceResult, Verdict
from wadm.exact import FieldData, QSqrtQ
from wadm.instances import KeyValues
from wadm.isocrystal import Block, Filtration, PhiModule, Polygon, SteinbergChain
from wadm.rootdata import HighestWeight, RootDatum, WeylElement
from wadm.satake import GroupRingElem
from wadm.weildeligne import WDRep

SRC = str(Path(wadm.__file__).parent.parent)


GOLDEN = Path(__file__).parent / "golden"
CHECK_SIDE = {"wadm.checker", "wadm.isocrystal", "wadm.weildeligne"}


def _loaded(code: str) -> set:
    """What ``code`` adds to sys.modules in a fresh interpreter, past what
    the interpreter's own start-up already loaded."""
    script = (f"import sys; before = set(sys.modules); {code}; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_cold_import_leaves_out_dataclasses_inspect_and_ast():
    assert {name for name in _loaded("import wadm") if name.startswith("wadm")} == {"wadm"}
    loaded = _loaded("import wadm.cli")
    assert "wadm.cli" in loaded
    assert not {"dataclasses", "inspect", "ast"} & loaded
    assert not CHECK_SIDE & loaded, sorted(CHECK_SIDE & loaded)


@pytest.mark.parametrize("argv", [
    ["affinoid", str(GOLDEN / "affinoid_gl2.inst")],
    ["satake-norm", str(GOLDEN / "satake_norm_gl2.inst")],
    ["convert-weights", "--form", "i", "--values", "-2 0"],
], ids=lambda argv: argv[0])
def test_cold_query_leaves_out_the_check_side(argv):
    loaded = _loaded(f"from wadm.cli import main; assert main({argv!r}) == 0")
    assert {"wadm.rootdata", "wadm.satake"} <= loaded
    assert not CHECK_SIDE & loaded, sorted(CHECK_SIDE & loaded)


# every name the package bound before it resolved names lazily, by the
# module that defined or re-exported it then
EXPORTS = {
    "exact": "INF FieldData QSqrtQ val_q",
    "isocrystal": "Block Filtration PhiModule Polygon SteinbergChain UnsupportedRegimeError "
                  "admissible_by_inequalities block_polygons build_admissible_filtration "
                  "chain_sum_bounds hodge_polygon inequality_rows newton_polygon "
                  "polygon_dominates steinberg_filtration t_H t_N weak_admissible",
    "rootdata": "HighestWeight RootDatum dominance_leq dominant_rep half_sum_positive_roots "
                "in_hull in_Vxi weyl_elements weyl_orbit",
    "satake": "GroupRingElem cocycle_gamma_val delta_half_val norm_xi_val twisted_action",
    "weildeligne": "Unramified WDRep block_decompose f_semisimplify mod_of_wd wd_of_mod",
    "checker": "Instance Verdict check_instance exists_admissible invariant_norm_inequalities "
               "jumps_from_weights membership_check weights_from_jumps",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module, name", EXPORTED)
def test_exported_name_is_its_modules_object(module, name):
    assert getattr(wadm, name) is getattr(importlib.import_module(f"wadm.{module}"), name)
    assert getattr(wadm, module) is importlib.import_module(f"wadm.{module}")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from wadm import *", namespace)
    for module, name in EXPORTED:
        assert namespace.get(name) is getattr(importlib.import_module(f"wadm.{module}"), name)
    assert wadm.__version__ == "0.1.0"


@pytest.mark.parametrize("name", ["no_such_name", "_MODULE", "Check_instance"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(wadm, name)


F3 = FieldData(3, 1, 1)
GL2 = ((0, 1),)
HALF = Fraction(1, 2)

# name -> (class, keyword arguments in positional order with every default
# at its default value, how many come before the defaults, repr)
FROZEN = {
    "FieldData": (FieldData, {"p": 3, "e": 1, "f": 1}, 3, "FieldData(p=3, e=1, f=1)"),
    "QSqrtQ": (QSqrtQ, {"a": Fraction(1), "b": HALF, "q": 9}, 3,
               "QSqrtQ(a=Fraction(1, 1), b=Fraction(1, 2), q=9)"),
    "Block": (Block, {"slope": HALF, "mult": 2, "jordan": ()}, 2,
              "Block(slope=Fraction(1, 2), mult=2, jordan=(1, 1))"),
    "SteinbergChain": (SteinbergChain, {"base_val": -1, "piece_dim": 1, "length": 2}, 3,
                       "SteinbergChain(base_val=Fraction(-1, 1), piece_dim=1, length=2)"),
    "PhiModule": (PhiModule, {"field": F3, "blocks": (Block(0, 1),), "steinberg": None}, 2,
                  "PhiModule(field=FieldData(p=3, e=1, f=1), blocks=(Block(slope=Fraction(0, 1), "
                  "mult=1, jordan=(1,)),), steinberg=None)"),
    "Filtration": (Filtration, {"jumps": [[0, 1]], "flags": [[[1, 0], [0, 1]]]}, 2,
                   "Filtration(jumps=((Fraction(0, 1), Fraction(1, 1)),), "
                   "flags=(((1, 0), (0, 1)),))"),
    "Polygon": (Polygon, {"vertices": ((0, 0), (1, HALF))}, 1,
                "Polygon(vertices=((Fraction(0, 1), Fraction(0, 1)), "
                "(Fraction(1, 1), Fraction(1, 2))))"),
    "WeylElement": (WeylElement, {"cochar": ((0, 1), (1, 0))}, 1,
                    "WeylElement(cochar=((0, 1), (1, 0)))"),
    "RootDatum": (RootDatum, {"rank": 2, "simple_roots": [[-1, 1]],
                              "simple_coroots": [[-1, 1]], "name": ""}, 3,
                  "RootDatum(rank=2, simple_roots=((-1, 1),), simple_coroots=((-1, 1),), "
                  "name='')"),
    "HighestWeight": (HighestWeight, {"per_embedding": [[0, 1]]}, 1,
                      "HighestWeight(per_embedding=((0, 1),))"),
    "GroupRingElem": (GroupRingElem, {"terms": (([1, 0], QSqrtQ(1, 0, 3)),)}, 1,
                      "GroupRingElem(terms=(((1, 0), QSqrtQ(a=Fraction(1, 1), "
                      "b=Fraction(0, 1), q=3)),))"),
    "WDRep": (WDRep, {"field": F3, "parts": (Block(HALF, 2),), "ramified": False}, 2,
              "WDRep(field=FieldData(p=3, e=1, f=1), parts=(Block(slope=Fraction(1, 2), "
              "mult=2, jordan=(1, 1)),), ramified=False)"),
    "Instance": (Instance, {"ident": "a", "field": F3, "weights_a": GL2,
                            "zeta_vals": (Fraction(0), Fraction(2)), "wd": None}, 4,
                 "Instance(ident='a', field=FieldData(p=3, e=1, f=1), weights_a=((0, 1),), "
                 "zeta_vals=(Fraction(0, 1), Fraction(2, 1)), wd=None)"),
}

VERDICT = Verdict("pass")
RECORDS = {
    "CheckLine": (CheckLine, {"name": "x", "ok": None, "lhs": None, "rhs": None, "note": ""}, 2,
                  "CheckLine(name='x', ok=None, lhs=None, rhs=None, note='')"),
    "Verdict": (Verdict, {"status": "pass", "checks": [], "witness": None, "newton": None,
                          "hodge": None, "reason": ""}, 1,
                "Verdict(status='pass', checks=[], witness=None, newton=None, hodge=None, "
                "reason='')"),
    "InstanceResult": (InstanceResult, {"instance": None, "norm": VERDICT, "central_ok": True,
                                        "adm": VERDICT, "membership": VERDICT,
                                        "status": "pass"}, 6,
                       "InstanceResult(instance=None, norm=" + repr(VERDICT) + ", central_ok="
                       "True, adm=" + repr(VERDICT) + ", membership=" + repr(VERDICT)
                       + ", status='pass')"),
    "KeyValues": (KeyValues, {"path": "x.inst", "entries": {"id": (1, "x")}}, 2,
                  "KeyValues(path='x.inst', entries={'id': (1, 'x')})"),
}


def _three_ways(cls, kwargs, required):
    """The same value built by position, by keyword and with its defaults."""
    values = list(kwargs.values())
    return cls(*values), cls(**kwargs), cls(*values[:required])


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_value_contract(name):
    cls, kwargs, required, expected = FROZEN[name]
    by_position, by_keyword, by_default = _three_ways(cls, kwargs, required)
    for value in (by_keyword, by_default, copy.copy(by_position),
                  pickle.loads(pickle.dumps(by_position))):
        assert value is not by_position and value == by_position
        assert hash(value) == hash(by_position)
    assert repr(by_position) == expected
    assert by_position != expected and by_position.__eq__(expected) is NotImplemented
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(by_position, field, kwargs[field])
    with pytest.raises(AttributeError):
        delattr(by_position, field)
    with pytest.raises(AttributeError):
        by_position.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_mutable_record_contract(name):
    cls, kwargs, required, expected = RECORDS[name]
    for record in _three_ways(cls, kwargs, required):
        assert repr(record) == expected
        with pytest.raises(TypeError):
            hash(record)
    field = list(kwargs)[-1]
    record = cls(**kwargs)
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"


def test_verdict_default_checks_are_not_shared():
    first, second = Verdict("pass"), Verdict("pass")
    first.checks.append(CheckLine("x", True))
    assert second.checks == []


@pytest.mark.parametrize("build", [
    pytest.param(lambda: (FieldData(5, 2, 3), FieldData(p=5, e=2, f=3), FieldData(5, e=2, f=3)),
                 id="FieldData"),
    pytest.param(lambda: (HighestWeight.of([(0, 1), (-2, 3)]), HighestWeight(([0, 1], [-2, 3])),
                          HighestWeight.of(iter([[Fraction(0), 1.0], (-2, Fraction(6, 2))]))),
                 id="HighestWeight"),
    pytest.param(lambda: (RootDatum.gl(3), RootDatum(3, ((-1, 1, 0), (0, -1, 1)),
                                                     [[-1, 1, 0], [0, -1, 1]], "gl(3)")),
                 id="RootDatum"),
])
def test_cached_hashes_agree_on_equal_values(build):
    # the cache-key types hash once, at construction: equal values built
    # any way, copied or unpickled, hash equal and find the same dict entry
    values = build()
    first = values[0]
    for value in values + tuple(f(first) for f in (copy.copy, copy.deepcopy)) + (
            pickle.loads(pickle.dumps(first)),):
        assert value == first and hash(value) == hash(first)
        assert {first: "entry"}[value] == "entry"
    assert first._hash == hash(first) and "_hash" not in repr(first)
