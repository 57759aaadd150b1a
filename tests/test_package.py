"""The package ships only what the `mutreach` commands reach, and its
records are built with no generated code."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mutreach
from mutreach.intlinalg import HnfResult, LinalgError
from mutreach.lattice import LatticeRepresentation, representation_from_generators
from mutreach.net import Action, NetError, PetriNet
from mutreach.presburger import BottomFormula, BottomTuple, MutualFormula, _Parts
from mutreach.unfolding import (
    EnumLimits,
    Unfolding,
    UnfoldingError,
    UnfoldingPath,
    embed_cycle,
)
from mutreach.witness import (
    BasisElement,
    MutualWitness,
    PairCertificate,
    PumpCertificate,
    PumpingParams,
    SearchResult,
    UpwardBasis,
    WitnessRejected,
)

PACKAGE_DIR = Path(mutreach.__file__).resolve().parent

PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("mutreach."))
import mutreach
bare = loaded()
import mutreach.cli
print(json.dumps([bare, loaded()]))
"""


def _in_fresh_interpreter(probe: str):
    """What the probe prints, as JSON, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def test_import_loads_no_submodule_and_the_cli_reaches_every_module():
    bare, after_cli = _in_fresh_interpreter(PROBE)
    assert bare == []
    shipped = sorted(f"mutreach.{p.stem}" for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
    assert after_cli == shipped


# --- unreferenced code ----------------------------------------------------------
#
# Every top-level function and class, and every method that is not a
# dunder, is named somewhere in `src/` outside its own definition: a name
# that only tests reach belongs in the tests.

UNREFERENCED = {
    "cli._Parser.error",  # argparse's hook, called by `parse_args`
    "witnessio.witness_from_text",  # the witness-file reader for library callers
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node) of each top-level def and class and each
    non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item


def _referenced_names(node: ast.AST) -> Counter:
    """How often each name is read in the subtree: bare names and attributes."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_definition_in_src_is_referenced():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    everywhere = sum((_referenced_names(t) for t in trees.values()), Counter())
    unreferenced = [
        name
        for module, tree in trees.items()
        for name, node in _definitions(tree, module)
        if everywhere[node.name] == _referenced_names(node)[node.name]
    ]
    assert sorted(set(unreferenced) - UNREFERENCED) == []
    assert UNREFERENCED <= set(unreferenced)


# --- records ------------------------------------------------------------------
#
# The package's record classes are named tuples or `__slots__` classes with
# a hand-written `__init__`: importing the package generates no code.

LOADED_PROBE = """
import json, sys
import mutreach.cli
print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def _package_classes():
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("mutreach.")]
    return [c for m in modules for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__]


def test_import_loads_neither_dataclasses_nor_inspect():
    assert _in_fresh_interpreter(LOADED_PROBE) == []


def test_no_package_class_is_a_dataclass():
    import mutreach.cli  # noqa: F401  (loads every module)

    classes = _package_classes()
    assert {"Unfolding", "MutualFormula", "EnumLimits"} <= {c.__name__ for c in classes}
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []


LINE = PetriNet(1, (Action((0,), (1,)), Action((1,), (0,))))
EDGES = (((0,), 0, (1,)), ((1,), 1, (0,)))


def _line_unfolding():
    return Unfolding(LINE, (0,), [(1,), (0,)], reversed(EDGES))


def _bottom_tuple():
    rep = representation_from_generators([(2,)], 1)
    return BottomTuple((), (), rep, ((0,),), ())


# each factory builds a fresh object from the same field values
SLOTS_RECORDS = {
    "LatticeRepresentation": lambda: LatticeRepresentation(2, [(0, [1, 0]), (3, (0, 1))]),
    "Action": lambda: Action([1, 0], (0, 1)),
    "PetriNet": lambda: PetriNet(1, [Action((0,), (1,))]),
    "PumpingParams": lambda: PumpingParams(state_bound=4, cycle_len=4),
    "Unfolding": _line_unfolding,
    "UnfoldingPath": lambda: UnfoldingPath((0,), [EDGES[0]]),
    "EnumLimits": lambda: EnumLimits(),
    "BottomTuple": _bottom_tuple,
}


@pytest.mark.parametrize("name", sorted(SLOTS_RECORDS))
def test_slots_record_equality_hash_and_no_instance_dict(name):
    a, b = SLOTS_RECORDS[name](), SLOTS_RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, f) for f in a._fields)
    assert not hasattr(a, "__dict__")
    assert hash(a) == hash(b)


def test_slots_records_differ_in_any_compared_field():
    assert Action((1, 0), (0, 1)) != Action((1, 0), (0, 2))
    assert PetriNet(1, [Action((0,), (1,))]) != PetriNet(1, [Action((1,), (0,))])
    assert PumpingParams(4, 4) != PumpingParams(4, 4, 0)
    assert EnumLimits() != EnumLimits(max_unfoldings=4999)
    assert UnfoldingPath((0,)) != UnfoldingPath((1,))
    assert _line_unfolding() != Unfolding(LINE, (0,), [(0,), (1,)], EDGES[:1])
    assert LatticeRepresentation(1, [(2, (1,))]) != LatticeRepresentation(1, [(3, (1,))])


def test_derived_fields_stay_out_of_equality():
    a = Action((1, 0), (0, 1))
    assert a.displacement == (-1, 1)
    net, rep = SLOTS_RECORDS["PetriNet"](), SLOTS_RECORDS["LatticeRepresentation"]()
    assert (net.norm, rep.norm) == (1, 3)
    for obj, derived in ((a, "displacement"), (net, "norm"), (rep, "norm")):
        other = type(obj)(*(getattr(obj, f) for f in obj._fields))
        setattr(other, derived, None)
        assert other == obj and hash(other) == hash(obj)
    g, h = _line_unfolding(), _line_unfolding()
    assert g.states == ((0,), (1,)) and g.transitions == EDGES
    assert g.shape == ((0, 0, 1), (1, 1, 0))
    g.shape = None
    assert g == h and hash(g) == hash(h)
    t, u = _bottom_tuple(), _bottom_tuple()
    assert t.basis == [(2,)] and t.basis is t.basis
    assert t == u and hash(t) == hash(u)


@pytest.mark.parametrize("build, error, message", [
    (lambda: PetriNet(0, ()), NetError, "dimension must be >= 1"),
    (lambda: PetriNet(3, [Action((1, 0), (0, 1))]), NetError,
     "action Action(pre=(1, 0), post=(0, 1)) has dimension 2, net has 3"),
    (lambda: Action((1,), (0, 1)), NetError, "action dimension mismatch: (1,) vs (0, 1)"),
    (lambda: Action((-1,), (0,)), NetError, "action entries must be non-negative: (-1,) -> (0,)"),
    (lambda: LatticeRepresentation(2, [(0, (1, 0))]), LinalgError, "expected 2 pairs, got 1"),
    (lambda: LatticeRepresentation(1, [(-1, (1,))]), LinalgError, "moduli are natural numbers"),
    (lambda: LatticeRepresentation(1, [(0, (1, 0))]), LinalgError,
     "coefficient vector has wrong dimension"),
    (lambda: EnumLimits(max_states=0), UnfoldingError, "invalid parameters"),
    (lambda: EnumLimits(max_unfoldings=-1), UnfoldingError, "invalid parameters"),
    (lambda: PumpingParams(state_bound=0, cycle_len=1), WitnessRejected, "invalid parameters"),
    (lambda: PumpingParams(1, -1), WitnessRejected, "invalid parameters"),
    (lambda: PumpingParams(1, 1, off_threshold=-1), WitnessRejected, "invalid parameters"),
    (lambda: UnfoldingPath((0,), [EDGES[1]]), UnfoldingError,
     "path transitions do not chain: ((0,), (1,))"),
])
def test_validation_errors_keep_type_and_message(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_reprs_that_are_read_stay_byte_identical():
    assert repr(EnumLimits(3, 7)) == "EnumLimits(max_states=3, max_unfoldings=7)"
    path = UnfoldingPath((0,), [EDGES[0]])
    with pytest.raises(UnfoldingError) as exc:
        embed_cycle(_line_unfolding(), path, (0,))
    assert str(exc.value) == ("not a closed walk of the unfolding: "
                              "UnfoldingPath(source=(0,), transitions=(((0,), 0, (1,)),))")


NAMED_TUPLES = [HnfResult, BasisElement, UpwardBasis, PumpCertificate, PairCertificate,
                MutualWitness, MutualFormula, BottomFormula, _Parts, SearchResult]


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda c: c.__name__)
def test_plain_records_are_named_tuples(cls):
    assert issubclass(cls, tuple) and cls._fields
    values = tuple((k,) for k in range(len(cls._fields)))
    a, b = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert a == b and hash(a) == hash(b) and a._replace() == a
    assert repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=(0,)")
