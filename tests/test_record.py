"""The records @record makes, and what importing the CLI loads.

Every record class in the engine is built here once; a record class with
no example below fails test_every_record_has_an_example."""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import foodn
from foodn import dsl, exploiters, expr, fuzzy, model, modifiers, network
from foodn._record import is_record, replace
from foodn.fuzzy import make_fuzzy_set
from foodn.model import (
    Absent,
    Binding,
    ClassSpec,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyMarker,
    FuzzyObject,
    FuzzyTuple,
    HeterogeneousClass,
    Interval,
    MethodDef,
    Property,
    TruthDegree,
)

FS = make_fuzzy_set([(1.0, 0.5), (2.0, 1.0)], "cm")
METHOD = MethodDef("f1", "Area", "a", (Binding("a", "p1"),))
PROP = Property("p1", "Side", CrispNumber(2.0, "cm"))
SQUARE = ClassSpec("Square", (PROP,), (METHOD,))
RHOMBUS = ClassSpec("Rhombus", (Property("p1", "Side", FuzzyMarker()),))
NUM = expr.Num(2.0)

EXAMPLES = [
    CrispNumber(1.0),
    CrispTuple((1.0, 2.0), "cm"),
    Interval(0.0, 1.0, "cm", False),
    TruthDegree(0.5),
    FuzzyMarker(),
    Absent(),
    Fuzzy(FS),
    FuzzyTuple((FS, FS)),
    PROP,
    Binding("a", "p2", "component", 1),
    METHOD,
    SQUARE,
    HeterogeneousClass("H", (SQUARE, RHOMBUS)),
    FuzzyObject("O1", (PROP,), (METHOD,), "Square"),
    FS,
    NUM,
    expr.Var("a"),
    expr.Neg(NUM),
    expr.Bin("+", NUM, expr.Var("a")),
    expr.Call("sin", NUM),
    expr.Sum("v"),
    network.Relation("O1", "Square", "instance-of", 0.5),
    network.Witness("O1", "object", ("p1",)),
    network.ProvenanceRecord(1, "union", ("A", "B"), "C", ()),
    modifiers.Change("p1", CrispNumber(1.0), CrispNumber(2.0)),
    modifiers.Modifier("M", "object", "Square", "O2", (modifiers.Change("p1", Absent(), FuzzyMarker()),)),
    exploiters.ExploiterInfo("union", "n"),
    exploiters.ObjectSet("S", ("O1", "O2"), ClassSpec("S_class", mode="extensional", extension=("O1", "O2"))),
    dsl.ParseDiagnostic("error", "expected ';'", 3, 7),
]


def _ids(rec):
    return type(rec).__name__


def test_every_record_has_an_example():
    records = {
        c for module in (model, fuzzy, network, expr, modifiers, exploiters, dsl)
        for c in vars(module).values()
        if is_record(c) and c.__module__ == module.__name__
    }
    assert len(records) == 29
    assert records == {type(rec) for rec in EXAMPLES}


@pytest.mark.parametrize("rec", EXAMPLES, ids=_ids)
def test_fields_can_be_neither_assigned_nor_deleted(rec):
    for name in type(rec).__slots__:
        value = getattr(rec, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(rec, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(rec, name)
        assert getattr(rec, name) is value
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", EXAMPLES, ids=_ids)
def test_records_pickle_and_copy(rec):
    twins = [pickle.loads(pickle.dumps(rec, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.deepcopy(rec), copy.copy(rec), replace(rec)]:
        assert type(twin) is type(rec)
        assert twin == rec and hash(twin) == hash(rec) and repr(twin) == repr(rec)


@pytest.mark.parametrize("rec", EXAMPLES, ids=_ids)
def test_equality_and_hash_run_over_the_init_fields(rec):
    own = tuple(getattr(rec, name) for name in type(rec).__match_args__)
    assert hash(rec) == hash(own)
    assert rec != own and rec != object()


def test_reprs():
    assert repr(CrispNumber(1.0)) == "CrispNumber(value=1.0, unit=None)"
    assert repr(FuzzyMarker()) == "FuzzyMarker()"
    assert repr(METHOD) == (
        "MethodDef(id='f1', semantic='Area', body='a', "
        "bindings=(Binding(var='a', prop='p1', accessor='scalar', index=None),), result_unit=None)"
    )
    assert repr(expr.Bin("*", NUM, expr.Var("a"))) == "Bin(op='*', left=Num(value=2.0), right=Var(name='a'))"
    assert repr(dsl.ParseDiagnostic("warning", "m", 1, 2)) == (
        "ParseDiagnostic(severity='warning', message='m', line=1, col=2)"
    )


def test_records_of_different_classes_differ_even_with_equal_fields():
    assert FuzzyMarker() != Absent() and FuzzyMarker() == FuzzyMarker()
    assert expr.Var("a") != expr.Sum("a")


def test_a_computed_field_is_no_argument_and_no_part_of_the_record():
    assert MethodDef.__match_args__ == ("id", "semantic", "body", "bindings", "result_unit")
    assert "program" in MethodDef.__slots__
    with pytest.raises(TypeError):
        MethodDef("f1", "Area", "a", (), None, METHOD.program)


def test_replace_keeps_what_it_is_not_given_and_checks_what_it_is():
    assert replace(CrispNumber(1.0, "cm"), value=2) == CrispNumber(2.0, "cm")
    with pytest.raises(ValueError, match="empty interval"):
        replace(Interval(0.0, 1.0), hi=0.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
        replace(CrispNumber(1.0), width=2.0)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_resources():
    # structure, not timing: these modules cost start-up time on every
    # subcommand, and foodn uses none of them to start; foodn.dsl loads
    # only for a .foodn file or parse_fuzzy_set
    src = str(Path(foodn.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = src
    watched = {"dataclasses", "inspect", "importlib.resources", "foodn.dsl"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import foodn.cli, sys; print(sys.modules['foodn'].__file__); "
         f"print(sorted(sys.modules.keys() & {watched!r}))"],
        capture_output=True, text=True, env=env, check=True,
    )
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().parent.parent == Path(src)
    assert loaded == "[]"
