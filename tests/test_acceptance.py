"""Acceptance gate: the eight criteria the engine must meet.

Each test prints one PASS line when its criterion holds (visible with
`pytest -s`); a failing criterion fails the test outright.
"""
from __future__ import annotations

import math
from pathlib import Path

import pytest

from conftest import DISJOINT, POLYGONS, load, run_cli
from foodn.errors import DoesNotExist, NotApplicable
from foodn.exploiters import (
    ObjectSet,
    clone_op,
    difference_op,
    intersection_op,
    sym_difference_op,
    union_op,
)
from foodn.fuzzy import DEFAULT_TOL
from foodn.model import HeterogeneousClass, entity_kind
from foodn.serialize import dumps, entity_to_doc

reference = load("perfbench/reference.py")

GOLDEN = Path(__file__).parent / "golden"

SIN_95 = math.sin(math.radians(95.0))


def ids(entity):
    return [p.id for p in entity.specification] + [m.id for m in entity.signature]


def test_criterion_1_fixture_reconstruction(polygons):
    net = polygons
    assert len(net.objects) == 2
    assert len(net.classes) == 3
    assert len(net.relations) == 5
    kinds = sorted(r.kind for r in net.relations)
    assert kinds == ["a-kind-of", "a-kind-of", "instance-of", "instance-of", "is-a"]
    assert len(net.exploiters) == 5
    assert sorted(net.exploiters) == [
        "clone", "difference", "intersection", "sym-difference", "union",
    ]
    assert len(net.modifiers) == 7
    print("criterion 1: PASS - fixture has 2 objects, 3 classes, "
          "5 relations of the right kinds, 5 exploiters, 7 modifiers")


def test_criterion_2_network_fuzziness(polygons):
    fuzzy, witnesses = polygons.is_fuzzy()
    assert fuzzy is True
    assert {w.name for w in witnesses} == {"T_Pg", "T_Rb", "T_Sq", "Rb1", "Sq1"}
    print("criterion 2: PASS - network is fuzzy with the five expected witnesses")


def test_criterion_3_graded_membership(polygons):
    assert polygons.membership("Rb1", "T_Rb", "min") == pytest.approx(0.8, abs=1e-9)
    assert polygons.membership("Sq1", "T_Sq", "min") == pytest.approx(1.0, abs=1e-9)
    assert polygons.membership("Rb1", "T_Sq", "min") == pytest.approx(0.0, abs=1e-9)
    print("criterion 3: PASS - memberships 0.8 / 1.0 / 0.0 at 1e-9")


def test_criterion_4_exploiter_matrix(polygons, disjoint):
    trb = polygons.classes["T_Rb"]
    tsq = polygons.classes["T_Sq"]
    rb1 = polygons.objects["Rb1"]
    sq1 = polygons.objects["Sq1"]

    assert set(ids(intersection_op([trb, tsq], "I", DEFAULT_TOL))) == {"p1", "p2", "p3", "p5", "f1"}
    assert set(ids(difference_op(tsq, trb, "D", DEFAULT_TOL))) == {"p4", "p6", "f2"}
    sym = sym_difference_op(tsq, trb, "S", DEFAULT_TOL)
    assert len(ids(sym)) == 6
    assert all("@" in member for member in ids(sym))

    self_meet = intersection_op([trb, trb], "Same", DEFAULT_TOL)
    assert self_meet.specification == trb.specification
    assert self_meet.signature == trb.signature

    with pytest.raises(DoesNotExist):
        intersection_op([disjoint.classes["A"], disjoint.classes["B"]], "X", DEFAULT_TOL)

    # result kinds, objects then classes, for all five exploiters
    union_objects = union_op([rb1, sq1], "U1")
    assert isinstance(union_objects, ObjectSet)
    assert entity_kind(union_objects.induced_class) == "class"
    assert union_objects.induced_class.mode == "extensional"
    assert entity_kind(intersection_op([rb1, sq1], "K1", DEFAULT_TOL)) == "class"
    assert entity_kind(difference_op(rb1, sq1, "K2", DEFAULT_TOL)) == "class"
    assert entity_kind(sym_difference_op(rb1, sq1, "K3", DEFAULT_TOL)) == "class"
    assert entity_kind(clone_op(rb1, 1)) == "object"
    union_classes = union_op([trb, tsq], "U2")
    assert isinstance(union_classes, HeterogeneousClass)
    assert entity_kind(union_classes) == "class"
    assert entity_kind(intersection_op([trb, tsq], "K4", DEFAULT_TOL)) == "class"
    assert entity_kind(difference_op(trb, tsq, "K5", DEFAULT_TOL)) == "class"
    assert entity_kind(sym_difference_op(trb, tsq, "K6", DEFAULT_TOL)) == "class"
    assert entity_kind(clone_op(trb, 1)) == "class"
    print("criterion 4: PASS - member sets, self-intersection, disjoint "
          "failure, and all ten result kinds check out")


def test_criterion_5_modifier_round_trip(polygons):
    net = polygons
    original = entity_to_doc(net.objects["Sq1"])
    base = len(net.provenance)

    first = net.apply_modifier("M1_Sq1", "Sq1")
    back = net.apply_modifier("M2_Rb1", first)
    assert back == "Sq1"
    restored = net.objects["Sq1"]
    assert entity_to_doc(restored) == original
    for change in net.modifiers["M1_Sq1"].changes:
        prop = restored.get_property(change.prop)
        assert prop is not None
        assert prop.value == change.before
    assert [m.id for m in restored.signature] == ["f1", "f2"]
    assert len(net.provenance) == base + 2

    class_original = entity_to_doc(net.classes["T_Sq"])
    first = net.apply_modifier("M1_T_Sq", "T_Sq")
    back = net.apply_modifier("M2_T_Rb", first)
    assert back == "T_Sq"
    assert entity_to_doc(net.classes["T_Sq"]) == class_original
    assert len(net.provenance) == base + 4

    snapshot = dumps(net)
    with pytest.raises(NotApplicable):
        net.apply_modifier("M2_Rb1", "Sq1")
    assert dumps(net) == snapshot
    print("criterion 5: PASS - object and class round trips restore content, "
          "+2 provenance records each, failures change nothing")


def test_criterion_6_evaluator_vs_oracle(polygons):
    import foodn.evaluator as ev

    rb1 = polygons.objects["Rb1"]
    sq1 = polygons.objects["Sq1"]

    f1 = ev.eval_method(rb1, "f1")
    assert f1.unit == "cm"
    assert f1.supports() == pytest.approx((7.2, 8.0, 8.4), abs=1e-9)
    assert f1.degrees() == pytest.approx((0.9, 1.0, 0.95), abs=1e-9)

    f2_sq = ev.eval_method(sq1, "f2")
    assert f2_sq.unit == "cm^2"
    assert f2_sq.supports() == pytest.approx((7.29, 9.0, 9.61), abs=1e-9)
    assert f2_sq.degrees() == pytest.approx((0.85, 1.0, 0.95), abs=1e-9)

    f2_rb = ev.eval_method(rb1, "f2")
    expected = [a * a * SIN_95 for a in (1.8, 2.0, 2.1)]
    assert f2_rb.supports() == pytest.approx(expected, abs=1e-3)
    assert f2_rb.degrees() == pytest.approx((0.9, 1.0, 0.95), abs=1e-9)

    # every figure independently recomputed by the enumeration oracle
    p2_rb = list(rb1.get_property("p2").value.values[0].elements)
    p2_sq = list(sq1.get_property("p2").value.values[0].elements)
    oracle_f1 = reference.extend(lambda a: 4.0 * a, [p2_rb], 1e-9)
    assert [x for pair in f1.elements for x in pair] == pytest.approx(
        [x for pair in oracle_f1 for x in pair])
    oracle_sq = reference.extend(
        lambda a, al: a * a * math.sin(math.radians(al)),
        [p2_sq, [(90.0, 1.0)]], 1e-9)
    assert list(f2_sq.supports()) == pytest.approx(
        [s for s, _ in oracle_sq], abs=1e-12)
    assert list(f2_sq.degrees()) == [d for _, d in oracle_sq]
    oracle_rb = reference.extend(
        lambda a, al: a * a * math.sin(math.radians(al)),
        [p2_rb, [(95.0, 1.0)]], 1e-9)
    assert list(f2_rb.supports()) == pytest.approx(
        [s for s, _ in oracle_rb], abs=1e-12)
    assert list(f2_rb.degrees()) == [d for _, d in oracle_rb]
    print("criterion 6: PASS - f1(Rb1), f2(Sq1), f2(Rb1) match the stated "
          "values and the enumeration oracle")


def test_criterion_7_property_suites_are_in_force():
    import test_properties as props

    suites = [
        props.test_extension_matches_oracle,
        props.test_intersection_commutes,
        props.test_sym_difference_is_both_differences,
        props.test_exploiters_never_mutate_their_inputs,
        props.test_serialization_fixpoint,
        props.test_transitive_queries_terminate_on_cycles,
    ]
    for fn in suites:
        assert fn._hypothesis_internal_use_settings.max_examples >= 200, fn
    assert {text for text, _, _ in props.FUNCTIONS} == {"4*a", "a^2", "a+b", "a*b"}
    print("criterion 7: PASS - all six randomized suites run at >=200 examples")


def test_criterion_8_cli_golden_outputs():
    code, out, err = run_cli("fuzzy", "--in", POLYGONS)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "fuzzy_polygons.txt").read_text()

    code, out, err = run_cli("membership", "Rb1", "T_Rb", "--in", POLYGONS)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "membership_rb1_trb.txt").read_text()

    code, out, err = run_cli("apply-exploiter", "intersect", "A", "B",
                             "--in", DISJOINT)
    assert (code, out) == (1, "")
    assert err == (GOLDEN / "disjoint_intersect.txt").read_text()
    print("criterion 8: PASS - the three documented invocations reproduce "
          "their committed outputs and exit codes")
