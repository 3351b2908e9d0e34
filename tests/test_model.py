from __future__ import annotations

import copy
import math
import pickle
import re

import pytest

from foodn import dsl, exploiters, expr, fuzzy, model, modifiers, network, serialize
from foodn._record import is_record, replace
from foodn.errors import (
    AbstractValueOnObject,
    DuplicateChange,
    DuplicateId,
    EmptyChangeList,
    EmptyClass,
    ExtensionMissing,
    EvaluationError,
    SemanticMismatch,
)
from foodn.dsl import parse_network
from foodn.fuzzy import make_fuzzy_set
from foodn.model import (
    Absent,
    Binding,
    ClassSpec,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyMarker,
    FuzzyTuple,
    HeterogeneousClass,
    Interval,
    MethodDef,
    Property,
    TruthDegree,
    compat_degree,
    define_class,
    define_object,
    entity_kind,
    format_value,
    is_fuzzy_entity,
    is_fuzzy_value,
    membership_degree,
    method_equivalent,
    property_equivalent,
    value_equivalent,
)
from foodn.modifiers import Change, Modifier

FS = make_fuzzy_set([(1.8, 0.9), (2.0, 1.0), (2.1, 0.95)], unit="cm")
CHANGE = Change("p1", CrispNumber(1.0), CrispNumber(2.0))
METHOD = MethodDef("f1", "Area", "a", (Binding("a", "p1"),))


def prop(pid, semantic, value):
    return Property(pid, semantic, value)


class TestValues:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrispTuple(())
        with pytest.raises(ValueError):
            Interval(5.0, 5.0)
        with pytest.raises(Exception):
            TruthDegree(1.5)
        with pytest.raises(ValueError):
            FuzzyTuple(())

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_are_refused(self, x):
        for make in (
            lambda: CrispNumber(x, "cm"),
            lambda: CrispTuple((1.0, x)),
            lambda: Interval(x, 1.0),
            lambda: Interval(0.0, x),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()
        with pytest.raises(EvaluationError, match="not finite"):
            make_fuzzy_set([(1.0, 0.5), (x, 1.0)])

    @pytest.mark.parametrize("make", [
        lambda: TruthDegree(1),
        lambda: CrispNumber(4),
        lambda: CrispTuple((1, 2.0)),
        lambda: Interval(0, 1),
    ], ids=["truth", "number", "tuple", "interval"])
    def test_ints_are_stored_as_floats(self, make):
        net = network.Network()
        net.add(define_class("T", [Property("p1", "P", make())]))
        text = serialize.dumps(net)
        assert serialize.dumps(serialize.loads(text)) == text

    @pytest.mark.parametrize("make", [
        lambda: TruthDegree(True),
        lambda: CrispNumber(True),
        lambda: TruthDegree("0.5"),
        lambda: CrispNumber("4"),
        lambda: CrispTuple((1.0, False)),
        lambda: Interval(0.0, "1"),
    ], ids=["truth-bool", "number-bool", "truth-str", "number-str", "tuple-bool", "interval-str"])
    def test_bools_and_strings_are_refused(self, make):
        with pytest.raises(TypeError, match="expected a number"):
            make()

    @pytest.mark.parametrize("unit", [5, [], {}], ids=["number", "list", "dict"])
    @pytest.mark.parametrize("make", [
        lambda unit: CrispNumber(1.0, unit),
        lambda unit: CrispTuple((1.0, 2.0), unit),
        lambda unit: Interval(0.0, 1.0, unit),
        lambda unit: fuzzy.FuzzySet(((1.0, 1.0),), unit),
        lambda unit: make_fuzzy_set([(1.0, 1.0)], unit),
    ], ids=["number", "tuple", "interval", "fuzzy set", "make_fuzzy_set"])
    def test_units_are_strings_or_none(self, make, unit):
        with pytest.raises(ValueError, match=f"^a unit must be a string or null, got {re.escape(repr(unit))}$"):
            make(unit)

    @pytest.mark.parametrize("flags", [
        {"lo_open": 1}, {"hi_open": 0}, {"lo_open": None}, {"hi_open": "yes"},
    ], ids=["lo one", "hi zero", "lo none", "hi string"])
    def test_interval_flags_are_bools(self, flags):
        with pytest.raises(ValueError, match="^an interval bound flag must be true or false, got "):
            Interval(0.0, 1.0, **flags)

    @pytest.mark.parametrize("make, message", [
        (lambda: CrispNumber("4", 5), "a unit must be"),
        (lambda: CrispTuple((), []), "a unit must be"),
        (lambda: Interval(1.0, 0.0, {}, 1), "a unit must be"),
        (lambda: Interval(1.0, "0", None, True, 1), "an interval bound flag must be"),
        (lambda: fuzzy.FuzzySet((), 5), "a unit must be"),
    ], ids=["number", "tuple", "interval unit", "interval flag", "fuzzy set"])
    def test_units_and_flags_are_checked_before_numbers(self, make, message):
        # the order a document's fields were checked in when the loader checked them
        with pytest.raises(ValueError, match=f"^{message}"):
            make()

    @pytest.mark.parametrize("make", [
        lambda unit: CrispNumber(1.0, unit),
        lambda unit: CrispTuple((1.0, 2.0), unit),
        lambda unit: Interval(0.0, 1.0, unit),
        lambda unit: fuzzy.FuzzySet(((1.0, 1.0),), unit),
        lambda unit: make_fuzzy_set([(1.0, 1.0)], unit),
        lambda unit: MethodDef("f1", "Area", "a", (Binding("a", "p1"),), unit),
    ], ids=["number", "tuple", "interval", "fuzzy set", "make_fuzzy_set", "method"])
    def test_a_unit_cannot_hold_a_line_feed(self, make):
        # the one string the text form cannot write
        with pytest.raises(ValueError, match="^a unit cannot hold a line feed, got 'cm\\\\n2'$"):
            make("cm\n2")

    def test_sequences_are_stored_as_tuples(self):
        number_pair, fuzzy_pair = CrispTuple([1.0, 2]), FuzzyTuple([FS, FS])
        assert number_pair.values == (1.0, 2.0) and fuzzy_pair.values == (FS, FS)
        assert len({Property("p1", "P", number_pair), Property("p2", "Q", fuzzy_pair)}) == 2  # hashable

    @pytest.mark.parametrize("make, message", [
        (lambda: Fuzzy(5), "a fuzzy value must be a fuzzy set, got 5"),
        (lambda: Fuzzy([(1.0, 1.0)]), "a fuzzy value must be a fuzzy set, got [(1.0, 1.0)]"),
        (lambda: FuzzyTuple((FS, 5)), "fuzzy tuple components must be fuzzy sets"),
    ], ids=["fuzzy number", "fuzzy pairs", "fuzzy tuple"])
    def test_fuzzy_values_hold_fuzzy_sets(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make()

    @pytest.mark.parametrize("value", [5, 1.0, "fuzzy", None, FS, (CrispNumber(1.0),)],
                             ids=["int", "float", "str", "none", "fuzzy set", "tuple"])
    def test_property_values_are_value_records(self, value):
        with pytest.raises(ValueError, match=f"^not a property value: {re.escape(repr(value))}$"):
            Property("p1", "P", value)

    @pytest.mark.parametrize("value", [
        CrispNumber(1.0), CrispTuple((1.0, 2.0), "cm"), Interval(0.0, 1.0), TruthDegree(0.5),
        FuzzyMarker(), Absent(), Fuzzy(FS), FuzzyTuple((FS,)),
    ], ids=lambda value: type(value).__name__)
    def test_value_subclasses_are_refused(self, value):
        # membership scores a pair of values by their exact types
        kind = type(value)
        sub = type(f"My{kind.__name__}", (kind,), {"__slots__": ()})(
            *[getattr(value, name) for name in kind.__match_args__]
        )
        assert sub == sub and isinstance(sub, kind)
        message = f"^not a property value: {re.escape(repr(sub))}$"
        with pytest.raises(ValueError, match=message):
            Property("p1", "P", sub)
        with pytest.raises(ValueError, match=message):
            Change("p1", sub, CrispNumber(7.0))
        with pytest.raises(ValueError, match=message):
            Change("p1", CrispNumber(7.0), sub)

    @pytest.mark.parametrize("before, after", [
        (5, CrispNumber(1.0)), (CrispNumber(1.0), "x"), (5, "x"), (FS, Fuzzy(FS)),
    ], ids=["before", "after", "both", "bare fuzzy set"])
    def test_change_values_are_value_records(self, before, after):
        with pytest.raises(ValueError, match="^not a property value: "):
            Change("p1", before, after)

    def test_interval_bounds(self):
        open_iv = Interval(0.0, 1.0)
        assert not open_iv.contains(0.0) and not open_iv.contains(1.0)
        assert open_iv.contains(0.5)
        closed = Interval(0.0, 1.0, lo_open=False, hi_open=False)
        assert closed.contains(0.0) and closed.contains(1.0)

    def test_is_fuzzy_value(self):
        assert is_fuzzy_value(Fuzzy(FS))
        assert is_fuzzy_value(FuzzyTuple((FS,)))
        assert is_fuzzy_value(FuzzyMarker())
        assert is_fuzzy_value(TruthDegree(0.8))
        assert not is_fuzzy_value(TruthDegree(1.0))
        assert not is_fuzzy_value(TruthDegree(0.0))
        assert not is_fuzzy_value(CrispNumber(3.0))
        assert not is_fuzzy_value(Absent())

    def test_format_value(self):
        assert format_value(CrispNumber(4.0, "cm")) == "4 cm"
        assert format_value(CrispTuple((95.0, 85.0), "deg")) == "(95, 85) deg"
        assert format_value(Interval(80.0, 100.0, "deg")) == "interval(80, 100) deg"
        assert format_value(Interval(0.0, 1.0, lo_open=False)) == "interval[0, 1)"
        assert format_value(TruthDegree(0.8)) == "fuzzy(0.8)"
        assert format_value(FuzzyMarker()) == "fuzzy"
        assert format_value(Absent()) == "absent"
        assert format_value(Fuzzy(FS)) == "{1.8/0.9 + 2/1 + 2.1/0.95} cm"

    @pytest.mark.parametrize("value, text", [
        (CrispNumber(4.0, "m/s"), '4 "m/s"'),
        (CrispTuple((1.0, 2.0), ""), '(1, 2) ""'),
        (Interval(0.0, 1.0, 'a"b'), 'interval(0, 1) "a\\"b"'),
        (CrispNumber(4.0, "cm^-2"), "4 cm^-2"),
    ])
    def test_format_value_writes_a_unit_the_dsl_reads_back(self, value, text):
        assert format_value(value) == text
        net, _ = parse_network(f'class C {{ property p "P" = {text}; }}')
        assert net.classes["C"].specification[0].value == value

    @pytest.mark.parametrize("text", [
        "4", "4 cm", '4 "m/s"', "4 cm^-2", "-0.5 deg",
        "(95, 85) deg", "(1, 2, 3)", "[4 cm] * 3",
        "interval(80, 100) deg", "interval[0, 1)", "interval(0, 1]", "interval[-1, 1] m",
        "fuzzy(0.8)", "fuzzy(1)", "fuzzy", "absent",
        "{1.8/0.9 + 2/1 + 2.1/0.95} cm", "{1/1}", '{1/1} "km h"',
        "[{2.7/0.85 + 3/1} cm] * 3", "[{1/1}] * 2",
        "({1/1}, {2/0.5}) cm", "({1/1}, {2/0.5})", '({1/1}, {2/1 + 3/0.5}) "m/s"',
    ])
    def test_format_value_reads_back_every_value_the_dsl_builds(self, text):
        def parsed(text):
            net, _ = parse_network(f'class C {{ property p "P" = {text}; }}')
            return net.classes["C"].specification[0].value

        value = parsed(text)
        assert parsed(format_value(value)) == value

    def test_format_value_writes_one_unit_after_a_fuzzy_tuple(self):
        one, two = make_fuzzy_set([(1.0, 1.0)], "cm"), make_fuzzy_set([(2.0, 1.0)], "cm")
        assert format_value(FuzzyTuple((one, two))) == "({1/1}, {2/1}) cm"
        # components in different units have no .foodn text; each keeps its own
        other = make_fuzzy_set([(2.0, 1.0)], "mm")
        assert format_value(FuzzyTuple((one, other))) == "({1/1} cm, {2/1} mm)"

    def test_value_equivalent(self):
        assert value_equivalent(CrispNumber(1.0, "cm"), CrispNumber(1.0 + 1e-12, "cm"), 1e-9)
        assert not value_equivalent(CrispNumber(1.0, "cm"), CrispNumber(1.0, "m"), 1e-9)
        assert not value_equivalent(CrispNumber(1.0), CrispTuple((1.0,)), 1e-9)
        assert value_equivalent(Interval(0.0, 1.0), Interval(0.0, 1.0), 1e-9)
        assert not value_equivalent(Interval(0.0, 1.0), Interval(0.0, 1.0, lo_open=False), 1e-9)
        assert value_equivalent(Fuzzy(FS), Fuzzy(FS), 1e-9)
        assert value_equivalent(Absent(), Absent(), 1e-9)

    @pytest.mark.parametrize("call", [
        lambda: format_value(1.0),
        lambda: value_equivalent(1.0, 1.0, 1e-9),
    ], ids=["format_value", "value_equivalent"])
    def test_a_value_that_is_no_property_value_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="^not a property value: 1.0$"):
            call()


class TestMethods:
    def test_body_must_bind_all_vars(self):
        with pytest.raises(ValueError, match="unbound"):
            MethodDef("f1", "Area", "a*b", (Binding("a", "p2", "component", 1),))

    def test_unbound_variables_are_reported_before_a_family_read_outside_sum(self):
        # a is a family read outside sum() and b is unbound: b is named first
        with pytest.raises(ValueError) as info:
            MethodDef("f1", "Area", "a + b", (Binding("a", "p2", "all"),))
        assert str(info.value) == "method f1: unbound variables ['b'] in body 'a + b'"

    def test_duplicate_binding_vars(self):
        with pytest.raises(DuplicateId):
            MethodDef("f1", "Area", "a+a", (
                Binding("a", "p2", "component", 1),
                Binding("a", "p3", "component", 1),
            ))

    def test_binding_validation(self):
        with pytest.raises(ValueError):
            Binding("a", "p2", "component")
        with pytest.raises(ValueError):
            Binding("a", "p2", "scalar", 1)
        with pytest.raises(ValueError):
            Binding("a", "p2", "component", 0)
        with pytest.raises(ValueError):
            Binding("a", "p2", "slice")

    @pytest.mark.parametrize("index", [1.5, 2.0, True, "1"])
    def test_component_index_must_be_an_integer(self, index):
        with pytest.raises(ValueError, match="1-based integers"):
            Binding("a", "p2", "component", index)

    @pytest.mark.parametrize("field, make", [
        ("property id", lambda x: Property(x, "Sides", CrispNumber(4.0))),
        ("property semantic", lambda x: Property("p1", x, CrispNumber(4.0))),
        ("method id", lambda x: MethodDef(x, "Area", "a", (Binding("a", "p1"),))),
        ("method semantic", lambda x: MethodDef("f1", x, "a", (Binding("a", "p1"),))),
        ("method body", lambda x: MethodDef("f1", "Area", x, (Binding("a", "p1"),))),
        ("method result_unit", lambda x: MethodDef("f1", "Area", "a", (Binding("a", "p1"),), x)),
        ("binding var", lambda x: Binding(x, "p1")),
        ("binding prop", lambda x: Binding("a", x)),
        ("modifier name", lambda x: Modifier(x, "object", "O", "O2", (CHANGE,))),
        ("modifier source", lambda x: Modifier("M", "object", x, "O2", (CHANGE,))),
        ("modifier target_name", lambda x: Modifier("M", "object", "O", x, (CHANGE,))),
        ("modifier target_class", lambda x: Modifier("M", "object", "O", "O2", (CHANGE,), x)),
        ("change prop", lambda x: Change(x, CrispNumber(1.0), CrispNumber(2.0))),
    ])
    def test_names_must_be_strings(self, field, make):
        with pytest.raises(ValueError, match=f"^{field} must be a string, got 7$"):
            make(7)

    @pytest.mark.parametrize("make, empty", [
        (lambda: Modifier("", "object", "O", "O2", (CHANGE,)), "name"),
        (lambda: Modifier("M", "object", "", "O2", (CHANGE,)), "source"),
        (lambda: Modifier("M", "object", "O", "", (CHANGE,), ""), "target_name, target_class"),
        (lambda: Change("", CrispNumber(1.0), CrispNumber(2.0)), "change property id"),
        (lambda: Property("", "Sides", CrispNumber(4.0)), "property id"),
        (lambda: MethodDef("", "Area", "a", (Binding("a", "p1"),)), "method id"),
    ], ids=["modifier name", "modifier source", "modifier targets", "change prop", "property id",
            "method id"])
    def test_modifier_names_must_be_non_empty(self, make, empty):
        with pytest.raises(ValueError, match=f"{empty} must be non-empty"):
            make()

    def test_a_modifier_needs_changes(self):
        with pytest.raises(EmptyChangeList, match="^modifier M: no changes declared$"):
            Modifier("M", "object", "O", "O2", ())

    def test_a_modifier_changes_each_property_once(self):
        other = Change("p1", CrispNumber(1.0), CrispNumber(3.0))
        with pytest.raises(DuplicateChange, match="^modifier M: several changes target one property$"):
            Modifier("M", "object", "O", "O2", (CHANGE, other))

    def test_compiled_body_takes_no_part_in_identity(self):
        def build():
            return MethodDef("f2", "Area", "a^2*n", (
                Binding("a", "p2", "component", 1),
                Binding("n", "p3", "scalar"),
            ), "cm^2")

        a, b = build(), build()
        assert a.program is not b.program
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert "program" not in repr(a) and repr(a) == repr(b)
        assert a.program((3.0, 2.0)) == 18.0
        renamed = replace(a, id="g2")
        assert (renamed.id, renamed.body) == ("g2", a.body) and renamed != a
        reshaped = replace(a, body="a*n")
        assert reshaped.program((3.0, 2.0)) == 6.0
        with pytest.raises(TypeError, match="declared with init=False"):
            replace(a, program=b.program)

    def test_methods_pickle_and_copy_with_a_working_body(self):
        method = MethodDef("f1", "Perimeter", "4*a", (Binding("a", "p2", "component", 1),), "cm")
        for twin in (pickle.loads(pickle.dumps(method)), copy.deepcopy(method)):
            assert twin == method and twin.program((2.0,)) == 8.0

    def test_method_equivalent_ignores_whitespace(self):
        a = MethodDef("f2", "Area", "a^2*sin(alpha)", (
            Binding("a", "p2", "component", 1),
            Binding("alpha", "p4", "component", 1),
        ))
        b = MethodDef("f2", "Area", "a ^ 2 * sin( alpha )", a.bindings)
        assert method_equivalent(a, b)
        c = MethodDef("f2", "Area", "a^2", (Binding("a", "p2", "component", 1),))
        assert not method_equivalent(a, c)


@pytest.mark.parametrize("module", [model, fuzzy, network, expr, modifiers, exploiters, dsl],
                         ids=lambda m: m.__name__)
def test_records_carry_no_instance_dict(module):
    # slotted records, and slotted bases, so that a network of records keeps
    # no per-record __dict__
    records = [
        c for c in vars(module).values()
        if isinstance(c, type) and c.__module__ == module.__name__ and is_record(c)
    ]
    assert records
    assert [c.__name__ for c in records if c.__dictoffset__] == []


class TestCompatibility:
    def test_semantic_mismatch_raises(self):
        with pytest.raises(SemanticMismatch):
            compat_degree(prop("q", "Length", CrispNumber(1.0)),
                          prop("q", "Weight", CrispNumber(1.0)))

    def test_absent_matches_anything(self):
        assert compat_degree(prop("q", "S", CrispNumber(7.0)), prop("q", "S", Absent())) == 1.0

    def test_crisp_equality(self):
        assert compat_degree(prop("q", "S", CrispNumber(4.0, "cm")),
                             prop("q", "S", CrispNumber(4.0, "cm"))) == 1.0
        assert compat_degree(prop("q", "S", CrispNumber(4.0, "cm")),
                             prop("q", "S", CrispNumber(5.0, "cm"))) == 0.0
        assert compat_degree(prop("q", "S", CrispTuple((95.0, 85.0))),
                             prop("q", "S", CrispTuple((95.0, 85.0)))) == 1.0

    def test_tuple_against_interval(self):
        inside = prop("q", "S", CrispTuple((95.0, 85.0), "deg"))
        window = prop("q", "S", Interval(0.0, 180.0, "deg"))
        assert compat_degree(inside, window) == 1.0
        outside = prop("q", "S", CrispTuple((95.0, 185.0), "deg"))
        assert compat_degree(outside, window) == 0.0
        bad_unit = prop("q", "S", CrispTuple((95.0, 85.0), "rad"))
        assert compat_degree(bad_unit, window) == 0.0

    def test_fuzzy_against_marker(self):
        marker = prop("q", "S", FuzzyMarker())
        assert compat_degree(prop("q", "S", Fuzzy(FS)), marker) == 1.0
        assert compat_degree(prop("q", "S", FuzzyTuple((FS, FS))), marker) == 1.0

    def test_fuzzy_against_fuzzy(self):
        assert compat_degree(prop("q", "S", Fuzzy(FS)), prop("q", "S", Fuzzy(FS))) == 1.0
        other = Fuzzy(make_fuzzy_set([(2.0, 1.0)], unit="cm"))
        assert compat_degree(prop("q", "S", Fuzzy(FS)), prop("q", "S", other)) == 0.0

    def test_truth_degrees(self):
        graded = prop("q", "S", TruthDegree(0.8))
        assert compat_degree(graded, prop("q", "S", FuzzyMarker())) == 0.8
        assert compat_degree(graded, prop("q", "S", CrispNumber(1.0))) == 0.8
        assert compat_degree(graded, prop("q", "S", CrispNumber(0.0))) == pytest.approx(0.2)
        assert compat_degree(graded, prop("q", "S", CrispNumber(3.0))) == 0.0
        assert compat_degree(graded, prop("q", "S", TruthDegree(0.8))) == 1.0
        assert compat_degree(graded, prop("q", "S", TruthDegree(0.7))) == 0.0

    def test_unrelated_variants_score_zero(self):
        assert compat_degree(prop("q", "S", CrispNumber(1.0)),
                             prop("q", "S", Fuzzy(FS))) == 0.0
        assert compat_degree(prop("q", "S", CrispNumber(0.5)),
                             prop("q", "S", FuzzyTuple((FS,)))) == 0.0

    @pytest.mark.parametrize("number, interval, degree", [
        (CrispNumber(90.0, "deg"), Interval(0.0, 180.0, "deg"), 1.0),
        (CrispNumber(180.0, "deg"), Interval(0.0, 180.0, "deg"), 0.0),
        (CrispNumber(180.0, "deg"), Interval(0.0, 180.0, "deg", hi_open=False), 1.0),
        (CrispNumber(0.0, "deg"), Interval(0.0, 180.0, "deg", lo_open=False), 1.0),
        (CrispNumber(200.0, "deg"), Interval(0.0, 180.0, "deg"), 0.0),
        (CrispNumber(90.0), Interval(0.0, 180.0, "deg"), 0.0),
        (CrispNumber(90.0, "cm"), Interval(0.0, 180.0, "deg"), 0.0),
        (CrispNumber(0.5), Interval(0.0, 1.0), 1.0),
    ], ids=["inside", "open bound", "closed bound", "closed low bound", "outside",
            "no unit", "other unit", "both unitless"])
    def test_number_against_interval_is_a_one_component_tuple(self, number, interval, degree):
        assert compat_degree(prop("q", "S", number), prop("q", "S", interval)) == degree
        as_tuple = CrispTuple((number.value,), number.unit)
        assert compat_degree(prop("q", "S", as_tuple), prop("q", "S", interval)) == degree

    def test_number_inside_an_interval_class_is_a_member(self):
        net, diags = parse_network(
            'class C { property p1 "A" = interval(0, 180) deg; }\n'
            'object O { p1 "A" = 90 deg; }\n'
            'object T { p1 "A" = (90, 90) deg; }\n'
            'object Out { p1 "A" = 180 deg; }\n'
        )
        assert [d for d in diags if d.severity == "error"] == []
        assert net.membership("O", "C") == 1.0
        assert net.membership("T", "C") == 1.0
        assert net.membership("Out", "C") == 0.0
        proposed = [(r.source, r.target, r.kind, r.degree) for r in net.infer_relations()]
        assert proposed == [("O", "C", "instance-of", 1.0), ("T", "C", "instance-of", 1.0)]


# Every object value variant against every class value variant, with a
# second class value of the same variant where content can differ.
_FS_ONE = make_fuzzy_set([(3.0, 1.0)], unit="cm")
TABLE_OBJECT_VALUES = {
    "num": CrispNumber(1.0),
    "num_near": CrispNumber(1.0 + 5e-10),
    "num_cm": CrispNumber(4.0, "cm"),
    "tup": CrispTuple((95.0, 85.0), "deg"),
    "tup_plain": CrispTuple((90.0, 90.0)),
    "ivl": Interval(0.0, 180.0, "deg"),
    "truth": TruthDegree(0.8),
    "fz": Fuzzy(FS),
    "fzt": FuzzyTuple((FS, FS)),
}
TABLE_CLASS_VALUES = {
    "num": CrispNumber(1.0),
    "num0": CrispNumber(0.0),
    "num_cm": CrispNumber(4.0, "cm"),
    "tup": CrispTuple((95.0, 85.0), "deg"),
    "tup_plain": CrispTuple((90.0, 90.0)),
    "ivl": Interval(0.0, 180.0, "deg"),
    "ivl_plain": Interval(80.0, 100.0),
    "truth": TruthDegree(0.8),
    "truth7": TruthDegree(0.7),
    "fz": Fuzzy(FS),
    "fz_one": Fuzzy(_FS_ONE),
    "fzt": FuzzyTuple((FS, FS)),
    "fzt_one": FuzzyTuple((FS,)),
    "marker": FuzzyMarker(),
    "absent": Absent(),
}
# the pairs that score above 0; every other pair scores exactly 0.0
TABLE_NONZERO = {
    ("num", "num"): 1.0,
    ("num_near", "num"): 1.0,
    ("num_cm", "num_cm"): 1.0,
    ("tup", "tup"): 1.0,
    ("tup", "ivl"): 1.0,
    ("tup_plain", "tup_plain"): 1.0,
    ("tup_plain", "ivl_plain"): 1.0,
    ("truth", "num"): 0.8,
    ("truth", "num0"): 1.0 - 0.8,
    ("truth", "truth"): 1.0,
    ("truth", "marker"): 0.8,
    ("fz", "fz"): 1.0,
    ("fz", "marker"): 1.0,
    ("fzt", "fzt"): 1.0,
    ("fzt", "marker"): 1.0,
    **{(o, "absent"): 1.0 for o in TABLE_OBJECT_VALUES},
}


@pytest.mark.parametrize("obj_value", TABLE_OBJECT_VALUES)
@pytest.mark.parametrize("class_value", TABLE_CLASS_VALUES)
def test_compat_degree_table(obj_value, class_value):
    # every number here lies outside the interval or carries another unit,
    # so only tuples score against an interval; an interval against an
    # interval scores 0
    degree = compat_degree(
        prop("q", "S", TABLE_OBJECT_VALUES[obj_value]),
        prop("q", "S", TABLE_CLASS_VALUES[class_value]),
    )
    assert degree == TABLE_NONZERO.get((obj_value, class_value), 0.0)


@pytest.mark.parametrize("class_value", TABLE_CLASS_VALUES)
def test_compat_degree_scores_a_missing_property(class_value):
    # a missing property has no semantic, so it cannot mismatch
    degree = compat_degree(None, prop("q", "S", TABLE_CLASS_VALUES[class_value]))
    assert degree == (1.0 if class_value == "absent" else 0.0)


class TestEntities:
    def test_class_validation(self):
        with pytest.raises(EmptyClass):
            define_class("T")
        with pytest.raises(ExtensionMissing):
            define_class("T", mode="extensional")
        with pytest.raises(ValueError):
            define_class("T", [prop("p1", "S", Absent())], extension=("A",))
        with pytest.raises(DuplicateId):
            define_class("T", [prop("p1", "S", Absent()), prop("p1", "S", Absent())])

    def test_extensional_class(self):
        cls = define_class("Set1", mode="extensional", extension=("Rb1", "Sq1"))
        obj = define_object("Rb1", [prop("p1", "Kind", CrispNumber(1.0))])
        assert membership_degree(obj, cls) == 1.0
        assert membership_degree(define_object("X", [prop("p1", "Kind", CrispNumber(1.0))]),
                                 cls) == 0.0

    @pytest.mark.parametrize("member", [1, None, ["Rb1"]], ids=["number", "none", "list"])
    def test_extension_members_are_strings(self, member):
        with pytest.raises(ValueError, match=f"^class member must be a string, got {re.escape(repr(member))}$"):
            define_class("C", mode="extensional", extension=["Rb1", member])

    @pytest.mark.parametrize("make", [
        lambda: define_class("C", [METHOD]),
        lambda: define_class("C", [Property("p1", "P", CrispNumber(1.0))], [Property("p2", "Q", Absent())]),
        lambda: define_object("O", [CrispNumber(1.0)]),
        lambda: define_object("O", [], ["f1"]),
    ], ids=["method as property", "property as method", "value as property", "name as method"])
    def test_specifications_hold_properties_and_signatures_methods(self, make):
        with pytest.raises(ValueError, match="a specification holds properties and a signature methods"):
            make()

    def test_heterogeneous_class_needs_two(self):
        a = define_class("A", [prop("p1", "S", Absent())])
        with pytest.raises(ValueError):
            HeterogeneousClass("U", (a,))
        with pytest.raises(DuplicateId):
            HeterogeneousClass("U", (a, a))

    def test_heterogeneous_projections_are_homogeneous_classes(self):
        # what union can build: a heterogeneous argument is refused there too
        a = define_class("A", [prop("p1", "S", Absent())])
        b = define_class("B", [prop("p2", "W", Absent())])
        inner = HeterogeneousClass("U", (a, b))
        with pytest.raises(ValueError, match="homogeneous class"):
            HeterogeneousClass("V", (inner, define_class("C", [prop("p3", "X", Absent())])))
        with pytest.raises(ValueError, match="homogeneous class"):
            HeterogeneousClass("V", (a, define_object("O", [prop("p1", "S", CrispNumber(1.0))])))

    def test_objects_reject_abstract_values(self):
        with pytest.raises(AbstractValueOnObject):
            define_object("O", [prop("p1", "S", FuzzyMarker())])
        with pytest.raises(AbstractValueOnObject):
            define_object("O", [prop("p1", "S", Absent())])

    def test_entity_kind(self):
        obj = define_object("O", [prop("p1", "S", CrispNumber(1.0))])
        cls = define_class("T", [prop("p1", "S", Absent())])
        het = HeterogeneousClass("U", (cls, define_class("T2", [prop("p1", "S", Absent())])))
        assert entity_kind(obj) == "object"
        assert entity_kind(cls) == "class"
        assert entity_kind(het) == "class"
        with pytest.raises(TypeError, match="^not an entity: 'O'$"):
            entity_kind("O")

    def test_is_fuzzy_entity(self):
        obj = define_object("O", [
            prop("p1", "Kind", CrispNumber(1.0)),
            prop("p2", "Side", Fuzzy(FS)),
            prop("p6", "Regular", TruthDegree(0.8)),
        ])
        verdict, ids = is_fuzzy_entity(obj)
        assert verdict and ids == ("p2", "p6")
        crisp_obj = define_object("O2", [prop("p1", "Kind", CrispNumber(1.0))])
        assert is_fuzzy_entity(crisp_obj) == (False, ())

    def test_is_fuzzy_entity_heterogeneous(self):
        a = define_class("A", [prop("p1", "S", FuzzyMarker())])
        b = define_class("B", [prop("p2", "W", CrispNumber(2.0))])
        verdict, ids = is_fuzzy_entity(HeterogeneousClass("U", (a, b)))
        assert verdict and ids == ("p1@A",)


class TestMembership:
    def make_pair(self):
        cls = define_class("T", [
            prop("p1", "Kind", CrispNumber(1.0)),
            prop("p4", "Angle", Interval(0.0, 180.0, "deg")),
            prop("p6", "Regular", CrispNumber(1.0)),
        ])
        obj = define_object("O", [
            prop("p1", "Kind", CrispNumber(1.0)),
            prop("p4", "Angle", CrispTuple((95.0, 85.0), "deg")),
            prop("p6", "Regular", TruthDegree(0.8)),
        ])
        return obj, cls

    def test_min_aggregation(self):
        obj, cls = self.make_pair()
        assert membership_degree(obj, cls) == pytest.approx(0.8)

    def test_product_aggregation(self):
        obj, cls = self.make_pair()
        assert membership_degree(obj, cls, tnorm="product") == pytest.approx(0.8)

    def test_an_unknown_tnorm_is_refused_for_every_class_mode(self):
        obj, cls = self.make_pair()
        listed = define_class("L", mode="extensional", extension=("O",))
        for target in (cls, listed, HeterogeneousClass("U", (listed, cls))):
            with pytest.raises(EvaluationError, match="unknown t-norm 'bogus'"):
                membership_degree(obj, target, "bogus")

    def test_missing_property_scores_zero(self):
        cls = define_class("T", [
            prop("p1", "Kind", CrispNumber(1.0)),
            prop("p9", "Extra", CrispNumber(3.0)),
        ])
        obj = define_object("O", [prop("p1", "Kind", CrispNumber(1.0))])
        assert membership_degree(obj, cls) == 0.0

    def test_missing_but_absent_is_fine(self):
        cls = define_class("T", [
            prop("p1", "Kind", CrispNumber(1.0)),
            prop("p9", "Extra", Absent()),
        ])
        obj = define_object("O", [prop("p1", "Kind", CrispNumber(1.0))])
        assert membership_degree(obj, cls) == 1.0

    def test_heterogeneous_takes_best_projection(self):
        a = define_class("A", [prop("p1", "Kind", CrispNumber(1.0))])
        b = define_class("B", [prop("p1", "Kind", CrispNumber(2.0))])
        obj = define_object("O", [prop("p1", "Kind", CrispNumber(2.0))])
        het = HeterogeneousClass("U", (a, b))
        assert membership_degree(obj, a) == 0.0
        assert membership_degree(obj, het) == 1.0

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        obj, cls = self.make_pair()
        with pytest.raises(ValueError, match="tolerance"):
            membership_degree(obj, cls, "min", tol)
        assert membership_degree(obj, cls, "min", 0.0) == pytest.approx(0.8)
