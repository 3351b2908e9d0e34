from __future__ import annotations

import copy
import json
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DISJOINT, POLYGONS
from foodn import Network, eval_method, expr, serialize
from foodn.dsl import parse_network
from foodn.errors import CorruptDocument, FoodnError, SchemaVersionMismatch, UnknownEntity
from foodn.fuzzy import FuzzySet, make_fuzzy_set
from foodn.model import (
    Absent,
    Binding,
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
    define_class,
    define_object,
)
from foodn.serialize import (
    dumps,
    entity_from_doc,
    entity_to_doc,
    export_dot,
    from_document,
    load_file,
    loads,
    save_file,
    to_document,
    value_from_doc,
    value_to_doc,
)

FS = make_fuzzy_set([(1.8, 0.9), (2.0, 1.0)], unit="cm")


def generated_network(n_objects):
    """Objects that inherit their class's methods, and every fourth object
    with a method of its own that differs from the others only in its binding."""
    lines = [
        'class T_A {',
        '  property p2 "Sides" : fuzzy;',
        '  method f1 "Perimeter" = "sum(a)" bind a = p2[*] unit cm;',
        '  method f2 "Scaled side" = "4*a" bind a = p2[1] unit cm;',
        '}',
        'class T_B {',
        '  property p2 "Sides" : fuzzy;',
        '  method f1 "Perimeter" = "sum(a)" bind a = p2[*] unit cm;',
        '}',
    ]
    for i in range(n_objects):
        lines += [f"object O{i} : {'T_A' if i % 2 else 'T_B'} {{", f"  p2 = [{{{i + 1}/1}} cm] * 3;"]
        if i % 4 == 0:
            lines.append(f'  method g "Scaled side" = "4*a" bind a = p2[{i // 4 + 1}] unit cm;')
        lines.append("}")
    return parse_network("\n".join(lines))[0]

ALL_VALUES = [
    CrispNumber(4.0, "cm"),
    CrispNumber(0.8),
    CrispTuple((95.0, 85.0), "deg"),
    Interval(0.0, 180.0, "deg"),
    Interval(0.0, 1.0, None, False, False),
    TruthDegree(0.8),
    FuzzyMarker(),
    Absent(),
    Fuzzy(FS),
    FuzzyTuple((FS, FS)),
]


class TestValueDocs:
    @pytest.mark.parametrize("value", ALL_VALUES, ids=lambda v: type(v).__name__)
    def test_round_trip(self, value):
        assert value_from_doc(value_to_doc(value)) == value

    def test_unknown_kind(self):
        with pytest.raises(CorruptDocument, match="unknown value kind"):
            value_from_doc({"kind": "matrix"})

    def test_missing_field(self):
        with pytest.raises(CorruptDocument):
            value_from_doc({"kind": "number"})

    @pytest.mark.parametrize("doc", [
        {"kind": "interval", "lo": 2.0, "hi": 1.0, "unit": "cm", "lo_open": True, "hi_open": True},
        {"kind": "number", "value": "abc", "unit": None},
        {"kind": "truth", "value": 2},
    ], ids=["empty interval", "number text", "truth above one"])
    def test_refused_values_are_corrupt(self, doc):
        with pytest.raises(CorruptDocument, match="bad value document"):
            value_from_doc(doc)


class TestEntityDocs:
    def test_class_round_trip(self, polygons):
        for name in ("T_Pg", "T_Rb", "T_Sq"):
            entity = polygons.entity(name)
            assert entity_from_doc(entity_to_doc(entity)) == entity

    def test_object_round_trip(self, polygons):
        rb1 = polygons.entity("Rb1")
        back = entity_from_doc(entity_to_doc(rb1))
        assert back == rb1
        assert back.declared_class == "T_Rb"

    def test_heterogeneous_round_trip(self):
        het = HeterogeneousClass("U", (
            define_class("A", [Property("p1", "S", Absent())]),
            define_class("B", [Property("p2", "W", CrispNumber(2.0, "kg"))]),
        ))
        assert entity_from_doc(entity_to_doc(het)) == het

    @pytest.mark.parametrize("refused", ["no members", "heterogeneous projection"])
    def test_refused_entities_are_corrupt(self, refused):
        a = define_class("A", [Property("p1", "S", Absent())])
        b = define_class("B", [Property("p2", "W", Absent())])
        if refused == "no members":
            doc = {**entity_to_doc(a), "properties": []}
        else:
            inner = HeterogeneousClass("U", (a, b))
            projections = [entity_to_doc(inner), entity_to_doc(a)]
            doc = {"kind": "heterogeneous-class", "name": "V", "projections": projections}
        with pytest.raises(CorruptDocument, match="bad entity document"):
            entity_from_doc(doc)

    def test_member_lists_are_sorted_by_id(self):
        cls = define_class("T", [
            Property("p9", "Nine", CrispNumber(9.0)),
            Property("p1", "One", CrispNumber(1.0)),
        ], [
            MethodDef("f2", "Late", "a", (Binding("a", "p1", "scalar"),)),
            MethodDef("f1", "Early", "b", (Binding("b", "p9", "scalar"),)),
        ])
        doc = entity_to_doc(cls)
        assert [p["id"] for p in doc["properties"]] == ["p1", "p9"]
        assert [m["id"] for m in doc["methods"]] == ["f1", "f2"]


class TestNetworkDocs:
    def test_serialize_fixpoint(self, polygons):
        text = dumps(polygons)
        assert dumps(loads(text)) == text

    def test_fixpoint_survives_dynamics(self, polygons):
        polygons.apply_exploiter("intersection", ["T_Rb", "T_Sq"])
        polygons.apply_modifier("M1_Sq1", "Sq1")
        text = dumps(polygons)
        assert dumps(loads(text)) == text

    def test_document_shape(self, polygons):
        doc = to_document(polygons)
        assert doc["foodn_version"] == 1
        assert [e["name"] for e in doc["objects"]] == ["Rb1", "Sq1"]
        assert [e["name"] for e in doc["classes"]] == ["T_Pg", "T_Rb", "T_Sq"]
        assert [e["kind"] for e in doc["exploiters"]] == [
            "clone", "difference", "intersection", "sym-difference", "union",
        ]
        rels = [(r["source"], r["target"], r["kind"]) for r in doc["relations"]]
        assert rels == sorted(rels)

    def test_round_trip_preserves_dynamics(self, polygons):
        polygons.apply_modifier("M1_Sq1", "Sq1")
        back = loads(dumps(polygons))
        assert back.history == {"Sq1": "object"}
        assert len(back.provenance) == 1
        assert back.provenance[0].op == "M1_Sq1"
        assert back.entity("Rb1_2") == polygons.entity("Rb1_2")
        # relations to the retired name survive the reload
        assert back.query_related("Rb1_2", "modification-of") == ["Sq1"]

    def test_version_mismatch(self, polygons):
        doc = to_document(polygons)
        doc["foodn_version"] = 2
        with pytest.raises(SchemaVersionMismatch):
            from_document(doc)
        del doc["foodn_version"]
        with pytest.raises(SchemaVersionMismatch):
            from_document(doc)

    def test_corrupt_documents(self, polygons):
        with pytest.raises(CorruptDocument, match="not valid JSON"):
            loads("{nope")
        with pytest.raises(CorruptDocument, match="JSON object"):
            from_document(["a", "list"])
        doc = to_document(polygons)
        del doc["relations"]
        with pytest.raises(CorruptDocument, match="missing key"):
            from_document(doc)
        doc = to_document(polygons)
        del doc["objects"][0]["properties"][0]["semantic"]
        with pytest.raises(CorruptDocument):
            from_document(doc)

    def test_too_deep_json_is_corrupt(self):
        with pytest.raises(CorruptDocument, match="not valid JSON"):
            loads("[" * 100000 + "]" * 100000)

    def test_too_deep_method_body_is_corrupt(self, polygons):
        doc = to_document(polygons)
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        rb1["methods"][0]["body"] = "+".join(["a"] * 2000)
        with pytest.raises(CorruptDocument, match="deeper than"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("index", [1.5, 2.0, 1.0, True])
    def test_non_integer_binding_index_is_corrupt(self, polygons, index):
        # T_Rb's f1 binds p2[1] and loads first; an equal-looking 1.0 or
        # true in Rb1's copy must still be checked, not matched to it
        doc = to_document(polygons)
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        [f1] = [m for m in rb1["methods"] if m["id"] == "f1"]
        f1["bindings"][0]["index"] = index
        with pytest.raises(CorruptDocument, match="1-based integers"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("field, value", [
        ("property id", 6), ("method id", 7), ("method result_unit", 5), ("binding prop", 2),
        ("modifier name", 5), ("modifier target_class", 3), ("change prop", 4),
    ])
    def test_non_string_names_are_corrupt(self, polygons, field, value):
        # refused at load, before it can answer wrongly or crash later
        doc = to_document(polygons)
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        [p6] = [p for p in rb1["properties"] if p["id"] == "p6"]
        [f1] = [m for m in rb1["methods"] if m["id"] == "f1"]
        [m1] = [m for m in doc["modifiers"] if m["name"] == "M1_Sq1"]
        owner, key = {
            "property id": (p6, "id"),
            "method id": (f1, "id"),
            "method result_unit": (f1, "result_unit"),
            "binding prop": (f1["bindings"][0], "prop"),
            "modifier name": (m1, "name"),
            "modifier target_class": (m1, "target_class"),
            "change prop": (m1["changes"][0], "prop"),
        }[field]
        owner[key] = value
        with pytest.raises(CorruptDocument, match=f"{field} must be a string"):
            loads(json.dumps(doc))

    def test_empty_modifier_target_is_corrupt(self, polygons):
        doc = to_document(polygons)
        [m1] = [m for m in doc["modifiers"] if m["name"] == "M1_Sq1"]
        m1["target_name"] = ""
        with pytest.raises(CorruptDocument, match="target_name must be non-empty"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("key, value, message", [
        ("op", 5, "provenance op must be a string"),
        ("target", ["x"], "provenance target must be a string"),
        ("sources", [1, None], "provenance source must be a string"),
        ("sources", ["Sq1", None], "provenance source must be a string"),
        ("sources", "Sq1", "provenance sources must be a list"),
        ("seq", True, "provenance seq must be a finite integer"),
        ("seq", 1.0, "provenance seq must be a finite integer"),
        ("seq", "1", "provenance seq must be a finite integer"),
    ])
    def test_malformed_provenance_is_corrupt(self, polygons, key, value, message):
        polygons.apply_modifier("M1_Sq1", "Sq1")
        text = dumps(polygons)
        assert dumps(loads(text)) == text  # the well-formed record round-trips
        doc = json.loads(text)
        doc["provenance"][0][key] = value
        with pytest.raises(CorruptDocument, match=f"bad network document: {message}"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("history, message", [
        ({"Sq1": 5, "Zed": []}, "history kind of 'Sq1' must be object or class, got 5"),
        ({"Gone": "thing"}, "history kind of 'Gone' must be object or class, got 'thing'"),
        ({"": "object"}, "history name must be non-empty"),
        (["Sq"], "history must be an object"),  # dict() would read {'S': 'q'}
    ], ids=["number and list kinds", "unknown kind", "empty name", "list"])
    def test_malformed_history_is_corrupt(self, polygons, history, message):
        doc = to_document(polygons)
        doc["history"] = history
        with pytest.raises(CorruptDocument, match=f"bad network document: {re.escape(message)}"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("edit", [
        lambda five: 5,
        lambda five: "x",
        lambda five: [],
        lambda five: [{"kind": "teleport", "arity": "9"}],
        lambda five: five[1:],
        lambda five: [*five, five[0]],
        lambda five: [{**five[0], "arity": "2"}, *five[1:]],
    ], ids=["number", "string", "empty", "unknown kind", "one missing", "one twice", "arity"])
    def test_malformed_exploiters_are_corrupt(self, polygons, edit):
        # the loader rebuilds the universal five, so any other list would not survive a save
        doc = to_document(polygons)
        doc["exploiters"] = edit(doc["exploiters"])
        with pytest.raises(CorruptDocument, match="bad network document: exploiters must be"):
            loads(json.dumps(doc))
        del doc["exploiters"]
        with pytest.raises(CorruptDocument, match="missing key 'exploiters'"):
            loads(json.dumps(doc))

    def test_a_retired_name_that_is_live_again_still_loads(self, polygons):
        polygons.apply_modifier("M1_Sq1", "Sq1")
        polygons.apply_modifier("M2_Rb1", "Rb1_2")  # binds the retired Sq1 again
        assert "Sq1" in polygons.objects and polygons.history["Sq1"] == "object"
        text = dumps(polygons)
        assert dumps(loads(text)) == text

    @pytest.mark.parametrize("extension, message", [
        ("Rb1", "class extension must be a list"),  # tuple() would read ('R', 'b', '1')
        ({"Rb1": 1}, "class extension must be a list"),  # tuple() would read its keys
        ([5, "Rb1"], "class member must be a string"),  # a later save would fail to sort it
    ], ids=["string", "object", "number member"])
    def test_malformed_extension_is_corrupt(self, polygons, extension, message):
        polygons.apply_exploiter("union", ["Rb1", "Sq1"])
        text = dumps(polygons)
        assert loads(text).classes["union_Rb1_Sq1"].extension == ("Rb1", "Sq1")
        doc = json.loads(text)
        [union] = [c for c in doc["classes"] if c["name"] == "union_Rb1_Sq1"]
        union["extension"] = extension
        with pytest.raises(CorruptDocument, match=f"bad network document: {message}"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [
        "number", "tuple", "interval", "fuzzy support", "change", "provenance seq",
    ])
    def test_non_finite_numbers_are_corrupt(self, polygons, where, x):
        polygons.apply_modifier("M1_Sq1", "Sq1")
        doc = to_document(polygons)
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        [t_rb] = [c for c in doc["classes"] if c["name"] == "T_Rb"]
        values = {p["id"]: p["value"] for p in rb1["properties"]}
        angles = next(p["value"] for p in t_rb["properties"] if p["value"]["kind"] == "interval")
        [m1] = [m for m in doc["modifiers"] if m["name"] == "M1_Sq1"]
        if where == "number":
            values["p1"]["value"] = x
        elif where == "tuple":
            values["p4"]["values"][1] = x
        elif where == "interval":
            angles["hi"] = x
        elif where == "fuzzy support":
            values["p2"]["values"][0]["elements"][0][0] = x
        elif where == "change":
            m1["changes"][0]["after"]["values"][0] = x
        else:
            doc["provenance"][0]["seq"] = x
        text = json.dumps(doc)  # writes Infinity, -Infinity or NaN
        with pytest.raises(CorruptDocument, match="bad network document: .*(finite|convert float)"):
            loads(text)

    @pytest.mark.parametrize("where, value, message", [
        ("class name", 2.5, "class name must be a string"),  # sorting names would fail
        ("projection name", 2, "class name must be a string"),
        ("object name", ["Rb1"], "object name must be a string"),
        ("declared class", 5, "object declared_class must be a string"),
        ("unit", {}, "a unit must be a string or null"),  # unhashable in infer_relations
        ("fuzzy unit", ["cm"], "a unit must be a string or null"),
        ("interval flag", [], "an interval bound flag must be true or false"),
        ("interval flag", 1, "an interval bound flag must be true or false"),
        ("degree", True, "expected a number, got True"),  # would be written back as true
        ("degree", "0.5", "expected a number, got '0.5'"),
        ("value", "4", "expected a number, got '4'"),  # float() would read 4.0
        ("value", False, "expected a number, got False"),
        ("tuple component", "90", "expected a number, got '90'"),
        ("fuzzy degree", True, "expected a number, got True"),
    ])
    def test_mistyped_fields_are_corrupt(self, polygons, where, value, message):
        polygons.apply_exploiter("union", ["T_Rb", "T_Sq"])
        doc = to_document(polygons)
        [union] = [c for c in doc["classes"] if c["name"] == "union_T_Rb_T_Sq"]
        [t_pg] = [c for c in doc["classes"] if c["name"] == "T_Pg"]
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        values = {p["id"]: p["value"] for p in rb1["properties"]}
        angles = next(p["value"] for p in t_pg["properties"] if p["id"] == "p4")
        owner, key = {
            "class name": (t_pg, "name"),
            "projection name": (union["projections"][0], "name"),
            "object name": (rb1, "name"),
            "declared class": (rb1, "declared_class"),
            "unit": (angles, "unit"),
            "fuzzy unit": (values["p2"]["values"][0], "unit"),
            "interval flag": (angles, "lo_open"),
            "degree": (doc["relations"][0], "degree"),
            "value": (values["p1"], "value"),
            "tuple component": (values["p4"]["values"], 0),
            "fuzzy degree": (values["p2"]["values"][0]["elements"][0], 1),
        }[where]
        owner[key] = value
        with pytest.raises(CorruptDocument, match=f"bad network document: {re.escape(message)}"):
            loads(json.dumps(doc))

    def test_relation_degrees_are_stored_as_floats(self, polygons):
        polygons.add_relation("Rb1", "Sq1", "association", 1)
        [relation] = [r for r in polygons.relations if r.kind == "association"]
        assert type(relation.degree) is float
        assert '"degree": 1.0' in dumps(polygons)

    def test_family_outside_sum_is_corrupt(self, polygons):
        doc = to_document(polygons)
        [t_pg] = [c for c in doc["classes"] if c["name"] == "T_Pg"]
        assert t_pg["methods"][0]["bindings"][0]["accessor"] == "all"
        t_pg["methods"][0]["body"] = "a + 1"
        with pytest.raises(CorruptDocument, match="inside sum"):
            loads(json.dumps(doc))

    def test_equal_method_documents_share_one_methoddef(self, monkeypatch):
        text = dumps(generated_network(12))
        doc = json.loads(text)
        documents = [m for e in doc["classes"] + doc["objects"] for m in e["methods"]]
        distinct = {json.dumps(m, sort_keys=True) for m in documents}
        assert len(documents) > 3 * len(distinct)
        calls = []
        parse = expr.parse_expr
        monkeypatch.setattr(expr, "parse_expr", lambda body: calls.append(body) or parse(body))
        net = loads(text)
        assert len(calls) == len(distinct)
        assert dumps(net) == text
        f1 = net.entity("T_A").get_method("f1")
        assert net.entity("O1").get_method("f1") is f1
        assert net.entity("O3").get_method("f1") is f1
        assert net.entity("T_B").get_method("f1") is f1  # an equal document in another class
        # same id, body and unit, different bindings: kept apart
        g = [net.entity(f"O{i}").get_method("g") for i in (0, 4, 8)]
        assert [m.bindings[0].index for m in g] == [1, 2, 3]

    def test_load_file_dispatch(self, polygons, tmp_path):
        json_path = tmp_path / "net.json"
        save_file(polygons, str(json_path))
        net, warnings = load_file(str(json_path))
        assert warnings == []
        assert dumps(net) == dumps(polygons)

        foodn_path = tmp_path / "net.foodn"
        foodn_path.write_text('class T { property p1 "P" = 1; }\n')
        net, warnings = load_file(str(foodn_path))
        assert warnings == []
        assert "T" in net.classes

    def test_dumps_is_pretty_sorted_json(self, polygons):
        text = dumps(polygons)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)


def answer(call, *args):
    """What a call returns, or the type and message of the FoodnError it raises."""
    try:
        return call(*args)
    except FoodnError as exc:
        return type(exc), str(exc)


class TestRoutesAgree:
    """A network read from .foodn text and the same network read back from
    its JSON document hold the same sets and give the same answers."""

    def test_close_supports_survive_both_routes(self):
        net = Network()
        fs = FuzzySet(((0.0, 1.0), (1e-10, 0.5)), "cm")
        net.add(define_object("O", [Property("p1", "A", Fuzzy(fs))]))
        text_net, _ = parse_network('object O { p1 "A" = {0/1 + 1e-10/0.5} cm; }')
        assert dumps(text_net) == dumps(net)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
    @pytest.mark.parametrize("path", [POLYGONS, DISJOINT], ids=["polygons", "disjoint"])
    def test_membership_and_methods_agree_at_any_tolerance(self, path, tol):
        with open(path, encoding="utf-8") as fh:
            dsl_net, _ = parse_network(fh.read(), tol)
        json_net = loads(dumps(dsl_net), tol)
        assert json_net.tol == dsl_net.tol == tol
        assert dumps(json_net) == dumps(dsl_net)
        for obj in dsl_net.objects:
            for cls in dsl_net.classes:
                for tnorm in ("min", "product"):
                    want = answer(dsl_net.membership, obj, cls, tnorm)
                    assert answer(json_net.membership, obj, cls, tnorm) == want
        for name, entity in {**dsl_net.objects, **dsl_net.classes}.items():
            twin = json_net.objects.get(name) or json_net.classes[name]
            for method in getattr(entity, "signature", ()):
                want = answer(eval_method, entity, method.id, tol)
                assert answer(eval_method, twin, method.id, tol) == want


def stdlib_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e300, 0.1, -2.5]
EDGE_INTS = [2**53 + 1, -(2**63), 10**30, 0, -1]
# quotes, backslashes, control characters, DEL, Latin-1, a line separator,
# CJK and a character outside the BMP
EDGE_CHARS = '"\\/\x00\x08\t\n\r\x1f\x7f a\u00e9\u2028\u4e2d\U0001f600'
strings = st.text(alphabet=st.sampled_from(EDGE_CHARS), max_size=6) | st.text(max_size=6)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    strings,
)
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=40,
)


class TestEmitter:
    """serialize._emit_json against the stdlib encoder it replaces; called
    directly, so it is checked on every interpreter, not only below 3.13."""

    @settings(max_examples=300, deadline=None)
    @given(tree=json_trees)
    def test_matches_stdlib_json(self, tree):
        assert serialize._emit_json(tree) == stdlib_json(tree)

    @pytest.mark.parametrize("leaf", EDGE_FLOATS + EDGE_INTS + [True, False, None, "", EDGE_CHARS])
    def test_edge_leaves(self, leaf):
        for doc in (leaf, [leaf], {"k": leaf}, {"a": [leaf, {EDGE_CHARS: (leaf,)}], "": {}}):
            assert serialize._emit_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [{1, 2}, object(), {1: "a"}, [{"a": {(1, 2): 0}}], {"a": [b"bytes"]}],
        ids=["set", "object", "int-key", "nested-tuple-key", "bytes"],
    )
    def test_other_types_are_refused(self, doc):
        with pytest.raises(TypeError):
            serialize._emit_json(doc)


class TestDumpsBytes:
    """dumps writes exactly what json.dumps(sort_keys=True, indent=2) writes,
    whichever encoder the interpreter selected."""

    def check(self, net):
        assert dumps(net) == stdlib_json(to_document(net)) + "\n"

    def test_fixtures(self, polygons, disjoint):
        self.check(polygons)
        self.check(disjoint)

    def test_dynamic_network(self, polygons):
        # provenance, history, changes and retired names all non-empty
        polygons.apply_modifier("M1_Sq1", "Sq1")
        polygons.apply_exploiter("clone", ["Rb1"])
        doc = to_document(polygons)
        assert doc["provenance"] and doc["history"] and doc["provenance"][0]["changes"]
        self.check(polygons)

    def test_generated_network(self):
        self.check(generated_network(300))

    def test_failed_save_keeps_the_file(self, polygons, tmp_path, monkeypatch):
        path = tmp_path / "net.json"
        save_file(polygons, str(path))
        before = path.read_bytes()
        assert before

        def broken(net):
            raise RuntimeError("to_document failed")

        monkeypatch.setattr(serialize, "to_document", broken)
        with pytest.raises(RuntimeError):
            save_file(polygons, str(path))
        assert path.read_bytes() == before


class TestPickleAndCopy:
    """The slotted records pickle under every protocol and deep-copy; the
    copy of a network is the same network."""

    def check(self, net):
        text = dumps(net)
        twins = [pickle.loads(pickle.dumps(net, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.deepcopy(net)]:
            assert twin is not net
            assert (twin.objects, twin.classes) == (net.objects, net.classes)
            assert twin.relations == net.relations
            assert twin.modifiers == net.modifiers
            assert (twin.provenance, twin.history) == (net.provenance, net.history)
            assert dumps(twin) == text

    def test_fixtures(self, polygons, disjoint):
        self.check(polygons)
        self.check(disjoint)

    def test_dynamic_network(self, polygons):
        polygons.apply_modifier("M1_Sq1", "Sq1")
        polygons.apply_exploiter("clone", ["Rb1"])
        assert polygons.provenance[0].changes and polygons.history
        self.check(polygons)
        twin = pickle.loads(pickle.dumps(polygons))
        for name in ("Rb1", "Rb1_2"):  # the copied methods are compiled again
            assert eval_method(twin.entity(name), "f1") == eval_method(polygons.entity(name), "f1")


class TestDot:
    def test_plain_graph(self, polygons):
        dot = export_dot(polygons)
        assert dot.startswith("digraph foodn {")
        assert '"Rb1" [shape=box];' in dot
        assert '"T_Rb" [shape=ellipse];' in dot
        assert '"Rb1" -> "T_Rb" [label="instance-of"];' in dot
        assert '"T_Sq" -> "T_Rb" [label="is-a"];' in dot

    def test_historical_names_are_dotted(self, polygons):
        polygons.apply_modifier("M1_Sq1", "Sq1")
        dot = export_dot(polygons)
        assert '"Sq1" [shape=box, style=dotted];' in dot
        assert '"Rb1_2" -> "Sq1" [label="modification-of", style=dashed];' in dot

    def test_graded_relation_label(self):
        net = Network()
        net.add(define_object("A", [Property("p1", "P", CrispNumber(1.0))]))
        net.add(define_class("C", [Property("p1", "P", CrispNumber(1.0))]))
        net.add_relation("A", "C", "instance-of", 0.8)
        assert '[label="instance-of 0.8"]' in export_dot(net)

    def test_overlay(self, polygons):
        dot = export_dot(polygons, overlay=["T_Rb", "T_Sq"])
        assert '"∪(T_Rb, T_Sq)" [shape=hexagon];' in dot
        assert '"∩(T_Rb, T_Sq)" [shape=hexagon, style=dashed];' in dot
        assert '"∖(T_Rb, T_Sq)" [shape=hexagon, style=dashed];' in dot
        assert '"÷(T_Rb, T_Sq)" [shape=hexagon, style=dashed];' in dot
        assert '"clone(T_Rb)" [shape=hexagon];' in dot
        assert '"T_Rb" -> "∩(T_Rb, T_Sq)" [label="∩", style=dashed];' in dot

    def test_overlay_arity(self, polygons):
        dot = export_dot(polygons, overlay=["T_Pg", "T_Rb", "T_Sq"])
        assert "∪(T_Pg, T_Rb, T_Sq)" in dot
        assert "∖" not in dot  # binary-only operations drop out

    def test_overlay_unknown_entity(self, polygons):
        with pytest.raises(UnknownEntity):
            export_dot(polygons, overlay=["Nope"])

    def test_heterogeneous_is_doubled(self, polygons):
        polygons.apply_exploiter("union", ["T_Rb", "T_Sq"], result_name="RbOrSq")
        dot = export_dot(polygons)
        assert '"RbOrSq" [shape=ellipse, peripheries=2];' in dot
