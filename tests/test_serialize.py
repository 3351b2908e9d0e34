from __future__ import annotations

import json

import pytest

from foodn.errors import CorruptDocument, SchemaVersionMismatch, UnknownEntity
from foodn.fuzzy import make_fuzzy_set
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

    def test_too_deep_method_body_is_corrupt(self, polygons):
        doc = to_document(polygons)
        [rb1] = [o for o in doc["objects"] if o["name"] == "Rb1"]
        rb1["methods"][0]["body"] = "+".join(["a"] * 2000)
        with pytest.raises(CorruptDocument, match="deeper than"):
            loads(json.dumps(doc))

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
        from foodn.network import Network
        from foodn.model import define_object
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
