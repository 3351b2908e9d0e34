from __future__ import annotations

import pytest

from foodn.errors import (
    ArityError,
    DegreeOutOfRange,
    DoesNotExist,
    DuplicateName,
    KindMismatch,
    NameCollision,
    NotApplicable,
    ReflectionWarning,
    SemanticMismatch,
    UnknownEndpoint,
    UnknownEntity,
    UnknownExploiter,
    UnknownModifier,
)
from foodn.exploiters import UNIVERSAL_EXPLOITERS
from foodn.model import (
    Absent,
    CrispNumber,
    MethodDef,
    Property,
    TruthDegree,
    compat_degree,
    define_class,
    define_object,
    membership_degree,
)
from foodn.modifiers import Change, define_modifier
from foodn.network import Network, ProvenanceRecord, Relation
from foodn.serialize import dumps, entity_to_doc, loads, to_document
from oracles import oracle_infer


def small_network():
    net = Network()
    net.add(define_object("O1", [Property("p1", "Kind", CrispNumber(1.0))]))
    net.add(define_object("O2", [Property("p1", "Kind", CrispNumber(2.0))]))
    net.add(define_class("C1", [Property("p1", "Kind", CrispNumber(1.0))]))
    net.add(define_class("C2", [Property("p1", "Kind", Absent())]))
    return net


class TestConstruction:
    def test_duplicate_names_rejected(self):
        net = small_network()
        with pytest.raises(DuplicateName):
            net.add(define_object("O1", [Property("p1", "Kind", CrispNumber(9.0))]))
        with pytest.raises(DuplicateName):
            net.add(define_class("O1", [Property("p1", "Kind", Absent())]))

    def test_relation_endpoint_rules(self):
        net = small_network()
        net.add_relation("O1", "C1", "instance-of")
        net.add_relation("C1", "C2", "is-a")
        net.add_relation("C1", "C2", "a-kind-of")
        net.add_relation("O1", "O2", "association")
        with pytest.raises(KindMismatch, match="instance-of"):
            net.add_relation("C1", "C2", "instance-of")
        with pytest.raises(KindMismatch, match="is-a"):
            net.add_relation("O1", "O2", "is-a")
        with pytest.raises(KindMismatch, match="one kind"):
            net.add_relation("O1", "C1", "modification-of")
        with pytest.raises(KindMismatch, match="unknown relation kind"):
            net.add_relation("O1", "C1", "likes")

    def test_unknown_endpoint(self):
        net = small_network()
        with pytest.raises(UnknownEndpoint):
            net.add_relation("O1", "Nope", "association")

    def test_duplicate_relations(self):
        net = small_network()
        net.add_relation("O1", "C1", "instance-of", 0.8)
        net.add_relation("O1", "C1", "instance-of", 0.8)  # exact repeat: no-op
        assert len(net.relations) == 1
        with pytest.raises(DuplicateName, match="different degree"):
            net.add_relation("O1", "C1", "instance-of", 0.9)

    def test_graded_degree_bounds(self):
        net = small_network()
        with pytest.raises(Exception):
            net.add_relation("O1", "C1", "instance-of", 1.5)

    @pytest.mark.parametrize("degree", ["0.5", True, None])
    def test_relation_degree_must_be_a_number(self, degree):
        # "0.5" once read as 0.5 and True as 1.0; a document refuses both
        with pytest.raises(TypeError, match="^expected a number, got "):
            Relation("O1", "C1", "instance-of", degree)
        net = small_network()
        with pytest.raises(TypeError, match="^expected a number, got "):
            net.add_relation("O1", "C1", "instance-of", degree)
        assert net.relations == []

    def test_an_int_degree_is_read_as_a_float(self):
        assert type(Relation("O1", "C1", "instance-of", 1).degree) is float

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), "1e-9", True])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # "1e-9" once read as 1e-09 and True as 1.0; a document refuses both
        error, message = (ValueError, "tolerance") if type(tol) is float else (TypeError, "^expected a number")
        with pytest.raises(error, match=message):
            Network(tol)
        assert Network(0.0).tol == 0.0


class TestRelationIndex:
    def copy(self, net):
        """A network sharing the entities, built the way a caller copies one:
        fresh collections assigned attribute by attribute."""
        out = Network(net.tol)
        out.objects = dict(net.objects)
        out.classes = dict(net.classes)
        out.relations = list(net.relations)
        out.history = dict(net.history)
        return out

    def test_assigned_relations_are_indexed(self, polygons):
        polygons.apply_modifier("M1_Sq1", "Sq1")
        n2 = self.copy(polygons)
        assert n2.relations == polygons.relations
        n2.add_relation("Rb1_2", "Sq1", "modification-of")  # exact duplicate: no-op
        n2.add_relation("T_Sq", "T_Rb", "is-a")
        assert n2.relations == polygons.relations
        with pytest.raises(DuplicateName, match="different degree"):
            n2.add_relation("Rb1", "T_Rb", "instance-of", 0.5)
        assert n2.query_related("T_Pg", "a-kind-of", direction="in") == ["T_Rb", "T_Sq"]
        assert n2.query_related("Sq1", "modification-of", direction="in") == ["Rb1_2"]
        assert [r.target for r in n2.infer_relations() if r.source == "Rb1"] == ["T_Pg"]

    def test_copy_grows_alone(self, polygons):
        n2 = self.copy(polygons)
        n2.add_relation("T_Pg", "T_Sq", "association", 0.5)
        n2.add_relation("Rb1", "T_Sq", "instance-of", 0.5)
        assert n2.query_related("T_Pg", "association") == ["T_Sq"]
        assert polygons.query_related("T_Pg", "association") == []
        assert polygons.query_related("T_Sq", "instance-of", direction="in") == ["Sq1"]
        assert len(polygons.relations) == 5 and len(n2.relations) == 7
        polygons.add_relation("Rb1", "T_Sq", "instance-of", 0.7)  # free on the original

    def test_assignment_replaces_the_index(self, polygons):
        polygons.relations = []
        assert polygons.query_related("Rb1", "instance-of") == []
        polygons.add_relation("Rb1", "T_Rb", "instance-of", 0.5)  # no stale degree
        assert [str(r) for r in polygons.relations] == ["Rb1 instance-of T_Rb [0.5]"]


class TestQueries:
    def test_is_fuzzy_witnesses(self, polygons):
        fuzzy, witnesses = polygons.is_fuzzy()
        assert fuzzy
        assert {w.name for w in witnesses} == {"Rb1", "Sq1", "T_Pg", "T_Rb", "T_Sq"}
        by_name = {w.name: w for w in witnesses}
        assert by_name["Rb1"].details == ("p2", "p6")
        assert by_name["Sq1"].details == ("p2",)
        assert by_name["T_Sq"].details == ("p2",)

    def test_crisp_network(self):
        net = small_network()
        assert net.is_fuzzy() == (False, [])
        net.add_relation("O1", "C1", "instance-of", 0.7)
        fuzzy, witnesses = net.is_fuzzy()
        assert fuzzy and witnesses[0].kind == "relation"
        assert witnesses[0].details == ("degree 0.7",)

    def test_graded_truth_makes_object_fuzzy(self):
        net = small_network()
        net.add(define_object("O3", [Property("p6", "Flag", TruthDegree(0.5))]))
        fuzzy, witnesses = net.is_fuzzy()
        assert fuzzy and witnesses[0].name == "O3"

    def test_membership(self, polygons):
        assert polygons.membership("Rb1", "T_Rb") == pytest.approx(0.8)
        assert polygons.membership("Sq1", "T_Sq") == 1.0
        assert polygons.membership("Sq1", "T_Rb") == 0.0
        with pytest.raises(UnknownEntity):
            polygons.membership("Nope", "T_Rb")
        with pytest.raises(UnknownEntity):
            polygons.membership("Rb1", "Nope")

    def test_query_related(self, polygons):
        assert polygons.query_related("Rb1", "instance-of") == ["T_Rb"]
        assert polygons.query_related("T_Pg", "a-kind-of", direction="in") == ["T_Rb", "T_Sq"]
        assert polygons.query_related("T_Sq", ("a-kind-of", "is-a"), transitive=True) == [
            "T_Pg", "T_Rb",
        ]

    def test_query_cycle_terminates(self):
        net = small_network()
        net.add_relation("O1", "O2", "association")
        net.add_relation("O2", "O1", "association")
        assert net.query_related("O1", "association", transitive=True) == ["O1", "O2"]

    def test_query_unknown_name(self):
        net = small_network()
        with pytest.raises(UnknownEndpoint):
            net.query_related("Nope", "association")
        with pytest.raises(KindMismatch):
            net.query_related("O1", "friends")

    def test_infer_relations(self):
        net = small_network()
        net.add_relation("O1", "C1", "instance-of")
        proposals = net.infer_relations()
        # O1-C1 exists already; O1 and O2 both satisfy the absent-only C2;
        # O2 does not match C1
        assert [(r.source, r.target) for r in proposals] == [("O1", "C2"), ("O2", "C2")]
        assert all(r.degree == 1.0 for r in proposals)
        assert len(net.relations) == 1  # proposals are not stored

    def test_a_union_skips_a_projection_that_does_not_apply(self):
        net = Network()
        net.add(define_class("A", [Property("p1", "Sides", CrispNumber(4.0))]))
        net.add(define_class("B", [Property("p1", "Colour", CrispNumber(1.0))]))
        net.add(define_object("O", [Property("p1", "Sides", CrispNumber(4.0))], declared_class="A"))
        union = net.apply_exploiter("union", ["A", "B"])
        assert net.membership("O", "A") == net.membership("O", union) == 1.0
        assert [(r.target, r.degree) for r in net.infer_relations()] == [("A", 1.0), (union, 1.0)]
        net.add(define_class("C", [Property("p1", "Weight", CrispNumber(4.0))]))
        with pytest.raises(SemanticMismatch, match="'Sides' vs 'Colour'"):  # the first of two
            net.membership("O", net.apply_exploiter("union", ["B", "C"]))

    def test_infer_threshold(self, polygons):
        proposals = polygons.infer_relations(threshold=0.9)
        pairs = {(r.source, r.target) for r in proposals}
        assert ("Rb1", "T_Rb") not in pairs  # 0.8 is below the bar
        assert ("Sq1", "T_Rb") not in pairs  # membership 0

    @pytest.mark.parametrize("threshold", [float("nan"), 2.0, -0.5, float("inf"), "0.5", True])
    def test_infer_threshold_must_be_a_degree(self, polygons, threshold):
        error, message = ((DegreeOutOfRange, "threshold") if type(threshold) is float
                          else (TypeError, "^expected a number"))
        with pytest.raises(error, match=message):
            polygons.infer_relations(threshold)

    def test_infer_scores_only_pairs_that_can_clear_zero(self, monkeypatch):
        import foodn.network as network

        net = small_network()
        extra = Property("p9", "Extra", CrispNumber(3.0))
        net.add(define_class("C3", [Property("p1", "Kind", CrispNumber(2.0)), extra]))
        net.add(define_class("E", [extra], mode="extensional", extension=["O1"]))
        # C4 declares C1's property again, beside one the objects lack
        net.add(define_class("C4", [Property("p1", "Kind", CrispNumber(1.0)),
                                    Property("p2", "Other", Absent())]))
        compared, scored = [], []

        def comparing(obj_prop, class_prop, *args):
            if obj_prop is not None:  # a missing property is scored, not compared
                compared.append((obj_prop, class_prop))
            return compat_degree(obj_prop, class_prop, *args)

        def counting(obj, cls, *args):
            scored.append((obj.name, cls.name))
            return membership_degree(obj, cls, *args)

        monkeypatch.setattr(network, "compat_degree", comparing)
        monkeypatch.setattr(network, "membership_degree", counting)
        proposals = net.infer_relations()
        assert [(r.source, r.target, r.degree) for r in proposals] == oracle_infer(net)
        # no object carries p9, so C3's p1 is never compared; C4's p1 is
        # C1's, compared once per object; only the extensional E is scored whole
        assert compared == [
            (net.objects[o].get_property("p1"), net.classes[c].get_property("p1"))
            for o in ("O1", "O2") for c in ("C1", "C2")
        ]
        assert scored == [("O1", "E"), ("O2", "E")]

    def test_infer_stops_a_class_at_its_first_zero(self, monkeypatch):
        import foodn.network as network

        net = Network()
        net.add(define_object("O", [Property("p1", "Kind", CrispNumber(2.0)),
                                    Property("p2", "Size", CrispNumber(1.0))]))
        # p1 scores 0; p2 names another semantic, which membership_degree
        # refuses with SemanticMismatch
        net.add(define_class("C", [Property("p1", "Kind", CrispNumber(1.0)),
                                   Property("p2", "Colour", CrispNumber(1.0))]))
        with pytest.raises(SemanticMismatch):
            membership_degree(net.objects["O"], net.classes["C"])
        compared = []

        def comparing(obj_prop, class_prop, *args):
            if obj_prop is not None:  # the prefilter's missing-property scores
                compared.append(class_prop.id)
            return compat_degree(obj_prop, class_prop, *args)

        monkeypatch.setattr(network, "compat_degree", comparing)
        assert net.infer_relations() == [] and oracle_infer(net) == []
        assert compared == ["p1"]


class TestExploiterApplication:
    def test_storage_and_provenance(self, polygons):
        name = polygons.apply_exploiter("intersection", ["T_Rb", "T_Sq"])
        assert name == "intersection_T_Rb_T_Sq"
        stored = polygons.entity(name)
        assert [p.id for p in stored.specification] == ["p1", "p2", "p3", "p5"]
        record = polygons.provenance[-1]
        assert record.op == "intersection"
        assert record.sources == ("T_Rb", "T_Sq")
        assert record.target == name

    @pytest.mark.parametrize("kind, props, methods", [
        ("difference", ["p4", "p6"], ["f2"]),
        ("sym-difference", ["p4@T_Rb", "p6@T_Rb", "p4@T_Sq", "p6@T_Sq"], ["f2@T_Rb", "f2@T_Sq"]),
    ])
    def test_differences_store_a_class_and_its_provenance(self, polygons, kind, props, methods):
        before = to_document(polygons)
        name = polygons.apply_exploiter(kind, ["T_Rb", "T_Sq"])
        assert name == f"{kind}_T_Rb_T_Sq"
        stored = polygons.classes[name]
        assert stored.mode == "intensional"
        assert [p.id for p in stored.specification] == props
        assert [m.id for m in stored.signature] == methods
        assert polygons.provenance == [ProvenanceRecord(1, kind, ("T_Rb", "T_Sq"), name)]
        # the document gains exactly the class and the record
        classes = sorted(before["classes"] + [entity_to_doc(stored)], key=lambda c: c["name"])
        record = {"seq": 1, "op": kind, "sources": ["T_Rb", "T_Sq"], "target": name, "changes": []}
        assert to_document(polygons) == dict(before, classes=classes, provenance=[record])
        text = dumps(polygons)
        assert dumps(loads(text)) == text

    def test_sym_difference_qualifies_a_property_and_a_method_that_share_an_id(self):
        net = Network()
        net.add(define_class("A", [Property("x", "X", CrispNumber(1.0))]))
        net.add(define_class("B", [], [MethodDef("x", "M", "1")]))
        stored = net.classes[net.apply_exploiter("sym-difference", ["A", "B"])]
        assert [p.id for p in stored.specification] == ["x@A"]
        assert [m.id for m in stored.signature] == ["x@B"]

    @pytest.mark.parametrize("kind, refusal, message", [
        ("union", ArityError, "must be distinct"),
        ("intersection", None, None),
        ("difference", DoesNotExist, "nothing is left"),
        ("sym-difference", DoesNotExist, "the entities are equivalent"),
    ])
    def test_a_repeated_argument(self, polygons, kind, refusal, message):
        """union refuses it; A ∩ A is A; A ∖ A and A △ A do not exist."""
        rb = polygons.classes["T_Rb"]
        if refusal is None:
            stored = polygons.classes[polygons.apply_exploiter(kind, ["T_Rb", "T_Rb"])]
            assert (stored.specification, stored.signature) == (rb.specification, rb.signature)
            return
        before = dumps(polygons)
        with pytest.raises(refusal, match=message):
            polygons.apply_exploiter(kind, ["T_Rb", "T_Rb"])
        assert dumps(polygons) == before

    def test_explicit_result_name(self, polygons):
        name = polygons.apply_exploiter("union", ["Rb1", "Sq1"], result_name="Shapes")
        assert name == "Shapes"
        assert polygons.entity("Shapes").extension == ("Rb1", "Sq1")

    def test_name_collision(self, polygons):
        with pytest.raises(NameCollision):
            polygons.apply_exploiter("intersection", ["T_Rb", "T_Sq"], result_name="T_Pg")

    def test_clone_picks_free_index(self, polygons):
        assert polygons.apply_exploiter("clone", ["Rb1"]) == "Rb1_clone1"
        assert polygons.apply_exploiter("clone", ["Rb1"]) == "Rb1_clone2"
        with pytest.raises(NameCollision):
            polygons.apply_exploiter("clone", ["Rb1"], index=1)

    @pytest.mark.parametrize("index", [True, 2.5, "3"])
    def test_clone_index_must_be_an_int(self, polygons, index):
        # True once stored Sq1_cloneTrue, and 2.5 Sq1_clone2.5
        before = dumps(polygons)
        with pytest.raises(ArityError, match="clone index must be a positive int"):
            polygons.apply_exploiter("clone", ["Sq1"], index=index)
        assert dumps(polygons) == before

    def test_failed_exploiter_stores_nothing(self, disjoint):
        before = dumps(disjoint)
        with pytest.raises(DoesNotExist):
            disjoint.apply_exploiter("intersection", ["A", "B"])
        assert dumps(disjoint) == before

    def test_unknown_exploiter_and_arity(self, polygons):
        with pytest.raises(UnknownExploiter):
            polygons.apply_exploiter("complement", ["T_Rb"])
        with pytest.raises(ArityError):
            polygons.apply_exploiter("difference", ["T_Pg", "T_Rb", "T_Sq"])
        with pytest.raises(ArityError):
            polygons.apply_exploiter("clone", ["Rb1", "Sq1"])

    @pytest.mark.parametrize("kind,count", [
        (e.kind, count)
        for e in UNIVERSAL_EXPLOITERS
        for count in {"1": (0, 2, 3), "2": (0, 1, 3), "n": (0, 1)}[e.arity]
    ])
    def test_every_exploiter_refuses_a_count_its_arity_does_not_take(self, polygons, kind, count):
        before = dumps(polygons)
        with pytest.raises(ArityError):
            polygons.apply_exploiter(kind, ["T_Rb", "T_Sq", "T_Pg"][:count])
        assert dumps(polygons) == before

    def test_names_resolve_before_the_count_is_checked(self, polygons):
        with pytest.raises(UnknownEntity):
            polygons.apply_exploiter("clone", ["Rb1", "Nope"])

    def test_arguments_an_exploiter_does_not_take_are_refused(self, polygons):
        before = dumps(polygons)
        with pytest.raises(ArityError, match="no result name"):
            polygons.apply_exploiter("clone", ["Rb1"], result_name="Foo")
        for kind in ("union", "intersection", "difference", "sym-difference"):
            with pytest.raises(ArityError, match="no index"):
                polygons.apply_exploiter(kind, ["T_Rb", "T_Sq"], index=4)
        assert dumps(polygons) == before


class TestModifierApplication:
    def test_object_round_trip(self, polygons):
        original = polygons.entity("Sq1")
        first = polygons.apply_modifier("M1_Sq1", "Sq1")
        assert first == "Rb1_2"  # Rb1 is live, so the target name is suffixed
        assert "Sq1" in polygons.history and polygons.history["Sq1"] == "object"
        moved = polygons.entity("Rb1_2")
        assert moved.declared_class == "T_Rb"
        assert polygons.membership("Rb1_2", "T_Rb") == pytest.approx(0.8)

        second = polygons.apply_modifier("M2_Rb1", "Rb1_2")
        assert second == "Sq1"  # the retired name is free again
        restored = polygons.entity("Sq1")
        assert restored.specification == original.specification
        assert restored.signature == original.signature
        assert polygons.membership("Sq1", "T_Sq") == 1.0

    def test_class_round_trip(self, polygons):
        original = polygons.entity("T_Sq")
        polygons.apply_modifier("M1_T_Sq", "T_Sq")
        assert polygons.entity("T_Rb_2").get_property("p6").value == TruthDegree(0.8)
        assert polygons.apply_modifier("M2_T_Rb", "T_Rb_2") == "T_Sq"
        restored = polygons.entity("T_Sq")
        assert restored.specification == original.specification

    def test_modification_edge_and_provenance(self, polygons):
        count = len(polygons.provenance)
        polygons.apply_modifier("M1_Sq1", "Sq1")
        assert len(polygons.provenance) == count + 1
        record = polygons.provenance[-1]
        assert record.op == "M1_Sq1" and record.sources == ("Sq1",)
        assert Relation("Rb1_2", "Sq1", "modification-of") in polygons.relations
        # the retired name still resolves for queries
        assert polygons.query_related("Rb1_2", "modification-of") == ["Sq1"]
        assert polygons.query_related("Sq1", "modification-of", direction="in") == ["Rb1_2"]

    def test_not_applicable_reports_reasons(self, polygons):
        with pytest.raises(NotApplicable) as info:
            polygons.apply_modifier("M2_Rb1", "Sq1")  # expects rhombus angles
        assert any("p4" in reason for reason in info.value.reasons)

    def test_level_mismatch(self, polygons):
        with pytest.raises(NotApplicable, match="object-level"):
            polygons.apply_modifier("M1_Sq1", "T_Sq")

    def test_failed_application_is_atomic(self, polygons):
        before = dumps(polygons)
        with pytest.raises(NotApplicable):
            polygons.apply_modifier("M2_Rb1", "Sq1")
        assert dumps(polygons) == before

    def test_conflicting_modification_edge_fails_before_any_change(self, polygons):
        # M2_Rb1 rebinds the retired name Sq1, and an edge Sq1 -> Rb1 with
        # another degree is already there
        polygons.apply_modifier("M1_Sq1", "Sq1")
        polygons.add_relation("Sq1", "Rb1", "modification-of", 0.5)
        before = to_document(polygons)
        with pytest.raises(DuplicateName, match="different degree"):
            polygons.apply_modifier("M2_Rb1", "Rb1")
        assert to_document(polygons) == before

    def test_unknown_names(self, polygons):
        with pytest.raises(UnknownModifier):
            polygons.apply_modifier("M99", "Sq1")
        with pytest.raises(UnknownEntity):
            polygons.apply_modifier("M1_Sq1", "Nope")

    def test_name_blind_reapplication(self, polygons):
        # M1_T_Sq matches any class whose p6 is 1, not just one named T_Sq
        polygons.apply_modifier("M1_T_Sq", "T_Sq")
        polygons.apply_modifier("M2_T_Rb", "T_Rb_2")  # back to square content
        again = polygons.apply_modifier("M1_T_Sq", "T_Sq")
        assert polygons.entity(again).get_property("p6").value == TruthDegree(0.8)

    @staticmethod
    def warned(target_semantic):
        """The ReflectionWarning of a modifier whose result leaves its
        target class, and the network it was applied in."""
        net = Network()
        net.add(define_class("Target", [Property("p1", target_semantic, CrispNumber(5.0))]))
        net.add(define_object("O", [Property("p1", "Kind", CrispNumber(1.0))]))
        net.register_modifier(define_modifier(
            "M", "object", "O", "O_next",
            [Change("p1", CrispNumber(1.0), CrispNumber(2.0))],
            target_class="Target",
        ))
        with pytest.warns(ReflectionWarning) as caught:
            net.apply_modifier("M", "O")
        [warning] = caught
        assert warning.filename == __file__  # it points at the caller
        # the transformation itself still went through
        assert net.entity("O_next").get_property("p1").value == CrispNumber(2.0)
        assert net.history == {"O": "object"}
        changes = net.modifiers["M"].changes
        assert net.provenance == [ProvenanceRecord(1, "M", ("O",), "O_next", changes)]
        return str(warning.message)

    def test_reflection_warning(self):
        assert self.warned("Kind") == (
            "M: result O_next does not belong to its target class Target (membership degree is 0)"
        )

    def test_reflection_warning_on_a_semantic_mismatch(self):
        assert self.warned("Colour") == (
            "M: result O_next does not belong to its target class Target "
            "(property p1: 'Kind' vs 'Colour')"
        )

    def test_class_modifier_with_a_target_class_takes_its_signature(self, polygons):
        polygons.register_modifier(define_modifier(
            "M_T", "class", "T_Sq", "T_Next",
            [Change("p6", CrispNumber(1.0), TruthDegree(0.8))],
            target_class="T_Pg",
        ))
        relations = list(polygons.relations)
        assert polygons.apply_modifier("M_T", "T_Sq") == "T_Next"
        result = polygons.classes["T_Next"]
        assert result.signature == polygons.classes["T_Pg"].signature
        assert not hasattr(result, "declared_class")
        assert result.get_property("p6").value == TruthDegree(0.8)
        assert "T_Sq" not in polygons.classes and polygons.history == {"T_Sq": "class"}
        assert polygons.relations == relations + [Relation("T_Next", "T_Sq", "modification-of")]
        assert polygons.provenance == [
            ProvenanceRecord(1, "M_T", ("T_Sq",), "T_Next", polygons.modifiers["M_T"].changes)
        ]

    def test_unusable_target_class_is_refused_before_any_change(self, polygons):
        polygons.apply_exploiter("union", ["T_Rb", "T_Pg"])
        change = [Change("p6", CrispNumber(1.0), TruthDegree(0.8))]
        polygons.register_modifier(define_modifier("M_gone", "object", "Sq1", "X", change, "Nope"))
        polygons.register_modifier(
            define_modifier("M_union", "object", "Sq1", "X", change, "union_T_Rb_T_Pg")
        )
        before = dumps(polygons)
        with pytest.raises(UnknownEntity, match="target class 'Nope' is not live"):
            polygons.apply_modifier("M_gone", "Sq1")
        assert dumps(polygons) == before
        with pytest.raises(KindMismatch, match="heterogeneous and has no signature"):
            polygons.apply_modifier("M_union", "Sq1")
        assert dumps(polygons) == before

    def test_matching_target_class_warns_nothing(self, polygons):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            polygons.apply_modifier("M1_Sq1", "Sq1")
