"""Invariant checks over randomized inputs.

Each suite runs at least 200 examples; the acceptance tests verify that
floor by inspecting the settings attached here.
"""
from __future__ import annotations

import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load
from foodn import fixture_path, load_file
from foodn._record import replace
from foodn.errors import (
    DoesNotExist,
    DuplicateName,
    FoodnError,
    KindMismatch,
    ReflectionWarning,
    SemanticMismatch,
    UnknownEndpoint,
)
from foodn.evaluator import extend
from foodn.exploiters import (
    difference_op,
    intersection_op,
    sym_difference_op,
    union_op,
)
from foodn.fuzzy import DEFAULT_TOL, FuzzySet, make_fuzzy_set
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
    compat_degree,
    define_class,
    define_object,
    membership_degree,
)
from foodn.modifiers import Change, define_modifier
from foodn.network import RELATION_KINDS, Network
from foodn.serialize import dumps, entity_to_doc, loads, to_document
from oracles import oracle_infer, oracle_insert

reference = load("perfbench/reference.py")

MANY = settings(max_examples=200, deadline=None)

# supports land on a coarse grid so tolerance questions never get close
fuzzy_sets = st.lists(
    st.tuples(st.integers(-200, 200), st.integers(1, 1000)),
    min_size=1, max_size=5, unique_by=lambda t: t[0],
).map(lambda raw: make_fuzzy_set([(n / 40.0, d / 1000.0) for n, d in raw]))

FUNCTIONS = [
    ("4*a", lambda a: 4.0 * a, 1),
    ("a^2", lambda a: a * a, 1),
    ("a+b", lambda a, b: a + b, 2),
    ("a*b", lambda a, b: a * b, 2),
]


@MANY
@given(data=st.data(), which=st.sampled_from(FUNCTIONS))
def test_extension_matches_oracle(data, which):
    _, f, arity = which
    args = [data.draw(fuzzy_sets) for _ in range(arity)]
    result = extend(f, args)
    expected = reference.extend(f, [list(a.elements) for a in args], 1e-9)
    assert list(result.elements) == expected


# -- random classes over a fixed vocabulary -----------------------------------

PROP_POOL = [("p1", "First"), ("p2", "Second"), ("p3", "Third"), ("p4", "Fourth")]

class_values = st.one_of(
    st.integers(0, 3).map(lambda n: CrispNumber(float(n))),
    st.integers(1, 9).map(lambda n: TruthDegree(n / 10.0)),
    st.just(FuzzyMarker()),
    fuzzy_sets.map(Fuzzy),
)

METHOD = MethodDef("f1", "Doubled", "2*x", (Binding("x", "p1", "scalar"),))


@st.composite
def random_class(draw, name):
    """Properties over a subset of PROP_POOL; now and then the method takes
    a PROP_POOL id the class leaves unused, so a property of one class and a
    method of another can share an id."""
    picks = draw(st.lists(st.sampled_from(range(len(PROP_POOL))),
                          min_size=1, max_size=len(PROP_POOL), unique=True))
    props = [Property(PROP_POOL[i][0], PROP_POOL[i][1], draw(class_values))
             for i in sorted(picks)]
    unused = [pid for i, (pid, _) in enumerate(PROP_POOL) if i not in picks]
    method_id = draw(st.sampled_from([METHOD.id] + unused))
    methods = [replace(METHOD, id=method_id)] if draw(st.booleans()) else []
    return define_class(name, props, methods)


def content(cls):
    return {(p.id, p.semantic, p.value) for p in cls.specification} | {
        (m.id, m.semantic, m.body) for m in cls.signature
    }


def base_ids(cls):
    return sorted(
        [p.id.split("@")[0] for p in cls.specification]
        + [m.id.split("@")[0] for m in cls.signature]
    )


@MANY
@given(data=st.data())
def test_intersection_commutes(data):
    a = data.draw(random_class("A"))
    b = data.draw(random_class("B"))
    try:
        ab = intersection_op([a, b], "AB", DEFAULT_TOL)
    except DoesNotExist:
        ab = None
    try:
        ba = intersection_op([b, a], "BA", DEFAULT_TOL)
    except DoesNotExist:
        ba = None
    assert (ab is None) == (ba is None)  # both orders agree on existence
    if ab is not None:
        assert content(ab) == content(ba)


@MANY
@given(data=st.data())
def test_sym_difference_is_both_differences(data):
    a = data.draw(random_class("A"))
    b = data.draw(random_class("B"))

    def leftovers(x, y):
        try:
            only = difference_op(x, y, "D", DEFAULT_TOL)
        except DoesNotExist:
            return []
        return [p.id for p in only.specification] + [m.id for m in only.signature]

    expected = sorted(leftovers(a, b) + leftovers(b, a))
    try:
        sym = sym_difference_op(a, b, "S", DEFAULT_TOL)
    except DoesNotExist:
        assert expected == []
        return
    assert base_ids(sym) == expected
    # and it commutes up to qualification and ordering
    assert base_ids(sym_difference_op(b, a, "S2", DEFAULT_TOL)) == expected


@MANY
@given(data=st.data())
def test_exploiters_never_mutate_their_inputs(data):
    a = data.draw(random_class("A"))
    b = data.draw(random_class("B"))
    before = (entity_to_doc(a), entity_to_doc(b))
    for op in (
        lambda: union_op([a, b], "U"),
        lambda: intersection_op([a, b], "I", DEFAULT_TOL),
        lambda: difference_op(a, b, "D", DEFAULT_TOL),
        lambda: sym_difference_op(a, b, "S", DEFAULT_TOL),
    ):
        try:
            op()
        except DoesNotExist:
            pass
        assert (entity_to_doc(a), entity_to_doc(b)) == before


# -- random whole networks -----------------------------------------------------

object_values = st.one_of(
    st.integers(0, 3).map(lambda n: CrispNumber(float(n))),
    st.integers(1, 9).map(lambda n: TruthDegree(n / 10.0)),
    fuzzy_sets.map(Fuzzy),
)


@st.composite
def random_network(draw):
    net = Network()
    class_names = [f"C{i}" for i in range(draw(st.integers(1, 3)))]
    for name in class_names:
        net.add(draw(random_class(name)))
    object_names = [f"O{i}" for i in range(draw(st.integers(1, 3)))]
    for name in object_names:
        picks = draw(st.lists(st.sampled_from(range(len(PROP_POOL))),
                              min_size=1, max_size=len(PROP_POOL), unique=True))
        props = [Property(PROP_POOL[i][0], PROP_POOL[i][1], draw(object_values))
                 for i in sorted(picks)]
        net.add(define_object(name, props))
    pairs = draw(st.sets(st.tuples(st.sampled_from(object_names),
                                   st.sampled_from(class_names)), max_size=4))
    for source, target in sorted(pairs):
        net.add_relation(source, target, "instance-of",
                         draw(st.integers(1, 10)) / 10.0)
    links = draw(st.sets(st.tuples(st.sampled_from(class_names),
                                   st.sampled_from(class_names)), max_size=3))
    for source, target in sorted(links):
        if source != target:
            net.add_relation(source, target, "a-kind-of")
    return net


@MANY
@given(net=random_network())
def test_serialization_fixpoint(net):
    text = dumps(net)
    again = dumps(loads(text))
    assert again == text
    assert dumps(loads(again)) == again


# -- whatever the public constructors accept survives a save ----------------------

# Every field is drawn from well-typed and, now and then, mistyped values.
# A constructor that refuses its fields yields None, which later draws may
# pass on as a field in turn.


def _built(make, *args):
    """make(*args), or None when it refuses them."""
    try:
        return make(*args)
    except (ValueError, TypeError, OverflowError, FoodnError):
        return None


def _kept(items):
    return [item for item in items if item is not None]


junk = st.sampled_from([5, True, None, "", [], {}, "4", ("cm",), math.inf, math.nan, 10**400])


def mostly(valid):
    """A draw from *valid*, or one time in eight a value of another type."""
    return st.integers(0, 7).flatmap(lambda i: junk if i == 0 else valid)


any_numbers = mostly(st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6)))
any_degrees = mostly(st.one_of(st.integers(0, 1), st.floats(0, 1)))
any_units = mostly(st.sampled_from([None, "cm", "km h", "é", "m/s", ""]))
any_flags = mostly(st.booleans())
any_names = mostly(st.sampled_from(["A", "B", "C", "D"]))
any_ids = mostly(st.sampled_from(["p1", "p2", "p3", "p4"]))
any_pairs = st.lists(st.tuples(any_numbers, any_degrees), min_size=1, max_size=3)
any_sets = mostly(st.one_of(
    st.builds(_built, st.just(make_fuzzy_set), any_pairs, any_units),
    st.builds(_built, st.just(FuzzySet), any_pairs.map(tuple), any_units),
))
any_values = mostly(st.one_of(
    st.builds(_built, st.just(CrispNumber), any_numbers, any_units),
    st.builds(_built, st.just(CrispTuple), st.lists(any_numbers, min_size=1, max_size=3), any_units),
    st.builds(_built, st.just(Interval), any_numbers, any_numbers, any_units, any_flags, any_flags),
    st.builds(_built, st.just(TruthDegree), any_degrees),
    st.builds(FuzzyMarker),
    st.builds(Absent),
    st.builds(_built, st.just(Fuzzy), any_sets),
    st.builds(_built, st.just(FuzzyTuple), st.lists(any_sets, min_size=1, max_size=2)),
))
any_properties = st.lists(  # ids drawn apart, so that few entities refuse a repeated one
    st.tuples(any_ids, any_names, any_values), min_size=1, max_size=3, unique_by=lambda f: repr(f[0]),
).map(lambda fields: _kept([_built(Property, *f) for f in fields]))
no_methods = mostly(st.just(()))
any_entities = st.one_of(
    st.builds(_built, st.just(define_class), any_names, any_properties, no_methods),
    st.builds(_built, st.just(define_class), any_names, st.just(()), no_methods, st.just("extensional"),
              st.lists(any_names, min_size=1, max_size=2)),
    st.builds(_built, st.just(define_object), any_names, any_properties, no_methods,
              st.one_of(st.none(), any_names)),
)
any_changes = st.lists(st.builds(_built, st.just(Change), any_ids, any_values, any_values),
                       min_size=1, max_size=2).map(_kept)


@st.composite
def constructed_networks(draw):
    net = Network()
    for entity in _kept(draw(st.lists(any_entities, min_size=1, max_size=4))):
        _built(net.add, entity)  # a taken name is refused
    names = st.one_of(st.sampled_from(sorted(net.objects) + sorted(net.classes) + ["Nope"]), any_names)
    for _ in range(draw(st.integers(0, 3))):
        _built(net.add_relation, draw(names), draw(names), draw(st.sampled_from(RELATION_KINDS)),
               draw(any_degrees))
    for _ in range(draw(st.integers(0, 2))):
        modifier = _built(define_modifier, draw(any_names), draw(st.sampled_from(["object", "class"])),
                          draw(names), draw(any_names), draw(any_changes), draw(st.one_of(st.none(), names)))
        if modifier is not None:
            _built(net.register_modifier, modifier)
    return net


@MANY
@given(net=constructed_networks())
def test_what_the_constructors_accept_survives_a_save(net):
    text = dumps(net)
    assert text == json.dumps(to_document(net), sort_keys=True, indent=2) + "\n"
    assert dumps(loads(text)) == text


@MANY
@given(n=st.integers(2, 6), data=st.data())
def test_transitive_queries_terminate_on_cycles(n, data):
    net = Network()
    names = [f"O{i}" for i in range(n)]
    for name in names:
        net.add(define_object(name, [Property("p1", "First", CrispNumber(1.0))]))
    for i in range(n):
        net.add_relation(names[i], names[(i + 1) % n], "modification-of")
    chords = data.draw(st.sets(st.tuples(st.sampled_from(names),
                                         st.sampled_from(names)), max_size=4))
    for source, target in sorted(chords):
        if source != target and (names.index(target) - names.index(source)) % n != 1:
            net.add_relation(source, target, "modification-of")
    reached = net.query_related(names[0], "modification-of", transitive=True)
    assert set(reached) == set(names)
    backwards = net.query_related(names[0], "modification-of",
                                  direction="in", transitive=True)
    assert set(backwards) == set(names)


@MANY
@given(fs=fuzzy_sets, factor=st.integers(1, 5))
def test_extension_of_linear_maps_preserves_degrees(fs, factor):
    result = extend(lambda x: float(factor) * x, [fs])
    assert result.degrees() == fs.degrees()
    for got, src in zip(result.supports(), fs.supports()):
        assert math.isclose(got, factor * src, rel_tol=0, abs_tol=1e-12)


# -- the relation index against a linear scan ----------------------------------

POLYGONS = str(fixture_path("polygons.foodn"))
# the fixture's names, names its modifiers create, and a stranger
NAMES = ["Rb1", "Sq1", "T_Rb", "T_Sq", "T_Pg", "Tr1", "T_Tr", "Rb1_2", "Sq1_2", "T_Rb_2", "Nope"]
MODIFIERS = ["M1_T_Sq", "M2_T_Rb", "M1_T_Pg", "M1_T_Rb", "M1_Rb1", "M1_Sq1", "M2_Rb1"]
KIND_SETS = [(k,) for k in RELATION_KINDS] + [("a-kind-of", "is-a"), RELATION_KINDS]
DEGREES = [0.5, 1.0]

network_steps = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(NAMES), st.sampled_from(NAMES),
              st.sampled_from(RELATION_KINDS), st.sampled_from(DEGREES)),
    st.tuples(st.just("again"), st.integers(0, 63), st.sampled_from(DEGREES)),
    st.tuples(st.just("modify"), st.sampled_from(MODIFIERS), st.sampled_from(NAMES)),
)


def _live(net):
    return set(net.objects) | set(net.classes)


@MANY
@given(steps=st.lists(network_steps, max_size=10))
def test_relation_index_matches_linear_scan(steps):
    net, _ = load_file(POLYGONS)
    model = [(r.source, r.target, r.kind, r.degree) for r in net.relations]
    for step in steps:
        if step[0] == "modify":
            _, modifier, name = step
            before = _live(net)
            try:
                with warnings.catch_warnings():  # a result outside its target class still lands
                    warnings.simplefilter("ignore", ReflectionWarning)
                    net.apply_modifier(modifier, name)
                refused = False
            except DuplicateName:
                refused = True
            except FoodnError:
                continue  # refused before any change
            (new,) = _live(net) - before
            outcome = oracle_insert(model, (new, name, "modification-of", 1.0))
            assert refused == (outcome == "conflict")
        else:
            if step[0] == "add":
                _, source, target, kind, degree = step
            else:
                _, i, degree = step
                source, target, kind, _ = model[i % len(model)]
            try:
                net.add_relation(source, target, kind, degree)
                refused = False
            except DuplicateName:
                refused = True
            except (UnknownEndpoint, KindMismatch):
                refused = None
            if refused is not None:
                outcome = oracle_insert(model, (source, target, kind, degree))
                assert refused == (outcome == "conflict")

        assert [(r.source, r.target, r.kind, r.degree) for r in net.relations] == model
        edges = [(source, target, kind) for source, target, kind, _ in model]
        for name in _live(net) | set(net.history):
            for kinds in KIND_SETS:
                for direction in ("out", "in"):
                    ends = [(s, t) if direction == "out" else (t, s) for s, t, k in edges if k in kinds]
                    for transitive in (False, True):
                        assert net.query_related(name, kinds, direction, transitive) == (
                            reference.reach(edges, name, kinds, direction) if transitive
                            else sorted({far for near, far in ends if near == name})
                        )


# -- inferred relations against scoring every pair -----------------------------

# Few values per property id, so that many pairs score above 0, and every
# row of the score table comes up: p1 holds crisp 0/1 and graded values, p2
# numbers and tuples in and out of intervals and units, and an object's
# interval, which scores 0; p3 fuzzy sets and fuzzy tuples against their
# equals and the fuzzy marker; p4 any of these, so variants also cross.
_SET_A = make_fuzzy_set([(1.0, 1.0)])
_SET_B = make_fuzzy_set([(1.0, 0.5), (2.0, 1.0)], unit="cm")
_truths = st.integers(1, 9).map(lambda n: TruthDegree(n / 10.0))
_crisp = [CrispNumber(0.0), CrispNumber(1.0)]
_measured = [CrispNumber(1.0, "cm"), CrispTuple((1.0, 2.0), "cm"), CrispTuple((1.0, 2.0))]
_fuzzy = [Fuzzy(_SET_A), Fuzzy(_SET_B), FuzzyTuple((_SET_A, _SET_B)), FuzzyTuple((_SET_B,))]
_by_id = {
    "p1": (st.one_of(st.sampled_from(_crisp), _truths),
           st.one_of(st.sampled_from(_crisp + [FuzzyMarker(), Absent(), Absent()]), _truths)),
    "p2": (st.sampled_from(_measured + [CrispNumber(2.5, "cm"), CrispTuple((1.0, 3.0), "cm"),
                                        Interval(0.0, 3.0, "cm")]),
           st.sampled_from(_measured + [Interval(0.0, 3.0, "cm"), Absent(),
                                        Interval(1.0, 3.0, "cm", lo_open=False),
                                        Interval(0.0, 2.0, hi_open=False)])),
    "p3": (st.sampled_from(_fuzzy), st.sampled_from(_fuzzy + [FuzzyMarker(), Absent()])),
}
_by_id["p4"] = tuple(st.one_of(*(pair[side] for pair in _by_id.values())) for side in (0, 1))
infer_object_values = {pid: pair[0] for pid, pair in _by_id.items()}
infer_class_values = {pid: pair[1] for pid, pair in _by_id.items()}


@st.composite
def some_properties(draw, values):
    """Properties over a subset of PROP_POOL's ids, each drawn from its id's
    strategy in *values*; now and then a property carries another semantic
    than its id has elsewhere."""
    picks = draw(st.lists(st.sampled_from(range(len(PROP_POOL))),
                          max_size=len(PROP_POOL), unique=True))
    return [Property(PROP_POOL[i][0],
                     draw(st.sampled_from([PROP_POOL[i][1]] * 5 + ["Other"])),
                     draw(values[PROP_POOL[i][0]]))
            for i in sorted(picks)]


@st.composite
def infer_network(draw):
    """Objects and classes over PROP_POOL.  Classes draw their properties
    from one shared pool, so several hold equal properties, and one id
    may come with another semantic or value in another class."""
    net = Network()
    object_names = [f"O{i}" for i in range(draw(st.integers(1, 5)))]
    for name in object_names:
        net.add(define_object(name, draw(some_properties(infer_object_values))))
    shared = [
        Property(pid, draw(st.sampled_from([semantic] * 5 + ["Other"])),
                 draw(infer_class_values[pid]))
        for pid, semantic in PROP_POOL for _ in range(draw(st.integers(1, 3)))
    ]

    def plain_class(name):
        props = draw(st.lists(st.sampled_from(shared), max_size=len(PROP_POOL),
                              unique_by=lambda p: p.id))
        if draw(st.integers(0, 3)) == 0:
            members = draw(st.lists(st.sampled_from(object_names), min_size=1, unique=True))
            return define_class(name, props, mode="extensional", extension=members)
        return define_class(name, props, [] if props else [METHOD])

    class_names = [f"C{i}" for i in range(draw(st.integers(1, 8)))]
    for name in class_names:
        if draw(st.integers(0, 3)) == 0:
            net.add(HeterogeneousClass(name, tuple(
                plain_class(f"{name}_{j}") for j in range(draw(st.integers(2, 3)))
            )))
        else:
            net.add(plain_class(name))
    pairs = draw(st.sets(st.tuples(st.sampled_from(object_names),
                                   st.sampled_from(class_names)), max_size=4))
    for source, target in sorted(pairs):
        net.add_relation(source, target, "instance-of", draw(st.integers(1, 10)) / 10.0)
    return net


def _two_halves():
    """An object at fuzzy(0.5) in p1 and p4 against a class that marks both
    fuzzy: 0.5 under min, 0.25 under the product."""
    net = Network()
    net.add(define_object("O0", [Property("p1", "First", TruthDegree(0.5)),
                                 Property("p4", "Fourth", TruthDegree(0.5))]))
    net.add(define_class("C0", [Property("p1", "First", FuzzyMarker()),
                                Property("p4", "Fourth", FuzzyMarker())]))
    return net


@MANY
@given(net=infer_network(),
       threshold=st.one_of(st.integers(0, 10).map(lambda n: n / 10.0), st.floats(0.0, 1.0)))
@example(net=_two_halves(), threshold=0.0)
def test_infer_relations_matches_scoring_every_pair(net, threshold):
    before = [(r.source, r.target, r.kind, r.degree) for r in net.relations]
    proposals = net.infer_relations(threshold)
    assert all(r.kind == "instance-of" for r in proposals)
    assert [(r.source, r.target, r.degree) for r in proposals] == oracle_infer(net, threshold)
    assert [(r.source, r.target, r.kind, r.degree) for r in net.relations] == before


@MANY
@given(net=infer_network())
def test_infer_scores_each_class_property_once_per_object(net):
    import foodn.network as network

    compared = []

    def comparing(obj_prop, class_prop, *args):
        if obj_prop is not None:  # a missing property is scored, not compared
            compared.append((id(obj_prop), class_prop))  # each object holds its own properties
        return compat_degree(obj_prop, class_prop, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "compat_degree", comparing)
        net.infer_relations()
    assert len(compared) == len(set(compared))


@MANY
@given(net=infer_network())
def test_infer_asks_compat_degree_what_a_missing_property_scores(net):
    import foodn.model as model
    import foodn.network as network

    def half_for_missing(obj_prop, class_prop, *args):
        if obj_prop is None and type(class_prop.value) is not Absent:
            return 0.5
        return compat_degree(obj_prop, class_prop, *args)

    with pytest.MonkeyPatch.context() as patch:
        for module in (model, network):
            patch.setattr(module, "compat_degree", half_for_missing)
        proposals = net.infer_relations()
        assert [(r.source, r.target, r.degree) for r in proposals] == oracle_infer(net)


@st.composite
def union_of_classes(draw):
    """An object and a network holding it and the union of two or three
    intensional classes over PROP_POOL, where an id now and then carries
    another semantic."""
    net = Network()
    net.add(define_object("O", draw(some_properties(infer_object_values))))
    names = []
    for i in range(draw(st.integers(2, 3))):
        props = draw(some_properties(infer_class_values))
        net.add(define_class(f"C{i}", props, [] if props else [METHOD]))
        names.append(f"C{i}")
    return net, net.apply_exploiter("union", names)


@MANY
@given(case=union_of_classes(), tnorm=st.sampled_from(["min", "product"]))
def test_a_union_scores_the_best_projection_that_does_not_mismatch(case, tnorm):
    net, union = case
    obj = net.objects["O"]
    degrees, mismatches = [], []
    for proj in net.classes[union].projections:
        try:
            degrees.append(membership_degree(obj, proj, tnorm, net.tol))
        except SemanticMismatch as exc:
            mismatches.append(str(exc))
    if degrees:
        assert net.membership("O", union, tnorm) == max(degrees)
    else:  # every projection mismatches: the first mismatch is raised
        with pytest.raises(SemanticMismatch) as info:
            net.membership("O", union, tnorm)
        assert str(info.value) == mismatches[0]


# -- the score table's interval row ---------------------------------------------


@MANY
@given(values=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
       lo=st.integers(-4, 3), width=st.integers(1, 5), lo_open=st.booleans(),
       hi_open=st.booleans(), unit=st.sampled_from([None, "cm"]),
       class_unit=st.sampled_from([None, "cm"]))
def test_a_tuple_meets_an_interval_that_holds_every_component(values, lo, width, lo_open,
                                                               hi_open, unit, class_unit):
    hi = lo + width

    def inside(x):
        above = lo < x if lo_open else lo <= x
        below = x < hi if hi_open else x <= hi
        return above and below

    window = Property("q", "S", Interval(lo, hi, class_unit, lo_open, hi_open))
    degree = compat_degree(Property("q", "S", CrispTuple(values, unit)), window)
    assert degree == (1.0 if unit == class_unit and all(map(inside, values)) else 0.0)
    degree = compat_degree(Property("q", "S", CrispNumber(values[0], unit)), window)
    assert degree == (1.0 if unit == class_unit and inside(values[0]) else 0.0)


# -- what intersection and difference keep of their arguments -------------------

law_values = {pid: values.filter(lambda v: type(v) is not Interval)
              for pid, values in infer_object_values.items()}


@MANY
@given(data=st.data(), n=st.integers(2, 3), tnorm=st.sampled_from(["min", "product"]))
def test_intersection_and_difference_hold_their_object_arguments_at_1(data, n, tnorm):
    """Every object argument of an intersection, and the first argument of
    a difference, belongs to the result at 1.  Not so for an object that
    holds an interval: its interval scores 0, even against an equal one."""
    net = Network()
    names = [f"O{i}" for i in range(n)]
    for name in names:
        methods = [METHOD] if data.draw(st.booleans()) else []
        net.add(define_object(name, data.draw(some_properties(law_values)), methods))
    results = []
    for kind, args, members in (("intersection", names, names),
                                ("difference", names[:2], names[:1])):
        try:
            results.append((net.apply_exploiter(kind, args), members))
        except DoesNotExist:
            pass
    for result, members in results:
        for name in members:
            assert net.membership(name, result, tnorm) == 1.0
