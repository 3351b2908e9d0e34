"""Fuzzing both input formats: every bad input is a FoodnError.

A `.foodn` text with random edits either parses or raises DslError, and a
network it gives answers every operation or refuses it with a FoodnError.

For JSON, the seed document is small but holds one of everything a document can:
each value kind, a method, a graded relation, an extensional class from a
union of objects, a heterogeneous class from a union of classes, and the
history, provenance and modification-of edge of a modifier.  Each example
replaces one or two of its fields (a leaf or a container) by a JSON value
of some type, or deletes one.  Fields are drawn by shape, list indices
ignored, so that each kind of field is edited as often as any other.
"""
from __future__ import annotations

import copy
import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from foodn import fixture_path
from foodn.dsl import parse_network
from foodn.errors import DslError, FoodnError
from foodn.evaluator import eval_method
from foodn.serialize import dumps, export_dot, loads

SEED_TEXT = """
class T {
  property p1 "N" = 4;
  property p2 "L" : fuzzy;
  property p4 "A" = interval(0, 180] deg;
  property p5 "Z" : absent;
  property p6 "G" : fuzzy;
  method f1 "P" = "4*a" bind a = p2[1] unit cm;
}
class U { property p1 "N" = 3; property p7 "F" = {1/1} cm; }
object O : T { p1 = 4; p2 = [{1/0.5 + 2/1} cm] * 2; p4 = (90, 90) deg; p6 = fuzzy(0.8); }
object Q { p1 "N" = 3; p7 "F" = {1/1} cm; }
relation O instance-of T degree 0.5;
modifier M object O -> O2 target-class T { p1: 4 -> 5; }
"""


def _seed_text():
    net, _ = parse_network(SEED_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # O2 leaves T, which is fine here
        net.apply_modifier("M", "O")
    net.apply_exploiter("union", ["O2", "Q"])
    net.apply_exploiter("union", ["T", "U"])
    return dumps(net)


SEED = _seed_text()


def _paths(node, here=()):
    """Every path into the document: to each container and each leaf."""
    yield here
    if isinstance(node, dict):
        for key, item in node.items():
            yield from _paths(item, here + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _paths(item, here + (i,))


SHAPES: dict[tuple, list[tuple]] = {}  # shape, list indices as "*" -> its paths
for _path in list(_paths(json.loads(SEED)))[1:]:  # not the root itself
    SHAPES.setdefault(tuple("*" if isinstance(k, int) else k for k in _path), []).append(_path)

REPLACEMENTS = [
    None, True, False, 0, 1, -1, 2, 2.5, 0.5, 1e308, -1e308, "", "x", "4", "0.5", "O",
    "object", "class", [], [1], ["x"], [[1, 1]], {}, {"a": 1}, {"kind": "number"},
]
DELETE = object()

paths = st.sampled_from(sorted(SHAPES, key=repr)).flatmap(lambda shape: st.sampled_from(SHAPES[shape]))
edits = st.lists(st.tuples(paths, st.sampled_from(REPLACEMENTS + [DELETE])), min_size=1, max_size=2)


def _edited(edit_list) -> str:
    doc = json.loads(SEED)
    for path, value in edit_list:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = json.loads(json.dumps(value))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced this path
    return json.dumps(doc)


def _answers_or_refuses(call, *args):
    try:
        call(*args)
    except FoodnError:
        pass


@settings(max_examples=600, deadline=None, derandomize=True)
@given(edit_list=edits)
def test_an_edited_document_loads_or_is_refused(edit_list):
    try:
        net = loads(_edited(edit_list))
    except FoodnError:
        return
    _answers_or_refuses(loads, dumps(net))
    _answers_or_refuses(net.is_fuzzy)
    _answers_or_refuses(export_dot, net)
    _answers_or_refuses(net.infer_relations)
    for obj in sorted(net.objects):
        for cls in sorted(net.classes):
            _answers_or_refuses(net.membership, obj, cls)


# -- .foodn text ----------------------------------------------------------------

FIXTURES = [fixture_path(name).read_text(encoding="utf-8") for name in ("polygons.foodn", "disjoint.foodn")]
PIECES = [
    '"', "\\", "\n", "//", "->", "-", "1e999", "91e3095", *"{}()[],;:=/+*^.",
    "fuzzy", "absent", "interval", "extension", "degree", "target-class", "é", "²",
]
# (operation, a, b, c, piece): insert the piece at a, delete the span a..b, or
# copy the span a..b to c; offsets are taken modulo the length of the text
text_edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "copy"]),
        *[st.integers(0, 10**6)] * 3,
        st.sampled_from(PIECES),
    ),
    min_size=1,
    max_size=4,
)


def _edited_text(text: str, edit_list) -> str:
    for op, a, b, c, piece in edit_list:
        a, b, c = sorted((a % (len(text) + 1), b % (len(text) + 1))) + [c % (len(text) + 1)]
        if op == "insert":
            text = text[:a] + piece + text[a:]
        elif op == "delete":
            text = text[:a] + text[b:]
        else:
            text = text[:c] + text[a:b] + text[c:]
    return text


@settings(max_examples=600, deadline=None, derandomize=True)
@given(fixture=st.sampled_from(FIXTURES), edit_list=text_edits)
def test_an_edited_network_text_parses_or_is_refused(fixture, edit_list):
    try:
        net, _ = parse_network(_edited_text(fixture, edit_list))
    except DslError:
        return
    _answers_or_refuses(lambda: loads(dumps(net)))
    _answers_or_refuses(net.is_fuzzy)
    _answers_or_refuses(net.infer_relations)
    live = sorted(net.objects) + sorted(net.classes)
    _answers_or_refuses(export_dot, net, live[:2])
    for obj in sorted(net.objects):
        for method in net.objects[obj].signature:
            _answers_or_refuses(eval_method, net.objects[obj], method.id)
        for cls in sorted(net.classes):
            _answers_or_refuses(net.membership, obj, cls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a result that leaves its target class
        for name, modifier in sorted(net.modifiers.items()):
            _answers_or_refuses(copy.deepcopy(net).apply_modifier, name, modifier.source)
