"""Canonical JSON documents and DOT export.

Serialization is canonical: keys are sorted, property and method lists are
ordered by id, name-keyed collections by name.  Serializing, loading, and
serializing again yields byte-identical text.
"""
from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _json_str

from ._gc import collector_paused
from .errors import CorruptDocument, FoodnError, SchemaVersionMismatch
from .fuzzy import DEFAULT_TOL, FuzzySet, format_number
from .model import (
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
    _check_name,
    _check_strings,
    entity_kind,
)
from .modifiers import Change, Modifier
from .network import Network, ProvenanceRecord, Relation

SCHEMA_VERSION = 1


# -- values -------------------------------------------------------------------


def _fs_doc(fs: FuzzySet) -> dict:
    return {"elements": [[s, d] for s, d in fs.elements], "unit": fs.unit}


def _fs_from(doc) -> FuzzySet:
    elements = tuple((_number(s), _number(d)) for s, d in doc["elements"])
    return FuzzySet(elements, _unit(doc["unit"]))


# A document's numbers, units and flags are checked as they are read: float()
# alone would take "4" and true, and a unit of [] or {} would load and fail
# later, where it is hashed or sorted.


def _number(x) -> float:
    if type(x) is float or type(x) is int:  # not bool, a subclass of int
        return float(x)
    raise ValueError(f"expected a number, got {x!r}")


def _unit(unit):
    if unit is None or type(unit) is str:
        return unit
    raise ValueError(f"a unit must be a string or null, got {unit!r}")


def _flag(flag) -> bool:
    if flag is True or flag is False:
        return flag
    raise ValueError(f"an interval bound flag must be true or false, got {flag!r}")


def value_to_doc(value) -> dict:
    if isinstance(value, CrispNumber):
        return {"kind": "number", "value": value.value, "unit": value.unit}
    if isinstance(value, CrispTuple):
        return {"kind": "tuple", "values": list(value.values), "unit": value.unit}
    if isinstance(value, Interval):
        return {
            "kind": "interval",
            "lo": value.lo,
            "hi": value.hi,
            "lo_open": value.lo_open,
            "hi_open": value.hi_open,
            "unit": value.unit,
        }
    if isinstance(value, TruthDegree):
        return {"kind": "truth", "value": value.value}
    if isinstance(value, FuzzyMarker):
        return {"kind": "fuzzy-marker"}
    if isinstance(value, Absent):
        return {"kind": "absent"}
    if isinstance(value, Fuzzy):
        return {"kind": "fuzzy", **_fs_doc(value.value)}
    if isinstance(value, FuzzyTuple):
        return {"kind": "fuzzy-tuple", "values": [_fs_doc(fs) for fs in value.values]}
    raise TypeError(f"not a property value: {value!r}")


def _refused(what: str, build, *args):
    """build(*args), raising whatever it refuses in a document as CorruptDocument."""
    try:
        return build(*args)
    except CorruptDocument:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, FoodnError) as exc:
        raise CorruptDocument(f"{what}: {exc}") from exc


def value_from_doc(doc):
    return _refused("bad value document", _value_from, doc)


def _value_from(doc):
    kind = doc["kind"]
    if kind == "number":
        return CrispNumber(_number(doc["value"]), _unit(doc["unit"]))
    if kind == "tuple":
        return CrispTuple(tuple(map(_number, doc["values"])), _unit(doc["unit"]))
    if kind == "interval":
        lo, hi = _number(doc["lo"]), _number(doc["hi"])
        return Interval(lo, hi, _unit(doc["unit"]), _flag(doc["lo_open"]), _flag(doc["hi_open"]))
    if kind == "truth":
        return TruthDegree(_number(doc["value"]))
    if kind == "fuzzy-marker":
        return FuzzyMarker()
    if kind == "absent":
        return Absent()
    if kind == "fuzzy":
        return Fuzzy(_fs_from(doc))
    if kind == "fuzzy-tuple":
        return FuzzyTuple(tuple(_fs_from(v) for v in doc["values"]))
    raise CorruptDocument(f"unknown value kind {kind!r}")


# -- entities -----------------------------------------------------------------


def _property_doc(p: Property) -> dict:
    return {"id": p.id, "semantic": p.semantic, "value": value_to_doc(p.value)}


def _property_from(doc) -> Property:
    return Property(doc["id"], doc["semantic"], _value_from(doc["value"]))


def _method_doc(m: MethodDef) -> dict:
    return {
        "id": m.id,
        "semantic": m.semantic,
        "body": m.body,
        "bindings": [
            {"var": b.var, "prop": b.prop, "accessor": b.accessor, "index": b.index}
            for b in m.bindings
        ],
        "result_unit": m.result_unit,
    }


def _method_from(doc, methods: dict) -> MethodDef:
    """The MethodDef of *doc*, built once per distinct document in *methods*."""
    mid, semantic, body, unit = doc["id"], doc["semantic"], doc["body"], doc["result_unit"]
    bindings = tuple((b["var"], b["prop"], b["accessor"], b["index"]) for b in doc["bindings"])
    key = repr((mid, semantic, body, unit, bindings))  # repr keeps 1, 1.0 and true apart
    if key not in methods:
        methods[key] = MethodDef(mid, semantic, body, tuple(Binding(*b) for b in bindings), unit)
    return methods[key]


def entity_to_doc(entity) -> dict:
    kind = entity_kind(entity)  # TypeError for a non-entity
    if isinstance(entity, HeterogeneousClass):
        return {
            "kind": "heterogeneous-class",
            "name": entity.name,
            "projections": [
                entity_to_doc(p) for p in sorted(entity.projections, key=lambda p: p.name)
            ],
        }
    doc = {  # the encoder sorts keys, so the order here is free
        "kind": kind,
        "name": entity.name,
        "properties": [_property_doc(p) for p in sorted(entity.specification, key=lambda p: p.id)],
        "methods": [_method_doc(m) for m in sorted(entity.signature, key=lambda m: m.id)],
    }
    if kind == "object":
        doc["declared_class"] = entity.declared_class
    else:
        doc["mode"] = entity.mode
        doc["extension"] = sorted(entity.extension)
    return doc


def entity_from_doc(doc):
    return _refused("bad entity document", _entity_from, doc, {})


def _entity_from(doc, methods: dict):
    kind = doc["kind"]
    if kind == "object":
        return FuzzyObject(
            doc["name"],
            tuple(_property_from(p) for p in doc["properties"]),
            tuple(_method_from(m, methods) for m in doc["methods"]),
            doc["declared_class"],
        )
    if kind == "class":
        return ClassSpec(
            doc["name"],
            tuple(_property_from(p) for p in doc["properties"]),
            tuple(_method_from(m, methods) for m in doc["methods"]),
            doc["mode"],
            _names_from(doc["extension"], "class", "extension", "member"),
        )
    if kind == "heterogeneous-class":
        projections = doc["projections"]
        if any(p["kind"] != "class" for p in projections):  # checked before recursing into them
            raise ValueError(f"{doc['name']}: every projection must be a homogeneous class")
        return HeterogeneousClass(doc["name"], tuple(_entity_from(p, methods) for p in projections))
    raise CorruptDocument(f"unknown entity kind {kind!r}")


# -- networks -----------------------------------------------------------------


def _change_doc(c: Change) -> dict:
    return {"prop": c.prop, "before": value_to_doc(c.before), "after": value_to_doc(c.after)}


def _change_from(doc) -> Change:
    return Change(doc["prop"], _value_from(doc["before"]), _value_from(doc["after"]))


def to_document(net: Network) -> dict:
    return {
        "foodn_version": SCHEMA_VERSION,
        "objects": [entity_to_doc(net.objects[n]) for n in sorted(net.objects)],
        "classes": [entity_to_doc(net.classes[n]) for n in sorted(net.classes)],
        "relations": [
            {"source": r.source, "target": r.target, "kind": r.kind, "degree": r.degree}
            for r in sorted(net.relations, key=lambda r: (r.source, r.target, r.kind))
        ],
        "exploiters": _exploiter_docs(net),
        "modifiers": [
            {
                "name": m.name,
                "level": m.level,
                "source": m.source,
                "target_name": m.target_name,
                "target_class": m.target_class,
                "changes": [_change_doc(c) for c in m.changes],
            }
            for m in sorted(net.modifiers.values(), key=lambda m: m.name)
        ],
        "provenance": [
            {
                "seq": p.seq,
                "op": p.op,
                "sources": list(p.sources),
                "target": p.target,
                "changes": [_change_doc(c) for c in p.changes],
            }
            for p in net.provenance
        ],
        "history": dict(sorted(net.history.items())),
    }


def _exploiter_docs(net: Network) -> list:
    return [
        {"kind": e.kind, "arity": e.arity}
        for e in sorted(net.exploiters.values(), key=lambda e: e.kind)
    ]


def from_document(doc, tol: float = DEFAULT_TOL) -> Network:
    if not isinstance(doc, dict):
        raise CorruptDocument("a network document must be a JSON object")
    version = doc.get("foodn_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION}"
        )
    for key in ("objects", "classes", "relations", "exploiters", "modifiers", "provenance",
                "history"):
        if key not in doc:
            raise CorruptDocument(f"missing key {key!r}")
    # whatever the network refuses to build from the document is the
    # document's fault, not a domain error of the operation that loaded it
    return _refused("bad network document", _network_from, doc, tol)


def _network_from(doc, tol: float) -> Network:
    net = Network(tol)
    # every network carries the universal exploiters, and nothing reads them
    # from a document, so any other list would not survive a save
    if doc["exploiters"] != _exploiter_docs(net):
        raise ValueError(f"exploiters must be the universal five, got {doc['exploiters']!r}")
    methods: dict = {}  # one MethodDef per distinct method document in this load
    net.history = _history_from(doc["history"])
    for edoc in doc["classes"]:
        net.add(_entity_from(edoc, methods))
    for edoc in doc["objects"]:
        net.add(_entity_from(edoc, methods))
    for rdoc in doc["relations"]:
        net.add_relation(rdoc["source"], rdoc["target"], rdoc["kind"], _number(rdoc["degree"]))
    for mdoc in doc["modifiers"]:
        net.register_modifier(
            Modifier(
                mdoc["name"],
                mdoc["level"],
                mdoc["source"],
                mdoc["target_name"],
                tuple(_change_from(c) for c in mdoc["changes"]),
                mdoc["target_class"],
            )
        )
    for pdoc in doc["provenance"]:
        net.provenance.append(_provenance_from(pdoc))
    return net


def _history_from(history) -> dict:
    """Retired name -> "object" or "class".  dict() alone would take a list of
    two-letter strings as pairs, and any key or kind."""
    if not isinstance(history, dict):
        raise ValueError(f"history must be an object, got {history!r}")
    for name, kind in history.items():
        _check_name("history", name)
        if kind not in ("object", "class"):
            raise ValueError(f"history kind of {name!r} must be object or class, got {kind!r}")
    return dict(history)


def _provenance_from(doc) -> ProvenanceRecord:
    # checked here, not in ProvenanceRecord, which the network builds from
    # names it already holds on every exploiter and modifier it applies
    seq, op, sources, target = doc["seq"], doc["op"], doc["sources"], doc["target"]
    if isinstance(seq, bool) or not isinstance(seq, int):
        raise ValueError(f"provenance seq must be a finite integer, got {seq!r}")
    sources = _names_from(sources, "provenance", "sources", "source")
    _check_strings("provenance", op=op, target=target)
    return ProvenanceRecord(
        seq, op, sources, target, tuple(_change_from(c) for c in doc["changes"])
    )


def _names_from(names, owner: str, field: str, item: str) -> tuple:
    """A JSON list of names as a tuple.  Anything else is refused: tuple()
    would split a string into letters and take a dict's keys."""
    if not isinstance(names, list):
        raise ValueError(f"{owner} {field} must be a list, got {names!r}")
    for name in names:
        _check_strings(owner, **{item: name})
    return tuple(names)


# -- JSON text ----------------------------------------------------------------

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(value, out: list, nl: str):
    """Append the JSON text of *value* to *out*; *nl* is a line break and the
    indentation of the line *value* starts on.

    Strings, floats and nulls, nearly every leaf of a network document, are
    written inline by their container; any other item takes one more call.
    The dict and list loops are spelled out twice because one loop over
    zipped (head, item) pairs measured 40% slower.
    """
    inner = nl + "  "
    after = "," + inner
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        head = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            head += _json_str(key) + ": "
            kind = type(item)
            if kind is str:
                out.append(head + _json_str(item))
            elif kind is float:
                text = float.__repr__(item)
                out.append(head + _FLOAT_WORDS.get(text, text))
            elif item is None:
                out.append(head + "null")
            else:
                out.append(head)
                _emit(item, out, inner)
            head = after
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        head = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(head + _json_str(item))
            elif kind is float:
                text = float.__repr__(item)
                out.append(head + _FLOAT_WORDS.get(text, text))
            elif item is None:
                out.append(head + "null")
            else:
                out.append(head)
                _emit(item, out, inner)
            head = after
        out.append(nl + "]")
    else:
        out.append(_json_scalar(value))


def _emit_json(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte,
    for documents whose keys are all str; other keys raise TypeError."""
    out: list = []
    _emit(doc, out, "\n")
    return "".join(out)


def _stdlib_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# Given indent=, json before CPython 3.13 leaves its C encoder for nested
# Python generators; _emit_json writes the same bytes in about half the time.
# From 3.13 the C encoder indents and is faster than _emit_json.  Delete
# _emit_json once requires-python reaches 3.13.
encode_json = _stdlib_json if sys.version_info >= (3, 13) else _emit_json


@collector_paused
def dumps(net: Network) -> str:
    return encode_json(to_document(net)) + "\n"


@collector_paused
def loads(text: str, tol: float = DEFAULT_TOL) -> Network:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise CorruptDocument(f"not valid JSON: {exc}") from exc
    return from_document(doc, tol)


def load_file(path: str, tol: float = DEFAULT_TOL):
    """(network, warnings) from a .foodn text file or a JSON document."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".foodn"):
        from .dsl import parse_network

        return parse_network(text, tol)
    return loads(text, tol), []


def save_file(net: Network, path: str):
    text = dumps(net)  # before open() truncates the file, so a failed dumps leaves it whole
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- DOT export ---------------------------------------------------------------


def _q(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(net: Network, overlay=()) -> str:
    """Render the relation graph in DOT.

    Objects are boxes, classes ellipses (doubled for heterogeneous ones),
    retired names dotted.  With *overlay*, virtual result nodes for the
    universal exploiters over those entities are added; operations whose
    result may not exist are dashed.
    """
    overlay = list(overlay)
    for name in overlay:
        net.entity(name)  # raises UnknownEntity for strangers
    lines = ["digraph foodn {", "  rankdir=BT;"]
    for name in sorted(net.objects):
        lines.append(f"  {_q(name)} [shape=box];")
    for name in sorted(net.classes):
        extra = ", peripheries=2" if isinstance(net.classes[name], HeterogeneousClass) else ""
        lines.append(f"  {_q(name)} [shape=ellipse{extra}];")
    ends = {name for r in net.relations for name in (r.source, r.target)}
    for name in sorted(ends - net.objects.keys() - net.classes.keys()):
        shape = "box" if net.history.get(name) == "object" else "ellipse"
        lines.append(f"  {_q(name)} [shape={shape}, style=dotted];")

    for r in sorted(net.relations, key=lambda r: (r.source, r.target, r.kind)):
        label = f"{r.kind} {format_number(r.degree)}" if r.degree < 1.0 else r.kind
        style = ", style=dashed" if r.kind == "modification-of" else ""
        lines.append(f"  {_q(r.source)} -> {_q(r.target)} [label={_q(label)}{style}];")

    # one (node, label, arguments, style) per virtual result; only ∪ always exists
    joined, dashed = ", ".join(overlay), ", style=dashed"
    many, two = len(overlay) >= 2, len(overlay) == 2
    results = [
        (f"{symbol}({joined})", symbol, overlay, style)
        for symbol, style, drawn in (("∪", "", many), ("∩", dashed, many), ("∖", dashed, two), ("÷", dashed, two))
        if drawn
    ]
    results += [(f"clone({name})", "clone", [name], "") for name in overlay]
    for node, label, args, style in results:
        lines.append(f"  {_q(node)} [shape=hexagon{style}];")
        lines.extend(f"  {_q(name)} -> {_q(node)} [label={_q(label)}{style}];" for name in args)

    lines.append("}")
    return "\n".join(lines) + "\n"
