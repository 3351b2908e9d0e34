"""Canonical JSON documents and DOT export.

Serialization is canonical: keys are sorted, property and method lists are
ordered by id, name-keyed collections by name.  Serializing, loading, and
serializing again yields byte-identical text.  ``to_document`` builds a
network's document as dicts, and ``dumps`` writes them with a writer that
knows the document's shape; its text is that of
``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, on every Python.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str

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

# Document kind -> value record.  A value document is its record's fields by
# name, tuples as lists, and the record checks them as it is read back; only
# a "fuzzy" document holds its set's elements and unit beside "kind" instead,
# and a "fuzzy-tuple" one a list of such sets.
VALUE_KINDS = {
    "number": CrispNumber,
    "tuple": CrispTuple,
    "interval": Interval,
    "truth": TruthDegree,
    "fuzzy-marker": FuzzyMarker,
    "absent": Absent,
    "fuzzy": Fuzzy,
    "fuzzy-tuple": FuzzyTuple,
}
_KIND_OF = {record: kind for kind, record in VALUE_KINDS.items()}


def _fs_doc(fs: FuzzySet) -> dict:
    return {"elements": [[s, d] for s, d in fs.elements], "unit": fs.unit}


def _fs_from(doc) -> FuzzySet:
    return FuzzySet(tuple((s, d) for s, d in doc["elements"]), doc["unit"])


def _record_doc(record, **docs) -> dict:
    """*docs* and every other field of *record* by name, tuples as lists."""
    for name in record.__match_args__:
        if name not in docs:
            field = getattr(record, name)
            docs[name] = list(field) if type(field) is tuple else field
    return docs


def _record_from(record, doc, **fields):
    """*record* from *fields* and every other field of *doc* by name; mirrors _record_doc."""
    for name in record.__match_args__:
        if name not in fields:
            fields[name] = doc[name]
    return record(**fields)


def value_to_doc(value) -> dict:
    kind = _KIND_OF.get(type(value))
    if kind is None:
        raise TypeError(f"not a property value: {value!r}")
    if kind == "fuzzy":
        return {"kind": kind, **_fs_doc(value.value)}
    if kind == "fuzzy-tuple":
        return {"kind": kind, "values": [_fs_doc(fs) for fs in value.values]}
    return _record_doc(value, kind=kind)


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
    if kind == "fuzzy":
        return Fuzzy(_fs_from(doc))
    if kind == "fuzzy-tuple":
        return FuzzyTuple(tuple(_fs_from(v) for v in doc["values"]))
    record = VALUE_KINDS.get(kind) if isinstance(kind, str) else None
    if record is None:
        raise CorruptDocument(f"unknown value kind {kind!r}")
    return _record_from(record, doc)


# -- entities -----------------------------------------------------------------


def _property_doc(p: Property) -> dict:
    return {"id": p.id, "semantic": p.semantic, "value": value_to_doc(p.value)}


def _property_from(doc) -> Property:
    return Property(doc["id"], doc["semantic"], _value_from(doc["value"]))


def _method_doc(m: MethodDef) -> dict:
    return _record_doc(m, bindings=[_record_doc(b) for b in m.bindings])


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
    doc = {  # the writer puts keys in sorted order, so the order here is free
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
    return _record_from(Change, doc, before=_value_from(doc["before"]), after=_value_from(doc["after"]))


def to_document(net: Network) -> dict:
    return {
        "foodn_version": SCHEMA_VERSION,
        "objects": [entity_to_doc(net.objects[n]) for n in sorted(net.objects)],
        "classes": [entity_to_doc(net.classes[n]) for n in sorted(net.classes)],
        "relations": [
            _record_doc(r) for r in sorted(net.relations, key=lambda r: (r.source, r.target, r.kind))
        ],
        "exploiters": _exploiter_docs(net),
        "modifiers": [
            _record_doc(m, changes=[_change_doc(c) for c in m.changes])
            for m in sorted(net.modifiers.values(), key=lambda m: m.name)
        ],
        "provenance": [
            _record_doc(p, changes=[_change_doc(c) for c in p.changes]) for p in net.provenance
        ],
        "history": dict(sorted(net.history.items())),
    }


def _exploiter_docs(net: Network) -> list:
    return [_record_doc(e) for e in sorted(net.exploiters.values(), key=lambda e: e.kind)]


def from_document(doc, tol: float = DEFAULT_TOL) -> Network:
    if not isinstance(doc, dict):
        raise CorruptDocument("a network document must be a JSON object")
    version = doc.get("foodn_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1
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
        net.add_relation(*map(rdoc.__getitem__, Relation.__match_args__))
    for mdoc in doc["modifiers"]:
        changes = tuple(map(_change_from, mdoc["changes"]))
        net.register_modifier(_record_from(Modifier, mdoc, changes=changes))
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
    if isinstance(doc["seq"], bool) or not isinstance(doc["seq"], int):
        raise ValueError(f"provenance seq must be a finite integer, got {doc['seq']!r}")
    sources = _names_from(doc["sources"], "provenance", "sources", "source")
    _check_strings("provenance", op=doc["op"], target=doc["target"])
    changes = tuple(map(_change_from, doc["changes"]))
    return _record_from(ProvenanceRecord, doc, sources=sources, changes=changes)


def _names_from(names, owner: str, field: str, item: str) -> tuple:
    """A JSON list of names as a tuple.  Anything else is refused: tuple()
    would split a string into letters and take a dict's keys."""
    if not isinstance(names, list):
        raise ValueError(f"{owner} {field} must be a list, got {names!r}")
    for name in names:
        _check_strings(owner, **{item: name})
    return tuple(names)


# -- JSON text ----------------------------------------------------------------
#
# One writer per document part.  Each is given the dict that to_document built
# for its part and nl, a line break and the indentation of the line the part
# starts on, and writes what json.dumps(doc, sort_keys=True, indent=2) writes:
# its keys in sorted order, two more spaces of indentation per level.  A
# writer reads only the keys it writes and trusts to_document for the rest:
# the test suite compares dumps with json.dumps byte for byte on documents
# that hold every part, so a key added to to_document and not here fails
# there.  Every float in a document is finite (the value records and
# Relation check it), so float.__repr__ is its text.

_float = float.__repr__
_int = int.__repr__


def _opt(text) -> str:
    return "null" if text is None else _str(text)


def _bool(flag) -> str:
    return "true" if flag else "false"


def _list(write, docs, nl: str) -> str:
    """A list of parts, each written by write(doc, nl) one level deeper."""
    if not docs:
        return "[]"
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join([write(doc, inner) for doc in docs])}{nl}]"


def _scalars(write, items, nl: str) -> str:
    """A list of strings or floats, each written by write(item) one level deeper."""
    if not items:
        return "[]"
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(map(write, items))}{nl}]"


def _elements(pairs, nl: str) -> str:
    if not pairs:
        return "[]"
    i = nl + "  "
    j = i + "  "
    return f"[{i}{(',' + i).join([f'[{j}{_float(s)},{j}{_float(d)}{i}]' for s, d in pairs])}{nl}]"


def _fuzzy_set(doc, nl: str) -> str:
    i = nl + "  "
    return f'{{{i}"elements": {_elements(doc["elements"], i)},{i}"unit": {_opt(doc["unit"])}{nl}}}'


def _value(doc, nl: str) -> str:
    i = nl + "  "
    kind = doc["kind"]
    if kind == "number":
        value = _float(doc["value"])
        return f'{{{i}"kind": "number",{i}"unit": {_opt(doc["unit"])},{i}"value": {value}{nl}}}'
    if kind == "truth":
        return f'{{{i}"kind": "truth",{i}"value": {_float(doc["value"])}{nl}}}'
    if kind == "fuzzy":
        elements = _elements(doc["elements"], i)
        return f'{{{i}"elements": {elements},{i}"kind": "fuzzy",{i}"unit": {_opt(doc["unit"])}{nl}}}'
    if kind == "tuple":
        values = _scalars(_float, doc["values"], i)
        return f'{{{i}"kind": "tuple",{i}"unit": {_opt(doc["unit"])},{i}"values": {values}{nl}}}'
    if kind == "interval":
        return (
            f'{{{i}"hi": {_float(doc["hi"])},{i}"hi_open": {_bool(doc["hi_open"])},{i}"kind": "interval",'
            f'{i}"lo": {_float(doc["lo"])},{i}"lo_open": {_bool(doc["lo_open"])},'
            f'{i}"unit": {_opt(doc["unit"])}{nl}}}'
        )
    if kind == "fuzzy-tuple":
        return f'{{{i}"kind": "fuzzy-tuple",{i}"values": {_list(_fuzzy_set, doc["values"], i)}{nl}}}'
    return f'{{{i}"kind": "{kind}"{nl}}}'  # fuzzy-marker or absent


def _property(doc, nl: str) -> str:
    i = nl + "  "
    return (
        f'{{{i}"id": {_str(doc["id"])},{i}"semantic": {_str(doc["semantic"])},'
        f'{i}"value": {_value(doc["value"], i)}{nl}}}'
    )


def _binding(doc, nl: str) -> str:
    i = nl + "  "
    index = doc["index"]
    return (
        f'{{{i}"accessor": {_str(doc["accessor"])},{i}"index": {"null" if index is None else _int(index)},'
        f'{i}"prop": {_str(doc["prop"])},{i}"var": {_str(doc["var"])}{nl}}}'
    )


def _method(doc, nl: str) -> str:
    i = nl + "  "
    return (
        f'{{{i}"bindings": {_list(_binding, doc["bindings"], i)},{i}"body": {_str(doc["body"])},'
        f'{i}"id": {_str(doc["id"])},{i}"result_unit": {_opt(doc["result_unit"])},'
        f'{i}"semantic": {_str(doc["semantic"])}{nl}}}'
    )


def _entity(doc, nl: str) -> str:
    i = nl + "  "
    kind = doc["kind"]
    if kind == "object":
        return (
            f'{{{i}"declared_class": {_opt(doc["declared_class"])},{i}"kind": "object",'
            f'{i}"methods": {_list(_method, doc["methods"], i)},{i}"name": {_str(doc["name"])},'
            f'{i}"properties": {_list(_property, doc["properties"], i)}{nl}}}'
        )
    if kind == "class":
        return (
            f'{{{i}"extension": {_scalars(_str, doc["extension"], i)},{i}"kind": "class",'
            f'{i}"methods": {_list(_method, doc["methods"], i)},{i}"mode": {_str(doc["mode"])},'
            f'{i}"name": {_str(doc["name"])},{i}"properties": {_list(_property, doc["properties"], i)}{nl}}}'
        )
    return (  # heterogeneous-class
        f'{{{i}"kind": "heterogeneous-class",{i}"name": {_str(doc["name"])},'
        f'{i}"projections": {_list(_entity, doc["projections"], i)}{nl}}}'
    )


def _relation(doc, nl: str) -> str:
    i = nl + "  "
    return (
        f'{{{i}"degree": {_float(doc["degree"])},{i}"kind": {_str(doc["kind"])},'
        f'{i}"source": {_str(doc["source"])},{i}"target": {_str(doc["target"])}{nl}}}'
    )


def _change(doc, nl: str) -> str:
    i = nl + "  "
    return (
        f'{{{i}"after": {_value(doc["after"], i)},{i}"before": {_value(doc["before"], i)},'
        f'{i}"prop": {_str(doc["prop"])}{nl}}}'
    )


def _modifier(doc, nl: str) -> str:
    i = nl + "  "
    return (
        f'{{{i}"changes": {_list(_change, doc["changes"], i)},{i}"level": {_str(doc["level"])},'
        f'{i}"name": {_str(doc["name"])},{i}"source": {_str(doc["source"])},'
        f'{i}"target_class": {_opt(doc["target_class"])},{i}"target_name": {_str(doc["target_name"])}{nl}}}'
    )


def _provenance(doc, nl: str) -> str:
    i = nl + "  "
    return (
        f'{{{i}"changes": {_list(_change, doc["changes"], i)},{i}"op": {_str(doc["op"])},'
        f'{i}"seq": {_int(doc["seq"])},{i}"sources": {_scalars(_str, doc["sources"], i)},'
        f'{i}"target": {_str(doc["target"])}{nl}}}'
    )


def _exploiter(doc, nl: str) -> str:
    i = nl + "  "
    return f'{{{i}"arity": {_str(doc["arity"])},{i}"kind": {_str(doc["kind"])}{nl}}}'


def _history(history, nl: str) -> str:
    """Retired names in the order to_document sorted them."""
    if not history:
        return "{}"
    i = nl + "  "
    names = ",".join([f"{i}{_str(name)}: {_str(kind)}" for name, kind in history.items()])
    return f"{{{names}{nl}}}"


def _write(doc) -> str:
    """The text of json.dumps(doc, sort_keys=True, indent=2) for a network
    document that to_document built."""
    i = "\n  "
    return (
        f'{{{i}"classes": {_list(_entity, doc["classes"], i)},'
        f'{i}"exploiters": {_list(_exploiter, doc["exploiters"], i)},'
        f'{i}"foodn_version": {_int(doc["foodn_version"])},{i}"history": {_history(doc["history"], i)},'
        f'{i}"modifiers": {_list(_modifier, doc["modifiers"], i)},'
        f'{i}"objects": {_list(_entity, doc["objects"], i)},'
        f'{i}"provenance": {_list(_provenance, doc["provenance"], i)},'
        f'{i}"relations": {_list(_relation, doc["relations"], i)}\n}}'
    )


@collector_paused
def dumps(net: Network) -> str:
    return _write(to_document(net)) + "\n"


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
