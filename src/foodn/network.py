"""The network: entities, relations, exploiters, modifiers, and history.

A network is the single mutable structure in the engine.  Entities stay
immutable; every transformation stores a new entity and appends a
provenance record.  A modifier deletes its source: only the source's name
and kind stay, in the history map, behind a modification-of edge.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import count

from . import exploiters as _exp
from .errors import (
    ArityError,
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
from .fuzzy import DEFAULT_TOL, check_degree, check_tolerance, format_number
from .model import (
    Absent,
    ClassSpec,
    FuzzyObject,
    HeterogeneousClass,
    Property,
    compat_degree,
    entity_kind,
    is_fuzzy_entity,
    membership_degree,
    misfit,
)
from .modifiers import Modifier, check_applicable, transform

# Endpoint kind constraints: (source kind, target kind); None means any.
_ENDPOINT_RULES = {
    "instance-of": ("object", "class"),
    "is-a": ("class", "class"),
    "a-kind-of": ("class", "class"),
    "modification-of": ("same", "same"),
    "aggregation": (None, None),
    "association": (None, None),
}
RELATION_KINDS = tuple(_ENDPOINT_RULES)


@dataclass(frozen=True, slots=True)
class Relation:
    source: str
    target: str
    kind: str
    degree: float = 1.0

    def __post_init__(self):
        if self.kind not in RELATION_KINDS:
            raise KindMismatch(f"unknown relation kind {self.kind!r}")
        degree = check_degree(self.degree, "relation degree")
        if type(self.degree) is not float:  # a document would write back 1 or true
            object.__setattr__(self, "degree", degree)

    def __str__(self):
        text = f"{self.source} {self.kind} {self.target}"
        if self.degree != 1.0:
            text += f" [{format_number(self.degree)}]"
        return text


@dataclass(frozen=True, slots=True)
class Witness:
    """One reason a network is fuzzy."""

    name: str
    kind: str  # "object", "class" or "relation"
    details: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class ProvenanceRecord:
    seq: int
    op: str
    sources: tuple[str, ...]
    target: str
    changes: tuple = ()


def _term_degree(own: dict[str, Property], class_prop: Property, tol: float) -> float:
    """One term of membership_degree for an object whose properties are
    *own*, by id; a SemanticMismatch scores 0."""
    obj_prop = own.get(class_prop.id)
    if obj_prop is None:
        return 1.0 if isinstance(class_prop.value, Absent) else 0.0
    try:
        return compat_degree(obj_prop, class_prop, tol)
    except SemanticMismatch:
        return 0.0


class Network:
    """A fuzzy object-oriented dynamic network."""

    def __init__(self, tol: float = DEFAULT_TOL):
        self.tol = check_tolerance(tol)
        self.objects: dict[str, FuzzyObject] = {}
        self.classes: dict[str, ClassSpec | HeterogeneousClass] = {}
        self.relations = []  # the setter builds the index
        self.modifiers: dict[str, Modifier] = {}
        self.exploiters: dict[str, _exp.ExploiterInfo] = {
            e.kind: e for e in _exp.UNIVERSAL_EXPLOITERS
        }
        self.provenance: list[ProvenanceRecord] = []
        self.history: dict[str, str] = {}  # retired name -> entity kind

    # -- construction ---------------------------------------------------

    def _live(self, name: str) -> bool:
        return name in self.objects or name in self.classes

    def _check_free(self, name: str):
        if self._live(name):
            raise DuplicateName(f"{name!r} is already bound to a live entity")

    def _home(self, entity) -> dict:
        """The live map an entity belongs in; TypeError for a non-entity."""
        return self.objects if entity_kind(entity) == "object" else self.classes

    def add(self, entity):
        home = self._home(entity)
        self._check_free(entity.name)
        home[entity.name] = entity
        return entity

    def _endpoint_kind(self, name: str) -> str:
        if name in self.objects:
            return "object"
        if name in self.classes:
            return "class"
        if name in self.history:
            return self.history[name]
        raise UnknownEndpoint(f"no entity, live or historical, named {name!r}")

    @property
    def relations(self) -> list[Relation]:
        """Every relation in insertion order: the canonical list that
        fuzziness witnesses and exports read.  Insert through add_relation;
        mutating the list in place bypasses the index.  Assigning a list
        re-indexes it in order, treating duplicates as add_relation does but
        checking no endpoints (entities and history may be assigned after)."""
        return self._relations

    @relations.setter
    def relations(self, relations):
        self._relations: list[Relation] = []
        self._by_key: dict[tuple[str, str, str], Relation] = {}
        # direction -> kind -> name -> the names one edge away
        self._adjacency: dict[str, dict[str, dict[str, list[str]]]] = {
            d: {k: {} for k in RELATION_KINDS} for d in ("out", "in")
        }
        for relation in relations:
            self._insert(relation)

    def _is_new(self, key: tuple[str, str, str], degree: float) -> bool:
        """False for an exact duplicate of the (source, target, kind) edge,
        which set semantics make a no-op; raises DuplicateName when the edge
        is present with another degree."""
        existing = self._by_key.get(key)
        if existing is None:
            return True
        if existing.degree == degree:
            return False
        raise DuplicateName(f"relation {existing} already present with a different degree")

    def _insert(self, relation: Relation):
        key = (relation.source, relation.target, relation.kind)
        if not self._is_new(key, relation.degree):
            return
        self._by_key[key] = relation
        self._relations.append(relation)
        self._adjacency["out"][relation.kind].setdefault(relation.source, []).append(relation.target)
        self._adjacency["in"][relation.kind].setdefault(relation.target, []).append(relation.source)

    def add_relation(self, source: str, target: str, kind: str, degree: float = 1.0):
        relation = Relation(source, target, kind, degree)
        src = self._endpoint_kind(source)
        tgt = self._endpoint_kind(target)
        want_src, want_tgt = _ENDPOINT_RULES[kind]
        if want_src == "same":
            if src != tgt:
                raise KindMismatch(f"{kind} links entities of one kind, got {src} and {tgt}")
        else:
            if want_src is not None and src != want_src:
                raise KindMismatch(f"{kind} needs a {want_src} source, got {src}")
            if want_tgt is not None and tgt != want_tgt:
                raise KindMismatch(f"{kind} needs a {want_tgt} target, got {tgt}")
        self._insert(relation)

    def register_modifier(self, modifier: Modifier):
        if modifier.name in self.modifiers:
            raise DuplicateName(f"modifier {modifier.name!r} already registered")
        self.modifiers[modifier.name] = modifier
        return modifier

    # -- lookups ----------------------------------------------------------

    def entity(self, name: str):
        if name in self.objects:
            return self.objects[name]
        if name in self.classes:
            return self.classes[name]
        raise UnknownEntity(f"no live entity named {name!r}")

    def _fresh_name(self, base: str) -> str:
        if not self._live(base):
            return base
        i = next(i for i in count(2) if not self._live(f"{base}_{i}"))
        return f"{base}_{i}"

    # -- queries ----------------------------------------------------------

    def is_fuzzy(self) -> tuple[bool, list[Witness]]:
        """Whether anything in the network is fuzzy, with all the reasons:
        fuzzy-valued objects, fuzzy-valued classes, graded relations."""
        witnesses: list[Witness] = []
        for kind, entities in (("object", self.objects), ("class", self.classes)):
            for name in sorted(entities):
                fuzzy, ids = is_fuzzy_entity(entities[name])
                if fuzzy:
                    witnesses.append(Witness(name, kind, ids))
        for rel in self.relations:
            if rel.degree < 1.0:
                witnesses.append(
                    Witness(str(rel), "relation", (f"degree {format_number(rel.degree)}",))
                )
        return bool(witnesses), witnesses

    def membership(self, object_name: str, class_name: str, tnorm: str = "min") -> float:
        if object_name not in self.objects:
            raise UnknownEntity(f"no live object named {object_name!r}")
        if class_name not in self.classes:
            raise UnknownEntity(f"no live class named {class_name!r}")
        return membership_degree(self.objects[object_name], self.classes[class_name], tnorm, self.tol)

    def query_related(self, name: str, kinds, direction: str = "out", transitive: bool = False):
        """Names reachable over relations of the given kinds.

        Historical entities participate: modification chains stay queryable
        after their intermediate names retire.  Pure cycles terminate; the
        result is sorted and excludes duplicates.
        """
        if isinstance(kinds, str):
            kinds = (kinds,)
        for k in kinds:
            if k not in RELATION_KINDS:
                raise KindMismatch(f"unknown relation kind {k!r}")
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be out or in, got {direction!r}")
        self._endpoint_kind(name)  # raises UnknownEndpoint for strangers

        steps = [self._adjacency[direction][k] for k in set(kinds)]
        found: set[str] = set()
        frontier = [name]
        while frontier:
            here = frontier.pop()
            for step in steps:
                for nxt in step.get(here, ()):
                    if nxt not in found:
                        found.add(nxt)
                        if transitive:
                            frontier.append(nxt)
        return sorted(found)

    def infer_relations(self, threshold: float = 0.0) -> list[Relation]:
        """Propose instance-of edges for object/class pairs whose membership
        clears the threshold; nothing is added to the network.

        Only pairs that can score above 0 are scored.  An intensional class
        property that the object lacks, and that the class does not mark
        absent, scores 0, and 0 absorbs every t-norm; so an object meets
        such a class only when it carries all of the class's non-absent
        property ids.  Extensional and heterogeneous classes are always
        scored, through membership_degree.

        Intensional classes are scored here, under membership_degree's min
        t-norm.  Each distinct class property is numbered once per call and
        scored at most once per object, into that object's table.  Min is
        order-free and 0 absorbs it, so a class stops at its first term
        that scores 0 or raises SemanticMismatch: neither can be proposed.
        """
        threshold = check_degree(threshold, "threshold")
        numbers: dict[Property, int] = {}  # each distinct intensional class property
        required = []  # (name, class, ids an object must carry to score > 0, term numbers)
        for cname in sorted(self.classes):
            cls = self.classes[cname]
            if isinstance(cls, ClassSpec) and cls.mode == "intensional":
                needs = frozenset(p.id for p in cls.specification if not isinstance(p.value, Absent))
                terms = tuple(numbers.setdefault(p, len(numbers)) for p in cls.specification)
            else:
                needs, terms = frozenset(), None
            required.append((cname, cls, needs, terms))
        class_props = list(numbers)
        candidates: dict[frozenset[str], list] = {}  # object's ids -> classes to score
        proposals = []
        for oname in sorted(self.objects):
            obj = self.objects[oname]
            own = {p.id: p for p in obj.specification}
            ids = frozenset(own)
            if ids not in candidates:
                candidates[ids] = [
                    (cname, cls, terms) for cname, cls, needs, terms in required if needs <= ids
                ]
            table = [None] * len(class_props)  # term number -> degree; a mismatch reads 0
            for cname, cls, terms in candidates[ids]:
                if (oname, cname, "instance-of") in self._by_key:
                    continue
                if terms is None:
                    try:
                        degree = membership_degree(obj, cls, "min", self.tol)
                    except SemanticMismatch:
                        continue
                else:
                    degree = 1.0
                    for t in terms:
                        d = table[t]
                        if d is None:
                            d = table[t] = _term_degree(own, class_props[t], self.tol)
                        if d < degree:
                            degree = d
                            if degree == 0.0:
                                break
                if degree > 0.0 and degree >= threshold:
                    proposals.append(Relation(oname, cname, "instance-of", degree))
        return proposals

    # -- dynamics ---------------------------------------------------------

    def _bind(self, entity, op: str, sources, changes=(), retired: str | None = None) -> str:
        """Store an exploiter's or a modifier's result and append its
        provenance record; the one place either enters the network.  A
        modifier's result retires its source: the source moves into history,
        behind a modification-of edge from the result.  Callers check
        everything first, so nothing here can fail."""
        live = self._home(entity)
        if retired is not None:
            del live[retired]
            self.history[retired] = entity_kind(entity)
        live[entity.name] = entity
        if retired is not None:
            self.add_relation(entity.name, retired, "modification-of")
        self.provenance.append(
            ProvenanceRecord(len(self.provenance) + 1, op, tuple(sources), entity.name, tuple(changes))
        )
        return entity.name

    def apply_exploiter(self, kind: str, names, result_name: str | None = None, index: int | None = None) -> str:
        """Run an exploiter over live entities and store what it creates.

        Returns the stored entity's name.  For a union over objects the
        stored artifact is the induced extensional class.
        """
        if kind not in self.exploiters:
            raise UnknownExploiter(f"no exploiter {kind!r}; have {sorted(self.exploiters)}")
        names = list(names)
        entities = [self.entity(n) for n in names]
        arity, n = self.exploiters[kind].arity, len(entities)
        if arity == "n" and n < 2:
            raise ArityError(f"{kind} needs at least two entities")
        if arity != "n" and n != int(arity):
            raise ArityError(f"{kind} takes {'one entity' if arity == '1' else 'two entities'}, got {n}")

        if kind == "clone":
            if result_name is not None:
                raise ArityError("clone names its result from its index; it takes no result name")
            if index is None:
                index = next(i for i in count(1) if not self._live(f"{names[0]}_clone{i}"))
            result_name = f"{names[0]}_clone{index}"
        elif index is not None:
            raise ArityError(f"{kind} takes no index; only clone does")
        elif result_name is None:
            result_name = f"{kind}_" + "_".join(names)
        if self._live(result_name):
            raise NameCollision(f"{result_name!r} is already live")

        if kind == "union":
            result = _exp.union_op(entities, result_name)
            stored = result.induced_class if isinstance(result, _exp.ObjectSet) else result
        elif kind == "intersection":
            stored = _exp.intersection_op(entities, result_name, self.tol)
        elif kind == "difference":
            stored = _exp.difference_op(*entities, result_name, self.tol)
        elif kind == "sym-difference":
            stored = _exp.sym_difference_op(*entities, result_name, self.tol)
        else:  # clone
            stored = _exp.clone_op(entities[0], index)
        return self._bind(stored, kind, names)

    def apply_modifier(self, modifier_name: str, entity_name: str) -> str:
        """Replace the entity with its transformed version.

        All checks happen before any mutation, so a failed application
        leaves the network exactly as it was.
        """
        if modifier_name not in self.modifiers:
            raise UnknownModifier(f"no modifier named {modifier_name!r}")
        mod = self.modifiers[modifier_name]
        entity = self.entity(entity_name)
        ok, reasons = check_applicable(mod, entity, self.tol)
        if not ok:
            raise NotApplicable(
                f"{modifier_name} does not apply to {entity_name}: " + "; ".join(reasons),
                reasons,
            )

        result = transform(mod, entity)
        if mod.target_class is not None:
            if mod.target_class not in self.classes:
                raise UnknownEntity(f"target class {mod.target_class!r} is not live")
            donor = self.classes[mod.target_class]
            if isinstance(donor, HeterogeneousClass):
                raise KindMismatch(
                    f"target class {mod.target_class!r} is heterogeneous and has no signature"
                )
            # donate before renaming, so a clash of ids is reported under the source name
            declared = {"declared_class": donor.name} if isinstance(result, FuzzyObject) else {}
            result = replace(result, signature=donor.signature, **declared)
        result = replace(result, name=self._fresh_name(mod.target_name))
        # a conflicting degree must fail here, before _bind changes anything
        self._is_new((result.name, entity_name, "modification-of"), 1.0)
        self._bind(result, modifier_name, (entity_name,), mod.changes, retired=entity_name)

        if isinstance(result, FuzzyObject) and mod.target_class is not None:
            reason = misfit(result, self.classes[mod.target_class], self.tol)
            if reason is not None:
                warnings.warn(
                    f"{modifier_name}: result {result.name} does not belong to its "
                    f"target class {mod.target_class} ({reason})",
                    ReflectionWarning,
                    stacklevel=2,
                )
        return result.name
