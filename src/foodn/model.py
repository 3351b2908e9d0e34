"""Entities: fuzzy objects, classes, and the values their properties carry.

A property value is one of a closed set of variants.  Classes may use the
abstract variants (a fuzziness marker, an interval constraint, an explicit
absence); objects must stay concrete.  Property compatibility between an
object and a class yields a degree in [0, 1], and membership aggregates
those degrees with a t-norm.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import expr as _expr
from .errors import (
    AbstractValueOnObject,
    DuplicateId,
    EmptyClass,
    ExtensionMissing,
    SemanticMismatch,
)
from .fuzzy import (
    DEFAULT_TOL,
    FuzzySet,
    check_degree,
    check_tolerance,
    format_fuzzy_set,
    format_number,
    fs_equal,
    t_norm,
)

# -- property values ----------------------------------------------------------


@dataclass(frozen=True)
class CrispNumber:
    value: float
    unit: str | None = None


@dataclass(frozen=True)
class CrispTuple:
    values: tuple[float, ...]
    unit: str | None = None

    def __post_init__(self):
        if not self.values:
            raise ValueError("a tuple value needs at least one component")


@dataclass(frozen=True)
class Interval:
    """A range constraint; bounds are open unless flagged closed."""

    lo: float
    hi: float
    unit: str | None = None
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: lo={self.lo!r}, hi={self.hi!r}")

    def contains(self, x: float) -> bool:
        above = self.lo < x if self.lo_open else self.lo <= x
        below = x < self.hi if self.hi_open else x <= self.hi
        return above and below


@dataclass(frozen=True)
class TruthDegree:
    """A graded truth value for yes/no-flavoured properties."""

    value: float

    def __post_init__(self):
        check_degree(self.value, "truth degree")


@dataclass(frozen=True)
class FuzzyMarker:
    """Class-side declaration that the property is fuzzy-valued."""


@dataclass(frozen=True)
class Absent:
    """Class-side declaration that the property does not apply."""


@dataclass(frozen=True)
class Fuzzy:
    value: FuzzySet


@dataclass(frozen=True)
class FuzzyTuple:
    values: tuple[FuzzySet, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("a fuzzy tuple needs at least one component")


ABSTRACT_VARIANTS = (FuzzyMarker, Absent)

PropertyValue = (
    CrispNumber
    | CrispTuple
    | Interval
    | TruthDegree
    | FuzzyMarker
    | Absent
    | Fuzzy
    | FuzzyTuple
)


def is_fuzzy_value(value) -> bool:
    """True when the value makes its carrier fuzzy.

    Degenerate truth degrees (exactly 0 or 1) are crisp statements.
    """
    if isinstance(value, (Fuzzy, FuzzyTuple, FuzzyMarker)):
        return True
    if isinstance(value, TruthDegree):
        return 0.0 < value.value < 1.0
    return False


def format_value(value) -> str:
    """Human-readable rendering, matching the network text syntax."""
    if isinstance(value, CrispNumber):
        text = format_number(value.value)
        return f"{text} {value.unit}" if value.unit else text
    if isinstance(value, CrispTuple):
        inner = ", ".join(format_number(v) for v in value.values)
        return f"({inner}) {value.unit}" if value.unit else f"({inner})"
    if isinstance(value, Interval):
        open_b = "(" if value.lo_open else "["
        close_b = ")" if value.hi_open else "]"
        text = f"interval{open_b}{format_number(value.lo)}, {format_number(value.hi)}{close_b}"
        return f"{text} {value.unit}" if value.unit else text
    if isinstance(value, TruthDegree):
        return f"fuzzy({format_number(value.value)})"
    if isinstance(value, FuzzyMarker):
        return "fuzzy"
    if isinstance(value, Absent):
        return "absent"
    if isinstance(value, Fuzzy):
        return format_fuzzy_set(value.value)
    if isinstance(value, FuzzyTuple):
        return "(" + ", ".join(format_fuzzy_set(fs) for fs in value.values) + ")"
    raise TypeError(f"not a property value: {value!r}")


# -- properties and methods ---------------------------------------------------


@dataclass(frozen=True)
class Property:
    id: str
    semantic: str
    value: PropertyValue

    def __post_init__(self):
        if not self.id:
            raise ValueError("property id must be non-empty")
        if not self.semantic:
            raise ValueError("property semantic must be non-empty")


@dataclass(frozen=True)
class Binding:
    """Ties a body variable to a property selector of the evaluated entity.

    accessor is one of "scalar", "component" (1-based index), "all"
    (an indexed family, usable only inside sum()), or "count".
    """

    var: str
    prop: str
    accessor: str = "scalar"
    index: int | None = None

    def __post_init__(self):
        if self.accessor not in ("scalar", "component", "all", "count"):
            raise ValueError(f"unknown accessor {self.accessor!r}")
        if (self.accessor == "component") != (self.index is not None):
            raise ValueError("component bindings need an index; others must not carry one")
        if self.index is not None and self.index < 1:
            raise ValueError("component indexes are 1-based")


@dataclass(frozen=True)
class MethodDef:
    id: str
    semantic: str
    body: str
    bindings: tuple[Binding, ...] = ()
    result_unit: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("method id must be non-empty")
        ast = _expr.parse_expr(self.body)
        names = [b.var for b in self.bindings]
        if len(set(names)) != len(names):
            raise DuplicateId(f"method {self.id}: duplicate binding variables")
        unbound = _expr.free_vars(ast) - set(names)
        if unbound:
            raise ValueError(
                f"method {self.id}: unbound variables {sorted(unbound)} in body {self.body!r}"
            )


def method_equivalent(a: MethodDef, b: MethodDef) -> bool:
    """Same meaning: semantic, whitespace-normalized body, bindings, unit."""
    return (
        a.semantic == b.semantic
        and "".join(a.body.split()) == "".join(b.body.split())
        and a.bindings == b.bindings
        and a.result_unit == b.result_unit
    )


def value_equivalent(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Same variant and same content up to *tol*; units compare exactly."""
    if type(a) is not type(b):
        return False
    if isinstance(a, CrispNumber):
        return a.unit == b.unit and abs(a.value - b.value) <= tol
    if isinstance(a, CrispTuple):
        return (
            a.unit == b.unit
            and len(a.values) == len(b.values)
            and all(abs(x - y) <= tol for x, y in zip(a.values, b.values))
        )
    if isinstance(a, Interval):
        return (
            a.unit == b.unit
            and a.lo_open == b.lo_open
            and a.hi_open == b.hi_open
            and abs(a.lo - b.lo) <= tol
            and abs(a.hi - b.hi) <= tol
        )
    if isinstance(a, TruthDegree):
        return abs(a.value - b.value) <= tol
    if isinstance(a, (FuzzyMarker, Absent)):
        return True
    if isinstance(a, Fuzzy):
        return fs_equal(a.value, b.value, tol)
    if isinstance(a, FuzzyTuple):
        return len(a.values) == len(b.values) and all(
            fs_equal(x, y, tol) for x, y in zip(a.values, b.values)
        )
    raise TypeError(f"not a property value: {a!r}")


def property_equivalent(a: Property, b: Property, tol: float = DEFAULT_TOL) -> bool:
    return a.semantic == b.semantic and value_equivalent(a.value, b.value, tol)


def compat_degree(obj_prop: Property, class_prop: Property, tol: float = DEFAULT_TOL) -> float:
    """Degree to which an object's property satisfies a class's property.

    Raises SemanticMismatch when the two describe different things; the
    caller is expected to pair properties by id within one vocabulary.
    """
    if obj_prop.semantic != class_prop.semantic:
        raise SemanticMismatch(
            f"property {obj_prop.id}: {obj_prop.semantic!r} vs {class_prop.semantic!r}"
        )
    ov, cv = obj_prop.value, class_prop.value

    if isinstance(cv, Absent):
        return 1.0
    if isinstance(ov, CrispNumber) and isinstance(cv, CrispNumber):
        return 1.0 if value_equivalent(ov, cv, tol) else 0.0
    if isinstance(ov, CrispTuple) and isinstance(cv, CrispTuple):
        return 1.0 if value_equivalent(ov, cv, tol) else 0.0
    if isinstance(ov, CrispTuple) and isinstance(cv, Interval):
        if ov.unit != cv.unit:
            return 0.0
        return 1.0 if all(cv.contains(x) for x in ov.values) else 0.0
    if isinstance(ov, (Fuzzy, FuzzyTuple)) and isinstance(cv, FuzzyMarker):
        return 1.0
    if isinstance(ov, Fuzzy) and isinstance(cv, Fuzzy):
        return 1.0 if value_equivalent(ov, cv, tol) else 0.0
    if isinstance(ov, FuzzyTuple) and isinstance(cv, FuzzyTuple):
        return 1.0 if value_equivalent(ov, cv, tol) else 0.0
    if isinstance(ov, TruthDegree):
        if isinstance(cv, FuzzyMarker):
            return ov.value
        if isinstance(cv, CrispNumber):
            if abs(cv.value - 1.0) <= tol:
                return ov.value
            if abs(cv.value) <= tol:
                return 1.0 - ov.value
            return 0.0
        if isinstance(cv, TruthDegree):
            return 1.0 if abs(ov.value - cv.value) <= tol else 0.0
    return 0.0


# -- entities -----------------------------------------------------------------


class _Specified:
    """Shared lookups over specification/signature tuples."""

    def get_property(self, pid: str) -> Property | None:
        for p in self.specification:
            if p.id == pid:
                return p
        return None

    def get_method(self, mid: str) -> MethodDef | None:
        for m in self.signature:
            if m.id == mid:
                return m
        return None


def _check_ids(name, specification, signature):
    seen = set()
    for item in list(specification) + list(signature):
        if item.id in seen:
            raise DuplicateId(f"{name}: id {item.id!r} used twice")
        seen.add(item.id)


@dataclass(frozen=True)
class ClassSpec(_Specified):
    """An intensional or extensional fuzzy class."""

    name: str
    specification: tuple[Property, ...] = ()
    signature: tuple[MethodDef, ...] = ()
    mode: str = "intensional"
    extension: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.mode not in ("intensional", "extensional"):
            raise ValueError(f"unknown class mode {self.mode!r}")
        _check_ids(self.name, self.specification, self.signature)
        if self.mode == "intensional":
            if not self.specification and not self.signature:
                raise EmptyClass(f"class {self.name}: needs at least one property or method")
            if self.extension:
                raise ValueError(f"class {self.name}: intensional classes carry no extension")
        else:
            if not self.extension:
                raise ExtensionMissing(f"class {self.name}: extensional classes need members")


@dataclass(frozen=True)
class HeterogeneousClass:
    """A union-typed class: one projection per source class, unmerged."""

    name: str
    projections: tuple[ClassSpec, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("class name must be non-empty")
        if len(self.projections) < 2:
            raise ValueError("a heterogeneous class needs at least two projections")
        names = [p.name for p in self.projections]
        if len(set(names)) != len(names):
            raise DuplicateId(f"{self.name}: duplicate projection {names!r}")


@dataclass(frozen=True)
class FuzzyObject(_Specified):
    name: str
    specification: tuple[Property, ...] = ()
    signature: tuple[MethodDef, ...] = ()
    declared_class: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("object name must be non-empty")
        _check_ids(self.name, self.specification, self.signature)
        for p in self.specification:
            if isinstance(p.value, ABSTRACT_VARIANTS):
                raise AbstractValueOnObject(
                    f"object {self.name}: property {p.id} carries the abstract value "
                    f"{format_value(p.value)!r}"
                )


Entity = FuzzyObject | ClassSpec | HeterogeneousClass


def define_class(name, properties=(), methods=(), mode="intensional", extension=()) -> ClassSpec:
    return ClassSpec(name, tuple(properties), tuple(methods), mode, tuple(extension))


def define_object(name, properties=(), methods=(), declared_class=None) -> FuzzyObject:
    return FuzzyObject(name, tuple(properties), tuple(methods), declared_class)


def entity_kind(entity) -> str:
    if isinstance(entity, FuzzyObject):
        return "object"
    if isinstance(entity, (ClassSpec, HeterogeneousClass)):
        return "class"
    raise TypeError(f"not an entity: {entity!r}")


def is_fuzzy_entity(entity) -> tuple[bool, tuple[str, ...]]:
    """(verdict, ids of the fuzzy-valued properties, in declaration order)."""
    if isinstance(entity, HeterogeneousClass):
        witnesses = []
        for proj in sorted(entity.projections, key=lambda p: p.name):
            _, ids = is_fuzzy_entity(proj)
            witnesses.extend(f"{pid}@{proj.name}" for pid in ids)
        return bool(witnesses), tuple(witnesses)
    ids = tuple(p.id for p in entity.specification if is_fuzzy_value(p.value))
    return bool(ids), ids


def membership_degree(obj: FuzzyObject, cls, tnorm: str = "min", tol: float = DEFAULT_TOL) -> float:
    """Graded membership of an object in a class.

    Intensional classes aggregate per-property compatibility with the chosen
    t-norm; a class property missing from the object scores 0 unless the
    class marks it absent.  Extensional classes test the member list.
    Heterogeneous classes take the best projection.  The tolerance must
    be a finite number >= 0 (ValueError otherwise).
    """
    tol = check_tolerance(tol)
    if isinstance(cls, HeterogeneousClass):
        return max(membership_degree(obj, proj, tnorm, tol) for proj in cls.projections)
    if cls.mode == "extensional":
        return 1.0 if obj.name in cls.extension else 0.0
    norm = t_norm(tnorm)
    degree = 1.0
    for cp in cls.specification:
        op = obj.get_property(cp.id)
        if op is None:
            d = 1.0 if isinstance(cp.value, Absent) else 0.0
        else:
            d = compat_degree(op, cp, tol)
        degree = norm(degree, d)
    return degree
