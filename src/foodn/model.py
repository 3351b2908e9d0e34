"""Entities: fuzzy objects, classes, and the values their properties carry.

A property value is one of a closed set of variants, each a record that
checks its own fields when it is built.  Classes may use the abstract
variants (a fuzziness marker, an interval constraint, an explicit absence);
objects must stay concrete.  Property compatibility between an object and a
class yields a degree in [0, 1], and membership aggregates those degrees
with a t-norm.
"""
from __future__ import annotations

import math
from collections.abc import Callable

from . import expr as _expr
from ._record import COMPUTED, record, replace
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
    as_float,
    check_degree,
    check_tolerance,
    check_unit,
    format_fuzzy_set,
    format_number,
    fs_equal,
    t_norm,
    with_unit,
)

# -- property values ----------------------------------------------------------


@record
class CrispNumber:
    value: float
    unit: str | None = None

    def __post_init__(self):
        check_unit(self.unit)
        if type(self.value) is not float:
            object.__setattr__(self, "value", as_float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"a number must be finite, got {self.value!r}")


@record
class CrispTuple:
    values: tuple[float, ...]
    unit: str | None = None

    def __post_init__(self):
        check_unit(self.unit)
        if type(self.values) is not tuple or {*map(type, self.values)} != {float}:
            object.__setattr__(self, "values", tuple(map(as_float, self.values)))
        if not self.values:
            raise ValueError("a tuple value needs at least one component")
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"tuple components must be finite, got {self.values!r}")


@record
class Interval:
    """A range constraint; bounds are open unless flagged closed."""

    lo: float
    hi: float
    unit: str | None = None
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        check_unit(self.unit)
        for flag in (self.lo_open, self.hi_open):
            if flag is not True and flag is not False:
                raise ValueError(f"an interval bound flag must be true or false, got {flag!r}")
        if type(self.lo) is not float or type(self.hi) is not float:
            object.__setattr__(self, "lo", as_float(self.lo))
            object.__setattr__(self, "hi", as_float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got lo={self.lo!r}, hi={self.hi!r}")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: lo={self.lo!r}, hi={self.hi!r}")

    def contains(self, x: float) -> bool:
        above = self.lo < x if self.lo_open else self.lo <= x
        below = x < self.hi if self.hi_open else x <= self.hi
        return above and below


@record
class TruthDegree:
    """A graded truth value for yes/no-flavoured properties."""

    value: float

    def __post_init__(self):
        if type(self.value) is not float:
            object.__setattr__(self, "value", as_float(self.value))
        check_degree(self.value, "truth degree")


@record
class FuzzyMarker:
    """Class-side declaration that the property is fuzzy-valued."""


@record
class Absent:
    """Class-side declaration that the property does not apply."""


@record
class Fuzzy:
    value: FuzzySet

    def __post_init__(self):
        if not isinstance(self.value, FuzzySet):
            raise ValueError(f"a fuzzy value must be a fuzzy set, got {self.value!r}")


@record
class FuzzyTuple:
    values: tuple[FuzzySet, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a fuzzy tuple needs at least one component")
        if not all(isinstance(fs, FuzzySet) for fs in self.values):
            raise ValueError(f"fuzzy tuple components must be fuzzy sets, got {self.values!r}")


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
_VALUE_TYPES = frozenset(PropertyValue.__args__)


def check_value(value):
    """Refuse anything but one of the eight value records, exactly: the
    score table and the equality table are keyed by type, so a subclass
    would score 0 there without an error."""
    if type(value) not in _VALUE_TYPES:
        raise ValueError(f"not a property value: {value!r}")


def is_fuzzy_value(value) -> bool:
    """True when the value makes its carrier fuzzy.

    Degenerate truth degrees (exactly 0 or 1) are crisp statements.
    """
    kind = type(value)
    if kind is TruthDegree:
        return 0.0 < value.value < 1.0
    return kind is Fuzzy or kind is FuzzyTuple or kind is FuzzyMarker


def format_value(value) -> str:
    """Text in the network syntax, which reads back every value the .foodn
    parser builds; a one-component tuple, and a fuzzy tuple whose components
    carry different units (each written with its own), have no .foodn text."""
    if isinstance(value, CrispNumber):
        return with_unit(format_number(value.value), value.unit)
    if isinstance(value, CrispTuple):
        return with_unit("(" + ", ".join(format_number(v) for v in value.values) + ")", value.unit)
    if isinstance(value, Interval):
        open_b = "(" if value.lo_open else "["
        close_b = ")" if value.hi_open else "]"
        text = f"interval{open_b}{format_number(value.lo)}, {format_number(value.hi)}{close_b}"
        return with_unit(text, value.unit)
    if isinstance(value, TruthDegree):
        return f"fuzzy({format_number(value.value)})"
    if isinstance(value, FuzzyMarker):
        return "fuzzy"
    if isinstance(value, Absent):
        return "absent"
    if isinstance(value, Fuzzy):
        return format_fuzzy_set(value.value)
    if isinstance(value, FuzzyTuple):
        unit = value.values[0].unit
        if all(fs.unit == unit for fs in value.values):  # .foodn reads one unit, after the ")"
            sets = ", ".join(format_fuzzy_set(replace(fs, unit=None)) for fs in value.values)
            return with_unit(f"({sets})", unit)
        return "(" + ", ".join(map(format_fuzzy_set, value.values)) + ")"
    raise TypeError(f"not a property value: {value!r}")


# -- properties and methods ---------------------------------------------------


def _check_strings(owner: str, **fields):
    for name, value in fields.items():
        if not isinstance(value, str):
            raise ValueError(f"{owner} {name} must be a string, got {value!r}")


def _check_name(owner: str, name):
    if not (isinstance(name, str) and name):  # hot: inline test
        _check_strings(owner, name=name)
        raise ValueError(f"{owner} name must be non-empty")


@record
class Property:
    id: str
    semantic: str
    value: PropertyValue

    def __post_init__(self):
        if not (isinstance(self.id, str) and isinstance(self.semantic, str)):  # hot: inline test
            _check_strings("property", id=self.id, semantic=self.semantic)
        if not self.id:
            raise ValueError("property id must be non-empty")
        if not self.semantic:
            raise ValueError("property semantic must be non-empty")
        check_value(self.value)


@record
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
        _check_strings("binding", var=self.var, prop=self.prop)
        if self.accessor not in ("scalar", "component", "all", "count"):
            raise ValueError(f"unknown accessor {self.accessor!r}")
        if (self.accessor == "component") != (self.index is not None):
            raise ValueError("component bindings need an index; others must not carry one")
        if self.index is not None and (type(self.index) is not int or self.index < 1):
            raise ValueError(f"component indexes are 1-based integers, got {self.index!r}")


@record
class MethodDef:
    """A method.  Its body is parsed, checked and compiled once, when it is
    built; ``program`` is a function of one slot per binding, in order.  It
    is computed, not given: a copied or unpickled method compiles again."""

    id: str
    semantic: str
    body: str
    bindings: tuple[Binding, ...] = ()
    result_unit: str | None = None
    program: Callable = COMPUTED

    def __post_init__(self):
        _check_strings("method", id=self.id, semantic=self.semantic, body=self.body)
        if self.result_unit is not None:  # it becomes the unit of a result
            _check_strings("method", result_unit=self.result_unit)
            check_unit(self.result_unit)
        if not self.id:
            raise ValueError("method id must be non-empty")
        ast = _expr.parse_expr(self.body)
        names = [b.var for b in self.bindings]
        if len(set(names)) != len(names):
            raise DuplicateId(f"method {self.id}: duplicate binding variables")
        slots = {name: i for i, name in enumerate(names)}
        families = {b.var for b in self.bindings if b.accessor == "all"}
        try:
            program = _expr.compile_program(ast, slots, families)
        except ValueError as exc:  # unbound variables
            raise ValueError(f"method {self.id}: {exc} in body {self.body!r}") from None
        object.__setattr__(self, "program", program)


def method_equivalent(a: MethodDef, b: MethodDef) -> bool:
    """Same meaning: semantic, whitespace-normalized body, bindings, unit."""
    return (
        a.semantic == b.semantic
        and "".join(a.body.split()) == "".join(b.body.split())
        and a.bindings == b.bindings
        and a.result_unit == b.result_unit
    )


def _numbers_equal(a: CrispNumber, b: CrispNumber, tol: float) -> bool:
    return a.unit == b.unit and abs(a.value - b.value) <= tol


def _tuples_equal(a: CrispTuple, b: CrispTuple, tol: float) -> bool:
    return (
        a.unit == b.unit
        and len(a.values) == len(b.values)
        and all(abs(x - y) <= tol for x, y in zip(a.values, b.values))
    )


def _intervals_equal(a: Interval, b: Interval, tol: float) -> bool:
    return (
        a.unit == b.unit
        and a.lo_open == b.lo_open
        and a.hi_open == b.hi_open
        and abs(a.lo - b.lo) <= tol
        and abs(a.hi - b.hi) <= tol
    )


def _truths_equal(a: TruthDegree, b: TruthDegree, tol: float) -> bool:
    return abs(a.value - b.value) <= tol


def _markers_equal(a, b, tol: float) -> bool:
    return True


def _fuzzy_equal(a: Fuzzy, b: Fuzzy, tol: float) -> bool:
    return fs_equal(a.value, b.value, tol)


def _fuzzy_tuples_equal(a: FuzzyTuple, b: FuzzyTuple, tol: float) -> bool:
    return len(a.values) == len(b.values) and all(
        fs_equal(x, y, tol) for x, y in zip(a.values, b.values)
    )


# the one "equal within tol" rule per variant: units and lengths exactly
_EQUAL = {
    CrispNumber: _numbers_equal,
    CrispTuple: _tuples_equal,
    Interval: _intervals_equal,
    TruthDegree: _truths_equal,
    FuzzyMarker: _markers_equal,
    Absent: _markers_equal,
    Fuzzy: _fuzzy_equal,
    FuzzyTuple: _fuzzy_tuples_equal,
}


def value_equivalent(a, b, tol: float) -> bool:
    """Same variant and same content up to *tol*; units compare exactly."""
    if type(a) is not type(b):
        return False
    equal = _EQUAL.get(type(a))
    if equal is None:
        raise TypeError(f"not a property value: {a!r}")
    return equal(a, b, tol)


def property_equivalent(a: Property, b: Property, tol: float) -> bool:
    return a.semantic == b.semantic and value_equivalent(a.value, b.value, tol)


def _score_equal(equal):
    return lambda ov, cv, tol: 1.0 if equal(ov, cv, tol) else 0.0


def _in_interval(ov: CrispNumber, cv: Interval, tol: float) -> float:
    return 1.0 if ov.unit == cv.unit and cv.contains(ov.value) else 0.0


def _all_in_interval(ov: CrispTuple, cv: Interval, tol: float) -> float:
    # an interval is convex: it holds every component iff it holds both extremes
    values = ov.values
    inside = ov.unit == cv.unit and cv.contains(min(values)) and cv.contains(max(values))
    return 1.0 if inside else 0.0


def _truth_against_number(ov: TruthDegree, cv: CrispNumber, tol: float) -> float:
    if abs(cv.value - 1.0) <= tol:
        return ov.value
    if abs(cv.value) <= tol:
        return 1.0 - ov.value
    return 0.0


def _one(ov, cv, tol: float) -> float:
    return 1.0


# (object value type, class value type) -> score; every other pair scores 0.
# An object's interval is a range, not a value: it meets nothing but absent.
_TERMS = {
    **{(kind, Absent): _one for kind in _VALUE_TYPES},
    **{(kind, kind): _score_equal(_EQUAL[kind])
       for kind in (CrispNumber, CrispTuple, TruthDegree, FuzzyMarker, Fuzzy, FuzzyTuple)},
    (CrispNumber, Interval): _in_interval,
    (CrispTuple, Interval): _all_in_interval,
    (Fuzzy, FuzzyMarker): _one,
    (FuzzyTuple, FuzzyMarker): _one,
    (TruthDegree, FuzzyMarker): lambda ov, cv, tol: ov.value,
    (TruthDegree, CrispNumber): _truth_against_number,
}


def compat_degree(obj_prop: Property | None, class_prop: Property, tol: float = DEFAULT_TOL) -> float:
    """Degree to which an object's property satisfies a class's property:
    one term of membership_degree.  A property the object lacks (None)
    scores 1 if the class marks it absent, else 0.  Raises SemanticMismatch
    when the two describe different things; the caller is expected to pair
    properties by id within one vocabulary.  Every other pair scores by the
    value types' row in _TERMS, README's Membership table.
    """
    if obj_prop is None:
        return 1.0 if type(class_prop.value) is Absent else 0.0
    if obj_prop.semantic != class_prop.semantic:
        raise SemanticMismatch(
            f"property {obj_prop.id}: {obj_prop.semantic!r} vs {class_prop.semantic!r}"
        )
    ov, cv = obj_prop.value, class_prop.value
    score = _TERMS.get((type(ov), type(cv)))
    return 0.0 if score is None else score(ov, cv, tol)


# -- entities -----------------------------------------------------------------


class _Specified:
    """Shared lookups over specification/signature tuples."""

    __slots__ = ()  # so that the slotted entities carry no __dict__

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


def _check_items(name, specification, signature):
    """Properties, then methods, each id once."""
    seen = set()
    for items, record in ((specification, Property), (signature, MethodDef)):
        for item in items:
            if type(item) is not record:
                raise ValueError(f"{name}: a specification holds properties and a signature methods")
            if item.id in seen:
                raise DuplicateId(f"{name}: id {item.id!r} used twice")
            seen.add(item.id)


@record
class ClassSpec(_Specified):
    """An intensional or extensional fuzzy class."""

    name: str
    specification: tuple[Property, ...] = ()
    signature: tuple[MethodDef, ...] = ()
    mode: str = "intensional"
    extension: tuple[str, ...] = ()

    def __post_init__(self):
        _check_name("class", self.name)
        if self.mode not in ("intensional", "extensional"):
            raise ValueError(f"unknown class mode {self.mode!r}")
        _check_items(self.name, self.specification, self.signature)
        if self.mode == "intensional":
            if not self.specification and not self.signature:
                raise EmptyClass(f"class {self.name}: needs at least one property or method")
            if self.extension:
                raise ValueError(f"class {self.name}: intensional classes carry no extension")
        else:
            if not self.extension:
                raise ExtensionMissing(f"class {self.name}: extensional classes need members")
            for member in self.extension:
                _check_strings("class", member=member)


@record
class HeterogeneousClass:
    """A union-typed class: one projection per source class, unmerged."""

    name: str
    projections: tuple[ClassSpec, ...]

    def __post_init__(self):
        _check_name("class", self.name)
        if len(self.projections) < 2:
            raise ValueError("a heterogeneous class needs at least two projections")
        if not all(isinstance(p, ClassSpec) for p in self.projections):
            raise ValueError(f"{self.name}: every projection must be a homogeneous class")
        names = [p.name for p in self.projections]
        if len(set(names)) != len(names):
            raise DuplicateId(f"{self.name}: duplicate projection {names!r}")


@record
class FuzzyObject(_Specified):
    name: str
    specification: tuple[Property, ...] = ()
    signature: tuple[MethodDef, ...] = ()
    declared_class: str | None = None

    def __post_init__(self):
        _check_name("object", self.name)
        if not (self.declared_class is None or isinstance(self.declared_class, str)):
            _check_strings("object", declared_class=self.declared_class)
        _check_items(self.name, self.specification, self.signature)
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
    if type(entity) is HeterogeneousClass:
        witnesses = []
        for proj in sorted(entity.projections, key=lambda p: p.name):
            _, ids = is_fuzzy_entity(proj)
            witnesses.extend(f"{pid}@{proj.name}" for pid in ids)
        return bool(witnesses), tuple(witnesses)
    ids = tuple([p.id for p in entity.specification if is_fuzzy_value(p.value)])
    return bool(ids), ids


def membership_degree(obj: FuzzyObject, cls, tnorm: str = "min", tol: float = DEFAULT_TOL) -> float:
    """Graded membership of an object in a class.

    Intensional classes aggregate per-property compatibility (compat_degree,
    which also scores a class property missing from the object) with the
    chosen t-norm.  Extensional classes test the member list.
    Heterogeneous classes take the best projection; a projection whose
    vocabulary does not match the object's (SemanticMismatch) counts 0, and
    the first mismatch is raised only when every projection mismatches.
    The tolerance must be a finite number >= 0 (ValueError otherwise).
    """
    tol = check_tolerance(tol)
    norm = t_norm(tnorm)  # checked whatever the class
    if isinstance(cls, HeterogeneousClass):
        degrees, mismatch = [], None
        for proj in cls.projections:
            try:
                degrees.append(membership_degree(obj, proj, tnorm, tol))
            except SemanticMismatch as exc:
                mismatch = mismatch or exc
        if not degrees:
            raise mismatch
        return max(degrees)
    if cls.mode == "extensional":
        return 1.0 if obj.name in cls.extension else 0.0
    degree = 1.0
    for cp in cls.specification:
        degree = norm(degree, compat_degree(obj.get_property(cp.id), cp, tol))
    return degree


def misfit(obj: FuzzyObject, cls, tol: float) -> str | None:
    """Why *obj* does not belong to *cls* under the min t-norm: the
    SemanticMismatch message, or "membership degree is 0"; None if it does."""
    try:
        degree = membership_degree(obj, cls, "min", tol)
    except SemanticMismatch as exc:
        return str(exc)
    return None if degree > 0.0 else "membership degree is 0"
