"""Modifiers: named, replayable property transformations.

A modifier declares what it expects to find (the before values) and what it
leaves behind (the after values).  Application replaces the source entity
with the transformed one in a single step; the network keeps the source
name in its history and records the change in provenance.
"""
from __future__ import annotations

from ._record import record, replace
from .errors import (
    DuplicateChange,
    EmptyChangeList,
    InvalidChange,
)
from .model import (
    HeterogeneousClass,
    Property,
    PropertyValue,
    _check_strings,
    check_value,
    entity_kind,
    format_value,
    value_equivalent,
)


@record
class Change:
    prop: str
    before: PropertyValue
    after: PropertyValue

    def __post_init__(self):
        _check_strings("change", prop=self.prop)
        if not self.prop:
            raise ValueError("change property id must be non-empty")
        check_value(self.before)
        check_value(self.after)
        if value_equivalent(self.before, self.after, 0.0):  # exactly, whatever the tolerance
            raise InvalidChange(
                f"change to {self.prop} must alter the value, both sides are "
                f"{format_value(self.before)}"
            )


@record
class Modifier:
    name: str
    level: str  # "object" or "class"
    source: str
    target_name: str
    changes: tuple[Change, ...]
    target_class: str | None = None

    def __post_init__(self):
        names = {"name": self.name, "source": self.source, "target_name": self.target_name}
        if self.target_class is not None:
            names["target_class"] = self.target_class
        _check_strings("modifier", **names)
        empty = [key for key, text in names.items() if not text]
        if empty:
            raise ValueError(f"modifier {self.name!r}: {', '.join(empty)} must be non-empty")
        if self.level not in ("object", "class"):
            raise ValueError(f"modifier level must be object or class, got {self.level!r}")
        if not self.changes:
            raise EmptyChangeList(f"modifier {self.name}: no changes declared")
        ids = [c.prop for c in self.changes]
        if len(set(ids)) != len(ids):
            raise DuplicateChange(f"modifier {self.name}: several changes target one property")


def define_modifier(name, level, source, target_name, changes, target_class=None) -> Modifier:
    return Modifier(name, level, source, target_name, tuple(changes), target_class)


def check_applicable(modifier: Modifier, entity, tol: float):
    """(verdict, reasons).  The entity's name is not consulted, only its
    level and current values; a modifier therefore reapplies to renamed
    descendants of its original source."""
    if isinstance(entity, HeterogeneousClass):
        return False, [f"{entity.name} is a heterogeneous class and cannot be modified"]
    kind = entity_kind(entity)
    if kind != modifier.level:
        return False, [f"{modifier.name} is {modifier.level}-level, {entity.name} is a {kind}"]
    reasons = []
    for change in modifier.changes:
        prop = entity.get_property(change.prop)
        if prop is None:
            reasons.append(f"{entity.name} has no property {change.prop}")
        elif not value_equivalent(prop.value, change.before, tol):
            reasons.append(
                f"{change.prop} is {format_value(prop.value)}, "
                f"expected {format_value(change.before)}"
            )
    return not reasons, reasons


def transform(modifier: Modifier, entity):
    """The entity's specification after the modifier's changes, still under
    the old name; renaming and signature donation are the network's job."""
    by_id = {c.prop: c for c in modifier.changes}
    new_spec = tuple(
        Property(p.id, p.semantic, by_id[p.id].after) if p.id in by_id else p
        for p in entity.specification
    )
    return replace(entity, specification=new_spec)
