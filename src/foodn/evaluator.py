"""Method evaluation over fuzzy-valued properties, and the extension of a
crisp function to fuzzy arguments; both enter the kernel through one step.

A MethodDef carries its body compiled, when it is built, to a Python
function of one slot per binding; the evaluator resolves the bindings and
runs that function.  Each slot carries the supports and degrees of its
value (crisp values are one-point supports at degree 1).  The kernel
enumerates all support combinations, so a variable bound once names one
quantity no matter how often the body mentions it.

An indexed family bound with [*] may appear only inside sum() (a MethodDef
that reads it elsewhere is refused when it is built), so the body depends
on the family through its sum alone.  The members vary independently, and
under sup-min the extension of a sum over noninteractive variables equals
extending it one pair at a time (Zadeh 1975; Dubois and Prade 1980).  The
family's slot therefore carries its sum, folded member by member through
the kernel, and the cost grows with the size of the partial sums rather
than with the product of the members' supports.
"""
from __future__ import annotations

from . import kernel as _kernel
from .errors import EmptyInput, UnknownMethod, UnresolvedBinding
from .expr import compile_program, parse_expr
from .fuzzy import DEFAULT_TOL, FuzzySet, check_tolerance
from .model import (
    Binding,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyTuple,
    MethodDef,
    TruthDegree,
)

_ADD = compile_program(parse_expr("x + y"), {"x": 0, "y": 1})


def resolve_binding(entity, binding: Binding):
    """Value(s) the binding selects on *entity*.

    Returns a float or FuzzySet for scalar selectors, or a list of those for
    an indexed family ([*]).  Raises UnresolvedBinding when the property is
    missing or its shape does not fit the accessor.
    """
    prop = entity.get_property(binding.prop)
    if prop is None:
        raise UnresolvedBinding(
            f"{entity.name}: no property {binding.prop!r} for variable {binding.var!r}"
        )
    value = prop.value

    def components():
        if isinstance(value, (CrispTuple, FuzzyTuple)):
            return list(value.values)
        return None

    if binding.accessor == "count":
        parts = components()
        return float(len(parts)) if parts is not None else 1.0
    if binding.accessor == "scalar":
        if isinstance(value, (CrispNumber, TruthDegree, Fuzzy)):
            return value.value
        raise UnresolvedBinding(
            f"{entity.name}.{binding.prop} is not a scalar; bind a component or use [*]"
        )
    if binding.accessor == "component":
        parts = components()
        if parts is None:
            raise UnresolvedBinding(f"{entity.name}.{binding.prop} has no components")
        if binding.index > len(parts):
            raise UnresolvedBinding(
                f"{entity.name}.{binding.prop} has {len(parts)} components, "
                f"index {binding.index} is out of range"
            )
        return parts[binding.index - 1]
    # "all": an indexed family; scalars act as a one-member family
    parts = components()
    if parts is not None:
        return parts
    if isinstance(value, (CrispNumber, Fuzzy)):
        return [value.value]
    raise UnresolvedBinding(f"{entity.name}.{binding.prop} cannot form an indexed family")


def _column(value):
    """Supports and degrees of one value; a crisp value is one point at degree 1."""
    if isinstance(value, FuzzySet):
        return value.supports(), value.degrees()
    return [float(value)], [1.0]


def _fold_sum(parts, tol: float):
    """Supports and degrees of the sum of *parts*, extended one member at a time."""
    supports, degrees = _column(parts[0])
    for part in parts[1:]:
        s, d = _column(part)
        supports, degrees = _kernel.eval_program(_ADD, [supports, s], [degrees, d], tol)
    return supports, degrees


def _extend(program, inputs, tol: float, unit: str | None = None):
    """Run *program* with a slot per input (a list is its sum); a float if all are crisp."""
    tol = check_tolerance(tol)
    supports = []
    degrees = []
    any_fuzzy = False
    for value in inputs:
        parts = value if isinstance(value, list) else [value]
        any_fuzzy = any_fuzzy or any(isinstance(p, FuzzySet) for p in parts)
        s, d = _fold_sum(parts, tol)
        supports.append(s)
        degrees.append(d)

    values, degs = _kernel.eval_program(program, supports, degrees, tol)
    if not any_fuzzy:
        return values[0]
    return FuzzySet(tuple(zip(values, degs)), unit)


def evaluate_method(entity, method: MethodDef, tol: float = DEFAULT_TOL):
    """Run *method* on *entity*; fuzzy inputs yield a FuzzySet, crisp a float.
    The tolerance must be a finite number >= 0 (ValueError otherwise)."""
    # lazy, so bindings resolve and fold one at a time and errors keep their order
    inputs = (resolve_binding(entity, b) for b in method.bindings)
    return _extend(method.program, inputs, tol, method.result_unit)


def extend(f, args, tol: float = DEFAULT_TOL):
    """Lift a crisp function over fuzzy arguments: every combination of
    supports goes through *f* at the min of its degrees, and outputs equal
    within *tol* keep the max.  A crisp argument is one point at degree 1,
    and an all-crisp call returns a float.  Units on fuzzy arguments are
    ignored; the caller declares the result's unit.  Kernel errors apply."""
    inputs = [[a] for a in args]  # one-member lists: no argument is read as a family
    if not inputs:
        raise EmptyInput("extension needs at least one argument")
    return _extend(lambda xs: f(*xs), inputs, tol)


def eval_method(entity, method_id: str, tol: float = DEFAULT_TOL):
    """Evaluate the entity's own method with the given id."""
    method = entity.get_method(method_id)
    if method is None:
        raise UnknownMethod(f"{entity.name} has no method {method_id!r}")
    return evaluate_method(entity, method, tol)
