"""Method evaluation over fuzzy-valued properties.

A method body is compiled once per MethodDef to a small stack program with
one slot per binding; each slot carries the supports and degrees of its
value (crisp values are one-point supports at degree 1).  The kernel
enumerates all support combinations, so a variable bound once names one
quantity no matter how often the body mentions it.

An indexed family bound with [*] may appear only inside sum(), so the body
depends on the family through its sum alone.  The members vary
independently, and under sup-min the extension of a sum over noninteractive
variables equals extending it one pair at a time (Zadeh 1975; Dubois and
Prade 1980).  The family's slot therefore carries its sum, folded member by
member through the kernel, and the cost grows with the size of the partial
sums rather than with the product of the members' supports.
"""
from __future__ import annotations

import weakref

from . import kernel as _kernel
from .errors import UnknownMethod, UnresolvedBinding
from .expr import Bin, Call, Expr, Neg, Program, Var, compile_program, parse_expr
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

_ADD = compile_program(Bin("+", Var("x"), Var("y")), {"x": 0, "y": 1})

# Compiled bodies, kept only as long as their MethodDef is alive.
_PROGRAMS: weakref.WeakKeyDictionary[MethodDef, Program] = weakref.WeakKeyDictionary()


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
        if isinstance(value, CrispTuple):
            return list(value.values)
        if isinstance(value, FuzzyTuple):
            return list(value.values)
        return None

    if binding.accessor == "count":
        parts = components()
        return float(len(parts)) if parts is not None else 1.0
    if binding.accessor == "scalar":
        if isinstance(value, CrispNumber):
            return value.value
        if isinstance(value, TruthDegree):
            return value.value
        if isinstance(value, Fuzzy):
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
    if isinstance(value, CrispNumber):
        return [value.value]
    if isinstance(value, Fuzzy):
        return [value.value]
    raise UnresolvedBinding(f"{entity.name}.{binding.prop} cannot form an indexed family")


def _check_families(node: Expr, families: set[str]) -> None:
    """Raise UnresolvedBinding when a family variable is read outside sum()."""
    if isinstance(node, Var) and node.name in families:
        raise UnresolvedBinding(
            f"family variable {node.name!r} can only appear inside sum()"
        )
    if isinstance(node, Neg):
        _check_families(node.operand, families)
    elif isinstance(node, Bin):
        _check_families(node.left, families)
        _check_families(node.right, families)
    elif isinstance(node, Call):
        _check_families(node.arg, families)


def _program(method: MethodDef) -> Program:
    """The method's body compiled with one slot per binding, in binding order."""
    program = _PROGRAMS.get(method)
    if program is None:
        ast = parse_expr(method.body)
        _check_families(ast, {b.var for b in method.bindings if b.accessor == "all"})
        slots = {b.var: i for i, b in enumerate(method.bindings)}
        program = _PROGRAMS[method] = compile_program(ast, slots)
    return program


def _run(program: Program, supports, degrees, tol: float):
    return _kernel.eval_program(
        program.codes, program.operands, program.consts, program.max_stack,
        supports, degrees, tol,
    )


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
        supports, degrees = _run(_ADD, [supports, s], [degrees, d], tol)
    return supports, degrees


def evaluate_method(entity, method: MethodDef, tol: float = DEFAULT_TOL):
    """Run *method* on *entity*; fuzzy inputs yield a FuzzySet, crisp a float.
    The tolerance must be a finite number >= 0 (ValueError otherwise)."""
    tol = check_tolerance(tol)
    supports = []
    degrees = []
    any_fuzzy = False
    for b in method.bindings:
        resolved = resolve_binding(entity, b)
        parts = resolved if isinstance(resolved, list) else [resolved]
        any_fuzzy = any_fuzzy or any(isinstance(p, FuzzySet) for p in parts)
        s, d = _fold_sum(parts, tol)
        supports.append(s)
        degrees.append(d)

    values, degs = _run(_program(method), supports, degrees, tol)
    if not any_fuzzy:
        return values[0]
    return FuzzySet(tuple(zip(values, degs)), method.result_unit)


def eval_method(entity, method_id: str, tol: float = DEFAULT_TOL):
    """Evaluate the entity's own method with the given id."""
    method = entity.get_method(method_id)
    if method is None:
        raise UnknownMethod(f"{entity.name} has no method {method_id!r}")
    return evaluate_method(entity, method, tol)
