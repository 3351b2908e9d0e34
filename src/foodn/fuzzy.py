"""Discrete fuzzy sets and the algebra the rest of the engine builds on.

A fuzzy set is a finite collection of (support, degree) elements over the
reals, optionally tagged with a measurement unit.  The canonical form keeps
supports strictly increasing and degrees in (0, 1]; an element with zero
degree is simply not a member.  The text form reads

    {1.8/0.9 + 2/1 + 2.1/0.95} cm

and round-trips through :func:`format_fuzzy_set` / :func:`parse_fuzzy_set`.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import (
    DegreeOutOfRange,
    EmptyFuzzySet,
    EmptyInput,
    EmptyResult,
    EvaluationError,
    UnitMismatch,
)

DEFAULT_TOL = 1e-9

# Enumerating a cartesian product larger than this is treated as a failure
# rather than an invitation to fill memory.
MAX_COMBINATIONS = 20_000_000

TNORMS = {
    "min": min,
    "product": lambda x, y: x * y,
}


def t_norm(kind: str):
    """Return the binary t-norm function registered under *kind*."""
    try:
        return TNORMS[kind]
    except KeyError:
        raise EvaluationError(f"unknown t-norm {kind!r}; expected one of {sorted(TNORMS)}")


def check_degree(value: float, what: str = "degree") -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise DegreeOutOfRange(f"{what} must lie in [0, 1], got {value!r}")
    return v


def check_tolerance(tol: float) -> float:
    """A comparison tolerance must be a finite number >= 0; raises ValueError."""
    t = float(tol)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return t


def format_number(x: float) -> str:
    """Shortest faithful rendering; integral values drop the decimal point."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def merge_pairs(pairs, tol: float = DEFAULT_TOL):
    """Canonicalize raw (support, degree) pairs.

    Sorts by support, folds together supports that agree within *tol*
    (keeping the max degree and the smallest support of each run), and drops
    zero-degree elements.  Returns a tuple in canonical order.
    """
    merged: list[tuple[float, float]] = []
    for support, degree in sorted(pairs):
        if merged and support - merged[-1][0] <= tol:
            prev_s, prev_d = merged[-1]
            merged[-1] = (prev_s, max(prev_d, degree))
        else:
            merged.append((float(support), float(degree)))
    return tuple((s, d) for s, d in merged if d > 0.0)


@dataclass(frozen=True)
class FuzzySet:
    """A discrete fuzzy set in canonical form.

    Construct through :func:`make_fuzzy_set` unless the elements are already
    canonical: strictly increasing supports, degrees in (0, 1].
    """

    elements: tuple[tuple[float, float], ...]
    unit: str | None = None

    def __post_init__(self):
        if not self.elements:
            raise EmptyFuzzySet("a fuzzy set needs at least one element")
        prev = None
        for support, degree in self.elements:
            if not math.isfinite(support):
                raise EvaluationError(f"support {support!r} is not finite")
            check_degree(degree)
            if degree == 0.0:
                raise DegreeOutOfRange("canonical elements carry degree in (0, 1]")
            if prev is not None and support <= prev:
                raise EvaluationError("supports must be strictly increasing")
            prev = support

    def supports(self) -> tuple[float, ...]:
        return tuple(s for s, _ in self.elements)

    def degrees(self) -> tuple[float, ...]:
        return tuple(d for _, d in self.elements)

    def __str__(self) -> str:
        return format_fuzzy_set(self)


def make_fuzzy_set(pairs, unit: str | None = None, tol: float = DEFAULT_TOL) -> FuzzySet:
    """Build a fuzzy set from raw pairs, normalizing as needed.

    Duplicate (or within-*tol*) supports merge by max degree; zero-degree
    elements are dropped.  Degrees outside [0, 1] raise DegreeOutOfRange,
    an empty (or all-zero) input raises EmptyFuzzySet.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyFuzzySet("a fuzzy set needs at least one element")
    for _, degree in pairs:
        check_degree(degree)
    merged = merge_pairs(pairs, tol)
    if not merged:
        raise EmptyFuzzySet("all elements had zero degree")
    return FuzzySet(merged, unit)


def fs_equal(a: FuzzySet, b: FuzzySet, tol: float = DEFAULT_TOL) -> bool:
    """Equality up to *tol* on supports and degrees; units must match exactly."""
    if a.unit != b.unit or len(a.elements) != len(b.elements):
        return False
    return all(
        abs(sa - sb) <= tol and abs(da - db) <= tol
        for (sa, da), (sb, db) in zip(a.elements, b.elements)
    )


def _aligned_supports(a: FuzzySet, b: FuzzySet, tol: float):
    """Union of both support lists, with within-*tol* duplicates folded."""
    out: list[float] = []
    for s in sorted(a.supports() + b.supports()):
        if not out or s - out[-1] > tol:
            out.append(s)
    return out


def _degree_at(fs: FuzzySet, support: float, tol: float) -> float:
    for s, d in fs.elements:
        if abs(s - support) <= tol:
            return d
    return 0.0


def _check_units(a: FuzzySet, b: FuzzySet):
    if a.unit != b.unit:
        raise UnitMismatch(f"units differ: {a.unit!r} vs {b.unit!r}")


def fs_union(a: FuzzySet, b: FuzzySet, tol: float = DEFAULT_TOL) -> FuzzySet:
    """Pointwise max over the aligned supports of both sets."""
    _check_units(a, b)
    pairs = [
        (s, max(_degree_at(a, s, tol), _degree_at(b, s, tol)))
        for s in _aligned_supports(a, b, tol)
    ]
    return FuzzySet(merge_pairs(pairs, tol), a.unit)


def fs_combine(a: FuzzySet, b: FuzzySet, tnorm: str = "min", tol: float = DEFAULT_TOL) -> FuzzySet:
    """Pointwise t-norm over aligned supports; absent supports count as 0.

    Raises EmptyResult when nothing survives (disjoint supports, say).
    """
    _check_units(a, b)
    norm = t_norm(tnorm)
    pairs = [
        (s, norm(_degree_at(a, s, tol), _degree_at(b, s, tol)))
        for s in _aligned_supports(a, b, tol)
    ]
    merged = merge_pairs(pairs, tol)
    if not merged:
        raise EmptyResult("combination left no element with positive degree")
    return FuzzySet(merged, a.unit)


def fs_intersection(a: FuzzySet, b: FuzzySet, tnorm: str = "min", tol: float = DEFAULT_TOL) -> FuzzySet:
    return fs_combine(a, b, tnorm, tol)


def extend(f, args, tol: float = DEFAULT_TOL):
    """Lift a crisp function over fuzzy arguments.

    Every combination of supports is pushed through *f*; the combination's
    degree is the min of the participating degrees, and equal outputs (within
    *tol*) keep the max degree.  Crisp (float) arguments pass through with
    degree 1, and an all-crisp call returns a bare float.  Units on fuzzy
    arguments are ignored here; the caller declares the result's unit.  The
    enumeration is the evaluation kernel's, with its errors.
    """
    from ._pykernel import eval_program  # _pykernel imports merge_pairs from here

    args = list(args)
    if not args:
        raise EmptyInput("extension needs at least one argument")
    supports = [a.supports() if isinstance(a, FuzzySet) else (float(a),) for a in args]
    degrees = [a.degrees() if isinstance(a, FuzzySet) else (1.0,) for a in args]
    values, degs = eval_program(lambda xs: f(*xs), supports, degrees, tol)
    if not any(isinstance(a, FuzzySet) for a in args):
        return values[0]
    return FuzzySet(tuple(zip(values, degs)))


def format_fuzzy_set(fs: FuzzySet) -> str:
    body = " + ".join(f"{format_number(s)}/{format_number(d)}" for s, d in fs.elements)
    text = "{" + body + "}"
    if fs.unit:
        text += f" {fs.unit}"
    return text


_LITERAL_RE = re.compile(
    r"^\s*\{\s*(?P<body>[^{}]*?)\s*\}\s*(?P<unit>[A-Za-z_][A-Za-z0-9_^*/]*)?\s*$"
)
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_ELEMENT_RE = re.compile(rf"^\s*(?P<s>{_NUM})\s*/\s*(?P<d>{_NUM})\s*$")


def parse_fuzzy_set(text: str) -> FuzzySet:
    """Parse the literal text form, e.g. ``{1.8/0.9 + 2/1} cm``."""
    m = _LITERAL_RE.match(text)
    if not m:
        raise EvaluationError(f"not a fuzzy set literal: {text!r}")
    pairs = []
    for piece in m.group("body").split("+"):
        em = _ELEMENT_RE.match(piece)
        if not em:
            raise EvaluationError(f"bad fuzzy set element: {piece.strip()!r}")
        pairs.append((float(em.group("s")), float(em.group("d"))))
    return make_fuzzy_set(pairs, m.group("unit"))
