"""Discrete fuzzy sets: construction, comparison and text form.

A fuzzy set is a finite collection of (support, degree) elements over the
reals, optionally tagged with a measurement unit.  The canonical form keeps
supports strictly increasing and degrees in (0, 1]; an element with zero
degree is simply not a member.  Building a set merges only equal supports;
a tolerance applies only where values are compared and in the kernel's
merge.  There is no pointwise union or intersection of sets.  The text form

    {1.8/0.9 + 2/1 + 2.1/0.95} cm

round-trips exactly through :func:`format_fuzzy_set` / :func:`parse_fuzzy_set`
for every finite support, including ``1e+16`` and beyond.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DegreeOutOfRange, EmptyFuzzySet, EvaluationError

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
    """Shortest faithful rendering; integral values drop the decimal point,
    and non-finite values read inf, -inf or nan."""
    if abs(x) < 1e16 and x == int(x):
        return str(int(x))
    return repr(x)


def merge_pairs(pairs, tol: float):
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


@dataclass(frozen=True, slots=True)
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


def make_fuzzy_set(pairs, unit: str | None = None) -> FuzzySet:
    """Build a fuzzy set from raw pairs, normalizing as needed.

    Equal supports merge by max degree, however close distinct ones lie;
    zero-degree elements are dropped.  Degrees outside [0, 1] raise
    DegreeOutOfRange, an empty (or all-zero) input raises EmptyFuzzySet.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyFuzzySet("a fuzzy set needs at least one element")
    for _, degree in pairs:
        check_degree(degree)
    merged = merge_pairs(pairs, 0.0)
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
# one element, then the end of the body or a "+" with another element after it
_ELEMENT_RE = re.compile(rf"\s*(?P<s>{_NUM})\s*/\s*(?P<d>{_NUM})\s*(?:\Z|\+(?=\s*\S))")


def parse_fuzzy_set(text: str) -> FuzzySet:
    """Parse the literal text form, e.g. ``{1.8/0.9 + 2/1} cm``."""
    m = _LITERAL_RE.match(text)
    if not m:
        raise EvaluationError(f"not a fuzzy set literal: {text!r}")
    body, pos, pairs = m.group("body"), 0, []
    while not pairs or pos < len(body):
        em = _ELEMENT_RE.match(body, pos)
        if not em:
            raise EvaluationError(f"bad fuzzy set element at {body[pos:]!r}")
        pairs.append((float(em.group("s")), float(em.group("d"))))
        pos = em.end()
    return make_fuzzy_set(pairs, m.group("unit"))
