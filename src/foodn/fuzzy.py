"""Discrete fuzzy sets: construction, comparison and text form.

A fuzzy set is a finite collection of (support, degree) elements over the
reals, optionally tagged with a measurement unit.  The canonical form keeps
supports strictly increasing and degrees in (0, 1]; an element with zero
degree is simply not a member.  Building a set merges only equal supports;
a tolerance applies only where values are compared and in the kernel's
merge.  There is no pointwise union or intersection of sets.  The text form
is `.foodn` value syntax, read back by ``dsl.parse_fuzzy_set``:

    {1.8/0.9 + 2/1 + 2.1/0.95} cm

Every set the constructors accept round-trips through it exactly.  A unit
cannot hold a line feed, and one that is not an identifier is quoted.
"""
from __future__ import annotations

import math
import re

from ._record import record
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
    v = value if type(value) is float else as_float(value)  # hot: once per relation
    if not (0.0 <= v <= 1.0):
        raise DegreeOutOfRange(f"{what} must lie in [0, 1], got {value!r}")
    return v


def as_float(x) -> float:
    """An int or a float as a float; anything else raises TypeError."""
    if type(x) is float or type(x) is int:  # not bool, a subclass of int
        return float(x)
    raise TypeError(f"expected a number, got {x!r}")


def check_unit(unit):
    if not (unit is None or isinstance(unit, str)):
        raise ValueError(f"a unit must be a string or null, got {unit!r}")
    if unit and "\n" in unit:  # the one string a .foodn value cannot write
        raise ValueError(f"a unit cannot hold a line feed, got {unit!r}")


def check_tolerance(tol: float) -> float:
    """A comparison tolerance is an int or a float (TypeError), finite and >= 0 (ValueError)."""
    t = tol if type(tol) is float else as_float(tol)  # hot: once per membership call
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
    zero-degree elements.  Returns a tuple of float pairs in canonical order.
    """
    merged, first = [], -math.inf  # first: the first support of the current run
    # sorted, a dict keeps the first of equal supports and the last (max) degree
    for pair in dict(sorted(pairs)).items():
        if pair[0] - first <= tol:
            if pair[1] > merged[-1][1]:
                merged[-1] = (first, pair[1])
        else:
            first = pair[0]
            merged.append(pair)
    return tuple([(float(s), float(d)) for s, d in merged if d > 0.0])


@record
class FuzzySet:
    """A discrete fuzzy set in canonical form.

    Construct through :func:`make_fuzzy_set` unless the elements are already
    canonical: strictly increasing supports, degrees in (0, 1].
    """

    elements: tuple[tuple[float, float], ...]
    unit: str | None = None

    def __post_init__(self):
        check_unit(self.unit)
        if not self.elements:
            raise EmptyFuzzySet("a fuzzy set needs at least one element")
        prev, exact = -math.inf, True
        for support, degree in self.elements:
            if type(support) is not float or type(degree) is not float:
                support, degree, exact = as_float(support), as_float(degree), False
            if not (prev < support < math.inf and 0.0 < degree <= 1.0):
                if not math.isfinite(support):
                    raise EvaluationError(f"support {support!r} is not finite")
                check_degree(degree)
                if degree == 0.0:
                    raise DegreeOutOfRange("canonical elements carry degree in (0, 1]")
                raise EvaluationError("supports must be strictly increasing")
            prev = support
        if not exact:  # a document would write back 1 and read 1.0
            object.__setattr__(self, "elements", tuple((float(s), float(d)) for s, d in self.elements))

    def supports(self) -> tuple[float, ...]:
        return tuple(zip(*self.elements))[0]

    def degrees(self) -> tuple[float, ...]:
        return tuple(zip(*self.elements))[1]

    def __str__(self) -> str:
        return format_fuzzy_set(self)


def make_fuzzy_set(pairs, unit: str | None = None) -> FuzzySet:
    """Build a fuzzy set from raw pairs, normalizing as needed.

    Equal supports merge by max degree, however close distinct ones lie;
    zero-degree elements are dropped.  A support or degree that is not an
    int or a float raises TypeError, a degree outside [0, 1]
    DegreeOutOfRange, an empty (or all-zero) input EmptyFuzzySet.
    """
    pairs = [(as_float(support), check_degree(degree)) for support, degree in pairs]
    if not pairs:
        raise EmptyFuzzySet("a fuzzy set needs at least one element")
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


_BARE_UNIT = re.compile(r"[A-Za-z_]\w*(?:\^(?:0|-?[1-9]\d{0,14}))?", re.ASCII)


def with_unit(text: str, unit: str | None) -> str:
    """*text* followed by *unit* as .foodn reads it back: bare if it is an
    ASCII identifier, optionally with ^ and an integer, else quoted."""
    if unit is not None and not _BARE_UNIT.fullmatch(unit):
        unit = '"' + unit.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return text if unit is None else f"{text} {unit}"


def format_fuzzy_set(fs: FuzzySet) -> str:
    body = " + ".join(f"{format_number(s)}/{format_number(d)}" for s, d in fs.elements)
    return with_unit("{" + body + "}", fs.unit)
