"""Independent reference implementations used to check the engine.

Deliberately written without any engine types: fuzzy sets are plain lists
of (support, degree) pairs, enumeration is explicit recursion, grouping
goes through a dict keyed by exact value followed by a tolerance merge.
The one exception is oracle_infer, which checks which pairs the network
scores, not how it scores them, and so takes membership_degree as given.
"""
from __future__ import annotations

import math


def oracle_extend(f, args, tol=1e-9):
    """Brute-force lifting of *f* over fuzzy arguments.

    Each argument is either a float (crisp) or a list of (support, degree)
    pairs.  Returns the canonical list of (value, degree) pairs: sorted,
    near-equal values folded together keeping the smallest value and the
    max degree.
    """
    results: dict[float, float] = {}

    def recurse(i, values, degs):
        if i == len(args):
            out = float(f(*values))
            degree = 1.0
            for d in degs:
                if d < degree:
                    degree = d
            if out in results:
                if degree > results[out]:
                    results[out] = degree
            else:
                results[out] = degree
            return
        arg = args[i]
        if isinstance(arg, (int, float)):
            recurse(i + 1, values + [float(arg)], degs)
        else:
            for support, degree in arg:
                recurse(i + 1, values + [support], degs + [degree])

    recurse(0, [], [])

    merged: list[list[float]] = []
    for value in sorted(results):
        degree = results[value]
        if merged and value - merged[-1][0] <= tol:
            if degree > merged[-1][1]:
                merged[-1][1] = degree
        else:
            merged.append([value, degree])
    return [(v, d) for v, d in merged if d > 0.0]


def oracle_body(tree, names):
    """A method body given as a tuple tree, as a plain function of *names*.

    Nodes are ("num", x), ("var", name), ("neg", t), ("bin", op, l, r) with
    op one of + - * / ^, and ("call", f, t) with f one of sin, cos (degrees)
    and sqrt.  "^" is math.pow.  Every failure a body can meet raises
    ArithmeticError or ValueError: a zero divisor, a math domain or range
    error, and a final result that is not finite.
    """

    def value(node, env):
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "var":
            return env[node[1]]
        if kind == "neg":
            return -value(node[1], env)
        if kind == "call":
            x = value(node[2], env)
            if node[1] == "sqrt":
                return math.sqrt(x)
            return (math.sin if node[1] == "sin" else math.cos)(math.radians(x))
        _, op, left, right = node
        x, y = value(left, env), value(right, env)
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
        if op == "/":
            return x / y
        return math.pow(x, y)

    def f(*values):
        out = value(tree, dict(zip(names, values)))
        if not math.isfinite(out):
            raise OverflowError(f"non-finite result {out!r}")
        return out

    return f


def oracle_insert(relations, relation):
    """Insert a (source, target, kind, degree) tuple into a list of them
    with set semantics, by linear scan.

    Returns "added", "duplicate" (the same edge with the same degree is
    already there; nothing changes) or "conflict" (the same edge with
    another degree; nothing changes).
    """
    for source, target, kind, degree in relations:
        if (source, target, kind) == relation[:3]:
            return "duplicate" if degree == relation[3] else "conflict"
    relations.append(tuple(relation))
    return "added"


def oracle_reach(relations, start, kinds, direction, transitive):
    """Names reachable from *start* over (source, target, kind, ...) tuples
    of the given kinds, breadth first, one full scan of the list per name
    visited.  Sorted, without duplicates; *start* itself appears only when
    a path leads back to it."""
    found = set()
    visited = {start}
    frontier = [start]
    while frontier:
        following = []
        for here in frontier:
            for source, target, kind, *_ in relations:
                if kind not in kinds:
                    continue
                near, far = (source, target) if direction == "out" else (target, source)
                if near == here:
                    found.add(far)
                    if far not in visited:
                        visited.add(far)
                        following.append(far)
        if not transitive:
            break
        frontier = following
    return sorted(found)


def oracle_infer(net, threshold=0.0):
    """infer_relations by scoring every object/class pair: the graded
    instance-of edges not already present whose membership_degree (min
    t-norm) is above 0 and at least *threshold*, pairs that raise
    SemanticMismatch skipped, as (source, target, degree) in sorted order."""
    from foodn.errors import SemanticMismatch
    from foodn.model import membership_degree

    present = {(r.source, r.target) for r in net.relations if r.kind == "instance-of"}
    proposals = []
    for oname in sorted(net.objects):
        for cname in sorted(net.classes):
            if (oname, cname) in present:
                continue
            try:
                degree = membership_degree(net.objects[oname], net.classes[cname], "min", net.tol)
            except SemanticMismatch:
                continue
            if degree > 0.0 and degree >= threshold:
                proposals.append((oname, cname, degree))
    return proposals
