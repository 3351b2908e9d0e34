"""Reference implementations, used to check the engine, that perfbench has
no copy of.

The brute-force extension principle, the canonical merge and transitive
reachability are perfbench/reference.py's `extend`, `merge` and `reach`,
which the tests load with conftest.load: one copy serves the tests and the
benchmark.  What is left here:

- oracle_body, a method body given as a tuple tree as a plain function,
  for the kernel's random-body test;
- oracle_compile (a tree of closures over the engine's own AST and
  functions), an earlier form of foodn.expr.compile_program, against which
  the generated bodies are checked bit for bit;
- oracle_insert, relation insertion with set semantics by linear scan;
- oracle_infer, which checks which pairs infer_relations scores, not how it
  scores them, and so takes membership_degree as given.  perfbench's
  gen.Spec.infer scores only the generator's plain description of a
  network, which holds no interval, tuple, extensional or heterogeneous
  class;
- oracle_tokenize, the .foodn tokenizer written as a loop over single
  characters, against which the pattern-driven one in foodn.dsl is checked.
"""
from __future__ import annotations

import math
import operator
import re


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


def oracle_compile(expr, var_slots, families=frozenset()):
    """compile_program as a tree of closures, one per node of the engine's
    AST, with the engine's own "^" and calls."""
    from foodn.errors import UnresolvedBinding
    from foodn.expr import _CALLS, Bin, Call, Neg, Num, Sum, Var, _pow

    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": _pow}

    def build(node):
        if isinstance(node, Num):
            value = float(node.value)
            return lambda xs: value
        if isinstance(node, Var) and node.name in families:
            raise UnresolvedBinding(f"family variable {node.name!r} can only appear inside sum()")
        if isinstance(node, (Var, Sum)):
            return operator.itemgetter(var_slots[node.name if isinstance(node, Var) else node.var])
        if isinstance(node, Neg):
            operand = build(node.operand)
            return lambda xs: -operand(xs)
        if isinstance(node, Bin):
            op, left, right = binary[node.op], build(node.left), build(node.right)
            return lambda xs: op(left(xs), right(xs))
        if isinstance(node, Call):
            func, arg = _CALLS[node.func], build(node.arg)
            return lambda xs: func(arg(xs))
        raise TypeError(f"not an expression node: {node!r}")

    return build(expr)


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


_ORACLE_NUM = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def oracle_tokenize(text):
    """The .foodn tokenizer as a loop over single characters.

    Returns (tokens, diagnostics) as plain tuples, (kind, value, line, col)
    and (severity, message, line, col).  Only "\n" starts a line; other
    blanks count one column each.  A bad character or a string that does not
    end on its line is one diagnostic, and the stream ends there with eof.
    """
    tokens, diags = [], []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] not in '"\n':  # a line break ends a string, escaped or not
                if text[j] == "\\" and j + 1 < n and text[j + 1] != "\n":
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n or text[j] != '"':
                diags.append(("error", "unterminated string", line, col))
                tokens.append(("eof", None, line, col))
                return tokens, diags
            tokens.append(("string", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c.isdigit() or (c in "-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
            m = _ORACLE_NUM.match(text, i)
            if m:
                tokens.append(("number", float(m.group()), line, col))
                col += m.end() - i
                i = m.end()
                continue
        if c.isalpha() or c == "_":
            j = i
            while j < n:
                ch = text[j]
                if ch.isalnum() or ch == "_":
                    j += 1
                elif ch == "-" and j + 1 < n and text[j + 1].isalpha():
                    j += 1
                else:
                    break
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "{}()[],;:=/+*^":
            tokens.append(("punct", c, line, col))
            i += 1
            col += 1
            continue
        diags.append(("error", f"unexpected character {c!r}", line, col))
        tokens.append(("eof", None, line, col))
        return tokens, diags
    tokens.append(("eof", None, line, col))
    return tokens, diags
