"""Method-body expressions: AST, parser, and closure compiler.

Grammar (no implicit multiplication):

    expr   := term { ("+" | "-") term }
    term   := unary { ("*" | "/") unary }
    unary  := "-" unary | power
    power  := atom [ "^" unary ]                # right associative
    atom   := NUMBER | IDENT | func "(" expr ")" | "sum" "(" IDENT ")"
            | "(" expr ")"
    func   := "sin" | "cos" | "sqrt"

so "^" binds tighter than unary minus, which binds tighter than "*" and "/".
Trigonometric functions take angles in degrees.  ``sum(v)`` adds up an
indexed family bound to ``v``; the evaluator folds the family into v's
slot, so the compiled body reads ``sum(v)`` as that slot.
"""
from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass

from .errors import EvaluationError, ExprSyntaxError

FUNCTIONS = ("sin", "cos", "sqrt")

# The deepest body parse_expr accepts, in nesting levels or tree height.
MAX_DEPTH = 100


class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


@dataclass(frozen=True)
class Sum(Expr):
    var: str


def free_vars(expr: Expr) -> set[str]:
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return free_vars(expr.operand)
    if isinstance(expr, Bin):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, Call):
        return free_vars(expr.arg)
    if isinstance(expr, Sum):
        return {expr.var}
    raise TypeError(f"not an expression node: {expr!r}")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            tail = text[pos:].lstrip()
            if not tail:
                break
            raise ExprSyntaxError(f"unexpected character {tail[0]!r}", pos + (len(text[pos:]) - len(tail)))
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent; every rule returns (node, height of its tree).

    Bodies deeper than MAX_DEPTH are refused, counting both the parser's own
    recursion and the height of the tree it builds, so neither parsing nor
    any later walk over the tree comes near Python's recursion limit.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.take()

    def deeper(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        return depth

    def nested(self, rule, pos: int):
        """Run *rule* one level further down the parser's own recursion."""
        self.level = self.deeper(self.level + 1, pos)
        result = rule()
        self.level -= 1
        return result

    def parse(self) -> Expr:
        node, _ = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r}", pos)
        return node

    def expr(self):
        node, height = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in "+-":
                return node, height
            self.take()
            right, rh = self.term()
            node, height = Bin(value, node, right), self.deeper(max(height, rh) + 1, pos)

    def term(self):
        node, height = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in "*/":
                return node, height
            self.take()
            right, rh = self.unary()
            node, height = Bin(value, node, right), self.deeper(max(height, rh) + 1, pos)

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            node, height = self.nested(self.unary, pos)
            return Neg(node), self.deeper(height + 1, pos)
        return self.power()

    def power(self):
        node, height = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            right, rh = self.nested(self.unary, pos)
            return Bin("^", node, right), self.deeper(max(height, rh) + 1, pos)
        return node, height

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return Num(value), 0
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value == "sum":
                    self.take()
                    ik, iv, ip = self.take()
                    if ik != "ident":
                        raise ExprSyntaxError("sum() takes a variable name", ip)
                    self.expect_op(")")
                    return Sum(iv), 0
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", pos)
                self.take()
                arg, height = self.nested(self.expr, pos)
                self.expect_op(")")
                return Call(value, arg), self.deeper(height + 1, pos)
            return Var(value), 0
        if kind == "op" and value == "(":
            node, height = self.nested(self.expr, pos)
            self.expect_op(")")
            return node, height
        shown = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(f"expected a value, got {shown}", pos)


def parse_expr(text: str) -> Expr:
    """Parse a method body; raises ExprSyntaxError with the failing offset."""
    return _Parser(text).parse()


_DEG = math.pi / 180.0


def _pow(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except (ValueError, OverflowError) as exc:
        raise EvaluationError(f"power failed at a support combination: {exc}") from exc


def _sqrt(x: float) -> float:
    try:
        return math.sqrt(x)
    except ValueError as exc:
        raise EvaluationError(f"sqrt failed at a support combination: {exc}") from exc


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": _pow}
_CALLS = {
    "sin": lambda x: math.sin(x * _DEG),  # angles in degrees
    "cos": lambda x: math.cos(x * _DEG),
    "sqrt": _sqrt,
}


def compile_program(expr: Expr, var_slots: dict[str, int]) -> Callable[[tuple[float, ...]], float]:
    """Compile *expr* to a function of the tuple of slot values.

    Every Var and sum() variable must have a slot.  The function is a tree
    of closures, one per node.  A zero divisor raises ZeroDivisionError and
    sin/cos of an infinite value raise ValueError; the kernel reports both
    as EvaluationError.
    """

    def build(node: Expr):
        if isinstance(node, Num):
            value = float(node.value)
            return lambda xs: value
        if isinstance(node, (Var, Sum)):
            return operator.itemgetter(var_slots[node.name if isinstance(node, Var) else node.var])
        if isinstance(node, Neg):
            operand = build(node.operand)
            return lambda xs: -operand(xs)
        if isinstance(node, Bin):
            op, left, right = _BINARY[node.op], build(node.left), build(node.right)
            return lambda xs: op(left(xs), right(xs))
        if isinstance(node, Call):
            func, arg = _CALLS[node.func], build(node.arg)
            return lambda xs: func(arg(xs))
        raise TypeError(f"not an expression node: {node!r}")

    return build(expr)
