"""Method-body expressions: AST, parser, and RPN compiler.

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
slot, so the compiled program reads ``sum(v)`` as that slot.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ExprSyntaxError

FUNCTIONS = ("sin", "cos", "sqrt")

# Opcodes the kernel runs.
OP_CONST = 0   # push consts[operand]
OP_VAR = 1     # push current support of variable slot operand
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_POW = 6
OP_NEG = 7
OP_SIN = 8     # argument in degrees
OP_COS = 9     # argument in degrees
OP_SQRT = 10


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
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                node = Bin(value, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        kind, value, pos = self.take()
        if kind == "num":
            return Num(value)
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value == "sum":
                    self.take()
                    ik, iv, ip = self.take()
                    if ik != "ident":
                        raise ExprSyntaxError("sum() takes a variable name", ip)
                    self.expect_op(")")
                    return Sum(iv)
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(f"expected a value, got {shown}", pos)


def parse_expr(text: str) -> Expr:
    """Parse a method body; raises ExprSyntaxError with the failing offset."""
    return _Parser(text).parse()


_BIN_OPS = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV, "^": OP_POW}
_CALL_OPS = {"sin": OP_SIN, "cos": OP_COS, "sqrt": OP_SQRT}


@dataclass(frozen=True)
class Program:
    """A compiled body: straight-line RPN over numbered variable slots."""

    codes: tuple[int, ...]
    operands: tuple[int, ...]
    consts: tuple[float, ...]
    n_vars: int
    max_stack: int


def compile_program(expr: Expr, var_slots: dict[str, int]) -> Program:
    """Flatten *expr* to RPN; every Var and sum() variable must have a slot."""
    codes: list[int] = []
    operands: list[int] = []
    consts: list[float] = []

    def emit(expr: Expr) -> int:
        if isinstance(expr, Num):
            codes.append(OP_CONST)
            operands.append(len(consts))
            consts.append(float(expr.value))
            return 1
        if isinstance(expr, (Var, Sum)):
            codes.append(OP_VAR)
            operands.append(var_slots[expr.name if isinstance(expr, Var) else expr.var])
            return 1
        if isinstance(expr, Neg):
            depth = emit(expr.operand)
            codes.append(OP_NEG)
            operands.append(0)
            return depth
        if isinstance(expr, Bin):
            left = emit(expr.left)
            right = emit(expr.right)
            codes.append(_BIN_OPS[expr.op])
            operands.append(0)
            return max(left, 1 + right)
        if isinstance(expr, Call):
            depth = emit(expr.arg)
            codes.append(_CALL_OPS[expr.func])
            operands.append(0)
            return depth
        raise TypeError(f"not an expression node: {expr!r}")

    depth = emit(expr)
    return Program(tuple(codes), tuple(operands), tuple(consts), len(var_slots), depth)
