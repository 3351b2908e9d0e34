"""The .foodn text format.

A network file is a sequence of statements:

    class T_Sq {
      property p1 "Number of sides" = 4;
      property p2 "Lengths of sides" : fuzzy;
      property p4 "Sizes of angles" = (90, 90, 90, 90) deg;
      method f2 "Area" = "a^2" bind a = p2[1] unit cm^2;
    }

    object Sq1 : T_Sq {
      p2 = [{2.7/0.85 + 3/1 + 3.1/0.95} cm] * 4;
      p6 = 1;
    }

    relation Sq1 instance-of T_Sq;
    relation T_Sq is-a T_Rb degree 0.9;

    modifier M1_Sq1 object Sq1 -> Rb1 target-class T_Rb {
      p4: (90, 90, 90, 90) deg -> (95, 85, 95, 85) deg;
      p6: 1 -> fuzzy(0.8);
    }

Values: numbers with optional units, tuples, `interval(0, 180)` (square
bracket for a closed bound), fuzzy set literals `{1.8/0.9 + 2/1} cm`, truth
degrees `fuzzy(0.8)`, the class-side markers `fuzzy` and `absent`, and the
repeat form `[<value>] * n` for uniform tuples.  Objects inherit semantics
and methods from their declared class.

Tokens: an identifier is a letter or `_`, then letters, digits and `_`, and
a hyphen before a letter (`instance-of`); a numeral that is not a letter
(`²`, `½`) may go on one but not start it or follow its hyphen.  A number
takes its minus sign (`1-2` is 1 and -2).  In a "string", a backslash keeps
the next character, and the string ends on its line.  `//` comments to the
end of the line, and `->` is one token.  Only a line feed starts a line.

Statements may come in any order.  Each parsed statement queues the step
that builds it; the steps run classes first, then objects, relations and
modifiers, then the reflection lint, and a statement the network refuses
is reported at its first token.  Parsing never yields a partial network:
any error raises DslError carrying every diagnostic found.  Warnings (for
example a modifier whose result would not belong to its own target class)
come back alongside the network.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from ._gc import collector_paused
from .errors import DslError, FoodnError
from .fuzzy import DEFAULT_TOL, make_fuzzy_set
from .model import (
    Absent,
    Binding,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyMarker,
    FuzzyTuple,
    HeterogeneousClass,
    Interval,
    MethodDef,
    Property,
    TruthDegree,
    define_class,
    define_object,
    membership_degree,  # no longer called here; perfbench traces this name
    misfit,
)
from .modifiers import Change, check_applicable, define_modifier, transform
from .network import Network


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" or "warning"
    message: str
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


class Token(NamedTuple):
    kind: str  # ident, number, string, punct, eof
    value: object
    line: int
    col: int


class _Bail(Exception):
    """Internal: abandon the current statement after recording an error."""


_STATEMENTS = ("class", "object", "relation", "modifier")  # parsed by _Parser.<keyword>_def

# One token per match, with the blanks before it.  Comments go before
# punctuation ("//" is not two slashes), and a line break is its own group so
# that only "\n" starts a line.  Whatever no other group takes is bad: a lone
# '"' opens a string that does not end on its line.
_TOKEN = re.compile(r"""[^\S\n]*(?:
    (?P<newline>\n)
  | (?P<comment>//[^\n]*)
  | (?P<ident>[^\W\d]\w*(?:-[^\W\d_]\w*)*)
  | (?P<punct>->|[{}()\[\],;:=/+*^])
  | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
  | (?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
  | (?P<bad>\S)
)""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def _numeral_cut(word: str):
    """The ident group also admits numerals that str.isalpha refuses, such as
    '²' and '½'.  One may not start an identifier or follow its hyphen: return
    0 if *word* starts with one, the offset of the hyphen before one, else None."""
    if not (word[0].isalpha() or word[0] == "_"):
        return 0
    hyphen = word.find("-")
    while hyphen > 0:
        if not word[hyphen + 1].isalpha():
            return hyphen
        hyphen = word.find("-", hyphen + 1)
    return None


def _tokenize(text: str):
    tokens, diags = [], []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        value = m[kind]
        col = m.start(kind) - line_start + 1
        if kind == "number":
            value = float(value)
        elif kind == "ident" and not value.isascii():  # such numerals are not ASCII
            cut = _numeral_cut(value)
            if cut:
                tokens.append(Token(kind, value[:cut], line, col))
            if cut is not None:
                kind, value, col = "bad", value[cut], col + cut
        elif kind == "string":
            value = _ESCAPE.sub(r"\1", value[1:-1]) if "\\" in value else value[1:-1]
        elif kind == "comment":
            continue
        if kind == "bad":
            message = "unterminated string" if value == '"' else f"unexpected character {value!r}"
            diags.append(ParseDiagnostic("error", message, line, col))
            tokens.append(Token("eof", None, line, col))
            return tokens, diags
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("eof", None, line, len(text) - line_start + 1))
    return tokens, diags


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.diags = _tokenize(text)
        self.cut = bool(self.diags)  # the tokenizer stopped at a bad character and said so
        self.i = 0
        self.steps = []  # (phase, first token, function, args): function(net, *args)

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value=None) -> bool:
        """Take the next token if it matches, and say whether it did."""
        if self.at(kind, value):
            self.take()
            return True
        return False

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        if not (self.cut and tok.kind == "eof"):  # no second diagnostic where the text was cut
            self.diags.append(ParseDiagnostic("error", message, tok.line, tok.col))
        raise _Bail()

    def expect(self, kind: str, value=None, what: str | None = None) -> Token:
        if self.at(kind, value):
            return self.take()
        tok = self.peek()
        want = what or (value if value is not None else kind)
        got = "end of file" if tok.kind == "eof" else repr(tok.value)
        self.error(f"expected {want}, got {got}", tok)

    def ident(self, what: str) -> str:
        return self.expect("ident", what=what).value

    def number(self, what: str = "a number") -> float:
        tok = self.expect("number", what=what)
        if not math.isfinite(tok.value):
            self.error(f"number out of range: the literal overflows to {tok.value!r}", tok)
        return tok.value

    def integer(self, what: str = "an integer") -> int:
        tok = self.peek()
        value = self.number(what)
        if value != int(value):
            self.error(f"expected {what}, got {value!r}", tok)
        return int(value)

    def sync_item(self, depth: int = 0):
        """Skip to just past the next ';' outside braces (or stop before
        '}' / eof); *depth* counts the '{' the item has left open."""
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct":
                if tok.value == "{":
                    depth += 1
                elif tok.value == "}":
                    if depth == 0:
                        return
                    depth -= 1
                elif tok.value == ";" and depth == 0:
                    self.take()
                    return
            self.take()

    def members(self, member):
        """Parse '{ member* }', calling *member* once per member.  A member
        that fails is reported at its first token, and parsing resumes after
        it, whether or not it got as far as its ';'."""
        self.expect("punct", "{")
        while not self.at("punct", "}") and not self.at("eof"):
            start = self.i
            try:
                member()
            except (_Bail, FoodnError, ValueError) as exc:
                if not isinstance(exc, _Bail):  # a model constructor refused the member
                    tok = self.tokens[start]
                    self.diags.append(ParseDiagnostic("error", str(exc), tok.line, tok.col))
                if self.i == start or self.tokens[self.i - 1][:2] != ("punct", ";"):
                    braces = [t.value for t in self.tokens[start:self.i] if t.kind == "punct"]
                    self.sync_item(braces.count("{") - braces.count("}"))
        self.expect("punct", "}")

    def sync_statement(self):
        """Skip to the next plausible statement start."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if depth == 0 and tok.kind == "ident" and tok.value in _STATEMENTS:
                return
            if tok.kind == "punct":
                if tok.value == "{":
                    depth += 1
                elif tok.value == "}":
                    depth = max(0, depth - 1)
                    self.take()
                    if depth == 0:
                        return
                    continue
            self.take()

    # -- values -----------------------------------------------------------

    def opt_unit(self) -> str | None:
        if self.at("ident"):
            unit = self.take().value
            if self.accept("punct", "^"):
                unit = f"{unit}^{self.integer('a unit power')}"
            return unit
        if self.at("string"):
            return self.take().value
        return None

    def fuzzy_literal(self):
        """Pairs of a '{s/d + ...}' literal; caller applies the unit."""
        self.expect("punct", "{")
        pairs = []
        while True:
            s = self.number("a support")
            self.expect("punct", "/")
            d = self.number("a degree")
            pairs.append((s, d))
            if not self.accept("punct", "+"):
                break
        self.expect("punct", "}")
        return pairs

    def value(self):
        tok = self.peek()
        if tok.kind == "number":
            return CrispNumber(self.number(), self.opt_unit())
        if self.at("punct", "{"):
            pairs = self.fuzzy_literal()
            return Fuzzy(make_fuzzy_set(pairs, self.opt_unit()))
        if self.at("punct", "("):
            return self.tuple_value()
        if self.at("punct", "["):
            return self.repeat_value()
        if self.at("ident", "interval"):
            return self.interval_value()
        if self.accept("ident", "fuzzy"):
            if self.accept("punct", "("):
                degree = self.number("a truth degree")
                self.expect("punct", ")")
                return TruthDegree(degree)
            return FuzzyMarker()
        if self.accept("ident", "absent"):
            return Absent()
        self.error(f"expected a value, got {tok.value!r}", tok)

    def tuple_value(self):
        open_tok = self.take()  # "("
        elements = []
        while True:
            if self.peek().kind == "number":
                elements.append(self.number())
            elif self.at("punct", "{"):
                elements.append(self.fuzzy_literal())
            else:
                self.error("expected a number or fuzzy set inside the tuple")
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        unit = self.opt_unit()
        if len(elements) < 2:
            self.error("a tuple needs at least two components", open_tok)
        if all(isinstance(e, float) for e in elements):
            return CrispTuple(tuple(elements), unit)
        if all(isinstance(e, list) for e in elements):
            return FuzzyTuple(tuple(make_fuzzy_set(pairs, unit) for pairs in elements))
        self.error("tuple components must be all numbers or all fuzzy sets", open_tok)

    def repeat_value(self):
        open_tok = self.take()  # "["
        if self.at("punct", "{"):
            pairs = self.fuzzy_literal()
            element = Fuzzy(make_fuzzy_set(pairs, self.opt_unit()))
        elif self.peek().kind == "number":
            element = CrispNumber(self.number(), self.opt_unit())
        else:
            self.error("expected a number or fuzzy set to repeat")
        self.expect("punct", "]")
        self.expect("punct", "*")
        count = self.integer("a repeat count")
        if count < 2:
            self.error("a repeat count must be at least 2", open_tok)
        if isinstance(element, Fuzzy):
            return FuzzyTuple((element.value,) * count)
        return CrispTuple((element.value,) * count, element.unit)

    def interval_value(self):
        self.take()  # "interval"
        lo_open = self.accept("punct", "(")
        if not (lo_open or self.accept("punct", "[")):
            self.error("expected ( or [ after interval")
        lo = self.number("the lower bound")
        self.expect("punct", ",")
        hi = self.number("the upper bound")
        hi_open = self.accept("punct", ")")
        if not (hi_open or self.accept("punct", "]")):
            self.error("expected ) or ] to close the interval")
        return Interval(lo, hi, self.opt_unit(), lo_open, hi_open)

    # -- members ----------------------------------------------------------

    def property_decl(self) -> Property:
        tok = self.expect("ident", "property")
        pid = self.ident("a property id")
        semantic = self.expect("string", what="the property semantic").value
        if self.accept("punct", ":"):
            word = self.ident("fuzzy or absent")
            if word == "fuzzy":
                value = FuzzyMarker()
            elif word == "absent":
                value = Absent()
            else:
                self.error(f"expected fuzzy or absent after ':', got {word!r}", tok)
        else:
            self.expect("punct", "=")
            value = self.value()
        self.expect("punct", ";")
        return Property(pid, semantic, value)

    def method_decl(self) -> MethodDef:
        self.expect("ident", "method")
        mid = self.ident("a method id")
        semantic = self.expect("string", what="the method semantic").value
        self.expect("punct", "=")
        body = self.expect("string", what="the method body").value
        bindings = []
        if self.accept("ident", "bind"):
            while True:
                var = self.ident("a variable name")
                self.expect("punct", "=")
                bindings.append(self.selector(var))
                if not self.accept("punct", ","):
                    break
        unit = None
        if self.accept("ident", "unit"):
            unit = self.opt_unit()
            if unit is None:
                self.error("expected a unit name")
        self.expect("punct", ";")
        return MethodDef(mid, semantic, body, tuple(bindings), unit)

    def selector(self, var: str) -> Binding:
        name = self.ident("a property id")
        if name == "count" and self.accept("punct", "("):
            pid = self.ident("a property id")
            self.expect("punct", ")")
            return Binding(var, pid, "count")
        if self.accept("punct", "["):
            if self.accept("punct", "*"):
                self.expect("punct", "]")
                return Binding(var, name, "all")
            index = self.integer("a 1-based component index")
            self.expect("punct", "]")
            return Binding(var, name, "component", index)
        return Binding(var, name, "scalar")

    # -- statements ---------------------------------------------------------

    def class_def(self):
        tok = self.take()  # "class"
        name = self.ident("a class name")
        mode = "extensional" if self.accept("ident", "extensional") else "intensional"
        properties, methods, extension = [], [], []

        def member():
            if self.at("ident", "property"):
                properties.append(self.property_decl())
            elif self.at("ident", "method"):
                methods.append(self.method_decl())
            elif self.accept("ident", "extension"):
                while True:
                    extension.append(self.ident("a member name"))
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", ";")
            else:
                self.error("expected property, method or extension")

        self.members(member)
        self.steps.append((_CLASS, tok, _add_class, (name, properties, methods, mode, extension)))

    def object_def(self):
        tok = self.take()  # "object"
        name = self.ident("an object name")
        declared = self.ident("a class name") if self.accept("punct", ":") else None
        items, methods = [], []

        def member():
            if self.at("ident", "method"):
                methods.append(self.method_decl())
                return
            item_tok = self.peek()
            pid = self.ident("a property id")
            semantic = self.take().value if self.at("string") else None
            self.expect("punct", "=")
            value = self.value()
            self.expect("punct", ";")
            items.append((pid, semantic, value, item_tok))

        self.members(member)
        self.steps.append((_OBJECT, tok, _add_object, (self.diags, name, declared, items, methods)))

    def relation_def(self):
        tok = self.take()  # "relation"
        source = self.ident("the source entity")
        kind = self.ident("a relation kind")
        target = self.ident("the target entity")
        degree = self.number("a degree") if self.accept("ident", "degree") else 1.0
        self.expect("punct", ";")
        self.steps.append((_RELATION, tok, Network.add_relation, (source, target, kind, degree)))

    def modifier_def(self):
        tok = self.take()  # "modifier"
        name = self.ident("a modifier name")
        level = self.ident("object or class")
        if level not in ("object", "class"):
            self.error(f"expected object or class, got {level!r}", tok)
        source = self.ident("the source entity")
        self.expect("punct", "->")
        target = self.ident("the target name")
        target_class = self.ident("a class name") if self.accept("ident", "target-class") else None
        changes = []

        def member():
            pid = self.ident("a property id")
            self.expect("punct", ":")
            before = self.value()
            self.expect("punct", "->")
            after = self.value()
            self.expect("punct", ";")
            changes.append(Change(pid, before, after))

        self.members(member)
        args = (name, level, source, target, changes, target_class)
        self.steps.append((_MODIFIER, tok, _add_modifier, args))
        if level == "object" and target_class is not None:
            self.steps.append((_LINT, tok, _lint, (self.diags, name, tok)))

    def parse(self):
        while not self.at("eof"):
            tok = self.peek()
            try:
                if tok.kind == "ident" and tok.value in _STATEMENTS:
                    getattr(self, f"{tok.value}_def")()
                else:
                    self.error(f"expected class, object, relation or modifier, got {tok.value!r}")
            except _Bail:
                self.sync_statement()


# Build phases.  Steps run phase by phase, and in text order within a phase,
# so a statement may name entities declared further down the file.
_CLASS, _OBJECT, _RELATION, _MODIFIER, _LINT = range(5)


def _add_class(net, *args):
    net.add(define_class(*args))


def _add_object(net, diags, name, declared, items, methods):
    """Add an object; it inherits semantics and methods from its declared class."""
    base = None
    if declared is not None:
        base = net.classes.get(declared)
        if base is None:
            raise FoodnError(f"object {name}: unknown class {declared!r}")
        if isinstance(base, HeterogeneousClass):
            raise FoodnError(
                f"object {name}: {declared} is heterogeneous and cannot be a declared class"
            )
    properties = []
    for pid, semantic, value, tok in items:
        if semantic is None:
            inherited = base.get_property(pid) if base is not None else None
            if inherited is None:
                message = (
                    f"object {name}: property {pid} needs a semantic string "
                    "(not declared by the class)"
                )
                diags.append(ParseDiagnostic("error", message, tok.line, tok.col))
                continue
            semantic = inherited.semantic
        properties.append(Property(pid, semantic, value))
    signature = {m.id: m for m in base.signature} if base is not None else {}
    signature.update((m.id, m) for m in methods)
    net.add(define_object(name, properties, tuple(signature.values()), declared))


def _add_modifier(net, *args):
    net.register_modifier(define_modifier(*args))


def _lint(net, diags, name, tok):
    """Static reflection lint: warn if an object-level modifier's result
    would not belong to its declared target class."""
    mod = net.modifiers.get(name)
    if mod is None or mod.source not in net.objects or mod.target_class not in net.classes:
        return
    entity = net.objects[mod.source]
    if not check_applicable(mod, entity, net.tol)[0]:
        return
    if misfit(transform(mod, entity), net.classes[mod.target_class], net.tol) is not None:
        message = (
            f"modifier {mod.name}: the result would not belong to its "
            f"target class {mod.target_class}"
        )
        diags.append(ParseDiagnostic("warning", message, tok.line, tok.col))


@collector_paused
def parse_network(text: str, tol: float = DEFAULT_TOL):
    """Parse network text.

    Returns (network, warnings).  Raises DslError carrying every diagnostic
    if anything is wrong; a partial network is never returned.
    """
    parser = _Parser(text)
    parser.parse()
    diags = parser.diags
    net = Network(tol)
    for _, tok, build, args in sorted(parser.steps, key=itemgetter(0)):
        try:
            build(net, *args)
        except (FoodnError, ValueError) as exc:
            diags.append(ParseDiagnostic("error", str(exc), tok.line, tok.col))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise DslError(errors)
    return net, [d for d in diags if d.severity == "warning"]
