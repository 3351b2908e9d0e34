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

One `findall` makes the tokens plain strings, '' last for the end of the
text; a string keeps its quotes.  One pass over the distinct tokens finds
their kinds and bad characters; the stream stops at the leftmost.  A
diagnostic finds its line and column from a table of token offsets built
for the first one.

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
from operator import itemgetter

from ._gc import collector_paused
from ._record import record
from .errors import DslError, EvaluationError, FoodnError
from .fuzzy import DEFAULT_TOL, FuzzySet, make_fuzzy_set
from .model import (
    Absent,
    Binding,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyMarker,
    FuzzyTuple,
    Interval,
    MethodDef,
    Property,
    TruthDegree,
    define_class,
    define_object,
    membership_degree,  # no longer called here; perfbench traces this name
)
# check_applicable and transform are no longer called here; perfbench traces both names
from .modifiers import Change, check_applicable, define_modifier, transform
from .network import Network


@record
class ParseDiagnostic:
    severity: str  # "error" or "warning"
    message: str
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


class _Bail(Exception):
    """Internal: abandon the current statement after recording an error."""


_STATEMENTS = ("class", "object", "relation", "modifier")  # parsed by _Parser.<keyword>_def
_MARKERS = {"fuzzy": FuzzyMarker, "absent": Absent}  # the class-side values after ':'

# One token per match, after the blanks and comments before it.  Comments are
# skipped before punctuation is tried ("//" is not two slashes).  A lone \S is
# a character that starts no token (a lone '"' opens a string that does not
# end on its line), and \Z makes the last match the empty string: the end of
# the text, which also keeps a trailing comment from being matched again.
_TOKEN = re.compile(r"""(?:\s|//[^\n]*)*(
    [^\W\d]\w*(?:-[^\W\d_]\w*)*
  | ->|[{}()\[\],;:=/+*^]
  | -?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?
  | "[^"\\\n]*(?:\\.[^"\\\n]*)*"
  | \S
  | \Z
)""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def _numeral_cut(word: str):
    """The identifier alternative admits numerals that str.isalpha refuses, such as
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


def _tokenize(text: str, kinds: dict | None = None):
    """Split *text* into token strings, the last '' for the end of the text,
    and map each token the stream holds to its _kind in *kinds*, if given.
    Returns (tokens, bad): *bad* is None, or (message, index, shift) when the
    character *shift* into the token at *index* of the whole text's stream
    starts no token, and the stream then ends just before that character."""
    tokens = _TOKEN.findall(text)
    if tokens[-2:] == ["", ""]:  # blanks before the end match, then the end again
        tokens.pop()
    kinds = {} if kinds is None else kinds
    bad = {}  # offending token -> offset of its bad character
    for tok in set(tokens):
        kinds[tok] = _kind(tok)
        if len(tok) == 1 and not (tok.isalnum() or tok in "_{}()[],;:=/+*^"):  # starts no token
            bad[tok] = 0
        elif not tok.isascii() and (tok[0].isalnum() or tok[0] == "_") and not tok[0].isdecimal():
            cut = _numeral_cut(tok)  # an identifier: the numerals it looks for are not ASCII
            if cut is not None:
                bad[tok] = cut
    if not bad:
        return tokens, None
    index = min(map(tokens.index, bad))  # the leftmost, whatever the order of the set
    tok = tokens[index]
    shift = bad[tok]
    kinds[tok[:shift]] = _kind(tok[:shift])  # the cut token the stream ends with
    message = "unterminated string" if tok == '"' else f"unexpected character {tok[shift]!r}"
    return tokens[:index] + [tok[:shift]] * (shift > 0) + [""], (message, index, shift)


def _kind(tok: str) -> str:
    """The kind of a token _tokenize returned: ident, number, string, punct or eof."""
    c = tok[:1]
    if c.isalpha() or c == "_":
        return "ident"
    if c.isdecimal() or c == "." or (c == "-" and tok != "->"):
        return "number"
    return "string" if c == '"' else "punct" if c else "eof"


def _unquote(tok: str) -> str:
    """The text of a string token: a backslash keeps the next character."""
    return _ESCAPE.sub(r"\1", tok[1:-1]) if "\\" in tok else tok[1:-1]


def _value(tok: str):
    """What a token stands for: a float, the text of a string, None at the end."""
    kind = _kind(tok)
    return float(tok) if kind == "number" else _unquote(tok) if kind == "string" else tok or None


def _locator(text: str, tokens: list, bad):
    """A function from a token's index in _tokenize's (tokens, bad) to its (line, col)."""
    starts = [m.start(1) for m in _TOKEN.finditer(text)]
    if bad is not None:  # the stream ends at the bad character
        starts[len(tokens) - 1] = starts[bad[1]] + bad[2]
    return lambda i: (text.count("\n", 0, starts[i]) + 1, starts[i] - text.rfind("\n", 0, starts[i]))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds = {}  # filled by _tokenize: token -> _kind
        self.tokens, self.bad = _tokenize(text, self.kinds)
        self.where = None  # built by report() when first needed
        self.diags = []
        if self.bad:  # the tokenizer stopped at a bad character
            self.report(self.bad[0], len(self.tokens) - 1)
        self.i = self.start = 0  # the next token, and the first of the current statement

    def report(self, message: str, i: int, severity: str = "error"):
        if self.where is None:
            self.where = _locator(self.text, self.tokens, self.bad)
        self.diags.append(ParseDiagnostic(severity, message, *self.where(i)))

    # -- token plumbing ---------------------------------------------------

    def accept(self, want: str) -> bool:
        """Take the next token if it is *want*, and say whether it did."""
        if self.tokens[self.i] == want:
            self.i += 1
            return True
        return False

    def error(self, message: str, i: int | None = None):
        i = self.i if i is None else i
        if not (self.bad and not self.tokens[i]):  # no second diagnostic where the text was cut
            self.report(message, i)
        raise _Bail()

    def expect(self, want: str, what: str | None = None):
        if self.tokens[self.i] == want:
            self.i += 1
        else:
            self.unexpected(what or want)

    def unexpected(self, what: str):
        tok = self.tokens[self.i]
        self.error(f"expected {what}, got {repr(_value(tok)) if tok else 'end of file'}")

    def take(self, kind: str, what: str) -> str:
        """Take the next token, which must be of *kind*; *what* names it if not."""
        tok = self.tokens[self.i]
        if self.kinds[tok] != kind:
            self.unexpected(what)
        self.i += 1
        return tok

    def ident(self, what: str) -> str:
        return self.take("ident", what)

    def number(self, what: str = "a number") -> float:
        value = float(self.take("number", what))
        if not math.isfinite(value):
            self.error(f"number out of range: the literal overflows to {value!r}", self.i - 1)
        return value

    def integer(self, what: str = "an integer") -> int:
        start = self.i
        value = self.number(what)
        if value != int(value):
            self.error(f"expected {what}, got {value!r}", start)
        return int(value)

    def sync_item(self, depth: int = 0):
        """Skip to just past the next ';' outside braces (or stop before
        '}' / eof); *depth* counts the '{' the item has left open."""
        tokens = self.tokens
        while tokens[self.i]:
            tok = tokens[self.i]
            if tok == "}":
                if depth == 0:
                    return
                depth -= 1
            self.i += 1
            if tok == "{":
                depth += 1
            elif tok == ";" and depth == 0:
                return

    def members(self, member):
        """Parse '{ member* }', calling *member* once per member.  A member
        that fails is reported at its first token, and parsing resumes after
        it, whether or not it got as far as its ';'."""
        tokens = self.tokens
        self.expect("{")
        while tokens[self.i] != "}" and tokens[self.i]:
            start = self.i
            try:
                member()
            except (_Bail, FoodnError, ValueError) as exc:
                if not isinstance(exc, _Bail):  # a model constructor refused the member
                    self.report(str(exc), start)
                if self.i == start or tokens[self.i - 1] != ";":
                    span = tokens[start:self.i]
                    self.sync_item(span.count("{") - span.count("}"))
        self.expect("}")

    def sync_statement(self):
        """Skip to the next plausible statement start."""
        tokens = self.tokens
        depth = 0
        while tokens[self.i] and not (depth == 0 and tokens[self.i] in _STATEMENTS):
            tok = tokens[self.i]
            self.i += 1
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth = max(0, depth - 1)
                if depth == 0:
                    return

    # -- values -----------------------------------------------------------

    def opt_unit(self) -> str | None:
        tok = self.tokens[self.i]
        kind = self.kinds[tok]
        if kind == "string":
            self.i += 1
            return _unquote(tok)
        if kind != "ident":
            return None
        self.i += 1
        return f"{tok}^{self.integer('a unit power')}" if self.accept("^") else tok

    def fuzzy_literal(self):
        """Pairs of a '{s/d + ...}' literal; caller applies the unit."""
        self.expect("{")
        pairs = []
        while True:
            s = self.number("a support")
            self.expect("/")
            d = self.number("a degree")
            pairs.append((s, d))
            if not self.accept("+"):
                break
        self.expect("}")
        return pairs

    def value(self):
        tok = self.tokens[self.i]
        if self.kinds[tok] == "number":
            return CrispNumber(self.number(), self.opt_unit())
        if tok == "{":
            return Fuzzy(make_fuzzy_set(self.fuzzy_literal(), self.opt_unit()))
        if tok == "(":
            return self.tuple_value()
        if tok == "[":
            return self.repeat_value()
        if tok == "interval":
            return self.interval_value()
        if self.accept("fuzzy"):
            if self.accept("("):
                degree = self.number("a truth degree")
                self.expect(")")
                return TruthDegree(degree)
            return FuzzyMarker()
        if self.accept("absent"):
            return Absent()
        self.error(f"expected a value, got {_value(tok)!r}")

    def tuple_value(self):
        start = self.i
        self.i += 1  # "("
        elements = []
        while True:
            tok = self.tokens[self.i]
            if self.kinds[tok] == "number":
                elements.append(self.number())
            elif tok == "{":
                elements.append(self.fuzzy_literal())
            else:
                self.error("expected a number or fuzzy set inside the tuple")
            if not self.accept(","):
                break
        self.expect(")")
        unit = self.opt_unit()
        if len(elements) < 2:
            self.error("a tuple needs at least two components", start)
        if all(isinstance(e, float) for e in elements):
            return CrispTuple(tuple(elements), unit)
        if all(isinstance(e, list) for e in elements):
            return FuzzyTuple(tuple(make_fuzzy_set(pairs, unit) for pairs in elements))
        self.error("tuple components must be all numbers or all fuzzy sets", start)

    def repeat_value(self):
        start = self.i
        self.i += 1  # "["
        tok = self.tokens[self.i]
        if not (tok == "{" or self.kinds[tok] == "number"):
            self.error("expected a number or fuzzy set to repeat")
        element = self.value()
        self.expect("]")
        self.expect("*")
        count = self.integer("a repeat count")
        if count < 2:
            self.error("a repeat count must be at least 2", start)
        if isinstance(element, Fuzzy):
            return FuzzyTuple((element.value,) * count)
        return CrispTuple((element.value,) * count, element.unit)

    def interval_value(self):
        self.i += 1  # "interval"
        lo_open = self.accept("(")
        if not (lo_open or self.accept("[")):
            self.error("expected ( or [ after interval")
        lo = self.number("the lower bound")
        self.expect(",")
        hi = self.number("the upper bound")
        hi_open = self.accept(")")
        if not (hi_open or self.accept("]")):
            self.error("expected ) or ] to close the interval")
        return Interval(lo, hi, self.opt_unit(), lo_open, hi_open)

    # -- members ----------------------------------------------------------

    def property_decl(self) -> Property:
        start = self.i
        self.i += 1  # "property"
        pid = self.ident("a property id")
        semantic = _unquote(self.take("string", "the property semantic"))
        if self.accept(":"):
            word = self.ident("fuzzy or absent")
            if word not in _MARKERS:
                self.error(f"expected fuzzy or absent after ':', got {word!r}", start)
            value = _MARKERS[word]()
        else:
            self.expect("=")
            value = self.value()
        self.expect(";")
        return Property(pid, semantic, value)

    def method_decl(self) -> MethodDef:
        self.i += 1  # "method"
        mid = self.ident("a method id")
        semantic = _unquote(self.take("string", "the method semantic"))
        self.expect("=")
        body = _unquote(self.take("string", "the method body"))
        bindings = []
        if self.accept("bind"):
            while True:
                var = self.ident("a variable name")
                self.expect("=")
                bindings.append(self.selector(var))
                if not self.accept(","):
                    break
        unit = None
        if self.accept("unit"):
            unit = self.opt_unit()
            if unit is None:
                self.error("expected a unit name")
        self.expect(";")
        return MethodDef(mid, semantic, body, tuple(bindings), unit)

    def selector(self, var: str) -> Binding:
        name = self.ident("a property id")
        if name == "count" and self.accept("("):
            pid = self.ident("a property id")
            self.expect(")")
            return Binding(var, pid, "count")
        if self.accept("["):
            if self.accept("*"):
                self.expect("]")
                return Binding(var, name, "all")
            index = self.integer("a 1-based component index")
            self.expect("]")
            return Binding(var, name, "component", index)
        return Binding(var, name, "scalar")

    # -- statements: each returns its build steps, (phase, function, *args) --

    def class_def(self):
        name = self.ident("a class name")
        mode = "extensional" if self.accept("extensional") else "intensional"
        properties, methods, extension = [], [], []

        def member():
            tok = self.tokens[self.i]
            if tok == "property":
                properties.append(self.property_decl())
            elif tok == "method":
                methods.append(self.method_decl())
            elif self.accept("extension"):
                while True:
                    extension.append(self.ident("a member name"))
                    if not self.accept(","):
                        break
                self.expect(";")
            else:
                self.error("expected property, method or extension")

        self.members(member)
        return [(_CLASS, _add_class, name, properties, methods, mode, extension)]

    def object_def(self):
        name = self.ident("an object name")
        declared = self.ident("a class name") if self.accept(":") else None
        items, methods = [], []

        def member():
            if self.tokens[self.i] == "method":
                methods.append(self.method_decl())
                return
            item = self.i
            pid = self.ident("a property id")
            semantic = None
            if self.kinds[self.tokens[self.i]] == "string":
                semantic = _unquote(self.take("string", "the property semantic"))
            self.expect("=")
            value = self.value()
            self.expect(";")
            items.append((pid, semantic, value, item))

        self.members(member)
        return [(_OBJECT, _add_object, self.report, name, declared, items, methods)]

    def relation_def(self):
        source = self.ident("the source entity")
        kind = self.ident("a relation kind")
        target = self.ident("the target entity")
        degree = self.number("a degree") if self.accept("degree") else 1.0
        self.expect(";")
        return [(_RELATION, Network.add_relation, source, target, kind, degree)]

    def modifier_def(self):
        name = self.ident("a modifier name")
        level = self.ident("object or class")
        if level not in ("object", "class"):
            self.error(f"expected object or class, got {level!r}", self.start)
        source = self.ident("the source entity")
        self.expect("->")
        target = self.ident("the target name")
        target_class = self.ident("a class name") if self.accept("target-class") else None
        changes = []

        def member():
            pid = self.ident("a property id")
            self.expect(":")
            before = self.value()
            self.expect("->")
            after = self.value()
            self.expect(";")
            changes.append(Change(pid, before, after))

        self.members(member)
        steps = [(_MODIFIER, _add_modifier, name, level, source, target, changes, target_class)]
        if level == "object" and target_class is not None:
            steps.append((_LINT, _lint, self.report, name, self.start))
        return steps

    def parse(self) -> list:
        """Parse every statement; return the steps that build them,
        (phase, first token, quiet, function, args): function(net, *args)."""
        tokens, steps = self.tokens, []
        while tokens[self.i]:
            tok, self.start, reported = tokens[self.i], self.i, len(self.diags)
            try:
                if tok not in _STATEMENTS:
                    self.error(f"expected class, object, relation or modifier, got {_value(tok)!r}")
                self.i += 1
                built = getattr(self, f"{tok}_def")()
            except _Bail:
                self.sync_statement()
                continue
            # a statement with a parse error is still built, but its build errors go unreported
            quiet = len(self.diags) > reported
            steps += [(phase, self.start, quiet, build, args) for phase, build, *args in built]
        return steps


# Build phases.  Steps run phase by phase, and in text order within a phase,
# so a statement may name entities declared further down the file.
_CLASS, _OBJECT, _RELATION, _MODIFIER, _LINT = range(5)


def _add_class(net, *args):
    net.add(define_class(*args))


def _add_object(net, report, name, declared, items, methods):
    """Add an object; it inherits semantics and methods from its declared class."""
    base = None
    if declared is not None:
        base = net.classes.get(declared)
        if base is None:
            raise FoodnError(f"object {name}: unknown class {declared!r}")
    properties = []
    for pid, semantic, value, item in items:
        if semantic is None:
            inherited = base.get_property(pid) if base is not None else None
            if inherited is None:
                report(f"object {name}: property {pid} needs a semantic string (not declared by the class)", item)
                continue
            semantic = inherited.semantic
        properties.append(Property(pid, semantic, value))
    signature = {m.id: m for m in base.signature} if base is not None else {}
    signature.update((m.id, m) for m in methods)
    net.add(define_object(name, properties, tuple(signature.values()), declared))


def _add_modifier(net, *args):
    net.register_modifier(define_modifier(*args))


def _lint(net, report, name, start):
    """Static reflection lint: warn if what applying the modifier would bind
    does not belong to its target class; silent if it would be refused."""
    mod = net.modifiers.get(name)
    if mod is None:
        return
    try:
        _, reason = net._modified(mod, mod.source)
    except FoodnError:
        return
    if reason is not None:
        report(f"modifier {mod.name}: the result would not belong to its target class {mod.target_class}",
               start, "warning")


@collector_paused
def parse_network(text: str, tol: float = DEFAULT_TOL):
    """Parse network text.

    Returns (network, warnings).  Raises DslError carrying every diagnostic
    if anything is wrong; a partial network is never returned.
    """
    parser = _Parser(text)
    steps = parser.parse()  # kept off the parser: a step may hold parser.report
    net = Network(tol)
    for _, start, quiet, build, args in sorted(steps, key=itemgetter(0)):
        try:
            build(net, *args)
        except (FoodnError, ValueError) as exc:
            if not quiet:
                parser.report(str(exc), start)
    diags = parser.diags
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise DslError(errors)
    return net, [d for d in diags if d.severity == "warning"]


def parse_fuzzy_set(text: str) -> FuzzySet:
    """Read *text*, such as ``{2/1} cm``, as one .foodn fuzzy set, or raise EvaluationError."""
    parser = _Parser(text)
    try:
        if parser.tokens[0] != "{":
            parser.unexpected("a fuzzy set")
        fs = parser.value().value
        parser.expect("", "the end of the text")
    except _Bail:
        pass
    if parser.diags:
        raise EvaluationError(str(parser.diags[0]))
    return fs
