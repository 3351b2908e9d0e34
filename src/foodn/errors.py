"""Exception hierarchy for the engine.

Everything raised on purpose derives from FoodnError so callers (and the CLI)
can tell domain failures apart from genuine bugs.
"""
from __future__ import annotations


class FoodnError(Exception):
    """Base class for all engine errors."""


# -- fuzzy sets and evaluation ----------------------------------------------

class EmptyFuzzySet(FoodnError):
    """A fuzzy set needs at least one (support, degree) element."""


class DegreeOutOfRange(FoodnError):
    """A membership or truth degree fell outside [0, 1]."""


class EmptyInput(FoodnError):
    """An aggregate operation received no operands."""


class EvaluationError(FoodnError):
    """A function application failed at some support combination."""


# -- entity model -----------------------------------------------------------

class DuplicateId(FoodnError):
    """Two properties or methods of one entity share an id."""


class EmptyClass(FoodnError):
    """Intensional classes need at least one property or method."""


class ExtensionMissing(FoodnError):
    """An extensional class was declared without members."""


class AbstractValueOnObject(FoodnError):
    """Objects must carry concrete values, not markers or absences."""


class SemanticMismatch(FoodnError):
    """Compared properties describe different things."""


class InvalidChange(FoodnError):
    """A change must actually alter the value it targets."""


# -- network ----------------------------------------------------------------

class DuplicateName(FoodnError):
    """The name is already bound to a live entity."""


class UnknownEntity(FoodnError):
    """No live entity with that name."""


class UnknownEndpoint(FoodnError):
    """A relation endpoint resolves to nothing, live or historical."""


class KindMismatch(FoodnError):
    """The relation kind does not allow these endpoint kinds."""


class UnknownMethod(FoodnError):
    """The entity has no method with that id."""


class UnknownModifier(FoodnError):
    """No registered modifier with that name."""


class UnknownExploiter(FoodnError):
    """No registered exploiter with that kind."""


# -- exploiters -------------------------------------------------------------

class ArityError(FoodnError):
    """Wrong number of distinct arguments for the exploiter."""


class MixedKinds(FoodnError):
    """Arguments must be all objects or all plain classes."""


class DoesNotExist(FoodnError):
    """The requested result has no content, so it is not created."""


class NameCollision(FoodnError):
    """A generated name clashed with a live entity."""


# -- modifiers --------------------------------------------------------------

class EmptyChangeList(FoodnError):
    """A modifier needs at least one change."""


class DuplicateChange(FoodnError):
    """Two changes of one modifier target the same property."""


class NotApplicable(FoodnError):
    """The modifier's expectations do not hold on the entity."""

    def __init__(self, message: str, reasons: list[str] | None = None):
        super().__init__(message)
        self.reasons = list(reasons or [])


# -- expressions and bindings -----------------------------------------------

class ExprSyntaxError(FoodnError):
    """Malformed method-body expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnresolvedBinding(FoodnError):
    """A bound variable's selector does not resolve on the entity."""


# -- text and document formats ----------------------------------------------

class DslError(FoodnError):
    """One or more errors in network source text; no network is produced."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "\n".join(str(d) for d in self.diagnostics)
        super().__init__(f"{len(self.diagnostics)} error(s) in network text:\n{lines}")


class SchemaVersionMismatch(FoodnError):
    """The document's schema version is not supported."""


class CorruptDocument(FoodnError):
    """The document violates the schema structurally."""


class ReflectionWarning(UserWarning):
    """A modifier's result has zero membership in its own target class."""
