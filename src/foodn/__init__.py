"""foodn: an engine for fuzzy object-oriented dynamic networks.

Networks hold fuzzy objects and classes, graded relations between them,
set-style exploiters that derive new entities, and modifiers that replay
declared transformations while keeping full history and provenance.
"""
from __future__ import annotations

from importlib import resources

from .errors import FoodnError
from .evaluator import eval_method, evaluate_method, extend
from .fuzzy import (
    DEFAULT_TOL,
    FuzzySet,
    format_fuzzy_set,
    fs_equal,
    make_fuzzy_set,
    parse_fuzzy_set,
)
from .model import (
    Absent,
    Binding,
    ClassSpec,
    CrispNumber,
    CrispTuple,
    Fuzzy,
    FuzzyMarker,
    FuzzyObject,
    FuzzyTuple,
    HeterogeneousClass,
    Interval,
    MethodDef,
    Property,
    TruthDegree,
    compat_degree,
    define_class,
    define_object,
    is_fuzzy_entity,
    membership_degree,
)
from .modifiers import Change, Modifier, check_applicable, define_modifier
from .network import Network, Relation, Witness
from .serialize import dumps, export_dot, from_document, load_file, loads, save_file, to_document

__version__ = "0.1.0"


def parse_network(text, tol=DEFAULT_TOL):
    from .dsl import parse_network as _parse

    return _parse(text, tol)


def fixture_path(name: str):
    """Filesystem path of a bundled example network, e.g. polygons.foodn."""
    return resources.files(__name__) / "data" / name
