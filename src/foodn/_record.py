"""Frozen, slotted records, each made with one exec.

``@record`` reads a class body's annotations as its fields, in order; a
field's class attribute, if it has one, is its default.  It returns a new
class with the fields as ``__slots__`` and ``__match_args__``; a generated
``__init__`` (which ends by calling ``__post_init__`` when the class has
one), ``__eq__``, ``__hash__`` and ``__repr__``; a shared ``__reduce__``,
through which pickling and copying rebuild a record from its fields; and
an ``__setattr__`` and ``__delattr__`` that raise AttributeError.  A method
the body defines itself wins over the generated or shared one.

Records behave as ``@dataclass(frozen=True, slots=True)`` would make them:
the same repr text, equality only within one class over the fields as a
tuple, and the hash of that tuple.  They are built this way because
dataclasses execs six functions per class and imports inspect, which made
up most of the time ``import foodn.cli`` took.

A field whose default is COMPUTED is set by ``__post_init__``: it is no
argument of ``__init__`` and takes no part in ``==``, ``hash``, the repr or
pickling.
"""
from __future__ import annotations


COMPUTED = object()  # the default of a field that __post_init__ sets


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self):
    return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])


def record(cls):
    """The record class that *cls*'s body declares, as described above."""
    body = dict(vars(cls))
    fields = tuple(cls.__annotations__)
    args = [name for name in fields if body.get(name) is not COMPUTED]
    params = "".join(f", {name}=_d_{name}" if name in body else f", {name}" for name in args)
    sets = "".join(f"    _set_{name}(self, {name})\n" for name in args)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    steps = sets + post or "    pass\n"
    own = "(" + "".join(f"self.{name}, " for name in args) + ")"
    theirs = "(" + "".join(f"other.{name}, " for name in args) + ")"
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in args)
    source = (
        f"def __init__(self{params}):\n{steps}"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {own} == {theirs}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({own})\n"
        f'def __repr__(self):\n    return f"{{self.__class__.__qualname__}}({shown})"\n'
    )
    namespace = {f"_d_{name}": body.pop(name) for name in fields if name in body}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        body.setdefault(name, namespace[name])
    body.setdefault("__reduce__", _reduce)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(
        __slots__=fields,
        __match_args__=tuple(args),
        __setattr__=_refuse_set,
        __delattr__=_refuse_delete,
    )
    made = type(cls)(cls.__name__, cls.__bases__, body)
    # the generated __init__ sets each field through its slot, bypassing __setattr__
    namespace.update({f"_set_{name}": vars(made)[name].__set__ for name in args})
    return made


def is_record(cls) -> bool:
    """True for a class that @record made."""
    return isinstance(cls, type) and cls.__setattr__ is _refuse_set


def replace(rec, /, **changes):
    """A new record of rec's class: rec's fields, with *changes* in place."""
    cls = type(rec)
    for name in changes:
        if name in cls.__slots__ and name not in cls.__match_args__:
            raise TypeError(
                f"field {name} is declared with init=False, it cannot be specified with replace()"
            )
    return cls(**{name: getattr(rec, name) for name in cls.__match_args__} | changes)
