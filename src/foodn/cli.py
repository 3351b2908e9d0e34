"""Batch command line: load a network, run one operation, optionally save.

Every invocation is stateless.  Exit codes: 0 on success, 1 for domain
errors (unknown entities, inapplicable modifiers, results that do not
exist), 2 for usage, parse, or document errors.  The FOODN_TOLERANCE
environment variable overrides the numeric tolerance; it must be a finite
number >= 0.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    CorruptDocument,
    DslError,
    ExprSyntaxError,
    FoodnError,
    SchemaVersionMismatch,
)
from .evaluator import eval_method
from .fuzzy import DEFAULT_TOL, FuzzySet, check_tolerance, format_fuzzy_set, format_number
from .serialize import encode_json, export_dot, load_file, save_file, value_to_doc
from .model import Fuzzy

EXPLOITER_ALIASES = {
    "union": "union",
    "intersect": "intersection",
    "intersection": "intersection",
    "difference": "difference",
    "diff": "difference",
    "symdiff": "sym-difference",
    "sym-difference": "sym-difference",
    "clone": "clone",
}


def _print_doc(payload):
    print(encode_json(payload))


def _load(args, tol):
    net, warnings = load_file(args.infile, tol)
    for w in warnings:
        print(f"{args.infile}:{w}", file=sys.stderr)
    return net


def _maybe_save(net, args):
    if getattr(args, "outfile", None):
        save_file(net, args.outfile)


def cmd_load(args, tol):
    net = _load(args, tol)
    counts = {
        "objects": len(net.objects),
        "classes": len(net.classes),
        "relations": len(net.relations),
        "exploiters": len(net.exploiters),
        "modifiers": len(net.modifiers),
    }
    if args.format == "doc":
        _print_doc(counts)
    else:
        for key in ("objects", "classes", "relations", "exploiters", "modifiers"):
            print(f"{key}: {counts[key]}")
    _maybe_save(net, args)
    return 0


def cmd_check(args, tol):
    net, warnings = load_file(args.infile, tol)
    if args.format == "doc":
        _print_doc({"ok": True, "warnings": [str(w) for w in warnings]})
        return 0
    for w in warnings:
        print(f"warning: {w}")
    print("ok")
    return 0


def cmd_fuzzy(args, tol):
    net = _load(args, tol)
    verdict, witnesses = net.is_fuzzy()
    if args.format == "doc":
        _print_doc(
            {
                "fuzzy": verdict,
                "witnesses": [
                    {"name": w.name, "kind": w.kind, "details": list(w.details)}
                    for w in witnesses
                ],
            }
        )
        return 0
    print(f"fuzzy: {'true' if verdict else 'false'}")
    for w in witnesses:
        print(f"{w.name} [{w.kind}]: {', '.join(w.details)}")
    return 0


def cmd_membership(args, tol):
    net = _load(args, tol)
    degree = net.membership(args.object, args.klass, args.tnorm)
    if args.format == "doc":
        _print_doc({"membership": degree})
    else:
        print(format_number(degree))
    return 0


def cmd_query(args, tol):
    net = _load(args, tol)
    names = net.query_related(args.name, args.kinds, args.direction, args.transitive)
    if args.format == "doc":
        _print_doc({"related": names})
    else:
        for name in names:
            print(name)
    return 0


def cmd_eval(args, tol):
    net = _load(args, tol)
    entity = net.entity(args.entity)
    value = eval_method(entity, args.method, tol)
    if isinstance(value, FuzzySet):
        if args.format == "doc":
            _print_doc({"value": value_to_doc(Fuzzy(value))})
        else:
            print(format_fuzzy_set(value))
        return 0
    method = entity.get_method(args.method)
    if args.format == "doc":
        _print_doc({"value": {"kind": "number", "value": value, "unit": method.result_unit}})
    else:
        text = format_number(value)
        print(f"{text} {method.result_unit}" if method.result_unit else text)
    return 0


def cmd_apply_exploiter(args, tol):
    net = _load(args, tol)
    kind = EXPLOITER_ALIASES[args.kind]
    name = net.apply_exploiter(kind, args.names, args.name, args.index)
    if args.format == "doc":
        _print_doc({"created": name})
    else:
        print(f"created {name}")
    _maybe_save(net, args)
    return 0


def cmd_apply_modifier(args, tol):
    net = _load(args, tol)
    name = net.apply_modifier(args.modifier, args.entity)
    if args.format == "doc":
        _print_doc({"created": name})
    else:
        print(f"created {name}")
    _maybe_save(net, args)
    return 0


def cmd_export_dot(args, tol):
    net = _load(args, tol)
    text = export_dot(net, args.overlay or ())
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_save(args, tol):
    net = _load(args, tol)
    save_file(net, args.outfile)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foodn", description="Work with fuzzy object-oriented dynamic networks."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, out=False, fmt=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--in", dest="infile", required=True, help="network file (.foodn or JSON)")
        if out:
            sp.add_argument("--out", dest="outfile", help="write the resulting network as JSON")
        if fmt:
            sp.add_argument("--format", choices=("text", "doc"), default="text")
        sp.set_defaults(func=func)
        return sp

    add("load", cmd_load, "parse a network and report its sizes", out=True)
    add("check", cmd_check, "validate a network and print warnings")
    add("fuzzy", cmd_fuzzy, "report whether the network is fuzzy, with witnesses")

    sp = add("membership", cmd_membership, "membership degree of an object in a class")
    sp.add_argument("object")
    sp.add_argument("klass", metavar="class")
    sp.add_argument("--tnorm", choices=("min", "product"), default="min")

    sp = add("query", cmd_query, "entities related to a name")
    sp.add_argument("name")
    sp.add_argument("kinds", nargs="+", help="relation kinds to follow")
    sp.add_argument("--direction", choices=("out", "in"), default="out")
    sp.add_argument("--transitive", action="store_true")

    sp = add("eval", cmd_eval, "evaluate a method on an entity")
    sp.add_argument("entity")
    sp.add_argument("method")

    sp = add("apply-exploiter", cmd_apply_exploiter, "run an exploiter and store its result", out=True)
    sp.add_argument("kind", choices=sorted(EXPLOITER_ALIASES))
    sp.add_argument("names", nargs="+", help="argument entities")
    sp.add_argument("--name", help="name for the result")
    sp.add_argument("--index", type=int, help="clone index")

    sp = add("apply-modifier", cmd_apply_modifier, "apply a registered modifier", out=True)
    sp.add_argument("modifier")
    sp.add_argument("entity")

    sp = add("export-dot", cmd_export_dot, "render the relation graph as DOT", fmt=False)
    sp.add_argument("--overlay", nargs="+", help="draw exploiter results over these entities")
    sp.add_argument("--out", dest="outfile")

    sp = add("save", cmd_save, "rewrite a network as a canonical JSON document", fmt=False)
    sp.add_argument("--out", dest="outfile", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    raw = os.environ.get("FOODN_TOLERANCE")
    try:
        tol = DEFAULT_TOL if raw is None else check_tolerance(float(raw))
    except ValueError:
        print(f"error: FOODN_TOLERANCE must be a finite number >= 0, got {raw!r}", file=sys.stderr)
        return 2
    try:
        return args.func(args, tol)
    except DslError as exc:
        for diag in exc.diagnostics:
            print(f"{args.infile}:{diag}", file=sys.stderr)
        return 2
    except (SchemaVersionMismatch, CorruptDocument, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FoodnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
