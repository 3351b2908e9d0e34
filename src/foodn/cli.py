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
from .exploiters import UNIVERSAL_EXPLOITERS
from .fuzzy import DEFAULT_TOL, FuzzySet, check_tolerance, format_number
from .model import CrispNumber, Fuzzy, format_value
from .serialize import encode_json, export_dot, load_file, save_file, value_to_doc

EXPLOITER_ALIASES = {
    **{e.kind: e.kind for e in UNIVERSAL_EXPLOITERS},
    "intersect": "intersection",
    "diff": "difference",
    "symdiff": "sym-difference",
}


# Each subcommand takes the loaded network, the parsed arguments and the load
# warnings, and returns its answer twice: as the document --format doc prints
# and as the lines of the text format.  main() does the loading, printing
# and saving for all of them.


def cmd_load(net, args, warnings):
    counts = {
        "objects": len(net.objects),
        "classes": len(net.classes),
        "relations": len(net.relations),
        "exploiters": len(net.exploiters),
        "modifiers": len(net.modifiers),
    }
    return counts, [f"{key}: {n}" for key, n in counts.items()]


def cmd_check(net, args, warnings):
    doc = {"ok": True, "warnings": [str(w) for w in warnings]}
    return doc, [f"warning: {w}" for w in warnings] + ["ok"]


def cmd_fuzzy(net, args, warnings):
    verdict, witnesses = net.is_fuzzy()
    found = [{"name": w.name, "kind": w.kind, "details": list(w.details)} for w in witnesses]
    lines = [f"fuzzy: {'true' if verdict else 'false'}"]
    lines += [f"{w.name} [{w.kind}]: {', '.join(w.details)}" for w in witnesses]
    return {"fuzzy": verdict, "witnesses": found}, lines


def cmd_membership(net, args, warnings):
    degree = net.membership(args.object, args.klass, args.tnorm)
    return {"membership": degree}, [format_number(degree)]


def cmd_query(net, args, warnings):
    names = net.query_related(args.name, args.kinds, args.direction, args.transitive)
    return {"related": names}, names


def cmd_eval(net, args, warnings):
    entity = net.entity(args.entity)
    value = eval_method(entity, args.method, net.tol)
    if isinstance(value, FuzzySet):
        value = Fuzzy(value)
    else:
        value = CrispNumber(value, entity.get_method(args.method).result_unit)
    return {"value": value_to_doc(value)}, [format_value(value)]


def _created(name):
    return {"created": name}, [f"created {name}"]


def cmd_apply_exploiter(net, args, warnings):
    kind = EXPLOITER_ALIASES[args.kind]
    return _created(net.apply_exploiter(kind, args.names, args.name, args.index))


def cmd_apply_modifier(net, args, warnings):
    return _created(net.apply_modifier(args.modifier, args.entity))


def cmd_export_dot(net, args, warnings):
    text = export_dot(net, args.overlay or ())
    if args.dest is None:
        return None, text.split("\n")[:-1]  # every DOT line ends with a newline
    with open(args.dest, "w", encoding="utf-8") as fh:
        fh.write(text)
    return None, []


def cmd_save(net, args, warnings):
    return None, []  # main() writes --out


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
    sp.add_argument("--out", dest="dest", metavar="OUTFILE")

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
        net, warnings = load_file(args.infile, tol)
        if args.command != "check":  # check reports its warnings on stdout
            for w in warnings:
                print(f"{args.infile}:{w}", file=sys.stderr)
        doc, lines = args.func(net, args, warnings)
        if getattr(args, "format", None) == "doc":
            print(encode_json(doc))
        else:
            for line in lines:
                print(line)
        if getattr(args, "outfile", None):
            save_file(net, args.outfile)
        return 0
    except DslError as exc:
        for diag in exc.diagnostics:
            print(f"{args.infile}:{diag}", file=sys.stderr)
        return 2
    except (SchemaVersionMismatch, CorruptDocument, ExprSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FoodnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
