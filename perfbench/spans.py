"""Span recorders installed around the program's entry points.

Each target is replaced, where its caller looks it up, by a wrapper that
records a span: name, start, end, parent and the operation it belongs to.
A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded, so
self times are never negative.  Per (operation, span name) the tracer
keeps calls, total and self nanoseconds for every span, and the raw spans
of the first MAX_SPANS for writing out at the end of a run.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

MAX_SPANS = 20_000


def targets():
    """(owner, attribute, span name) for every layer boundary traced.

    Owners are the namespaces the callers read at call time: a function
    imported by name into another module is wrapped in that module.
    """
    from foodn import _pykernel, cli, dsl, evaluator, exploiters, expr, kernel, model, network, serialize

    net = network.Network
    return [
        (dsl, "parse_network", "dsl.parse_network"),
        (net, "add", "network.add"),
        (net, "add_relation", "network.add_relation"),
        (net, "membership", "network.membership"),
        (net, "query_related", "network.query_related"),
        (net, "is_fuzzy", "network.is_fuzzy"),
        (net, "infer_relations", "network.infer_relations"),
        (net, "apply_exploiter", "network.apply_exploiter"),
        (net, "apply_modifier", "network.apply_modifier"),
        (model, "membership_degree", "model.membership_degree"),
        (network, "membership_degree", "model.membership_degree"),
        (dsl, "membership_degree", "model.membership_degree"),
        (exploiters, "union_op", "exploiters.union"),
        (exploiters, "intersection_op", "exploiters.intersection"),
        (exploiters, "difference_op", "exploiters.difference"),
        (exploiters, "sym_difference_op", "exploiters.sym-difference"),
        (exploiters, "clone_op", "exploiters.clone"),
        (network, "check_applicable", "modifiers.check_applicable"),
        (dsl, "check_applicable", "modifiers.check_applicable"),
        (network, "transform", "modifiers.transform"),
        (dsl, "transform", "modifiers.transform"),
        (serialize, "to_document", "serialize.to_document"),
        (serialize, "from_document", "serialize.from_document"),
        (expr, "parse_expr", "expr.parse_expr"),
        (evaluator, "parse_expr", "expr.parse_expr"),
        (evaluator, "compile_program", "expr.compile_program"),
        (evaluator, "resolve_binding", "evaluator.resolve_binding"),
        (evaluator, "evaluate_method", "evaluator.evaluate_method"),
        (kernel, "eval_program", "kernel.eval_program"),
        (_pykernel, "merge_pairs", "fuzzy.merge_pairs"),
        (cli, "main", "cli.main"),
    ]


class Tracer:
    def __init__(self):
        self.agg: dict[tuple[str, str], list[int]] = {}  # (op, span) -> [calls, total_ns, self_ns]
        self.ops: dict[str, list[int]] = {}  # op -> [count, total_ns]
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, op)
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._op = ""
        self._saved: list[tuple] = []

    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, 0])
        return self._next_id, parent

    def _leave(self, name, span_id, parent, start, end):
        _, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        rec = self.agg.get((self._op, name))
        if rec is None:
            rec = self.agg[(self._op, name)] = [0, 0, 0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, name, start, end, self._op))
        else:
            self.dropped += 1

    def wrap(self, name, fn):
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            span_id, parent = self._enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, span_id, parent, start, clock())

        span.__wrapped__ = fn
        return span

    @contextmanager
    def op(self, label):
        """The root span of one benchmark operation."""
        self._op = label
        span_id, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._leave("op", span_id, parent, start, end)
            rec = self.ops.setdefault(label, [0, 0])
            rec[0] += 1
            rec[1] += end - start
            self._op = ""

    def install(self):
        if self._saved:
            return
        for owner, attr, name in targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading the record -----------------------------------------------------

    def count(self, op, name) -> int:
        return self.agg.get((op, name), (0, 0, 0))[0]

    def total_s(self, op, name) -> float:
        return self.agg.get((op, name), (0, 0, 0))[1] / 1e9

    def self_s(self, op, name) -> float:
        return self.agg.get((op, name), (0, 0, 0))[2] / 1e9

    def n_ops(self, op) -> int:
        return self.ops.get(op, (0, 0))[0]

    def op_s(self, op) -> float:
        return self.ops.get(op, (0, 0))[1] / 1e9

    def per_op(self, op, name, what="total") -> float:
        """Seconds (or calls, with what="calls") in span name per operation."""
        n = self.n_ops(op)
        if not n:
            return 0.0
        value = {"total": self.total_s, "self": self.self_s, "calls": self.count}[what](op, name)
        return value / n

    def per_call(self, ops, name, what="total") -> float:
        """Mean seconds per call of span name over the given operations."""
        calls = sum(self.count(op, name) for op in ops)
        if not calls:
            return 0.0
        read = self.total_s if what == "total" else self.self_s
        return sum(read(op, name) for op in ops) / calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                    "aggregate": [
                        {"op": op, "span": name, "calls": c, "total_ns": t, "self_ns": s}
                        for (op, name), (c, t, s) in sorted(self.agg.items())
                    ],
                },
                fh,
            )
