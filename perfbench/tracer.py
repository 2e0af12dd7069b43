"""Outside-in tracer: times the calls into flowmc's layers without editing flowmc.

It replaces the module attributes that callers actually look up (for
example ``flowmc.cli.translate``, which ``cli`` imported by name, or
``flowmc.pds.successors``, which ``check_invariant`` reads from its own
module) with timing wrappers, and puts the originals back on ``restore``.

Hot functions run millions of times, so every wrapped binding is kept
only as an aggregate per command: call count, total time and self time
(total minus the time of wrapped calls made inside it).  Individual spans
are kept only for the per-command phases (``span=True``); the spans of one
command share its id.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[ModuleType, str, Any]] = []
        self._stack: list[list] = []        # frames: [child seconds, name]
        self.commands: list[dict] = []      # one record per traced command
        self.spans: list[dict] = []
        self.stats: dict[str, list] = {}    # name -> [count, total s, self s]
        self.counts: dict[str, float] = {}  # counters of the current command
        self._command_id = 0

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        module: ModuleType,
        attr: str,
        name: str,
        span: bool = False,
        on_result: Optional[Callable[["Tracer", Any, tuple], None]] = None,
    ) -> None:
        """Replace ``module.attr`` with a wrapper aggregated under ``name``."""
        original = getattr(module, attr)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stat = tracer.stats.get(name)
                if stat is None:
                    stat = tracer.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    tracer.spans.append({
                        "command": tracer._command_id,
                        "name": name,
                        "parent": stack[-1][1] if stack else None,
                        "start": start,
                        "end": end,
                    })
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- commands ----------------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def high(self, counter: str, value: float) -> None:
        if value > self.counts.get(counter, 0):
            self.counts[counter] = value

    def run_command(self, name: str, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run one command as the root frame; returns (result, seconds)."""
        self._command_id += 1
        self.stats = {}
        self.counts = {}
        frame = [0.0, name]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            self._stack.pop()
        for key, value in self.counts.items():
            if isinstance(value, set):
                self.counts[key] = len(value)
        self.spans.append({"command": self._command_id, "name": name,
                           "parent": None, "start": start, "end": end})
        self.commands.append({
            "id": self._command_id,
            "command": name,
            "seconds": end - start,
            "self_s": end - start - frame[0],
            "stats": self.stats,
            "counts": self.counts,
        })
        return result, end - start

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"commands": self.commands, "spans": self.spans}),
                        encoding="utf-8")


# ---------------------------------------------------------------------------
# The bindings flowmc's callers look up, and what each one counts.


def _on_validate(t: Tracer, diags, args) -> None:
    t.add("ir.diagnostics", len(diags))


def _on_parse(t: Tracer, result, args) -> None:
    t.add("ir_text.lines", args[0].count("\n") + 1)


def _on_translate(t: Tracer, fg, args) -> None:
    t.counts["flowgraph.nodes"] = sum(len(p.nodes) for p in fg.procedures.values())
    t.counts["flowgraph.edges"] = sum(len(p.edges) for p in fg.procedures.values())


def _on_successors(t: Tracer, succ, args) -> None:
    config = args[1]
    seen = t.counts.setdefault("pds.configs", set())
    if not seen:
        seen.update(args[0].initial)
    seen.update(succ)
    if not succ:
        t.add("pds.deadlocks")
    t.high("pds.max_depth", config.depth)


def _on_posts(t: Tracer, posts, args) -> None:
    t.add("actions.posts", len(posts))


def _on_sts(t: Tracer, sts, args) -> None:
    t.counts["sts.actions"] = len(sts.actions)


def _on_execute(t: Tracer, report, args) -> None:
    t.add("sts.states", len(report.states))


def _on_tla(t: Tracer, pair, args) -> None:
    t.add("emit.tla_bytes", sum(len(s.encode("utf-8")) for s in pair))


def _on_smv(t: Tracer, text, args) -> None:
    t.add("emit.smv_bytes", len(text.encode("utf-8")))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported flowmc."""
    import flowmc.actions
    import flowmc.cli as cli
    import flowmc.ir_text
    import flowmc.pds
    import flowmc.sts

    w = tracer.wrap
    # per-command phases: looked up by cli, kept as spans
    w(cli, "parse_program", "ir_text.parse_program", span=True, on_result=_on_parse)
    w(flowmc.ir_text, "validate_program", "ir.validate_program", span=True,
      on_result=_on_validate)
    w(cli, "translate", "flowgraph.translate", span=True, on_result=_on_translate)
    w(cli, "induce", "pds.induce", span=True)
    w(cli, "check_invariant", "pds.check_invariant", span=True)
    w(cli, "format_trace", "pds.format_trace", span=True)
    w(cli, "sts_of_flow_graph", "sts.sts_of_flow_graph", span=True, on_result=_on_sts)
    w(cli, "compare_with_pds", "sts.compare_with_pds", span=True)
    w(cli, "emit_tla", "emit.emit_tla", span=True, on_result=_on_tla)
    w(cli, "emit_nuxmv", "emit.emit_nuxmv", span=True, on_result=_on_smv)
    w(cli, "emit_dot", "emit.emit_dot", span=True)
    w(cli, "check_tla_text", "emit.check_tla_text", span=True)
    w(cli, "check_nuxmv_text", "emit.check_nuxmv_text", span=True)
    # once per crosscheck, read from their modules at call time
    w(flowmc.pds, "explore", "pds.explore", span=True)
    w(flowmc.sts, "execute_sts", "sts.execute_sts", span=True, on_result=_on_execute)
    # hot paths: aggregates only
    w(flowmc.pds, "successors", "pds.successors", on_result=_on_successors)
    w(flowmc.sts, "pds_successors", "sts.pds_successors")
    w(flowmc.sts, "sts_successors", "sts.sts_successors")
    w(flowmc.pds, "enumerate_posts", "actions.enumerate_posts", on_result=_on_posts)
    w(flowmc.actions, "eval_expr", "expr.eval_expr@actions")
    w(flowmc.pds, "eval_expr", "expr.eval_expr@pds")
    w(flowmc.sts, "eval_expr", "expr.eval_expr@sts")


def layer_metrics(command: dict) -> dict[str, float]:
    """Per-layer figures of one traced command, by metric name."""
    stats, counts = command["stats"], command["counts"]

    def count(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    evals = ("expr.eval_expr@actions", "expr.eval_expr@pds", "expr.eval_expr@sts")
    candidates = count("expr.eval_expr@actions")
    posts_calls = count("actions.enumerate_posts")
    return {
        "ir_text.parse_s": self_s("ir_text.parse_program"),
        "ir_text.lines": counts.get("ir_text.lines", 0),
        "ir.validate_s": total("ir.validate_program"),
        "ir.diagnostics": counts.get("ir.diagnostics", 0),
        "flowgraph.translate_s": total("flowgraph.translate"),
        "flowgraph.nodes": counts.get("flowgraph.nodes", 0),
        "flowgraph.edges": counts.get("flowgraph.edges", 0),
        "pds.induce_s": total("pds.induce"),
        "pds.expansions": count("pds.successors"),
        "pds.configs": counts.get("pds.configs", 0),
        "pds.deadlocks": counts.get("pds.deadlocks", 0),
        "pds.max_depth": counts.get("pds.max_depth", 0),
        "pds.successors_self_s": self_s("pds.successors") + self_s("sts.pds_successors"),
        "pds.search_self_s": self_s("pds.check_invariant") + self_s("pds.explore"),
        "actions.enumerate_posts_calls": posts_calls,
        "actions.enumerate_posts_self_s": self_s("actions.enumerate_posts"),
        "actions.candidates": candidates,
        "actions.posts": counts.get("actions.posts", 0),
        "expr.evals": sum(count(n) for n in evals),
        "expr.eval_s": sum(total(n) for n in evals),
        "sts.build_s": total("sts.sts_of_flow_graph"),
        "sts.actions": counts.get("sts.actions", 0),
        "sts.states": counts.get("sts.states", 0),
        "sts.successors_calls": count("sts.sts_successors"),
        "sts.successors_self_s": self_s("sts.sts_successors"),
        "sts.execute_s": total("sts.execute_sts"),
        "sts.compare_self_s": self_s("sts.compare_with_pds"),
        "emit.tla_s": total("emit.emit_tla"),
        "emit.nuxmv_s": total("emit.emit_nuxmv"),
        "emit.dot_s": total("emit.emit_dot"),
        "emit.text_check_s": total("emit.check_tla_text") + total("emit.check_nuxmv_text"),
        "emit.tla_bytes": counts.get("emit.tla_bytes", 0),
        "emit.smv_bytes": counts.get("emit.smv_bytes", 0),
        "cli.self_s": command["self_s"],
    }
