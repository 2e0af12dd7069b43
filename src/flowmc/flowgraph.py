"""Abstraction of annotated programs into flow graphs.

Nodes carry actions (from statements or contracts); edges are silent or
labelled with a callee name.  The translation substitutes contracts for
annotated blocks and for calls to procedures whose entry block carries a
contract, splices unannotated jump targets into the jump site, keeps a
back-edge when a jump re-enters an already-merged block, conjoins edge
guards into the guarded node's label, and adds a silent self-loop at the
main procedure's return node so terminating executions stutter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .actions import (
    Action,
    action_of_contract,
    action_of_guard,
    action_of_statement,
    conjoin,
    id_action,
)
from .expr import Domain, Expr, TRUE, Value, infer_type, to_str
from .ir import (
    AnnotatedProgram,
    Assign,
    Call,
    Diagnostic,
    Jump,
    Return,
    Skip,
    VarDecl,
)


class TranslateError(Exception):
    def __init__(self, code: str, message: str, path: str = "") -> None:
        where = f" ({path})" if path else ""
        super().__init__(f"{code}: {message}{where}")
        self.code = code
        self.path = path


class UnknownProcedureError(KeyError):
    pass


@dataclass(frozen=True)
class FlowEdge:
    src: str
    label: Optional[str]  # None for silent edges, else the callee name
    dst: str


@dataclass(frozen=True)
class ProcedureFlowGraph:
    name: str
    nodes: tuple[str, ...]
    edges: tuple[FlowEdge, ...]
    actions: dict[str, Action]
    entry: str
    return_node: str
    locals: tuple[VarDecl, ...]
    init_locals: dict[str, Value]


@dataclass(frozen=True)
class FlowGraph:
    name: str
    procedures: dict[str, ProcedureFlowGraph]
    main: str
    globals: tuple[VarDecl, ...]
    init_globals: Expr = TRUE

    def global_domains(self) -> dict[str, Domain]:
        return {decl.name: decl.domain for decl in self.globals}

    def proc_of_node(self) -> dict[str, str]:
        return {n: p.name for p in self.procedures.values() for n in p.nodes}


# ---------------------------------------------------------------------------
# Translation


def _abbreviations(names: list[str]) -> dict[str, str]:
    """Shortest prefix of each name that is unique among all (distinct)
    names.

    A prefix is shared with another name exactly when it is no longer than
    their common prefix, and in sorted order a name's longest common prefix
    with any other is one with a neighbour.  Node ids are
    ``n_<abbrev><k>``, so an abbreviation that ends in a digit or prefixes
    another one would make ids ambiguous; such names fall back to
    ``<name>_`` (translate asserts global uniqueness regardless).
    """
    ordered = sorted(names)
    shared = dict.fromkeys(ordered, 0)  # longest prefix shared with another name
    for a, b in zip(ordered, ordered[1:]):
        common = len(os.path.commonprefix([a, b]))
        shared[a] = max(shared[a], common)
        shared[b] = max(shared[b], common)
    out = {name: name[: shared[name] + 1] for name in names}
    owner = {abbrev: name for name, abbrev in out.items()}
    ambiguous = {name for name, abbrev in out.items() if abbrev[-1].isdigit()}
    # in sorted order, the abbreviations that prefix the current one form
    # a chain of nested prefixes just before it
    chain: list[str] = []
    for abbrev in sorted(owner):
        while chain and not abbrev.startswith(chain[-1]):
            chain.pop()
        if chain:
            ambiguous.update((owner[chain[-1]], owner[abbrev]))
        chain.append(abbrev)
    for name in ambiguous:
        out[name] = f"{name}_"
    return out


_SPLICED = "spliced"
_NODE = "node"


@dataclass
class _RawEdge:
    src: str
    label: Optional[str]
    dst: str
    guard: Optional[Expr]


class _ProcTranslator:
    """Builds one procedure flow graph; see the module docstring for the rules."""

    def __init__(self, prog: AnnotatedProgram, proc_name: str, abbrev: str) -> None:
        self.prog = prog
        self.proc = prog.procedures[proc_name]
        self.abbrev = abbrev
        self.counter = 0
        self.block_state: dict[str, str] = {}
        self.point_info: dict[tuple[str, str], tuple[str, str]] = {}
        self.merge_order: list[str] = []
        self.node_order: list[str] = []
        self.backedge_nodes: set[str] = set()
        self.frame = frozenset(
            [d.name for d in self.proc.locals] + [d.name for d in prog.globals]
        )
        self.domains: dict[str, Domain] = {
            **prog.global_domains(),
            **prog.local_domains(proc_name),
        }
        self.scope = {name: dom.type_name for name, dom in self.domains.items()}
        self.calls_needed: list[str] = []

    def path(self, block: str, point: str = "") -> str:
        where = f"procedure {self.proc.name}/block {block}"
        return f"{where}/point {point}" if point else where

    def fresh_node(self) -> str:
        self.counter += 1
        node = f"n_{self.abbrev}{self.counter}"
        self.node_order.append(node)
        return node

    # -- allocation ----------------------------------------------------------

    def allocate(self, block_name: str) -> None:
        self.block_state[block_name] = "busy"
        self.merge_order.append(block_name)
        block = self.proc.blocks[block_name]
        for point in block.points:
            stmt = block.stmts[point]
            if isinstance(stmt, Jump):
                target = stmt.block
                target_block = self.proc.blocks.get(target)
                if target_block is None:
                    raise TranslateError(
                        "DanglingReference",
                        f"jump targets undeclared block '{target}'",
                        self.path(block_name, point),
                    )
                if target_block.contract.is_empty and target not in self.block_state:
                    self.point_info[(block_name, point)] = (_SPLICED, target)
                    self.allocate(target)
                    continue
            node = self.fresh_node()
            self.point_info[(block_name, point)] = (_NODE, node)
            if isinstance(stmt, Jump) and self.proc.blocks[stmt.block].contract.is_empty:
                self.backedge_nodes.add(node)
        self.block_state[block_name] = "done"

    def resolve_point(self, block_name: str, point: str) -> str:
        kind, payload = self.point_info[(block_name, point)]
        if kind == _NODE:
            return payload
        return self.resolve_entry(payload)

    def resolve_entry(self, block_name: str) -> str:
        block = self.proc.blocks[block_name]
        return self.resolve_point(block_name, block.entry)

    # -- labelling -----------------------------------------------------------

    def edge_label(self, block_name: str, point: str) -> Optional[str]:
        stmt = self.proc.blocks[block_name].stmts[point]
        if isinstance(stmt, Call):
            callee = self.prog.procedures.get(stmt.proc)
            if callee is None:
                raise TranslateError(
                    "DanglingReference",
                    f"call targets undeclared procedure '{stmt.proc}'",
                    self.path(block_name, point),
                )
            if callee.blocks[callee.entry_block].contract.is_empty:
                return stmt.proc
        return None

    def base_label(self, block_name: str, point: str) -> Action:
        stmt = self.proc.blocks[block_name].stmts[point]
        where = self.path(block_name, point)
        try:
            if isinstance(stmt, Jump):
                contract = self.proc.blocks[stmt.block].contract
                if not contract.is_empty:
                    return action_of_contract(
                        contract,
                        self.frame,
                        self.domains,
                        describe=f"contract {self.proc.name}.{stmt.block}",
                    )
                return id_action(self.frame)
            if isinstance(stmt, Call):
                callee = self.prog.procedures[stmt.proc]
                contract = callee.blocks[callee.entry_block].contract
                if not contract.is_empty:
                    return action_of_contract(
                        contract,
                        self.frame,
                        self.domains,
                        describe=f"contract {stmt.proc}",
                    )
                self.calls_needed.append(stmt.proc)
                return id_action(self.frame)
            if isinstance(stmt, (Assign, Skip)):
                return action_of_statement(stmt, self.frame)
            return id_action(self.frame)  # Return
        except Exception as err:  # surface lowering problems with a location
            if isinstance(err, TranslateError):
                raise
            raise TranslateError("BadAction", str(err), where) from err

    def check_label(self, action: Action, where: str) -> Action:
        try:
            kind = infer_type(action.expr, self.scope)
        except Exception as err:
            raise TranslateError("BadAction", str(err), where) from err
        if kind != "bool":
            raise TranslateError("BadAction", "node label is not boolean", where)
        return action

    # -- main build ----------------------------------------------------------

    def build(self) -> ProcedureFlowGraph:
        proc = self.proc
        if proc.entry_block not in proc.blocks:
            raise TranslateError(
                "DanglingReference",
                f"entry block '{proc.entry_block}' is not declared",
                f"procedure {proc.name}",
            )
        self.allocate(proc.entry_block)

        raw_edges: list[_RawEdge] = []
        labels: dict[str, Action] = {}
        stmt_of_node: dict[str, tuple[str, str]] = {}

        for block_name in self.merge_order:
            block = self.proc.blocks[block_name]
            for point in block.points:
                kind, payload = self.point_info[(block_name, point)]
                if kind == _NODE:
                    stmt_of_node[payload] = (block_name, point)
                    labels[payload] = self.check_label(
                        self.base_label(block_name, point), self.path(block_name, point)
                    )

        for block_name in self.merge_order:
            block = self.proc.blocks[block_name]
            for (u, v) in block.edges:
                guard = block.guards.get((u, v))
                if guard is not None:
                    try:
                        if infer_type(guard, self.scope) != "bool":
                            raise TranslateError(
                                "BadGuard", "guard is not boolean", self.path(block_name, u)
                            )
                    except TranslateError:
                        raise
                    except Exception as err:
                        raise TranslateError(
                            "BadGuard", str(err), self.path(block_name, u)
                        ) from err
                dst = self.resolve_point(block_name, v)
                kind_u, payload_u = self.point_info[(block_name, u)]
                if kind_u == _SPLICED:
                    # continuation of the spliced block: flows from its exit
                    target = payload_u
                    exit_point = self.proc.blocks[target].exit
                    exit_stmt = self.proc.blocks[target].stmts[exit_point]
                    if isinstance(exit_stmt, (Return, Jump)):
                        continue  # no fall-through out of the spliced block
                    src = self.resolve_point(target, exit_point)
                    raw_edges.append(_RawEdge(src, self.edge_label(target, exit_point), dst, guard))
                else:
                    stmt_u = block.stmts[u]
                    if isinstance(stmt_u, Jump) and self.proc.blocks[stmt_u.block].contract.is_empty:
                        continue  # back-edge jumps are pure transfers
                    raw_edges.append(_RawEdge(payload_u, self.edge_label(block_name, u), dst, guard))
            # back-edges for kept jumps to already-merged blocks
            for point in block.points:
                kind_p, payload_p = self.point_info[(block_name, point)]
                if kind_p != _NODE or payload_p not in self.backedge_nodes:
                    continue
                stmt = block.stmts[point]
                assert isinstance(stmt, Jump)
                raw_edges.append(_RawEdge(payload_p, None, self.resolve_entry(stmt.block), None))

        entry_node = self.resolve_entry(proc.entry_block)
        nodes, edges, final_labels = self._attach_guards(entry_node, raw_edges, labels)

        self._check_jump_cycles(nodes, edges)

        returns = []
        return_points = set()
        for node in nodes:
            origin = stmt_of_node.get(node) or stmt_of_node.get(self._copy_origin.get(node, ""))
            if origin is None:
                continue
            block_name, point = origin
            if isinstance(self.proc.blocks[block_name].stmts[point], Return):
                returns.append(node)
                return_points.add(origin)
        if not returns:
            raise TranslateError(
                "UnreachableExit",
                "no return point was merged into the flow graph",
                f"procedure {proc.name}",
            )
        if len(return_points) > 1:
            raise TranslateError(
                "MultipleReturns",
                "more than one return point in the flow graph",
                f"procedure {proc.name}",
            )
        if len(returns) > 1:
            raise TranslateError(
                "GuardedReturnConflict",
                "the return point is entered under distinct guards; "
                "route the guarded arms through a join point",
                f"procedure {proc.name}",
            )
        return_node = returns[0]

        if proc.name == self.prog.main:
            stutter = FlowEdge(return_node, None, return_node)
            if stutter not in edges:
                edges.append(stutter)

        return ProcedureFlowGraph(
            name=proc.name,
            nodes=tuple(nodes),
            edges=tuple(edges),
            actions=final_labels,
            entry=entry_node,
            return_node=return_node,
            locals=proc.locals,
            init_locals=dict(proc.init_locals),
        )

    # -- guard attachment ------------------------------------------------------

    def _attach_guards(
        self,
        entry_node: str,
        raw_edges: list[_RawEdge],
        labels: dict[str, Action],
    ) -> tuple[list[str], list[FlowEdge], dict[str, Action]]:
        """Conjoin each guard into the guarded node's label.  A node entered
        under several distinct guards is duplicated once per guard."""
        in_guards: dict[str, list[Optional[Expr]]] = {n: [] for n in self.node_order}
        for edge in raw_edges:
            in_guards[edge.dst].append(edge.guard)

        variants: dict[str, list[tuple[Optional[str], str]]] = {}
        guard_exprs: dict[str, Expr] = {}
        self._copy_origin: dict[str, str] = {}
        nodes: list[str] = []
        for node in self.node_order:
            keys: list[Optional[str]] = []
            if (
                node == entry_node
                or not in_guards[node]
                or any(g is None for g in in_guards[node])
            ):
                keys.append(None)
            for guard in in_guards[node]:
                if guard is None:
                    continue
                key = to_str(guard)
                if key not in keys:
                    keys.append(key)
                    guard_exprs[key] = guard
            ordered = [k for k in keys if k is None] + sorted(k for k in keys if k is not None)
            names: list[tuple[Optional[str], str]] = []
            suffixes = "bcdefghij"
            for index, key in enumerate(ordered):
                if index == 0:
                    copy = node
                elif index <= len(suffixes):
                    copy = f"{node}{suffixes[index - 1]}"
                else:
                    copy = f"{node}_g{index}"
                names.append((key, copy))
                nodes.append(copy)
                if copy != node:
                    self._copy_origin[copy] = node
                    if node in self.backedge_nodes:
                        self.backedge_nodes.add(copy)
            variants[node] = names

        final_labels: dict[str, Action] = {}
        for node, names in variants.items():
            base = labels[node]
            for key, copy in names:
                if key is None:
                    final_labels[copy] = base
                else:
                    final_labels[copy] = conjoin(base, action_of_guard(guard_exprs[key]))

        edges: list[FlowEdge] = []
        seen: set[tuple[str, Optional[str], str]] = set()
        for edge in raw_edges:
            key = None if edge.guard is None else to_str(edge.guard)
            dst_copy = next(copy for k, copy in variants[edge.dst] if k == key)
            for _, src_copy in variants[edge.src]:
                item = (src_copy, edge.label, dst_copy)
                if item not in seen:
                    seen.add(item)
                    edges.append(FlowEdge(*item))
        return nodes, edges, final_labels

    def _check_jump_cycles(self, nodes: list[str], edges: list[FlowEdge]) -> None:
        """A cycle consisting purely of jump-derived nodes never reaches a
        real statement: report it instead of modelling a silent livelock."""
        adjacency: dict[str, list[str]] = {n: [] for n in nodes}
        for edge in edges:
            if edge.src in self.backedge_nodes and edge.dst in self.backedge_nodes:
                adjacency[edge.src].append(edge.dst)
        color: dict[str, int] = {}

        def dfs(node: str) -> None:
            color[node] = 1
            for nxt in adjacency[node]:
                if color.get(nxt) == 1:
                    raise TranslateError(
                        "CyclicUnannotatedJumps",
                        "a cycle of unannotated jumps contains no statement",
                        f"procedure {self.proc.name}",
                    )
                if nxt not in color:
                    dfs(nxt)
            color[node] = 2

        for node in self.backedge_nodes:
            if node in adjacency and node not in color:
                dfs(node)


def translate(prog: AnnotatedProgram) -> FlowGraph:
    """Translate a validated program into its flow graph.

    Procedures fully replaced by their contracts at every call site are
    omitted; a procedure flow graph is emitted only for main and for
    targets of surviving call edges.
    """
    if prog.main not in prog.procedures:
        raise TranslateError("MissingMain", f"main procedure '{prog.main}' is not declared")
    abbrevs = _abbreviations(list(prog.procedures))
    built: dict[str, ProcedureFlowGraph] = {}
    worklist = [prog.main]
    while worklist:
        name = worklist.pop(0)
        if name in built:
            continue
        translator = _ProcTranslator(prog, name, abbrevs[name])
        built[name] = translator.build()
        for callee in translator.calls_needed:
            if callee not in built and callee not in worklist:
                worklist.append(callee)
    all_nodes = [n for g in built.values() for n in g.nodes]
    if len(set(all_nodes)) != len(all_nodes):
        raise TranslateError("NodeIdClash", "generated node ids are not unique")
    return FlowGraph(
        name=prog.name,
        procedures=built,
        main=prog.main,
        globals=prog.globals,
        init_globals=prog.init_globals,
    )


# ---------------------------------------------------------------------------
# Queries


def reachable_nodes(fg: FlowGraph, proc: str) -> set[str]:
    """Nodes reachable from the procedure's entry via edges of any label."""
    if proc not in fg.procedures:
        raise UnknownProcedureError(proc)
    graph = fg.procedures[proc]
    seen: set[str] = set()
    stack = [graph.entry]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for edge in graph.edges:
            if edge.src == node and edge.dst not in seen:
                stack.append(edge.dst)
    return seen


def check_totality(fg: FlowGraph) -> list[Diagnostic]:
    """Every reachable node needs an outgoing edge; return nodes of callee
    procedures are exempt because the pop rule continues for them."""
    out: list[Diagnostic] = []
    for name, graph in fg.procedures.items():
        has_out = {e.src for e in graph.edges}
        for node in sorted(reachable_nodes(fg, name)):
            if node in has_out:
                continue
            if node == graph.return_node and name != fg.main:
                continue
            out.append(
                Diagnostic(
                    "NonTotalNode",
                    f"node '{node}' has no outgoing edge",
                    f"procedure {name}",
                )
            )
    return out
