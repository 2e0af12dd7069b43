"""Shared symbolic-transition-system form behind the TLA+ and nuXmv backends.

The system has a node variable, a bounded stack, and one flat scalar per
global and per procedure local (name-mangled ``<proc>__<var>``).  Next is
the disjunction of named actions, one per flow-graph edge kind: silent
edges keep the stack, call edges push the continuation node together with
a snapshot of all locals, and return actions pop and restore.  Because a
pop restores every local from the snapshot, inactive procedures' locals
always hold canonical values, which makes reachable system states
correspond one-to-one with reachable pushdown configurations; the
interpreter here is the oracle that checks exactly that, in one search
over the system states that steps the pushdown system alongside through
``project_state``.  Each ``Sts`` owns the caches of that search: the
actions at each node, each action's posts per values it reads, and the
projected frames and stack suffixes.  A system made with
``dataclasses.replace``, as every mutation is, starts without them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

from .actions import Action, classify, enumerate_valuations, initial_valuations, literal
from .expr import (
    AnyVal,
    Binary,
    Domain,
    Expr,
    Unary,
    Value,
    VarRef,
    conj,
    eval_expr,  # unused here; bound so that the benchmark tracer can wrap it
    free_vars,
    map_vars,
)
from .flowgraph import FlowGraph
from .ir import VarDecl
from .pds import (
    Configuration,
    InducedPds,
    StackFrame,
    bounded_search,
    format_config,
    freeze_env,
    successors as pds_successors,
)


class StsError(Exception):
    pass


class MutationError(StsError):
    """The named mutation has no site in this system, or no such mutation."""


STACK_PADDING = "stk_none"


def mangle(proc: str, var: str) -> str:
    return f"{proc}__{var}"


@dataclass(frozen=True)
class StsAction:
    """One disjunct of the next-state relation.

    ``body`` is the scalar part (the node label plus, for calls, the
    callee's local initialization); the node test, node update and the
    single push/pop macro occurrence are kept structurally.  A ``source``
    of ``None`` means the action has no node test.
    """

    name: str
    kind: str  # "silent" | "call" | "return"
    source: Optional[str]
    target: Optional[str]  # None for return actions (target comes from the pop)
    body: Action
    push_node: Optional[str] = None


@dataclass(frozen=True)
class InitSpec:
    node: str
    globals_expr: Expr
    locals_values: tuple[tuple[str, Value], ...]  # mangled name -> initial value


@dataclass(frozen=True)
class Sts:
    module_name: str
    node_values: tuple[str, ...]
    proc_of_node: dict[str, str]
    globals_decls: tuple[VarDecl, ...]
    locals_order: tuple[str, ...]  # mangled local names, declaration order
    proc_locals: dict[str, tuple[tuple[str, str], ...]]  # proc -> ((local, mangled), ...)
    domains: dict[str, Domain]  # every scalar
    init: InitSpec
    actions: tuple[StsAction, ...]
    stack_capacity: int

    @functools.cached_property
    def _caches(self) -> _Caches:
        """This system's search caches; ``dataclasses.replace`` makes a system without them."""
        return _Caches(self)

    @property
    def scalar_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.globals_decls) + self.locals_order

    def unchanged(self, action: StsAction) -> tuple[str, ...]:
        """The scalars ``action`` keeps: those its body does not write,
        less the locals a return restores from the stack."""
        writes = action.body.writes
        if action.kind == "return":
            names = tuple(d.name for d in self.globals_decls)
        else:
            names = self.scalar_names
        return tuple(n for n in names if n not in writes)


# ---------------------------------------------------------------------------
# Building the STS from a flow graph


def _strip_node(node: str) -> str:
    return node[2:] if node.startswith("n_") else node


def _mangle_expr(expr: Expr, local_names: set[str], proc: str) -> Expr:
    def rewrite(ref):
        if isinstance(ref, VarRef) and ref.name in local_names:
            return VarRef(mangle(proc, ref.name), ref.primed)
        return ref

    return map_vars(expr, rewrite)


def sts_of_flow_graph(fg: FlowGraph, stack_capacity: int = 10) -> Sts:
    """One action per flow-graph edge kind; Init pins the entry node, the
    initial locals of every procedure, an empty stack, and the initial
    global constraint."""
    if stack_capacity < 1:
        raise StsError("stack capacity must be at least 1")

    node_values: list[str] = []
    locals_order: list[str] = []
    init_locals: list[tuple[str, Value]] = []
    proc_locals: dict[str, tuple[tuple[str, str], ...]] = {}
    domains: dict[str, Domain] = {d.name: d.domain for d in fg.globals}
    for proc in fg.procedures.values():
        node_values.extend(proc.nodes)
        pairs = []
        for decl in proc.locals:
            mangled = mangle(proc.name, decl.name)
            if mangled in domains:
                raise StsError(f"mangled name '{mangled}' collides with another variable")
            locals_order.append(mangled)
            init_locals.append((mangled, proc.init_locals[decl.name]))
            domains[mangled] = decl.domain
            pairs.append((decl.name, mangled))
        proc_locals[proc.name] = tuple(pairs)

    actions: list[StsAction] = []
    for proc in fg.procedures.values():
        local_names = {d.name for d in proc.locals}
        mangled_locals = {mangle(proc.name, n) for n in local_names}
        call_counts: dict[tuple[str, str], int] = {}
        for edge in proc.edges:
            if edge.label is not None:
                key = (edge.src, edge.label)
                call_counts[key] = call_counts.get(key, 0) + 1

        def lift(node: str) -> Expr:
            return _mangle_expr(proc.actions[node].expr, local_names, proc.name)

        for edge in proc.edges:
            body_expr = lift(edge.src)
            if edge.label is None:
                if edge.src == edge.dst and edge.src == proc.return_node and proc.name == fg.main:
                    name = f"{_strip_node(edge.src)}_stutter"
                else:
                    name = f"{_strip_node(edge.src)}_to_{_strip_node(edge.dst)}"
                actions.append(StsAction(name, "silent", edge.src, edge.dst, Action(body_expr)))
            else:
                callee = fg.procedures[edge.label]
                for kind, _, part in classify(body_expr):
                    if kind != "identity" and free_vars(part)[1] & mangled_locals:
                        raise StsError(
                            f"call source '{edge.src}' must not constrain its locals"
                        )
                parts = [body_expr]
                for decl in callee.locals:
                    parts.append(
                        Binary(
                            "==",
                            VarRef(mangle(callee.name, decl.name), True),
                            literal(callee.init_locals[decl.name]),
                        )
                    )
                call_name = f"{_strip_node(edge.src)}_call_{edge.label}"
                if call_counts[(edge.src, edge.label)] > 1:
                    call_name += f"_{_strip_node(edge.dst)}"
                actions.append(StsAction(call_name, "call", edge.src, callee.entry,
                                         Action(conj(parts)), push_node=edge.dst))
        if proc.name != fg.main:
            ret = proc.return_node
            kept: list[Expr] = []
            for kind, _, part in classify(lift(ret)):
                primed = free_vars(part)[1]
                if not primed & mangled_locals:
                    kept.append(part)
                    continue
                if primed - mangled_locals:
                    raise StsError(
                        f"return label of '{proc.name}' couples locals with globals"
                    )
                # the popped frame overrides the callee's post-locals; only
                # always-satisfiable constraints on them may be dropped
                if kind not in ("identity", "havoc"):
                    raise StsError(
                        f"return label of '{proc.name}' constrains its locals"
                    )
            name = f"{_strip_node(ret)}_return"
            actions.append(StsAction(name, "return", ret, None, Action(conj(kept))))

    names = [a.name for a in actions]
    if len(set(names)) != len(names):
        raise StsError("duplicate action names")

    main = fg.procedures[fg.main]
    proc_of_node = fg.proc_of_node()
    return Sts(
        module_name=fg.name,
        node_values=tuple(node_values),
        proc_of_node=proc_of_node,
        globals_decls=fg.globals,
        locals_order=tuple(locals_order),
        proc_locals=proc_locals,
        domains=domains,
        init=InitSpec(main.entry, fg.init_globals, tuple(init_locals)),
        actions=tuple(actions),
        stack_capacity=stack_capacity,
    )


# ---------------------------------------------------------------------------
# Explicit interpretation


Slot = tuple[str, tuple[Value, ...]]  # (return node, snapshot of all locals)
Scalars = tuple[tuple[str, Value], ...]  # every scalar, sorted by name
Change = tuple[tuple[int, tuple[str, Value]], ...]  # (position, (name, value)) per write


@dataclass(frozen=True)
class StsState:
    node: str
    stack: tuple[Slot, ...]
    scalars: Scalars

    def __post_init__(self) -> None:
        # the search keeps states in several sets and dicts
        object.__setattr__(self, "_hash", hash((self.node, self.stack, self.scalars)))

    def __hash__(self) -> int:
        return self._hash

    def env(self) -> dict[str, Value]:
        return dict(self.scalars)


@dataclass
class StsReport:
    states: list[StsState]
    deadlocks: list[tuple[StsState, str]]
    truncated: bool


def sts_initial_states(sts: Sts) -> list[StsState]:
    for decl in sts.globals_decls:
        if not decl.domain.is_finite:
            raise StsError(f"global '{decl.name}' has an unbounded domain")
    names = [decl.name for decl in sts.globals_decls]
    locals_env = dict(sts.init.locals_values)
    return [StsState(sts.init.node, (), freeze_env({**env, **locals_env}))
            for env in initial_valuations(sts.init.globals_expr, names, sts.domains)]


class _Caches:
    """What the search over one ``Sts`` computes once (see ``Sts._caches``)."""

    def __init__(self, sts: Sts) -> None:
        self.position = position = {n: i for i, n in enumerate(sorted(sts.scalar_names))}
        self.global_positions = tuple(sorted(position[d.name] for d in sts.globals_decls))
        self.local_positions = tuple(position[name] for name in sts.locals_order)
        # per action, the positions of the scalars its body reads
        self.reads = tuple(tuple(sorted(position[n] for n in a.body.reads if n in position))
                           for a in sts.actions)
        # node -> the indices of the actions that test it or no node, in
        # action order; None -> those of the actions that test no node
        self.actions_at: dict[Optional[str], list[int]] = {a.source: [] for a in sts.actions}
        self.actions_at[None] = []
        for i, action in enumerate(sts.actions):
            for node in (self.actions_at if action.source is None else (action.source,)):
                self.actions_at[node].append(i)
        # node -> (local, index in a stack snapshot, position in the
        # scalars) for each local of its procedure, in name order
        index = {name: i for i, name in enumerate(sts.locals_order)}
        layout = {proc: tuple(sorted((local, index[m], position[m]) for local, m in pairs))
                  for proc, pairs in sts.proc_locals.items()}
        self.frame_layout = {node: layout[proc] for node, proc in sts.proc_of_node.items()}
        self.posts: dict[tuple[int, tuple[Value, ...]], tuple[Change, ...]] = {}
        self.frames: dict[tuple[str, tuple[Value, ...]], StackFrame] = {}
        self.suffixes: dict[tuple[Slot, ...], tuple[StackFrame, ...]] = {(): ()}


def _posts(sts: Sts, index: int, scalars: Scalars) -> tuple[Change, ...]:
    """The posts of action ``index`` from ``scalars``.  They read only the
    values of ``body.reads``, so they are kept per action and those
    values; an evaluation error is raised each time, never kept."""
    caches = sts._caches
    reads = caches.reads[index]
    key = (index, tuple([scalars[p][1] for p in reads]))
    posts = caches.posts.get(key)
    if posts is None:
        body = sts.actions[index].body
        names = sorted(body.writes)
        valuations = enumerate_valuations(body, names, dict([scalars[p] for p in reads]),
                                          sts.domains)
        posts = caches.posts[key] = tuple(
            tuple((caches.position[n], (n, env[n])) for n in names) for env in valuations)
    return posts


def sts_successors(sts: Sts, state: StsState) -> list[StsState]:
    """Successor states of ``state``, one per action and post-state, in
    action order.  A call is blocked once the stack holds
    ``stack_capacity`` saved frames, as in both emitted models.

    Only the actions that test the state's node or no node are read, their
    posts come from the caches of ``sts``, and a successor's scalars are
    the state's with the written positions replaced."""
    caches = sts._caches
    out: dict[StsState, None] = {}  # an insertion-ordered set
    scalars, stack = state.scalars, state.stack
    for index in caches.actions_at.get(state.node, caches.actions_at[None]):
        action = sts.actions[index]
        node, next_stack, restore = action.target, stack, ()
        if action.kind == "call":
            if len(stack) >= sts.stack_capacity:
                continue
            snapshot = tuple([scalars[p][1] for p in caches.local_positions])
            next_stack = ((action.push_node, snapshot),) + stack
        elif action.kind == "return":
            if not stack:
                continue
            (node, snapshot), next_stack = stack[0], stack[1:]
            restore = tuple(zip(caches.local_positions, zip(sts.locals_order, snapshot)))
        for post in _posts(sts, index, scalars):
            values = list(scalars)
            for position, pair in post + restore:
                values[position] = pair
            out[StsState(node, next_stack, tuple(values))] = None
    return list(out)


def execute_sts(sts: Sts, max_steps: int = 100_000) -> StsReport:
    """BFS over system states.  A state with no successors is a deadlock,
    labelled ``stack-overflow`` when the stack is full and some call
    action tests no node or tests the state's node, else
    ``no-enabled-action``."""
    search = bounded_search(
        sts_initial_states(sts), lambda state: sts_successors(sts, state), max_steps
    )
    call_sources = {action.source for action in sts.actions if action.kind == "call"}

    def cause(state: StsState) -> str:
        if len(state.stack) >= sts.stack_capacity and call_sources & {None, state.node}:
            return "stack-overflow"
        return "no-enabled-action"

    deadlocks = [(state, cause(state)) for state in search.deadlocks]
    return StsReport(list(search.parents), deadlocks, search.cut is not None)


# ---------------------------------------------------------------------------
# Equivalence with the induced PDS


@dataclass
class EquivalenceVerdict:
    equivalent: bool
    reason: str = ""
    witness: str = ""
    inconclusive: bool = False

    def __bool__(self) -> bool:
        return self.equivalent


def project_state(sts: Sts, state: StsState) -> Configuration:
    """Map a system state to the pushdown configuration it encodes.  The
    caches of ``sts`` build each frame once per (node, locals) and each
    stack suffix's frames once, which states with that suffix share."""
    caches = sts._caches
    scalars = state.scalars
    layout = caches.frame_layout[state.node]
    top = _frame(caches, state.node, tuple([scalars[p][1] for _, _, p in layout]))
    missing, stack = [], state.stack
    while stack not in caches.suffixes:
        missing.append(stack)
        stack = stack[1:]
    frames = caches.suffixes[stack]
    for stack in reversed(missing):
        node, snapshot = stack[0]
        layout = caches.frame_layout[node]
        frame = _frame(caches, node, tuple([snapshot[i] for _, i, _ in layout]))
        frames = caches.suffixes[stack] = (frame,) + frames
    return Configuration(tuple([scalars[p] for p in caches.global_positions]), (top,) + frames)


def _frame(caches: _Caches, node: str, values: tuple[Value, ...]) -> StackFrame:
    """The frame at ``node`` whose locals, in name order, hold ``values``."""
    frame = caches.frames.get((node, values))
    if frame is None:
        names = [local for local, _, _ in caches.frame_layout[node]]
        frame = caches.frames[node, values] = StackFrame(node, tuple(zip(names, values)))
    return frame


class _Divergence(Exception):
    """Ends the search at the first difference; carries the verdict."""

    def __init__(self, reason: str, configs: set[Configuration]) -> None:
        super().__init__(reason)
        witness = format_config(min(configs, key=format_config))
        self.verdict = EquivalenceVerdict(False, reason, witness)


def compare_with_pds(
    sts: Sts, pds: InducedPds, max_steps: int = 100_000
) -> EquivalenceVerdict:
    """Check in one search that reachable system states and reachable
    configurations correspond one-to-one and step together.

    The search walks the system states.  The projected initial states
    must be the PDS's initial configurations, the projection must be
    one-to-one on the states reached, and at each expanded state the
    projected successors must be the PDS successors of its projection.
    By induction on the search, the two reachable spaces then coincide
    through the projection, step for step.  Both emitted models block a
    call once ``sts.stack_capacity`` frames are saved under the current
    one, so the PDS successors kept are those of at most
    ``stack_capacity + 1`` frames.  The first difference is the verdict,
    its witness the least configuration of that difference; inconclusive
    when ``max_steps`` left a state unexpanded before any difference.
    Successors and projections come from the caches ``sts`` owns; the
    projection of each state and its owner are kept for this call only."""
    max_depth = sts.stack_capacity + 1
    projection: dict[StsState, Configuration] = {}
    owner: dict[Configuration, StsState] = {}

    def project(state: StsState) -> Configuration:
        config = projection.get(state)
        if config is None:
            config = projection[state] = project_state(sts, state)
            if owner.setdefault(config, state) is not state:
                raise _Divergence("projection is not injective", {config})
        return config

    def step(state: StsState) -> list[StsState]:
        succ = sts_successors(sts, state)
        got = {project(s) for s in succ}
        want = {c for c in pds_successors(pds, project(state)) if c.depth <= max_depth}
        if got != want:
            if want - got:
                raise _Divergence("configuration unreachable in the STS", want - got)
            raise _Divergence("STS state has no reachable configuration", got - want)
        return succ

    initial = sts_initial_states(sts)
    try:
        got = {project(s) for s in initial}
        if got != set(pds.initial):
            raise _Divergence("initial states differ", got ^ set(pds.initial))
        search = bounded_search(initial, step, max_steps)
    except _Divergence as divergence:
        return divergence.verdict
    if search.cut == "max-steps":
        return EquivalenceVerdict(
            False, "bound hit before closing the state space", inconclusive=True
        )
    return EquivalenceVerdict(True, "reachable states and steps coincide")


# ---------------------------------------------------------------------------
# Mutations (translation self-tests)


MUTATIONS = ("negate-guard", "drop-frame", "swap-push", "drop-return-test", "wrong-init")


def _replace_action(sts: Sts, index: int, action: StsAction) -> Sts:
    actions = list(sts.actions)
    actions[index] = action
    return replace(sts, actions=tuple(actions))


def mutate_sts(sts: Sts, kind: str) -> Sts:
    """Apply a named fault; used to confirm the cross-check catches it.

    The result is an ordinary STS, whose emitted text shows the fault:
    negate-guard negates the first guard conjunct, drop-frame havocs one
    framed variable, swap-push pushes the callee's entry instead of the
    return node, drop-return-test drops a return's node test, and
    wrong-init negates the initial global constraint."""
    if kind == "negate-guard":
        for i, action in enumerate(sts.actions):
            shape = action.body.shape
            for j, (tag, _, part) in enumerate(shape):
                if tag != "guard":
                    continue
                parts = [p for _, _, p in shape]
                parts[j] = Unary("!", part)
                body = Action(conj(parts))
                return _replace_action(sts, i, replace(action, body=body))
        raise MutationError("no guard conjunct to negate")
    if kind == "drop-frame":
        for i, action in enumerate(sts.actions):
            unchanged = sts.unchanged(action)
            if unchanged:
                victim = unchanged[0]
                havoc = Binary("==", VarRef(victim, True), AnyVal(sts.domains[victim]))
                body = Action(conj([action.body.expr, havoc]))
                return _replace_action(sts, i, replace(action, body=body))
        raise MutationError("no frame conjunct to drop")
    if kind == "swap-push":
        for i, action in enumerate(sts.actions):
            if action.kind == "call":
                return _replace_action(sts, i, replace(action, push_node=action.target))
        raise MutationError("no call action to mutate")
    if kind == "drop-return-test":
        for i, action in enumerate(sts.actions):
            if action.kind == "return":
                return _replace_action(sts, i, replace(action, source=None))
        raise MutationError("no return action to mutate")
    if kind == "wrong-init":
        init = replace(sts.init, globals_expr=Unary("!", sts.init.globals_expr))
        return replace(sts, init=init)
    raise MutationError(f"unknown mutation {kind!r}")
