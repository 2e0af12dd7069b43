"""Operational semantics: the pushdown system induced by a flow graph.

Global states are the control states; the stack holds (node, local state)
pairs.  Successor computation follows the three rewrite-rule families:
silent edges rewrite the top frame, call edges push the continuation
frame under a fresh callee frame, and the return node of a non-main
procedure pops after executing its label.  Rewrite rules are generated
lazily from the flow graph; a brute-force materialization used as a test
oracle lives in the test suite.

Runs are infinite by definition, so a configuration without successors
is a modelling defect (an unsatisfiable label or a totality hole) and is
reported as a deadlock rather than silently truncating traces.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, Iterable, Mapping, Optional, TypeVar

from .actions import Action, InfiniteDomainError, State, enumerate_posts, initial_valuations
from .expr import Domain, Expr, ExprError, ExprTypeError, Value, eval_expr, free_vars, infer_type
from .flowgraph import FlowEdge, FlowGraph


class PdsError(Exception):
    pass


class UnsatisfiableInitError(PdsError):
    pass


class NonGlobalVariableError(PdsError):
    pass


class NoInitialConfigurationError(PdsError):
    pass


class MalformedConfigurationError(PdsError):
    pass


Env = tuple[tuple[str, Value], ...]


def freeze_env(env: Mapping[str, Value]) -> Env:
    return tuple(sorted(env.items()))


@dataclass(frozen=True)
class StackFrame:
    node: str
    locals: Env

    def __post_init__(self) -> None:
        # searches hash frames and configurations millions of times
        object.__setattr__(self, "_hash", hash((self.node, self.locals)))

    def __hash__(self) -> int:
        return self._hash

    def locals_dict(self) -> dict[str, Value]:
        return dict(self.locals)


@dataclass(frozen=True)
class Configuration:
    """Global state plus the stack, top frame first.  Always nonempty for
    reachable configurations: main never pops its final frame."""

    globals: Env
    stack: tuple[StackFrame, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.globals, self.stack)))

    def __hash__(self) -> int:
        return self._hash

    def globals_dict(self) -> dict[str, Value]:
        return dict(self.globals)

    @property
    def top(self) -> StackFrame:
        return self.stack[0]

    @property
    def depth(self) -> int:
        return len(self.stack)


# a step of a top frame: (post globals, frames that replace the top)
Step = tuple[Env, tuple[StackFrame, ...]]


@dataclass(frozen=True)
class Trace:
    configurations: tuple[Configuration, ...]
    complete: bool

    @property
    def state_run(self) -> list[dict[str, Value]]:
        return [c.globals_dict() for c in self.configurations]


@dataclass
class ExploreReport:
    visited: list[Configuration]
    deadlocks: list[Configuration]
    truncated: bool
    max_stack_depth: int

    @property
    def visited_count(self) -> int:
        return len(self.visited)


@dataclass
class Verdict:
    holds: bool
    truncated: bool
    trace: Optional[Trace] = None


@dataclass
class InducedPds:
    """The induced pushdown system; rewrite rules are computed on demand."""

    flow_graph: FlowGraph
    initial: list[Configuration]
    _proc_of_node: dict[str, str] = field(default_factory=dict)
    _domains: dict[str, dict[str, Domain]] = field(default_factory=dict)
    # node -> its outgoing edges, sorted by (dst, label)
    _edges_from: dict[str, list[FlowEdge]] = field(default_factory=dict)
    # (top frame, globals) -> its steps; see _steps
    _step_memo: dict[tuple[StackFrame, Env], tuple[Step, ...]] = field(default_factory=dict, init=False)

    def proc_of(self, node: str) -> str:
        try:
            return self._proc_of_node[node]
        except KeyError:
            raise MalformedConfigurationError(f"unknown node '{node}'") from None

    def frame_domains(self, proc: str) -> dict[str, Domain]:
        return self._domains[proc]

    def action_of(self, node: str) -> Action:
        return self.flow_graph.procedures[self.proc_of(node)].actions[node]


def induce(fg: FlowGraph) -> InducedPds:
    """Build the induced PDS: one initial configuration per satisfying
    initial global assignment, each with a single frame at main's entry."""
    global_domains = fg.global_domains()
    for decl in fg.globals:
        if not decl.domain.is_finite:
            raise InfiniteDomainError(f"variable '{decl.name}' has an unbounded domain")
    try:
        assignments = initial_valuations(fg.init_globals, list(global_domains), global_domains)
    except ExprError as err:
        raise PdsError(f"bad init constraint: {err}") from err
    if not assignments:
        raise UnsatisfiableInitError("no global assignment satisfies the init constraint")

    main = fg.procedures[fg.main]
    init_frame = StackFrame(main.entry, freeze_env(main.init_locals))
    initial = [Configuration(freeze_env(g), (init_frame,)) for g in assignments]

    proc_of_node = fg.proc_of_node()
    domains = {
        p.name: {**global_domains, **{d.name: d.domain for d in p.locals}}
        for p in fg.procedures.values()
    }
    # every written variable must be finitely enumerable
    for proc in fg.procedures.values():
        frame = domains[proc.name]
        for node, action in proc.actions.items():
            for name in action.writes:
                dom = frame.get(name)
                if dom is None:
                    raise PdsError(f"node '{node}' writes undeclared variable '{name}'")
                if not dom.is_finite:
                    raise InfiniteDomainError(
                        f"node '{node}' writes unbounded variable '{name}'"
                    )
    edges_from: dict[str, list[FlowEdge]] = {node: [] for node in proc_of_node}
    for proc in fg.procedures.values():
        for edge in sorted(proc.edges, key=lambda e: (e.dst, e.label or "")):
            edges_from[edge.src].append(edge)
    return InducedPds(fg, initial, proc_of_node, domains, edges_from)


def _steps(pds: InducedPds, top: StackFrame, globals_: Env) -> tuple[Step, ...]:
    """The steps of a configuration with this top frame and these globals,
    as (post globals, frames that replace the top) in successor order,
    without duplicates.  No frames means a pop, which needs a frame below
    the top.  A step reads nothing else, so each is computed once per
    ``InducedPds``; an evaluation error is raised, not kept."""
    key = (top, globals_)
    steps = pds._step_memo.get(key)
    if steps is not None:
        return steps
    fg = pds.flow_graph
    proc_name = pds.proc_of(top.node)
    proc = fg.procedures[proc_name]
    local_names = {d.name for d in proc.locals}
    if set(top.locals_dict()) != local_names:
        raise MalformedConfigurationError(
            f"frame at '{top.node}' does not carry the locals of '{proc_name}'"
        )

    pre = State(top.locals, globals_)
    posts = enumerate_posts(pds.action_of(top.node), pre, pds.frame_domains(proc_name))

    out: dict[Step, None] = {}
    for edge in pds._edges_from[top.node]:
        for post in posts:
            if edge.label is None:
                out[post.globals, (StackFrame(edge.dst, post.locals),)] = None
            else:
                callee = fg.procedures[edge.label]
                callee_frame = StackFrame(callee.entry, freeze_env(callee.init_locals))
                saved = StackFrame(edge.dst, post.locals)
                out[post.globals, (callee_frame, saved)] = None
    if top.node == proc.return_node and proc_name != fg.main:
        for post in posts:
            out[post.globals, ()] = None
    steps = pds._step_memo[key] = tuple(out)
    return steps


def successors(pds: InducedPds, config: Configuration) -> list[Configuration]:
    """Immediate successors, deterministically ordered."""
    rest = config.stack[1:]
    steps = _steps(pds, config.top, config.globals)
    return [Configuration(g, frames + rest) for g, frames in steps if frames or rest]


S = TypeVar("S", bound=Hashable)


@dataclass
class Search(Generic[S]):
    """What one bounded BFS saw.  ``parents`` holds every discovered state
    and the state it was first reached from (``None`` for an initial state),
    in discovery order, which is also expansion order: its first
    ``expanded`` states were expanded.  ``deadlocks`` are the expanded
    states without successors, in expansion order; ``found`` the first
    state the stop predicate accepted.  ``cut`` is ``"max-steps"`` when a
    discovered state was left unexpanded, else ``"max-stack"`` when the
    keep filter dropped a state."""

    parents: dict[S, Optional[S]]
    expanded: int
    deadlocks: list[S]
    found: Optional[S]
    cut: Optional[str]

    def path_to(self, state: S) -> tuple[S, ...]:
        chain = [state]
        while (parent := self.parents[chain[-1]]) is not None:
            chain.append(parent)
        return tuple(reversed(chain))


def bounded_search(
    initial: Iterable[S],
    step: Callable[[S], Iterable[S]],
    max_steps: int,
    keep: Optional[Callable[[S], bool]] = None,
    stop: Optional[Callable[[S], bool]] = None,
) -> Search[S]:
    """BFS closure of ``initial`` under ``step``, expanding at most
    ``max_steps`` states.  Successors rejected by ``keep`` are dropped;
    the search ends at the first discovered state ``stop`` accepts."""
    parents: dict[S, Optional[S]] = {}
    deadlocks: list[S] = []
    expanded = 0
    queue: deque[S] = deque()
    cut: Optional[str] = None
    # the initial states are discovered like the successors of a virtual
    # root, except that the keep filter does not apply to them
    parent: Optional[S] = None
    batch: Iterable[S] = initial
    while True:
        for state in batch:
            if parent is not None and keep is not None and not keep(state):
                cut = "max-stack"
                continue
            if state not in parents:
                parents[state] = parent
                if stop is not None and stop(state):
                    return Search(parents, expanded, deadlocks, state, cut)
                queue.append(state)
        if not queue:
            return Search(parents, expanded, deadlocks, None, cut)
        if expanded >= max_steps:
            return Search(parents, expanded, deadlocks, None, "max-steps")
        parent = queue.popleft()
        expanded += 1
        batch = tuple(step(parent))
        if not batch:
            deadlocks.append(parent)


def explore(pds: InducedPds, max_steps: int = 100_000, max_stack: int = 64) -> ExploreReport:
    """BFS closure of the initial configurations, bounded by an expansion
    budget and a stack-depth cap."""
    if max_steps < 1 or max_stack < 1:
        raise PdsError("bounds must be at least 1")
    search = bounded_search(
        pds.initial,
        lambda config: successors(pds, config),
        max_steps,
        keep=lambda config: config.depth <= max_stack,
    )
    return ExploreReport(
        list(search.parents),
        search.deadlocks,
        search.cut is not None,
        max((config.depth for config in itertools.islice(search.parents, search.expanded)),
            default=0),
    )


def check_invariant(
    pds: InducedPds,
    phi: Expr,
    max_steps: int = 100_000,
    max_stack: int = 64,
) -> Verdict:
    """Check that every reachable global state satisfies ``phi``, which
    must be boolean; on failure the verdict carries a minimal-length trace
    (BFS order)."""
    scope = {d.name: d.domain.type_name for d in pds.flow_graph.globals}
    global_names = set(scope)
    unprimed, primed, old = free_vars(phi)
    if primed or old or not unprimed <= global_names:
        bad = sorted((unprimed - global_names) | primed | old)
        raise NonGlobalVariableError(
            f"invariant must be over unprimed globals; offending: {', '.join(bad)}"
        )
    kind = infer_type(phi, scope)
    if kind != "bool":
        raise ExprTypeError(f"invariant must be boolean, got {kind}")
    # phi reads only the globals: evaluate it once per valuation
    violated: dict[Env, bool] = {}

    def violates(config: Configuration) -> bool:
        if config.globals not in violated:
            violated[config.globals] = not bool(eval_expr(phi, config.globals_dict()))
        return violated[config.globals]

    search = bounded_search(
        pds.initial,
        lambda config: successors(pds, config),
        max_steps,
        keep=lambda config: config.depth <= max_stack,
        stop=violates,
    )
    if search.found is not None:
        return Verdict(False, False, Trace(search.path_to(search.found), complete=True))
    return Verdict(True, search.cut is not None, None)


def sample_run(pds: InducedPds, length: int, seed: int = 0) -> Trace:
    """Sample a prefix of a run: a seeded pseudo-random walk.

    Runs are infinite, so successors that are immediate dead ends are
    avoided whenever a continuable successor exists; the walk stops early
    only when every continuation deadlocks.
    """
    if length < 1:
        raise PdsError("length must be at least 1")
    if not pds.initial:
        raise NoInitialConfigurationError("the induced PDS has no initial configuration")
    rng = random.Random(seed)
    current = pds.initial[rng.randrange(len(pds.initial))]
    configs = [current]
    succ: Optional[list[Configuration]] = None
    while len(configs) < length:
        if succ is None:
            succ = successors(pds, current)
        if not succ:
            return Trace(tuple(configs), complete=False)
        # the successors of every candidate, kept for the one picked
        following = [successors(pds, s) for s in succ]
        pool = [i for i, f in enumerate(following) if f] or range(len(succ))
        pick = pool[rng.randrange(len(pool))]
        current, succ = succ[pick], following[pick]
        configs.append(current)
    return Trace(tuple(configs), complete=True)


# ---------------------------------------------------------------------------
# Trace serialization


def _env_str(env: Iterable[tuple[str, Value]]) -> str:
    parts = []
    for name, value in env:
        if isinstance(value, bool):
            parts.append(f"{name}={'true' if value else 'false'}")
        else:
            parts.append(f"{name}={value}")
    return " ".join(parts)


def format_config(config: Configuration) -> str:
    frames = []
    for frame in config.stack:
        inner = _env_str(frame.locals)
        frames.append(f"({frame.node}{' ' + inner if inner else ''})")
    return f"{_env_str(config.globals)} | {' '.join(frames)}"


def format_trace(trace: Trace) -> str:
    lines = [
        f"{step} | {format_config(config)}"
        for step, config in enumerate(trace.configurations)
    ]
    return "\n".join(lines)
