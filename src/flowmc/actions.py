"""Actions: boolean expressions over primed/unprimed variables, read as
binary relations on states.

An action holds on a pair (pre, post) when its expression evaluates to
true with unprimed variables bound in ``pre`` and primed ones in ``post``.
Statements, contracts and guards all lower to actions; the pushdown
engine and the symbolic backends consume nothing else.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .expr import (
    AnyVal,
    Binary,
    BoolLit,
    Domain,
    Expr,
    ExprError,
    IntLit,
    OldRef,
    Value,
    VarRef,
    conj,
    conjuncts,
    eval_expr,
    free_vars,
    map_vars,
    to_str,
)
from .ir import Assign, Contract, Skip, Statement


class ActionError(Exception):
    pass


class UnsupportedStatementError(ActionError):
    pass


class EmptyContractError(ActionError):
    pass


class PrimedInGuardError(ActionError):
    pass


class InfiniteDomainError(ActionError):
    pass


# ---------------------------------------------------------------------------
# States


@dataclass(frozen=True)
class State:
    """A valuation split into the frame's local and global components."""

    locals: tuple[tuple[str, Value], ...]
    globals: tuple[tuple[str, Value], ...]

    @staticmethod
    def make(locals: Mapping[str, Value], globals: Mapping[str, Value]) -> "State":
        return State(tuple(sorted(locals.items())), tuple(sorted(globals.items())))

    def locals_dict(self) -> dict[str, Value]:
        return dict(self.locals)

    def globals_dict(self) -> dict[str, Value]:
        return dict(self.globals)

    def env(self) -> dict[str, Value]:
        return {**dict(self.locals), **dict(self.globals)}


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class Action:
    """A relation on states.  ``reads``/``writes`` are derived from the
    expression: exactly the unprimed/primed variables occurring in it."""

    expr: Expr
    describe: str = ""
    reads: frozenset[str] = field(init=False)
    writes: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        unprimed, primed, old = free_vars(self.expr)
        if old:
            raise ActionError(f"old(...) left in action over {sorted(old)}")
        object.__setattr__(self, "reads", unprimed)
        object.__setattr__(self, "writes", primed)

    def __str__(self) -> str:
        return self.describe or to_str(self.expr)

    @functools.cached_property
    def pins(self) -> dict[str, tuple[Expr, ...]]:
        """The top-level conjuncts ``v' == rhs`` whose ``rhs`` reads only
        the pre-state and is not ``any(...)``: variable -> right-hand sides.
        Derived on first use, since most actions are never enumerated."""
        pins: dict[str, tuple[Expr, ...]] = {}
        for part in conjuncts(self.expr):
            if (
                isinstance(part, Binary)
                and part.op == "=="
                and isinstance(part.left, VarRef)
                and part.left.primed
                and not isinstance(part.right, AnyVal)
                and not free_vars(part.right)[1]
            ):
                pins[part.left.name] = pins.get(part.left.name, ()) + (part.right,)
        return pins


def id_action(vars: frozenset[str] | set[str]) -> Action:
    """Identity on ``vars``: the conjunction of x' = x; constant true when empty."""
    parts: list[Expr] = [Binary("==", VarRef(v, True), VarRef(v, False)) for v in sorted(vars)]
    return Action(conj(parts), "id")


def conjoin(a: Action, b: Action) -> Action:
    describe = " && ".join(d for d in (a.describe, b.describe) if d) or ""
    return Action(conj([a.expr, b.expr]), describe)


def action_of_statement(stmt: Statement, frame: frozenset[str] | set[str]) -> Action:
    """Lower an Assign or Skip; control statements are handled structurally."""
    if isinstance(stmt, Skip):
        return id_action(frame)
    if isinstance(stmt, Assign):
        if stmt.target not in frame:
            raise ActionError(f"assigned variable '{stmt.target}' is not in the frame")
        parts: list[Expr] = [Binary("==", VarRef(stmt.target, True), stmt.expr)]
        parts.append(id_action(set(frame) - {stmt.target}).expr)
        return Action(conj(parts), f"{stmt.target} := {to_str(stmt.expr)}")
    raise UnsupportedStatementError(f"cannot lower {type(stmt).__name__} to an action")


def _lower_ensures(ensures: Expr) -> Expr:
    """ensures clauses read old(x) in the pre-state and plain x in the post."""

    def rewrite(ref):
        if isinstance(ref, OldRef):
            return VarRef(ref.name, primed=False)
        if ref.primed:
            raise ActionError("primed variables are not allowed in ensures clauses")
        return VarRef(ref.name, primed=True)

    return map_vars(ensures, rewrite)


def action_of_contract(
    contract: Contract,
    frame: frozenset[str] | set[str],
    domains: Mapping[str, Domain],
    describe: str = "contract",
) -> Action:
    """Lower a contract over ``frame``: requires on the pre-state, ensures
    with old()/plain mapped to pre/post, assigned variables havocked within
    their domains, everything else held by an identity conjunct."""
    if contract.is_empty:
        raise EmptyContractError("the empty contract has no action")
    for name in contract.assigns:
        if name not in frame:
            raise ActionError(f"assigns clause names '{name}' outside the frame")
        if name not in domains:
            raise ActionError(f"no declared domain for assigned variable '{name}'")
    parts: list[Expr] = [contract.requires, _lower_ensures(contract.ensures)]
    for name in sorted(contract.assigns):
        parts.append(Binary("==", VarRef(name, True), AnyVal(domains[name])))
    parts.append(id_action(set(frame) - set(contract.assigns)).expr)
    return Action(conj(parts), describe)


def action_of_guard(guard: Expr) -> Action:
    """A guard constrains the pre-state only."""
    _, primed, old = free_vars(guard)
    if primed or old:
        raise PrimedInGuardError(f"guard {to_str(guard)!r} mentions post-state variables")
    return Action(guard, to_str(guard))


def eval_action(action: Action, pre: State, post: State) -> bool:
    """True iff (pre, post) is in the action's relation; side-effect free."""
    return bool(eval_expr(action.expr, pre.env(), post.env()))


def _same_value(a: Value, b: Value) -> bool:
    """Equality on values that never takes a bool for an int."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def enumerate_valuations(
    action: Action,
    written: list[str],
    pre: Mapping[str, Value],
    domains: Mapping[str, Domain],
) -> list[dict[str, Value]]:
    """All valuations that agree with ``pre`` outside ``written`` and
    satisfy ``action`` read as a relation from ``pre``.  Deterministic
    order: lexicographic in the order of ``written``, then by domain value.

    Each written variable ranges only over the domain values equal to
    every one of its pins (``Action.pins``) evaluated on ``pre``, so an
    out-of-range update leaves no candidate.  A pin whose right-hand side
    fails to evaluate is ignored, and the error surfaces from the full
    expression as it would without pins.  Every remaining candidate is
    checked against the whole expression.  Candidates a pin rules out are
    never evaluated, so an evaluation error that only they would raise is
    not raised."""
    spaces = []
    for name in written:
        domain = domains.get(name)
        if domain is None:
            raise ActionError(f"no declared domain for written variable '{name}'")
        if not domain.is_finite:
            raise InfiniteDomainError(f"written variable '{name}' has an unbounded domain")
        allowed = None  # the whole domain, until a pin narrows it
        for rhs in action.pins.get(name, ()):
            try:
                want = eval_expr(rhs, pre)
            except ExprError:
                continue
            if allowed is None:
                allowed = [want] if domain.contains(want) else []
            else:
                allowed = [v for v in allowed if _same_value(v, want)]
        spaces.append(list(domain.values()) if allowed is None else allowed)

    out: list[dict[str, Value]] = []
    for combo in itertools.product(*spaces):
        candidate = dict(pre)
        candidate.update(zip(written, combo))
        if bool(eval_expr(action.expr, pre, candidate)):
            out.append(candidate)
    return out


def enumerate_posts(
    action: Action,
    pre: State,
    domains: Mapping[str, Domain],
) -> list[State]:
    """All post states reachable from ``pre``: candidates agree with ``pre``
    outside ``action.writes`` and satisfy the action.  Deterministic order,
    lexicographic by variable name then value.  Candidates are narrowed by
    the action's pins first (see ``enumerate_valuations``), so an
    evaluation error that only a candidate the pins rule out would raise
    is not raised."""
    local_names = {name for name, _ in pre.locals}
    return [
        State.make(
            {k: v for k, v in post.items() if k in local_names},
            {k: v for k, v in post.items() if k not in local_names},
        )
        for post in enumerate_valuations(action, sorted(action.writes), pre.env(), domains)
    ]


def literal(value: Value) -> Expr:
    """Canonical literal for a scalar value; used when pinning init values."""
    if isinstance(value, bool):
        return BoolLit(value)
    return IntLit(value)
