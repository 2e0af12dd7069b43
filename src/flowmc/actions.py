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
from typing import Mapping, Optional

from .expr import (
    AnyVal,
    Binary,
    BoolLit,
    Domain,
    Expr,
    ExprError,
    IntLit,
    OldRef,
    TRUE,
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


# A top-level conjunct of an action as (kind, var, conjunct).  ``kind`` is
# ``guard`` (it reads the pre-state only), ``identity`` (``v' == v``),
# ``update`` (``v' == e``, ``e`` over the pre-state), ``havoc`` (``v' ==
# any(D)``) or ``residual`` (anything else); ``var`` is the ``v`` of the
# middle three and ``None`` for the others.  Plain tuples: a wide model
# has thousands of conjuncts, and a named tuple costs over ten times as
# much to build.
Conjunct = tuple[str, Optional[str], Expr]


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

    @property
    def shape(self) -> tuple[Conjunct, ...]:
        """The conjuncts with their shapes (see ``classify``).  Not kept:
        ``pins`` keeps what enumeration reads, and wide models hold
        thousands of conjuncts that would lengthen every collection."""
        return classify(self.expr)

    @functools.cached_property
    def pins(self) -> dict[str, tuple[Expr, ...]]:
        """The right-hand sides of the identity and update conjuncts, by
        variable, in conjunct order.  Derived on first use, since most
        actions are never enumerated."""
        pins: dict[str, tuple[Expr, ...]] = {}
        for kind, var, part in self.shape:
            if kind in ("identity", "update"):
                pins[var] = pins.get(var, ()) + (part.right,)
        return pins


def classify(expr: Expr) -> tuple[Conjunct, ...]:
    """The top-level conjuncts of ``expr`` but literal ``true``, in order,
    each with its shape.  Identities, updates and havocs are the conjuncts
    TLC reads as assignments to ``v'``."""
    out = []
    for part in conjuncts(expr):
        if (isinstance(part, Binary) and part.op == "=="
                and isinstance(part.left, VarRef) and part.left.primed):
            name, rhs = part.left.name, part.right
            if isinstance(rhs, AnyVal):
                kind = "havoc"
            elif isinstance(rhs, VarRef):
                kind = "residual" if rhs.primed else "identity" if rhs.name == name else "update"
            elif isinstance(rhs, (IntLit, BoolLit)) or not free_vars(rhs)[1]:
                kind = "update"
            else:
                kind = "residual"
            out.append((kind, None if kind == "residual" else name, part))
        elif part != TRUE:
            out.append(("residual" if free_vars(part)[1] else "guard", None, part))
    return tuple(out)


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
    every one of its pins (``Action.pins``, its identities and updates)
    evaluated on ``pre``, so an out-of-range update leaves no candidate.
    A pin whose right-hand side fails to evaluate is ignored, and the
    error surfaces from the full expression as it would without pins.
    Every remaining candidate is checked against the whole expression.
    Candidates a pin rules out are never evaluated, so an evaluation error
    that only they would raise is not raised.  Posts and initial states
    (``initial_valuations``) both come from here."""
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


def initial_valuations(constraint: Expr, names: list[str],
                       domains: Mapping[str, Domain]) -> list[dict[str, Value]]:
    """The valuations of ``names`` that satisfy ``constraint``, in the
    order of ``enumerate_valuations``: the posts of the constraint with
    ``names`` primed, from an empty pre-state, so that ``x == 0`` pins
    ``x`` as ``x' == 0`` pins a post.  Other names stay unprimed, and
    reading one fails as it would without priming."""
    written = set(names)
    primed = map_vars(constraint, lambda ref: VarRef(ref.name, ref.name in written))
    return enumerate_valuations(Action(primed), names, {}, domains)


def enumerate_posts(
    action: Action,
    pre: State,
    domains: Mapping[str, Domain],
) -> list[State]:
    """All post states reachable from ``pre``: candidates agree with ``pre``
    outside ``action.writes`` and satisfy the action, found by
    ``enumerate_valuations``.  Deterministic order, lexicographic by
    variable name then value."""
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
