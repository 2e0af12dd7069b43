"""Action semantics: eval, lowering, post-state enumeration.

Derived expectations are computed by brute force over full state-pair
spaces before being asserted against the implementation.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from flowmc.actions import (
    Action,
    classify,
    EmptyContractError,
    InfiniteDomainError,
    PrimedInGuardError,
    UnsupportedStatementError,
    action_of_contract,
    action_of_guard,
    action_of_statement,
    conjoin,
    enumerate_posts,
    id_action,
)
from flowmc.expr import (
    AnyVal, Binary, Domain, VarRef, conj, conjuncts, eval_expr, free_vars, parse_expr,
)
from flowmc.ir import Assign, Contract, Jump, Skip

BOOL = Domain("bool")
D8 = Domain("range", 0, 7)
D4 = Domain("range", 0, 3)


def _states(domains: dict[str, Domain]):
    names = sorted(domains)
    for combo in itertools.product(*(list(domains[n].values()) for n in names)):
        yield dict(zip(names, combo))


def brute_force_posts(action: Action, pre, domains: dict[str, Domain]):
    """Independent oracle: filter the full candidate space directly."""
    out = []
    for post in _states(domains):
        frame_ok = all(post[name] == pre[name] for name in pre if name not in action.writes)
        if frame_ok and eval_expr(action.expr, pre, post):
            out.append(post)
    return out


def test_increment_action_matches_paper_semantics():
    action = Action(parse_expr("x' == x + 1", allow_primed=True))
    assert eval_expr(action.expr, {"x": 1}, {"x": 2})
    assert not eval_expr(action.expr, {"x": 1}, {"x": 3})


def test_identity_action_is_the_diagonal():
    ident = id_action({"x"})
    assert eval_expr(ident.expr, {"x": 5}, {"x": 5})
    assert not eval_expr(ident.expr, {"x": 5}, {"x": 6})


def test_empty_identity_is_constant_true():
    ident = id_action(set())
    assert ident.writes == frozenset()
    assert eval_expr(ident.expr, {"x": 0}, {"x": 1})


def test_unsatisfiable_guard_conjunct():
    dead = conjoin(id_action({"x"}), action_of_guard(parse_expr("1 == 0")))
    for pre in _states({"x": D4}):
        assert enumerate_posts(dead, pre, {"x": D4}) == []


def test_assign_action_frame():
    action = action_of_statement(Assign("x", parse_expr("x + 1")), {"x", "y"})
    pre = {"x": 1, "y": 5}
    assert eval_expr(action.expr, pre, {"x": 2, "y": 5})
    assert not eval_expr(action.expr, pre, {"x": 2, "y": 6})


def test_skip_is_identity():
    action = action_of_statement(Skip(), {"x"})
    assert action.expr == id_action({"x"}).expr


def test_control_statements_are_rejected():
    with pytest.raises(UnsupportedStatementError):
        action_of_statement(Jump("b"), {"x"})


def test_assign_copy_unique_post_over_full_space():
    # oracle first: x := y over the 8x8 domain has exactly one post per pre
    action = action_of_statement(Assign("x", parse_expr("y")), {"x", "y"})
    domains = {"x": D8, "y": D8}
    pre = {"x": 0, "y": 7}
    expected = brute_force_posts(action, pre, domains)
    assert expected == [{"x": 7, "y": 7}]
    assert enumerate_posts(action, pre, domains) == expected


def test_contract_havoc_and_frame():
    contract = Contract("spec", parse_expr("x > 0"), parse_expr("true"), ("x",))
    action = action_of_contract(contract, {"x", "y"}, {"x": D4, "y": D4})
    domains = {"x": D4, "y": D4}
    pre = {"x": 2, "y": 1}
    expected = brute_force_posts(action, pre, domains)
    assert [p["x"] for p in expected] == [0, 1, 2, 3]
    assert enumerate_posts(action, pre, domains) == expected
    # requires fails: no posts at all
    blocked = {"x": 0, "y": 1}
    assert enumerate_posts(action, blocked, domains) == []


def test_contract_old_reference():
    contract = Contract(
        "spec", parse_expr("true"), parse_expr("x == old(x) + 1", allow_old=True), ("x",)
    )
    action = action_of_contract(contract, {"x", "y"}, {"x": D4, "y": D4})
    pre = {"x": 1, "y": 2}
    posts = enumerate_posts(action, pre, {"x": D4, "y": D4})
    assert posts == [{"x": 2, "y": 2}]


def test_empty_contract_has_no_action():
    with pytest.raises(EmptyContractError):
        action_of_contract(Contract.empty(), {"x"}, {"x": D4})


def test_guard_reads_pre_state_only():
    action = action_of_guard(parse_expr("x == 0"))
    pre = {"x": 1}
    for value in D4.values():
        assert not eval_expr(action.expr, pre, {"x": value})
    with pytest.raises(PrimedInGuardError):
        action_of_guard(parse_expr("x' == 0", allow_primed=True))


def test_enumerate_posts_identity():
    pre = {"x": 2}
    assert enumerate_posts(id_action({"x"}), pre, {"x": D4}) == [pre]


def test_enumerate_posts_domain_overflow():
    action = Action(parse_expr("x' == x + 1", allow_primed=True))
    pre = {"x": 3}
    assert enumerate_posts(action, pre, {"x": D4}) == []


def test_enumerate_posts_full_havoc():
    action = Action(parse_expr("x' == x || x' != x", allow_primed=True))
    pre = {"x": False}
    posts = enumerate_posts(action, pre, {"x": BOOL})
    assert [p["x"] for p in posts] == [False, True]


def test_enumerate_posts_infinite_domain():
    action = Action(parse_expr("x' == x + 1", allow_primed=True))
    with pytest.raises(InfiniteDomainError):
        enumerate_posts(action, {"x": 0}, {"x": Domain("int")})


# ---------------------------------------------------------------------------
# conjunct shapes


@pytest.mark.parametrize("expr, shape", [
    (parse_expr("(x < 3 && true) && (true && x' == x)", allow_primed=True),
     [("guard", None, "x < 3"), ("identity", "x", "x' == x")]),
    (parse_expr("true"), []),
    (parse_expr("x < 3"), [("guard", None, "x < 3")]),
    (parse_expr("x' == x", allow_primed=True), [("identity", "x", "x' == x")]),
    (parse_expr("x' == x + 1", allow_primed=True), [("update", "x", "x' == x + 1")]),
    (parse_expr("x' == y", allow_primed=True), [("update", "x", "x' == y")]),
    (Binary("==", VarRef("x", True), AnyVal(D4)), [("havoc", "x", None)]),
    (parse_expr("x' == y'", allow_primed=True), [("residual", None, "x' == y'")]),
    (parse_expr("x == y'", allow_primed=True), [("residual", None, "x == y'")]),
    (parse_expr("!(x' == 1)", allow_primed=True), [("residual", None, "!(x' == 1)")]),
])
def test_conjunct_shapes(expr, shape):
    got = classify(expr)
    assert [(kind, var) for kind, var, _ in got] == [(kind, var) for kind, var, _ in shape]
    for (_, _, part), (_, _, text) in zip(got, shape):
        if text is not None:
            assert part == parse_expr(text, allow_primed=True)
    assert Action(expr).shape == got


def reference_pins(expr):
    """Pins as first defined: the conjuncts ``v' == rhs`` whose ``rhs`` is
    not ``any(...)`` and reads no primed variable."""
    pins = {}
    for part in conjuncts(expr):
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


# ---------------------------------------------------------------------------
# property suites


_small_domains = {"x": Domain("range", 0, 3), "y": Domain("range", 0, 2), "p": BOOL}

_atom = st.one_of(
    st.integers(min_value=0, max_value=3).map(lambda v: str(v)),
    st.sampled_from(["x", "y", "x'", "y'"]),
)


@st.composite
def _relations(draw):
    conjuncts = draw(
        st.lists(
            st.builds(
                lambda a, op, b: f"{a} {op} {b}",
                _atom,
                st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                _atom,
            ),
            min_size=1,
            max_size=3,
        )
    )
    return " && ".join(conjuncts)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_relations(), _relations(), st.integers(0, 3), st.integers(0, 2),
       st.integers(0, 3), st.integers(0, 2))
def test_conjunction_semantics(text_a, text_b, x0, y0, x1, y1):
    a = Action(parse_expr(text_a, allow_primed=True))
    b = Action(parse_expr(text_b, allow_primed=True))
    pre = {"x": x0, "y": y0}
    post = {"x": x1, "y": y1}
    assert eval_expr(conjoin(a, b).expr, pre, post) == (
        eval_expr(a.expr, pre, post) and eval_expr(b.expr, pre, post)
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_relations())
def test_enumerate_posts_agrees_with_eval(text):
    # exhaustive agreement on <= 3 variables with domains of size <= 4
    domains = {"x": Domain("range", 0, 3), "y": Domain("range", 0, 2)}
    action = Action(parse_expr(text, allow_primed=True))
    for pre in _states(domains):
        assert enumerate_posts(action, pre, domains) == brute_force_posts(
            action, pre, domains
        )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sets(st.sampled_from(["x", "y", "p"])), st.integers(0, 3), st.integers(0, 2),
       st.booleans())
def test_id_action_reflexive_and_diagonal(names, x, y, p):
    ident = id_action(names)
    pre = {"x": x, "y": y, "p": p}
    assert eval_expr(ident.expr, pre, pre)
    for post in _states(_small_domains):
        agree = all(post[n] == pre[n] for n in names)
        assert eval_expr(ident.expr, pre, post) == agree


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(["x == 0", "x > 1", "p", "!p", "x == y"]),
       st.integers(0, 3), st.integers(0, 2), st.booleans())
def test_guard_independent_of_post_state(text, x, y, p):
    action = action_of_guard(parse_expr(text))
    pre = {"x": x, "y": y, "p": p}
    results = {eval_expr(action.expr, pre, post) for post in _states(_small_domains)}
    assert len(results) == 1


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sets(st.sampled_from(["x", "y"]), min_size=1), st.integers(0, 3), st.integers(0, 2))
def test_contract_frame_condition(assigns, x, y):
    contract = Contract("spec", parse_expr("true"), parse_expr("true"), tuple(sorted(assigns)))
    domains = {"x": Domain("range", 0, 3), "y": Domain("range", 0, 2)}
    action = action_of_contract(contract, {"x", "y"}, domains)
    pre = {"x": x, "y": y}
    for post in enumerate_posts(action, pre, domains):
        for name in ("x", "y"):
            if name not in assigns:
                assert post[name] == pre[name]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_relations(), _relations(), st.booleans())
def test_shape_reconjoins_and_pins_match_reference(text_a, text_b, padded):
    text = f"true && ({text_a}) && true && {text_b}" if padded else f"{text_a} && {text_b}"
    expr = parse_expr(text, allow_primed=True)
    shape = classify(expr)
    assert conj([part for _, _, part in shape]) == conj(conjuncts(expr))
    assert Action(expr).pins == reference_pins(expr)
    for kind, var, part in shape:
        primed = free_vars(part)[1]
        assert (kind == "guard") == (not primed)
        if var is not None:
            assert var in primed
