"""The pinned post-state enumerator against a full-product reference.

``enumerate_valuations`` narrows each written variable to the values its
``x' == e`` conjuncts allow before taking the product.  The reference
below evaluates the action on every point of the full product, as the
enumerator did before pins; on every reachable pre-state of the fixtures
and generated programs both must return the same list in the same order.
"""

import itertools

import pytest

from conftest import FIXTURES, load_flow_graph

from genprog import random_program

from flowmc.actions import Action, State, action_of_statement, enumerate_valuations
from flowmc.expr import BOOL, Domain, EvalError, ExprTypeError, VarRef, eval_expr, parse_expr
from flowmc.flowgraph import translate
from flowmc.ir import Assign
from flowmc.ir_text import parse_program
from flowmc.pds import UnsatisfiableInitError, explore, format_trace, induce, sample_run
from flowmc.sts import execute_sts, mutate_sts, sts_of_flow_graph

D4 = Domain("range", 0, 3)


def full_product_valuations(action, written, pre, domains):
    """Reference: every point of the written variables' domain product."""
    out = []
    for combo in itertools.product(*(list(domains[name].values()) for name in written)):
        candidate = dict(pre)
        candidate.update(zip(written, combo))
        if bool(eval_expr(action.expr, pre, candidate)):
            out.append(candidate)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # the same error type must surface
        return type(err)


def _assert_same(action, written, pre, domains):
    assert _outcome(enumerate_valuations, action, written, pre, domains) == _outcome(
        full_product_valuations, action, written, pre, domains
    )


def _flow_graphs():
    # cyclic does not translate and unbounded has an unbounded variable
    names = sorted(
        p.stem for p in FIXTURES.glob("*.apg") if p.stem not in ("cyclic", "unbounded")
    )
    cases = [pytest.param(lambda n=n: load_flow_graph(n), id=n) for n in names]
    cases += [
        pytest.param(lambda s=s: translate(random_program(s)), id=f"gen{s}")
        for s in range(60)
    ]
    return cases


@pytest.mark.parametrize("make", _flow_graphs())
def test_pds_enumerator_matches_full_product(make):
    try:
        pds = induce(make())
    except UnsatisfiableInitError:
        return
    report = explore(pds, max_steps=2_000, max_stack=6)
    pres: dict[str, set[State]] = {}
    for config in report.visited:
        top = config.top
        pres.setdefault(pds.proc_of(top.node), set()).add(State(top.locals, config.globals))
    for proc_name, states in pres.items():
        proc = pds.flow_graph.procedures[proc_name]
        domains = pds.frame_domains(proc_name)
        for action in proc.actions.values():
            written = sorted(action.writes)
            for pre in sorted(states, key=repr):
                _assert_same(action, written, pre.env(), domains)


@pytest.mark.parametrize("make", _flow_graphs())
def test_sts_enumerator_matches_full_product(make):
    fg = make()
    try:
        induce(fg)
    except UnsatisfiableInitError:
        return
    sts = sts_of_flow_graph(fg, stack_capacity=6)
    states = execute_sts(sts, max_steps=2_000).states
    actions = list(sts.actions)
    if any(sts.unchanged(a) for a in sts.actions):
        # drop-frame havocs a variable that has no pin
        mutated = mutate_sts(sts, "drop-frame").actions
        actions += [m for m, a in zip(mutated, sts.actions) if m != a]
    for action in actions:
        written = sorted(action.body.writes)
        for state in states:
            _assert_same(action.body, written, state.env(), sts.domains)


# ---------------------------------------------------------------------------
# named cases


def test_pins_are_the_pre_state_equalities():
    action = Action(
        parse_expr("x' == x + 1 && y' == y && z' == y' && x' == 2 && y' != 0", allow_primed=True)
    )
    assert "pins" not in action.__dict__  # derived on first use only
    assert action.pins == {
        "x": (parse_expr("x + 1"), parse_expr("2")),
        "y": (VarRef("y"),),
    }


def test_out_of_range_update_has_no_post():
    action = action_of_statement(Assign("x", parse_expr("x + 1")), {"x", "y"})
    pre = {"x": 3, "y": 1}
    domains = {"x": D4, "y": D4}
    assert enumerate_valuations(action, ["x", "y"], pre, domains) == []
    assert full_product_valuations(action, ["x", "y"], pre, domains) == []
    assert enumerate_valuations(action, ["x", "y"], {"x": 2, "y": 1}, domains) == [
        {"x": 3, "y": 1}
    ]


SELF_RECURSION = """\
program selfrec

global g : bool

procedure main
  block b1
    point c : call down
    point r : return
    edge c -> r
    entry c
    exit r

procedure down
  local b : bool = false
  block b1
    point s : b := true
    point c : call down
    point r : return
    edge s -> c
    edge c -> r
    entry s
    exit r
"""


def test_conflicting_pins_on_self_recursive_call():
    result = parse_program(SELF_RECURSION)
    assert result.program is not None, result.diagnostics
    sts = sts_of_flow_graph(translate(result.program))
    (call,) = [a for a in sts.actions if a.kind == "call" and a.source.startswith("n_d")]
    # the caller's down__b' == down__b meets the callee's down__b' == false
    assert [VarRef("down__b"), parse_expr("false")] == list(call.body.pins["down__b"])
    written = sorted(call.body.writes)
    for local, posts in ((True, []), (False, [{"g": False, "down__b": False}])):
        pre = {"g": False, "down__b": local}
        assert enumerate_valuations(call.body, written, pre, sts.domains) == posts
        assert full_product_valuations(call.body, written, pre, sts.domains) == posts


def test_raising_pin_still_raises():
    action = action_of_statement(Assign("x", parse_expr("1 / y")), {"x", "y"})
    domains = {"x": D4, "y": D4}
    with pytest.raises(EvalError):
        enumerate_valuations(action, ["x", "y"], {"x": 0, "y": 0}, domains)
    assert enumerate_valuations(action, ["x", "y"], {"x": 0, "y": 1}, domains) == [
        {"x": 1, "y": 1}
    ]


def test_bool_never_matches_an_int_pin():
    to_int = Action(parse_expr("b' == 1", allow_primed=True))
    to_bool = Action(parse_expr("x' == true", allow_primed=True))
    both = Action(parse_expr("x' == 1 && x' == true", allow_primed=True))
    bool_pre, int_pre, bit = {"b": False}, {"x": 0}, {"x": Domain("range", 0, 1)}
    assert enumerate_valuations(to_int, ["b"], bool_pre, {"b": BOOL}) == []
    assert enumerate_valuations(to_bool, ["x"], int_pre, bit) == []
    assert enumerate_valuations(both, ["x"], int_pre, bit) == []
    # the full product reaches the ill-typed comparison; pins rule it out
    with pytest.raises(ExprTypeError):
        full_product_valuations(to_int, ["b"], bool_pre, {"b": BOOL})


# ---------------------------------------------------------------------------
# sampled runs


MODE_WALK = """\
0 | inp=false mode=0 | (n_m1)
1 | inp=true mode=0 | (n_m2)
2 | inp=true mode=0 | (n_s1 primary_info=false sndary_info=false) (n_m3)
3 | inp=true mode=0 | (n_s2 primary_info=true sndary_info=false) (n_m3)
4 | inp=true mode=0 | (n_s3 primary_info=true sndary_info=false) (n_m3)
5 | inp=true mode=0 | (n_s4 primary_info=true sndary_info=false) (n_m3)
6 | inp=true mode=0 | (n_m3)
7 | inp=true mode=0 | (n_m1)
8 | inp=false mode=0 | (n_m2)
9 | inp=false mode=0 | (n_s1 primary_info=false sndary_info=false) (n_m3)"""


def test_sample_run_expands_each_configuration_once(monkeypatch):
    import flowmc.pds as pds_module

    pds = induce(load_flow_graph("mode"))
    calls = []
    original = pds_module.successors

    def counting(p, config):
        calls.append(config)
        return original(p, config)

    monkeypatch.setattr(pds_module, "successors", counting)
    trace = sample_run(pds, 10, seed=4)
    assert format_trace(trace) == MODE_WALK
    # the first configuration, then every candidate of every step once
    expected = 1 + sum(len(original(pds, c)) for c in trace.configurations[:-1])
    assert len(calls) == expected
