"""Pushdown semantics: the lazy successor relation against a materialized
rewrite-rule oracle, exploration, invariant checking, and run sampling."""

import contextlib
import dataclasses
import io
import itertools

import pytest

from conftest import FIXTURES, load_flow_graph, load_text

from genprog import random_program

from flowmc.actions import InfiniteDomainError, State, eval_action
from flowmc.cli import main
from flowmc.expr import EvalError, ExprTypeError, parse_expr
from flowmc.flowgraph import TranslateError, translate
from flowmc.pds import (
    Configuration,
    MalformedConfigurationError,
    NoInitialConfigurationError,
    NonGlobalVariableError,
    StackFrame,
    UnsatisfiableInitError,
    check_invariant,
    explore,
    format_config,
    format_trace,
    freeze_env,
    induce,
    sample_run,
    successors,
)


# ---------------------------------------------------------------------------
# Brute-force oracle: materialize every rewrite rule, then apply by matching.


def materialize_rules(pds):
    """All rewrite rules ((global, frame) -> (global', word)) of the induced
    system, built by enumerating full state-pair spaces per node."""
    fg = pds.flow_graph
    rules: dict[tuple, list[tuple]] = {}
    global_space = _envs({d.name: d.domain for d in fg.globals})
    for proc in fg.procedures.values():
        local_domains = {d.name: d.domain for d in proc.locals}
        local_space = _envs(local_domains)
        for node in proc.nodes:
            action = proc.actions[node]
            for g in global_space:
                for l in local_space:
                    pre = State(freeze_env(l), freeze_env(g))
                    pairs = []
                    for g2 in global_space:
                        for l2 in local_space:
                            post = State(freeze_env(l2), freeze_env(g2))
                            if eval_action(action, pre, post):
                                pairs.append(post)
                    head = (freeze_env(g), StackFrame(node, freeze_env(l)))
                    body = rules.setdefault(head, [])
                    for edge in proc.edges:
                        if edge.src != node:
                            continue
                        for post in pairs:
                            if edge.label is None:
                                body.append(
                                    (post.globals, (StackFrame(edge.dst, post.locals),))
                                )
                            else:
                                callee = fg.procedures[edge.label]
                                body.append(
                                    (
                                        post.globals,
                                        (
                                            StackFrame(
                                                callee.entry, freeze_env(callee.init_locals)
                                            ),
                                            StackFrame(edge.dst, post.locals),
                                        ),
                                    )
                                )
                    if node == proc.return_node and proc.name != fg.main:
                        for post in pairs:
                            body.append((post.globals, ()))
    return rules


def _envs(domains):
    names = sorted(domains)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(list(domains[n].values()) for n in names))
    ]


def oracle_successors(rules, config):
    out = []
    seen = set()
    for new_global, word in rules.get((config.globals, config.top), []):
        if len(word) == 0 and len(config.stack) == 1:
            continue  # a pop never empties the stack of a reachable configuration
        succ = Configuration(new_global, tuple(word) + config.stack[1:])
        key = (succ.globals, succ.stack)
        if key not in seen:
            seen.add(key)
            out.append(succ)
    return out


ORACLE_FIXTURES = ["minimal", "two_bools", "boolcall", "smallguard", "stee"]


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_successors_match_materialized_rules(name):
    pds = induce(load_flow_graph(name))
    rules = materialize_rules(pds)
    report = explore(pds, max_stack=6)
    assert not report.truncated
    for config in report.visited:
        assert set(successors(pds, config)) == set(oracle_successors(rules, config))


# ---------------------------------------------------------------------------
# induce


def test_stee_initial_configurations(stee):
    pds = induce(stee)
    main = stee.procedures["main"]
    assert len(pds.initial) == 2  # primary_ok free, sndary_active pinned false
    for config in pds.initial:
        assert config.depth == 1
        assert config.top == StackFrame(main.entry, freeze_env(main.init_locals))
        assert config.globals_dict()["sndary_active"] is False


def test_two_bools_initials():
    pds = induce(load_flow_graph("two_bools"))
    assert len(pds.initial) == 4


def test_unsatisfiable_init():
    import dataclasses

    fg = load_flow_graph("two_bools")
    bad = dataclasses.replace(fg, init_globals=parse_expr("a && !a"))
    with pytest.raises(UnsatisfiableInitError):
        induce(bad)


# ---------------------------------------------------------------------------
# successors on the stee fixture


def test_entry_step_havocs_inputs(stee):
    pds = induce(stee)
    config = pds.initial[0]
    succ = successors(pds, config)
    havoc = stee.procedures["main"].actions["n_m1"]
    pre = State(config.top.locals, config.globals)
    for nxt in succ:
        assert nxt.top.node in {"n_m2", "n_m4"}
        assert eval_action(havoc, pre, State(nxt.top.locals, nxt.globals))
    assert {c.globals_dict()["primary_ok"] for c in succ} == {False, True}


def test_call_step_pushes_saved_frame(stee):
    pds = induce(stee)
    config = pds.initial[0]
    at_m2 = next(c for c in successors(pds, config) if c.top.node == "n_m2")
    succ = successors(pds, at_m2)
    assert len(succ) == 1
    pushed = succ[0]
    steering = stee.procedures["steering"]
    assert pushed.globals == at_m2.globals  # the call label is the identity
    assert pushed.stack[0] == StackFrame(steering.entry, freeze_env(steering.init_locals))
    assert pushed.stack[1] == StackFrame("n_m3", at_m2.top.locals)


def test_unsatisfiable_label_has_no_successors(stee):
    pds = induce(stee)
    config = pds.initial[0]
    at_m4 = next(c for c in successors(pds, config) if c.top.node == "n_m4")
    assert successors(pds, at_m4) == []


# ---------------------------------------------------------------------------
# explore


def test_explore_stee(stee):
    pds = induce(stee)
    report = explore(pds, max_stack=4)
    assert not report.truncated
    assert report.max_stack_depth == 2
    assert report.visited_count == 27
    assert {c.top.node for c in report.deadlocks} == {"n_m4"}


def test_explore_minimal_stutter():
    pds = induce(load_flow_graph("minimal"))
    report = explore(pds)
    assert report.visited_count == 1
    assert report.deadlocks == []


def test_explore_reports_truncation(stee):
    pds = induce(stee)
    report = explore(pds, max_steps=3)
    assert report.truncated


def test_explore_monotone_in_bounds(stee):
    pds = induce(stee)
    small = explore(pds, max_steps=10, max_stack=2)
    grown_steps = explore(pds, max_steps=50, max_stack=2)
    grown_stack = explore(pds, max_steps=10, max_stack=4)
    assert set(small.visited) <= set(grown_steps.visited)
    assert set(small.visited) <= set(grown_stack.visited)


def test_explore_deterministic(stee):
    pds = induce(stee)
    first = explore(pds, max_stack=4)
    second = explore(pds, max_stack=4)
    assert first.visited == second.visited
    assert first.deadlocks == second.deadlocks


# ---------------------------------------------------------------------------
# invariants


def test_invariant_true_holds(stee):
    pds = induce(stee)
    verdict = check_invariant(pds, parse_expr("true"))
    assert verdict.holds and not verdict.truncated


def test_mode_violation_shortest_trace():
    pds = induce(load_flow_graph("mode"))
    verdict = check_invariant(pds, parse_expr("mode != 2"))
    assert not verdict.holds
    nodes = [c.top.node for c in verdict.trace.configurations]
    assert nodes == ["n_m1", "n_m2", "n_s1", "n_s2", "n_s3", "n_s4"]
    assert len(verdict.trace.configurations) == 6  # five steps
    assert verdict.trace.configurations[-1].globals_dict()["mode"] == 2
    # consecutive configurations are immediate successors
    for a, b in zip(verdict.trace.configurations, verdict.trace.configurations[1:]):
        assert b in successors(pds, a)


def test_strengthened_contract_holds():
    pds = induce(load_flow_graph("mode_safe"))
    verdict = check_invariant(pds, parse_expr("mode != 2"))
    assert verdict.holds and not verdict.truncated


def test_invariant_rejects_locals():
    pds = induce(load_flow_graph("stee"))
    with pytest.raises(NonGlobalVariableError):
        check_invariant(pds, parse_expr("primary_info"))


@pytest.mark.parametrize("invariant", ["mode + 1", "mode"])
def test_invariant_must_be_boolean(invariant):
    pds = induce(load_flow_graph("mode"))
    with pytest.raises(ExprTypeError, match="invariant must be boolean, got int"):
        check_invariant(pds, parse_expr(invariant))


def test_invariant_deterministic():
    pds = induce(load_flow_graph("mode"))
    first = check_invariant(pds, parse_expr("mode != 2"))
    second = check_invariant(pds, parse_expr("mode != 2"))
    assert first.trace.configurations == second.trace.configurations


# ---------------------------------------------------------------------------
# sampling


def test_sample_run_prefix_shape_every_seed(stee):
    pds = induce(stee)
    steering = stee.procedures["steering"]
    havoc = stee.procedures["main"].actions["n_m1"]
    for seed in range(40):
        trace = sample_run(pds, 3, seed=seed)
        c1, c2, c3 = trace.configurations
        assert c1.depth == 1 and c1.top.node == "n_m1"
        assert c2.depth == 1 and c2.top.node == "n_m2"
        assert eval_action(
            havoc, State(c1.top.locals, c1.globals), State(c2.top.locals, c2.globals)
        )
        assert c3.top == StackFrame(steering.entry, freeze_env(steering.init_locals))
        assert c3.stack[1] == StackFrame("n_m3", c2.top.locals)
        run = trace.state_run
        assert run[1] == run[2]  # the call step keeps the globals


def test_sample_run_minimal_is_constant():
    pds = induce(load_flow_graph("minimal"))
    trace = sample_run(pds, 5, seed=7)
    assert trace.complete
    assert len(set(map(tuple, (sorted(g.items()) for g in trace.state_run)))) == 1


def test_sample_run_deterministic(stee):
    pds = induce(stee)
    assert sample_run(pds, 8, seed=11) == sample_run(pds, 8, seed=11)


def test_sample_run_projection(stee):
    pds = induce(stee)
    trace = sample_run(pds, 6, seed=2)
    for config, glob in zip(trace.configurations, trace.state_run):
        assert config.globals_dict() == glob


def test_sample_run_requires_initials():
    import dataclasses

    pds = induce(load_flow_graph("minimal"))
    empty = dataclasses.replace(pds, initial=[])
    with pytest.raises(NoInitialConfigurationError):
        sample_run(empty, 3)


# ---------------------------------------------------------------------------
# structural trace properties


@pytest.mark.parametrize("seed", range(60))
def test_stack_well_nesting_and_caller_frames(seed):
    prog = random_program(seed)
    fg = translate(prog)
    try:
        pds = induce(fg)
    except UnsatisfiableInitError:
        return
    trace = sample_run(pds, 12, seed=seed)
    shadow: list[StackFrame] = []
    for a, b in zip(trace.configurations, trace.configurations[1:]):
        if b.depth == a.depth + 1:
            shadow.append(b.stack[1])  # the frame saved by the push
        elif b.depth == a.depth - 1:
            saved = shadow.pop()
            assert b.top == saved  # the pop restores the exact pushed frame
        else:
            assert b.depth == a.depth
            assert b.stack[1:] == a.stack[1:]  # frames below the top are untouched


@pytest.mark.parametrize("seed", range(60))
def test_exploration_deterministic_on_generated(seed):
    prog = random_program(seed)
    try:
        pds = induce(translate(prog))
    except UnsatisfiableInitError:
        return
    first = explore(pds, max_steps=400, max_stack=6)
    second = explore(pds, max_steps=400, max_stack=6)
    assert first.visited == second.visited


def test_trace_serialization_format():
    pds = induce(load_flow_graph("mode"))
    verdict = check_invariant(pds, parse_expr("mode != 2"))
    lines = format_trace(verdict.trace).splitlines()
    assert lines[0].startswith("0 | ")
    assert "| (n_m1)" in lines[0]
    assert "(n_s1 primary_info=false sndary_info=false) (n_m3)" in lines[2]
    assert format_config(verdict.trace.configurations[0]).count("|") == 1


# ---------------------------------------------------------------------------
# memoised steps and cached hashes


@pytest.mark.parametrize("case", [p.stem for p in sorted(FIXTURES.glob("*.apg"))] + list(range(50)))
def test_warm_pds_steps_like_a_fresh_one(case):
    try:
        fg = load_flow_graph(case) if isinstance(case, str) else translate(random_program(case))
        warm = induce(fg)
    except (TranslateError, InfiniteDomainError, UnsatisfiableInitError):
        return
    report = explore(warm)
    for config in report.visited:
        assert successors(warm, config) == successors(induce(fg), config)


def test_equal_frames_and_configurations_hash_equal():
    def frame(b):
        return StackFrame("n_d1", freeze_env({"b": b, "x": 1}))

    assert frame(True) == frame(True) and frame(True) is not frame(True)
    assert hash(frame(True)) == hash(frame(True))
    assert frame(True) != frame(False)
    config = Configuration(freeze_env({"g": 0}), (frame(True), StackFrame("n_m2", ())))
    same = Configuration(freeze_env({"g": 0}), (frame(True), StackFrame("n_m2", ())))
    assert config == same and hash(config) == hash(same)
    assert config != Configuration(config.globals, (frame(False),) + config.stack[1:])
    assert config != Configuration(freeze_env({"g": 1}), config.stack)

    moved = dataclasses.replace(frame(True), node="n_d2")
    assert moved == StackFrame("n_d2", frame(True).locals)
    assert hash(moved) == hash(StackFrame("n_d2", frame(True).locals))
    popped = dataclasses.replace(config, stack=config.stack[1:])
    assert popped == Configuration(config.globals, (StackFrame("n_m2", ()),))
    assert hash(popped) == hash(Configuration(config.globals, (StackFrame("n_m2", ()),)))
    assert repr(frame(True)) == "StackFrame(node='n_d1', locals=(('b', True), ('x', 1)))"


def test_a_return_pops_only_onto_a_frame():
    fg = load_flow_graph("boolcall")
    pds = induce(fg)
    q = fg.procedures["q"]
    top = StackFrame(q.return_node, freeze_env({"t": False}))
    below = StackFrame("n_m2", ())
    g = freeze_env({"flag": True})
    # the deeper configuration first, so the single frame meets a warm memo
    assert successors(pds, Configuration(g, (top, below))) == [Configuration(g, (below,))]
    assert successors(pds, Configuration(g, (top,))) == []


def test_a_malformed_frame_is_rejected_by_a_warm_pds(stee):
    pds = induce(stee)
    explore(pds)
    config = pds.initial[0]
    bad = Configuration(config.globals, (StackFrame(config.top.node, freeze_env({"zz": 0})),))
    with pytest.raises(MalformedConfigurationError):
        successors(pds, bad)


DIVIDE_BY_ZERO = """\
program dz
global x : int 0..2
global y : int 0..2
init x == 0 && y == 0
procedure main
  block b1
    point a : y := 1 / x
    point r : return
    edge a -> r
    entry a
    exit r
"""


def test_an_evaluation_error_is_raised_again():
    pds = induce(load_text(DIVIDE_BY_ZERO))
    for _ in range(2):
        with pytest.raises(EvalError, match="division by zero"):
            successors(pds, pds.initial[0])
    pds = induce(load_flow_graph("mode"))
    phi = parse_expr("1 / mode == 1")
    for _ in range(2):
        with pytest.raises(EvalError, match="division by zero"):
            check_invariant(pds, phi)
    path = FIXTURES / "mode.apg"
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path), "--invariant", "1 / mode == 1"])
        assert (code, out.getvalue(), err.getvalue()) == (1, "", "error: division by zero\n")
