"""Symbolic-transition-system construction, interpretation, and the
equivalence oracle against the pushdown engine."""

import dataclasses

import pytest

from conftest import FIXTURES, TOGGLE_RECURSION, load_flow_graph, load_text

from genprog import random_program

import flowmc.sts
from flowmc.actions import Action, enumerate_valuations
from flowmc.expr import Binary, EvalError, IntLit, VarRef
from flowmc.flowgraph import TranslateError, translate
from flowmc.pds import (
    Configuration,
    StackFrame,
    UnsatisfiableInitError,
    explore,
    freeze_env,
    induce,
    sample_run,
)
from flowmc.sts import (
    MUTATIONS,
    MutationError,
    StsError,
    StsState,
    compare_with_pds,
    execute_sts,
    mutate_sts,
    project_state,
    sts_initial_states,
    sts_of_flow_graph,
    sts_successors,
)


def test_stee_action_inventory(stee):
    sts = sts_of_flow_graph(stee)
    assert [a.name for a in sts.actions] == [
        "m1_to_m2",
        "m1_to_m4",
        "m2_call_steering",
        "m3_to_m1",
        "m4_stutter",
        "s1_to_s2",
        "s2_to_s3",
        "s3_to_s4",
        "s4_return",
    ]
    call = next(a for a in sts.actions if a.kind == "call")
    assert call.name == "m2_call_steering"
    assert call.push_node == "n_m3"  # the continuation node rides the stack
    assert call.target == "n_s1"
    ret = next(a for a in sts.actions if a.kind == "return")
    assert ret.source == "n_s4"


def test_stee_variables(stee):
    sts = sts_of_flow_graph(stee)
    assert sts.scalar_names == (
        "primary_ok",
        "sndary_active",
        "steering__primary_info",
        "steering__sndary_info",
    )
    assert sts.init.node == "n_m1"
    assert dict(sts.init.locals_values) == {
        "steering__primary_info": False,
        "steering__sndary_info": False,
    }


def test_minimal_sts_never_touches_the_stack():
    sts = sts_of_flow_graph(load_flow_graph("minimal"))
    assert len(sts.actions) == 1
    action = sts.actions[0]
    assert action.kind == "silent"
    report = execute_sts(sts)
    assert len(report.states) == 1
    assert all(s.stack == () for s in report.states)


def test_one_call_one_return_action():
    sts = sts_of_flow_graph(load_flow_graph("callret"))
    kinds = [a.kind for a in sts.actions]
    assert kinds.count("call") == 1
    assert kinds.count("return") == 1


def test_action_exclusivity_on_node(stee):
    # the node variable fully dispatches the disjunction
    sts = sts_of_flow_graph(stee)
    for action in sts.actions:
        assert action.source in sts.node_values


def test_execute_matches_pds_node_coverage(stee):
    sts = sts_of_flow_graph(stee)
    pds = induce(stee)
    report = execute_sts(sts)
    pds_nodes = {c.top.node for c in explore(pds, max_stack=4).visited}
    sts_nodes = {s.node for s in report.states}
    assert sts_nodes == pds_nodes == {f"n_m{i}" for i in range(1, 5)} | {
        f"n_s{i}" for i in range(1, 5)
    }


def test_capacity_zero_blocks_calls():
    with pytest.raises(StsError):
        sts_of_flow_graph(load_flow_graph("callret"), stack_capacity=0)
    sts = sts_of_flow_graph(load_flow_graph("callret"), stack_capacity=1)
    shallow = dataclasses.replace(sts, stack_capacity=1)
    report = execute_sts(shallow)
    assert not any(cause == "stack-overflow" for _, cause in report.deadlocks)
    # with the bound respected at 1 frame the call still fits; force zero room
    cramped = dataclasses.replace(sts, stack_capacity=0)
    report = execute_sts(cramped)
    assert any(cause == "stack-overflow" for _, cause in report.deadlocks)


def test_a_call_without_a_node_test_overflows_at_every_node():
    sts = sts_of_flow_graph(load_flow_graph("callret"), stack_capacity=1)
    actions = tuple(
        dataclasses.replace(a, source=None) if a.kind == "call" else a for a in sts.actions
    )
    report = execute_sts(dataclasses.replace(sts, actions=actions))
    # n_q1 is inside the callee, not where callret calls it
    assert [(s.node, cause) for s, cause in report.deadlocks] == [("n_q1", "stack-overflow")]


def test_stack_encoding_matches_pds_along_runs(stee):
    sts = sts_of_flow_graph(stee)
    pds = induce(stee)
    trace = sample_run(pds, 10, seed=5)
    # replay the PDS trace inside the STS via the projection
    states = {project_state(sts, s): s for s in sts_initial_states(sts)}
    current = next(s for c, s in states.items() if c == trace.configurations[0])
    for config in trace.configurations[1:]:
        succ = sts_successors(sts, current)
        matches = [s for s in succ if project_state(sts, s) == config]
        assert len(matches) == 1
        current = matches[0]
        # element-wise stack agreement under the encoding
        assert len(current.stack) == config.depth - 1
        for slot, frame in zip(current.stack, config.stack[1:]):
            assert slot[0] == frame.node


def test_push_pop_inverse():
    sts = sts_of_flow_graph(load_flow_graph("boolcall"))
    state = sts_initial_states(sts)[0]
    pushed = sts_successors(sts, state)
    call_states = [s for s in pushed if s.stack]
    assert call_states
    for s in call_states:
        top = s.stack[0]
        rest = s.stack[1:]
        assert ((top,) + rest)[0] == top and ((top,) + rest)[1:] == rest


@pytest.mark.parametrize("name", ["stee", "minimal", "callret", "guarded", "boolcall", "smallguard"])
def test_translation_crosscheck_equivalent(name):
    fg = load_flow_graph(name)
    verdict = compare_with_pds(sts_of_flow_graph(fg), induce(fg))
    assert verdict.equivalent, (verdict.reason, verdict.witness)


@pytest.mark.parametrize("capacity", [1, 2, 3, 10])
def test_sts_holds_the_configurations_one_frame_deeper_than_its_capacity(capacity):
    # the region compare_with_pds keeps of the PDS search
    fg = load_text(TOGGLE_RECURSION)
    pds = induce(fg)
    sts = sts_of_flow_graph(fg, stack_capacity=capacity)
    states = execute_sts(sts).states
    assert max(len(state.stack) for state in states) == capacity
    region = explore(pds, max_stack=capacity + 1).visited
    assert {project_state(sts, state) for state in states} == set(region)
    verdict = compare_with_pds(sts, pds)
    assert verdict.equivalent, (verdict.reason, verdict.witness)


@pytest.mark.parametrize("kind", MUTATIONS)
def test_mutations_are_caught(stee, kind):
    pds = induce(stee)
    sts = mutate_sts(sts_of_flow_graph(stee), kind)
    verdict = compare_with_pds(sts, pds)
    assert not verdict.equivalent
    assert verdict.reason


def test_drop_frame_havocs_one_framed_variable(stee):
    sts = sts_of_flow_graph(stee)
    mutated = mutate_sts(sts, "drop-frame")
    changed = [(a, m) for a, m in zip(sts.actions, mutated.actions) if a != m]
    assert len(changed) == 1
    action, dropped = changed[0]
    kept = sts.unchanged(action)
    assert dropped.body.writes == action.body.writes | {kept[0]}
    assert mutated.unchanged(dropped) == kept[1:]


@pytest.mark.parametrize("seed", range(60))
def test_bisimulation_on_generated_programs(seed):
    prog = random_program(seed)
    fg = translate(prog)
    try:
        pds = induce(fg)
    except UnsatisfiableInitError:
        return
    verdict = compare_with_pds(sts_of_flow_graph(fg, stack_capacity=6), pds)
    assert verdict.equivalent, (seed, verdict.reason, verdict.witness)


def test_recursion_bounded_by_stack_capacity():
    fg = load_flow_graph("recur")
    pds = induce(fg)
    report = explore(pds, max_stack=6)
    assert not report.truncated
    assert report.max_stack_depth == 3
    verdict = compare_with_pds(sts_of_flow_graph(fg, stack_capacity=8), pds)
    assert verdict.equivalent, (verdict.reason, verdict.witness)


def test_compare_with_pds_walks_the_sts_once(stee, monkeypatch):
    sts = sts_of_flow_graph(stee)
    reachable = len(execute_sts(sts).states)
    calls = {"bounded_search": 0, "sts_successors": 0}

    def counted(name):
        original = getattr(flowmc.sts, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(flowmc.sts, name, counted(name))
    verdict = compare_with_pds(sts, induce(stee))
    assert verdict.equivalent, (verdict.reason, verdict.witness)
    assert calls == {"bounded_search": 1, "sts_successors": reachable}


# ---------------------------------------------------------------------------
# the search caches of one Sts


def plain_successors(sts, state):
    """``sts_successors`` without caches: every action's node tested, and
    posts enumerated from the whole pre-state."""
    out = {}
    pre = state.env()
    for action in sts.actions:
        if action.source is not None and state.node != action.source:
            continue
        if action.kind == "call" and len(state.stack) >= sts.stack_capacity:
            continue
        if action.kind == "return" and not state.stack:
            continue
        for env in enumerate_valuations(action.body, sorted(action.body.writes), pre, sts.domains):
            node, stack = action.target, state.stack
            if action.kind == "call":
                stack = ((action.push_node, tuple(pre[n] for n in sts.locals_order)),) + stack
            elif action.kind == "return":
                (node, snapshot), stack = stack[0], stack[1:]
                env.update(zip(sts.locals_order, snapshot))
            out[StsState(node, stack, freeze_env(env))] = None
    return list(out)


def plain_projection(sts, state):
    """``project_state`` without caches: every frame built afresh."""

    def frame(node, values):
        pairs = sts.proc_locals[sts.proc_of_node[node]]
        return StackFrame(node, freeze_env({local: values[m] for local, m in pairs}))

    env = state.env()
    frames = [frame(state.node, env)]
    frames += [frame(node, dict(zip(sts.locals_order, snapshot))) for node, snapshot in state.stack]
    return Configuration(freeze_env({d.name: env[d.name] for d in sts.globals_decls}), tuple(frames))


@pytest.mark.parametrize("case", [p.stem for p in sorted(FIXTURES.glob("*.apg"))] + list(range(50)))
def test_warm_sts_steps_like_a_fresh_one(case):
    try:
        fg = load_flow_graph(case) if isinstance(case, str) else translate(random_program(case))
        sts_initial_states(sts_of_flow_graph(fg))
    except (TranslateError, StsError):
        return

    def build(kind):
        sts = sts_of_flow_graph(fg)
        return sts if kind is None else mutate_sts(sts, kind)

    for kind in (None,) + MUTATIONS:
        try:
            warm = build(kind)
        except MutationError:
            continue
        for state in execute_sts(warm).states:
            succ = sts_successors(warm, state)
            assert succ == sts_successors(build(kind), state) == plain_successors(warm, state)
            config = project_state(warm, state)
            assert config == project_state(build(kind), state) == plain_projection(warm, state)


def test_verdicts_stay_cold_when_systems_alternate(stee):
    # each system owns its caches: neither a reused id nor a mutation
    # made from a warm system may serve another system's posts
    recur = load_flow_graph("recur")
    pdss = {"stee": induce(stee), "recur": induce(recur)}
    fgs = {"stee": stee, "recur": recur}

    def build(name, kind):
        sts = sts_of_flow_graph(fgs[name], stack_capacity=3)
        return sts if kind is None else mutate_sts(sts, kind)

    cases = [("stee", None), ("recur", None), ("stee", "negate-guard"), ("recur", "swap-push")]
    cold = {case: compare_with_pds(build(*case), pdss[case[0]]) for case in cases}
    assert [cold[case].equivalent for case in cases] == [True, True, False, False]
    warm = {case: build(*case) for case in cases}
    for _ in range(3):
        for case in cases:
            name, kind = case
            # a fresh copy made just after the last one was freed often
            # takes over its id
            fresh = dataclasses.replace(warm[case])
            assert compare_with_pds(fresh, pdss[name]) == cold[case]
            del fresh
            assert compare_with_pds(warm[case], pdss[name]) == cold[case]
            if kind is not None:  # a mutation made from a warm system
                mutated = mutate_sts(warm[name, None], kind)
                assert compare_with_pds(mutated, pdss[name]) == cold[case]


def test_equal_sts_states_hash_equal():
    def state(g=1, slot_node="n_m3", saved_k=0):
        slot = (slot_node, (False, saved_k))
        return StsState("n_s1", (slot,), freeze_env({"g": g, "f__b": False, "f__k": 0}))

    assert state() == state() and state() is not state()
    assert hash(state()) == hash(state())
    assert state() != state(g=2) and len({state(), state(g=2)}) == 2
    assert state() != state(slot_node="n_m2") and len({state(), state(slot_node="n_m2")}) == 2
    assert state() != state(saved_k=1) and len({state(), state(saved_k=1)}) == 2
    moved = dataclasses.replace(state(), scalars=state(g=2).scalars)
    assert moved == state(g=2) and hash(moved) == hash(state(g=2))
    assert dataclasses.replace(state()) == state() and hash(dataclasses.replace(state())) == hash(state())


def test_an_evaluation_error_is_raised_every_time():
    sts = sts_of_flow_graph(load_flow_graph("callret"))
    index, action = next((i, a) for i, a in enumerate(sts.actions) if a.source == sts.init.node)
    g = sts.globals_decls[0].name
    divide = Binary("==", VarRef(g, True), Binary("/", VarRef(g, False), IntLit(0)))
    broken = dataclasses.replace(sts, actions=sts.actions[:index]
                                 + (dataclasses.replace(action, body=Action(divide)),)
                                 + sts.actions[index + 1:])
    state = sts_initial_states(broken)[0]
    for _ in range(2):
        with pytest.raises(EvalError, match="division by zero"):
            sts_successors(broken, state)
