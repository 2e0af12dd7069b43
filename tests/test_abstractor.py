"""Flow-graph translation: structure, labelling, merging, totality."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_text, load_flow_graph, load_program
from genprog import random_program, wide_program

from flowmc.actions import action_of_contract, action_of_guard, conjoin, id_action
from flowmc.expr import Domain, parse_expr
from flowmc.flowgraph import (
    FlowEdge,
    TranslateError,
    UnknownProcedureError,
    _abbreviations,
    check_totality,
    reachable_nodes,
    translate,
)
from flowmc.ir import (
    AnnotatedBlock,
    AnnotatedProcedure,
    AnnotatedProgram,
    Assign,
    Call,
    Contract,
    Jump,
    Return,
    Skip,
    VarDecl,
    validate_program,
)


def test_stee_flow_graph_matches_expected_structure(stee):
    assert set(stee.procedures) == {"main", "steering"}
    main = stee.procedures["main"]
    assert main.nodes == ("n_m1", "n_m2", "n_m3", "n_m4")
    assert main.entry == "n_m1"
    assert main.return_node == "n_m4"
    assert set(main.edges) == {
        FlowEdge("n_m1", None, "n_m2"),
        FlowEdge("n_m2", "steering", "n_m3"),
        FlowEdge("n_m3", None, "n_m1"),
        FlowEdge("n_m1", None, "n_m4"),
        FlowEdge("n_m4", None, "n_m4"),
    }
    frame = {"primary_ok", "sndary_active"}
    prog = load_program("stee")
    havoc_contract = prog.procedures["havocInput"].blocks["b7"].contract
    domains = prog.global_domains()
    assert main.actions["n_m1"].expr == action_of_contract(havoc_contract, frame, domains).expr
    assert main.actions["n_m2"].expr == conjoin(id_action(frame), action_of_guard(parse_expr("1 != 0"))).expr
    assert main.actions["n_m3"].expr == id_action(frame).expr
    assert main.actions["n_m4"].expr == conjoin(id_action(frame), action_of_guard(parse_expr("1 == 0"))).expr

    steering = stee.procedures["steering"]
    assert steering.nodes == ("n_s1", "n_s2", "n_s3", "n_s4")
    assert set(steering.edges) == {
        FlowEdge("n_s1", None, "n_s2"),
        FlowEdge("n_s2", None, "n_s3"),
        FlowEdge("n_s3", None, "n_s4"),
    }
    labels = [steering.actions[n].describe for n in steering.nodes]
    assert labels == [
        "contract rtdb_read_primary_stee_status",
        "contract evaluate",
        "contract rtdb_write",
        "id",
    ]


def test_fully_abstracted_procedures_are_omitted(stee):
    assert "havocInput" not in stee.procedures
    assert "rtdb_read_primary_stee_status" not in stee.procedures


def test_minimal_program_is_one_stuttering_node():
    fg = load_flow_graph("minimal")
    main = fg.procedures["main"]
    assert main.nodes == ("n_m1",)
    assert main.entry == main.return_node == "n_m1"
    assert main.edges == (FlowEdge("n_m1", None, "n_m1"),)
    assert main.actions["n_m1"].describe == "id"


def _program_with_annotated_callee() -> AnnotatedProgram:
    contract = Contract("spec", parse_expr("true"), parse_expr("g == 1"), ("g",))
    callee_block = AnnotatedBlock(("r",), {"r": Return()}, (), {}, "r", "r", contract)
    callee = AnnotatedProcedure("q", (), {}, {"b": callee_block}, "b")
    main_block = AnnotatedBlock(
        points=("c", "r"),
        stmts={"c": Call("q"), "r": Return()},
        edges=(("c", "r"),),
        guards={},
        entry="c",
        exit="r",
    )
    main = AnnotatedProcedure("main", (), {}, {"b": main_block}, "b")
    return AnnotatedProgram(
        "p", {"main": main, "q": callee}, "main", globals=(VarDecl("g", Domain("range", 0, 1)),)
    )


def test_call_to_annotated_procedure_becomes_contract_node():
    prog = _program_with_annotated_callee()
    assert validate_program(prog) == []
    fg = translate(prog)
    # hand application of the call-substitution case: node labelled with the
    # contract action, silent out-edge, and no flow graph for the callee
    assert set(fg.procedures) == {"main"}
    main = fg.procedures["main"]
    expected = action_of_contract(
        prog.procedures["q"].blocks["b"].contract, {"g"}, prog.global_domains()
    )
    assert main.actions["n_m1"].expr == expected.expr
    assert FlowEdge("n_m1", None, "n_m2") in main.edges


def test_contract_annotated_jump_target_is_summarized():
    contract = Contract("spec", parse_expr("true"), parse_expr("g == 1"), ("g",))
    summarized = AnnotatedBlock(("s",), {"s": Skip()}, (), {}, "s", "s", contract)
    entry = AnnotatedBlock(
        points=("j", "r"),
        stmts={"j": Jump("b2"), "r": Return()},
        edges=(("j", "r"),),
        guards={},
        entry="j",
        exit="r",
    )
    main = AnnotatedProcedure("main", (), {}, {"b1": entry, "b2": summarized}, "b1")
    prog = AnnotatedProgram("p", {"main": main}, "main", globals=(VarDecl("g", Domain("range", 0, 1)),))
    fg = translate(prog)
    graph = fg.procedures["main"]
    assert graph.nodes == ("n_m1", "n_m2")
    expected = action_of_contract(contract, {"g"}, prog.global_domains())
    assert graph.actions["n_m1"].expr == expected.expr
    assert FlowEdge("n_m1", None, "n_m2") in graph.edges


def test_contract_erasure_shape():
    # no contracts, no jumps: node per point, edges exactly the block edges
    block = AnnotatedBlock(
        points=("a", "b", "r"),
        stmts={"a": Assign("g", parse_expr("g + 1")), "b": Skip(), "r": Return()},
        edges=(("a", "b"), ("b", "r")),
        guards={},
        entry="a",
        exit="r",
    )
    main = AnnotatedProcedure("main", (), {}, {"b1": block}, "b1")
    prog = AnnotatedProgram("p", {"main": main}, "main", globals=(VarDecl("g", Domain("range", 0, 3)),))
    fg = translate(prog)
    graph = fg.procedures["main"]
    assert graph.nodes == ("n_m1", "n_m2", "n_m3")
    assert graph.actions["n_m1"].describe == "g := g + 1"
    assert graph.actions["n_m2"].describe == "id"
    assert set(graph.edges) == {
        FlowEdge("n_m1", None, "n_m2"),
        FlowEdge("n_m2", None, "n_m3"),
        FlowEdge("n_m3", None, "n_m3"),  # added stutter
    }


def test_guard_attachment_is_syntactic(stee):
    main = stee.procedures["main"]
    guarded = main.actions["n_m2"]
    assert "1 != 0" in guarded.describe
    from flowmc.expr import conjuncts

    assert parse_expr("1 != 0") in conjuncts(guarded.expr)


def test_guard_duplication_for_distinct_incoming_guards():
    # join point entered under x == 0, under x == 1, and unguarded
    block = AnnotatedBlock(
        points=("a", "b", "c", "j", "r"),
        stmts={"a": Skip(), "b": Skip(), "c": Skip(), "j": Skip(), "r": Return()},
        edges=(("a", "b"), ("a", "c"), ("b", "j"), ("c", "j"), ("a", "j"), ("j", "r")),
        guards={
            ("b", "j"): parse_expr("x == 0"),
            ("c", "j"): parse_expr("x == 1"),
        },
        entry="a",
        exit="r",
    )
    main = AnnotatedProcedure("main", (), {}, {"b1": block}, "b1")
    prog = AnnotatedProgram("p", {"main": main}, "main", globals=(VarDecl("x", Domain("range", 0, 1)),))
    fg = translate(prog)
    graph = fg.procedures["main"]
    copies = [n for n in graph.nodes if n.startswith("n_m4")]
    assert len(copies) == 3  # unguarded copy + one per distinct guard
    describes = sorted(graph.actions[n].describe for n in copies)
    assert describes == ["id", "id && x == 0", "id && x == 1"]
    # each copy keeps the full out-edge set
    for copy in copies:
        assert FlowEdge(copy, None, "n_m5") in graph.edges
    assert check_totality(fg) == []


def test_cyclic_unannotated_jumps_are_reported():
    with pytest.raises(TranslateError) as err:
        load_flow_graph("cyclic")
    assert err.value.code == "CyclicUnannotatedJumps"


def test_missing_return_is_reported():
    block = AnnotatedBlock(("a",), {"a": Skip()}, (), {}, "a", "a")
    main = AnnotatedProcedure("main", (), {}, {"b1": block}, "b1")
    prog = AnnotatedProgram("p", {"main": main}, "main")
    with pytest.raises(TranslateError) as err:
        translate(prog)
    assert err.value.code == "UnreachableExit"


def test_main_return_always_stutters():
    for name in ["minimal", "stee", "callret", "guarded", "mode"]:
        fg = load_flow_graph(name)
        main = fg.procedures[fg.main]
        assert FlowEdge(main.return_node, None, main.return_node) in main.edges


def test_totality_of_fixture_graphs():
    for name in ["minimal", "stee", "callret", "guarded", "mode", "boolcall", "smallguard"]:
        assert check_totality(load_flow_graph(name)) == []


def test_totality_flags_missing_edge(stee):
    main = stee.procedures["main"]
    pruned = dataclasses.replace(
        main, edges=tuple(e for e in main.edges if e.src != "n_m3")
    )
    broken = dataclasses.replace(stee, procedures={**stee.procedures, "main": pruned})
    diags = check_totality(broken)
    assert any(d.code == "NonTotalNode" and "n_m3" in d.message for d in diags)


def test_callee_return_node_is_exempt_from_totality(stee):
    steering = stee.procedures["steering"]
    assert not any(e.src == "n_s4" for e in steering.edges)
    assert check_totality(stee) == []


def test_reachable_nodes(stee):
    assert reachable_nodes(stee, "main") == {"n_m1", "n_m2", "n_m3", "n_m4"}
    with pytest.raises(UnknownProcedureError):
        reachable_nodes(stee, "absent")


def test_reachable_excludes_orphans(stee):
    main = stee.procedures["main"]
    padded = dataclasses.replace(main, nodes=main.nodes + ("n_m9",))
    fg = dataclasses.replace(stee, procedures={**stee.procedures, "main": padded})
    assert "n_m9" not in reachable_nodes(fg, "main")


def test_call_edge_discipline(stee):
    prog = load_program("stee")
    for proc in stee.procedures.values():
        for edge in proc.edges:
            src_action = proc.actions[edge.src]
            if edge.label is not None:
                # label only for calls whose callee entry has the empty contract
                callee = prog.procedures[edge.label]
                assert callee.blocks[callee.entry_block].contract.is_empty
                assert src_action.describe.startswith("id")


@pytest.mark.parametrize("seed", range(200))
def test_generated_programs_translate_total(seed):
    prog = random_program(seed)
    fg = translate(prog)
    assert check_totality(fg) == []
    main = fg.procedures[fg.main]
    assert FlowEdge(main.return_node, None, main.return_node) in main.edges


def test_guarded_return_needs_a_join_point():
    # a return point entered under distinct guards cannot be duplicated:
    # the flow graph has a single return node
    from flowmc.ir_text import parse_program

    text = fixture_text("recur").replace("edge c -> j", "edge c -> r").replace(
        "edge a -> j when n <= 0", "edge a -> r when n <= 0"
    )
    cleaned = "\n".join(
        line
        for line in text.splitlines()
        if not line.strip().startswith(("point j", "edge j"))
    )
    result = parse_program(cleaned)
    assert result.program is not None and not result.diagnostics
    with pytest.raises(TranslateError) as err:
        translate(result.program)
    assert err.value.code == "GuardedReturnConflict"


def test_recursive_procedure_translates():
    fg = load_flow_graph("recur")
    assert check_totality(fg) == []
    assert set(fg.procedures) == {"main", "down"}


def reference_abbreviations(names):
    """The quadratic original of ``flowgraph._abbreviations``."""
    out = {}
    for name in names:
        for length in range(1, len(name) + 1):
            prefix = name[:length]
            if sum(1 for other in names if other.startswith(prefix)) == 1:
                out[name] = prefix
                break
        else:
            out[name] = name
    ambiguous = {
        name
        for name, abbrev in out.items()
        if abbrev[-1].isdigit()
        or any(o != abbrev and o.startswith(abbrev) for o in out.values())
        or any(o != abbrev and abbrev.startswith(o) for o in out.values())
    }
    for name in ambiguous:
        out[name] = f"{name}_"
    return out


# few letters and digits, so lists are full of shared prefixes, names that
# prefix other names, and names ending in digits
_names = st.lists(st.text(alphabet="ab1_", min_size=1, max_size=5), unique=True, max_size=12)


@settings(max_examples=500, derandomize=True)
@given(_names)
def test_abbreviations_match_reference(names):
    out = _abbreviations(names)
    expected = reference_abbreviations(names)
    assert out == expected
    assert list(out) == list(expected)


@pytest.mark.parametrize(
    "names",
    [["a", "ab", "abc"], ["w1", "w10", "w2"], ["x", "x1", "y"], ["ab", "ab_", "b"],
     ["main", "steering", "sensor"], [f"w{i:03d}_abc" for i in range(122)]],
)
def test_abbreviations_named_cases(names):
    assert _abbreviations(names) == reference_abbreviations(names)


def test_wide_program_node_ids_are_unique():
    fg = translate(wide_program(0, 12))
    nodes = [n for proc in fg.procedures.values() for n in proc.nodes]
    assert len(nodes) == len(set(nodes))
