"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import re
import shutil
import subprocess
import time

import pytest

from conftest import GOLDEN, load_flow_graph

from flowmc.actions import State, eval_action
from flowmc.emit import (
    EmitterOptions,
    emit_dot,
    emit_nuxmv,
    emit_tla,
    normalize_emitted,
    scan_nuxmv_structure,
    scan_tla_structure,
)
from flowmc.expr import parse_expr
from flowmc.flowgraph import FlowEdge
from flowmc.pds import StackFrame, check_invariant, explore, freeze_env, induce, sample_run, successors
from flowmc.sts import MUTATIONS, compare_with_pds, execute_sts, mutate_sts, sts_of_flow_graph

from test_pds import materialize_rules, oracle_successors


def _timed(budget: float):
    start = time.monotonic()

    def finish(label: str) -> None:
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"{label} took {elapsed:.2f}s (budget {budget}s)"
        print(f"PASS {label} ({elapsed:.2f}s)")

    return finish


def test_criterion_1_stee_structural_reproduction():
    done = _timed(1.0)
    fg = load_flow_graph("stee")
    main = fg.procedures["main"]
    assert main.nodes == ("n_m1", "n_m2", "n_m3", "n_m4")
    labels = {n: main.actions[n].describe for n in main.nodes}
    assert labels == {
        "n_m1": "contract havocInput",
        "n_m2": "id && 1 != 0",
        "n_m3": "id",
        "n_m4": "id && 1 == 0",
    }
    assert len(main.edges) == 5
    assert FlowEdge("n_m2", "steering", "n_m3") in main.edges
    assert FlowEdge("n_m4", None, "n_m4") in main.edges
    assert FlowEdge("n_m1", None, "n_m2") in main.edges
    assert FlowEdge("n_m1", None, "n_m4") in main.edges
    assert FlowEdge("n_m3", None, "n_m1") in main.edges
    steering = fg.procedures["steering"]
    assert [steering.actions[n].describe for n in steering.nodes] == [
        "contract rtdb_read_primary_stee_status",
        "contract evaluate",
        "contract rtdb_write",
        "id",
    ]
    assert len(steering.edges) == 3
    done("criterion 1: STEE structural reproduction")


def test_criterion_2_run_prefix_reproduction():
    done = _timed(1.0)
    fg = load_flow_graph("stee")
    pds = induce(fg)
    steering = fg.procedures["steering"]
    havoc = fg.procedures["main"].actions["n_m1"]
    init_frame = StackFrame(steering.entry, freeze_env(steering.init_locals))
    for seed in range(50):
        trace = sample_run(pds, 3, seed=seed)
        c1, c2, c3 = trace.configurations
        assert c1.depth == 1 and c1.top.node == "n_m1"
        assert c2.depth == 1 and c2.top.node == "n_m2"
        assert eval_action(
            havoc, State(c1.top.locals, c1.globals), State(c2.top.locals, c2.globals)
        )
        assert c3.stack == (init_frame, StackFrame("n_m3", c2.top.locals))
        g1, g2, g3 = trace.state_run
        assert g2 == g3
    done("criterion 2: run-prefix reproduction")


def test_criterion_3_pds_oracle_equivalence():
    done = _timed(30.0)
    for name in ["minimal", "two_bools", "boolcall", "smallguard", "stee"]:
        pds = induce(load_flow_graph(name))
        rules = materialize_rules(pds)
        report = explore(pds, max_stack=6)
        assert not report.truncated
        for config in report.visited:
            assert set(successors(pds, config)) == set(oracle_successors(rules, config)), name
    done("criterion 3: PDS oracle equivalence")


def test_criterion_4_translation_crosscheck():
    done = _timed(60.0)
    for name in ["stee", "minimal", "callret", "guarded"]:
        fg = load_flow_graph(name)
        verdict = compare_with_pds(sts_of_flow_graph(fg), induce(fg))
        assert verdict.equivalent, (name, verdict.reason)
    stee = load_flow_graph("stee")
    pds = induce(stee)
    assert len(MUTATIONS) >= 5
    for kind in MUTATIONS:
        mutated = mutate_sts(sts_of_flow_graph(stee), kind)
        verdict = compare_with_pds(mutated, pds)
        assert not verdict.equivalent, kind
    done("criterion 4: translation cross-check")


def test_criterion_5_emitter_determinism_and_goldens():
    done = _timed(5.0)
    finite = ["stee", "minimal", "callret", "guarded", "mode", "mode_safe",
              "boolcall", "smallguard", "two_bools", "twocalls"]
    for name in finite:
        fg = load_flow_graph(name)
        sts = sts_of_flow_graph(fg)
        module, config = emit_tla(sts, EmitterOptions(source_digest="x"))
        model = emit_nuxmv(sts, EmitterOptions(source_digest="x"))
        dot = emit_dot(fg, EmitterOptions(source_digest="x"))
        assert emit_tla(sts, EmitterOptions(source_digest="x")) == (module, config)
        assert normalize_emitted(module) == normalize_emitted(
            (GOLDEN / f"{name}.tla").read_text()
        )
        assert config == (GOLDEN / f"{name}.cfg").read_text()
        assert normalize_emitted(model) == normalize_emitted(
            (GOLDEN / f"{name}.smv").read_text()
        )
        assert normalize_emitted(dot) == normalize_emitted(
            (GOLDEN / f"{name}.dot").read_text()
        )
        assert scan_tla_structure(module) == scan_nuxmv_structure(model)
    for name in ["unbounded"]:
        fg = load_flow_graph(name)
        model = emit_nuxmv(sts_of_flow_graph(fg), EmitterOptions(source_digest="x"))
        assert normalize_emitted(model) == normalize_emitted(
            (GOLDEN / f"{name}.smv").read_text()
        )
    done("criterion 5: emitter determinism and golden stability")


def test_criterion_6_invariant_checking():
    done = _timed(5.0)
    pds = induce(load_flow_graph("mode"))
    verdict = check_invariant(pds, parse_expr("mode != 2"))
    assert not verdict.holds
    nodes = [c.top.node for c in verdict.trace.configurations]
    assert nodes == ["n_m1", "n_m2", "n_s1", "n_s2", "n_s3", "n_s4"]
    assert len(nodes) - 1 == 5  # five steps, shortest by BFS
    safe = induce(load_flow_graph("mode_safe"))
    verdict = check_invariant(safe, parse_expr("mode != 2"))
    assert verdict.holds and verdict.truncated is False
    done("criterion 6: invariant checking")


PROPERTY_TESTS = {
    # program-ir
    "round-trip": ("test_ir", "test_generated_round_trip"),
    "validation soundness": ("test_ir", "test_missing_main"),
    "parse determinism": ("test_ir", "test_parse_is_deterministic"),
    # action-core
    "id diagonal": ("test_actions", "test_id_action_reflexive_and_diagonal"),
    "conjunction semantics": ("test_actions", "test_conjunction_semantics"),
    "enumerate/eval agreement": ("test_actions", "test_enumerate_posts_agrees_with_eval"),
    "guard pre-state independence": ("test_actions", "test_guard_independent_of_post_state"),
    "contract frame condition": ("test_actions", "test_contract_frame_condition"),
    # abstractor
    "contract erasure": ("test_abstractor", "test_contract_erasure_shape"),
    "guard attachment": ("test_abstractor", "test_guard_attachment_is_syntactic"),
    "call-edge discipline": ("test_abstractor", "test_call_edge_discipline"),
    "main stutter": ("test_abstractor", "test_main_return_always_stutters"),
    "translate totality": ("test_abstractor", "test_generated_programs_translate_total"),
    # pds-engine
    "rule soundness": ("test_pds", "test_successors_match_materialized_rules"),
    "stack well-nesting": ("test_pds", "test_stack_well_nesting_and_caller_frames"),
    "trace projection": ("test_pds", "test_sample_run_projection"),
    "monotone exploration": ("test_pds", "test_explore_monotone_in_bounds"),
    "exploration determinism": ("test_pds", "test_explore_deterministic"),
    # sts-core
    "bisimulation": ("test_sts", "test_bisimulation_on_generated_programs"),
    "action exclusivity": ("test_sts", "test_action_exclusivity_on_node"),
    "stack encoding": ("test_sts", "test_stack_encoding_matches_pds_along_runs"),
    "push/pop inverse": ("test_sts", "test_push_pop_inverse"),
    # model-emitters
    "emitter determinism": ("test_emit", "test_emitters_are_byte_deterministic"),
    "structural parity": ("test_emit", "test_structural_parity_between_backends"),
    "grammar smoke": ("test_emit", "test_grammar_smoke_checks"),
    # cli
    "stable output bytes": ("test_cli", "test_identical_invocations_identical_bytes"),
    "no input mutation": ("test_cli", "test_commands_do_not_mutate_input"),
}


def test_criterion_7_property_suites_exist():
    done = _timed(5.0)
    import importlib

    for label, (module_name, test_name) in PROPERTY_TESTS.items():
        module = importlib.import_module(module_name)
        assert hasattr(module, test_name), f"missing property test for {label}"
    done("criterion 7: property suites encoded as tests")


@pytest.mark.skipif(shutil.which("nuXmv") is None, reason="nuXmv not installed")
def test_criterion_8_nuxmv_loads_and_counts(tmp_path):
    done = _timed(60.0)
    fg = load_flow_graph("stee")
    sts = sts_of_flow_graph(fg)
    model_path = tmp_path / "stee.smv"
    model_path.write_text(emit_nuxmv(sts))
    script = tmp_path / "cmds"
    script.write_text("go\nprint_reachable_states\nquit\n")
    proc = subprocess.run(
        ["nuXmv", "-source", str(script), str(model_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    match = re.search(r"reachable states:\s*([\d]+)", proc.stdout.replace(",", ""))
    assert match, proc.stdout
    expected = len(execute_sts(sts).states)
    assert int(match.group(1)) == expected
    done("criterion 8: nuXmv load and state count")


@pytest.mark.skipif(shutil.which("tlc") is None, reason="TLC not installed")
def test_criterion_8_tlc_loads(tmp_path):
    done = _timed(60.0)
    fg = load_flow_graph("stee")
    module, config = emit_tla(sts_of_flow_graph(fg))
    (tmp_path / "stee.tla").write_text(module)
    (tmp_path / "stee.cfg").write_text(config)
    proc = subprocess.run(
        ["tlc", "-deadlock", "stee.tla"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    done("criterion 8: TLC load")
