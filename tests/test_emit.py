"""Model emission: golden stability, determinism, parity, smoke checks."""

import dataclasses

import pytest

from conftest import GOLDEN, load_flow_graph, load_text
from genprog import wide_program

from flowmc.emit import (
    CapacityTooSmallError,
    EmitError,
    EmitterOptions,
    UnboundedDomainError,
    check_nuxmv_text,
    check_tla_text,
    emit_dot,
    emit_nuxmv,
    emit_tla,
    normalize_emitted,
    scan_nuxmv_structure,
    scan_tla_structure,
    static_call_depth,
)
from flowmc.flowgraph import translate
from flowmc.sts import MUTATIONS, mutate_sts, sts_of_flow_graph

FINITE = ["stee", "minimal", "callret", "guarded", "mode", "mode_safe",
          "boolcall", "smallguard", "two_bools", "twocalls"]


def _golden(name: str, suffix: str) -> str:
    return (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", FINITE)
def test_tla_matches_golden(name):
    sts = sts_of_flow_graph(load_flow_graph(name))
    module, config = emit_tla(sts, EmitterOptions(source_digest="abc"))
    assert normalize_emitted(module) == normalize_emitted(_golden(name, "tla"))
    assert config == _golden(name, "cfg")


@pytest.mark.parametrize("name", FINITE + ["unbounded"])
def test_nuxmv_matches_golden(name):
    sts = sts_of_flow_graph(load_flow_graph(name))
    model = emit_nuxmv(sts, EmitterOptions(source_digest="abc"))
    assert normalize_emitted(model) == normalize_emitted(_golden(name, "smv"))


@pytest.mark.parametrize("name", FINITE + ["unbounded"])
def test_dot_matches_golden(name):
    dot = emit_dot(load_flow_graph(name), EmitterOptions(source_digest="abc"))
    assert normalize_emitted(dot) == normalize_emitted(_golden(name, "dot"))


def test_emitters_are_byte_deterministic(stee):
    sts = sts_of_flow_graph(stee)
    assert emit_tla(sts) == emit_tla(sts)
    assert emit_nuxmv(sts) == emit_nuxmv(sts)
    assert emit_dot(stee) == emit_dot(stee)


def test_header_normalization_strips_version_lines(stee):
    sts = sts_of_flow_graph(stee)
    a = emit_nuxmv(sts, EmitterOptions(source_digest="a" * 64))
    b = emit_nuxmv(sts, EmitterOptions(source_digest="b" * 64))
    assert a != b
    assert normalize_emitted(a) == normalize_emitted(b)


@pytest.mark.parametrize("name", FINITE)
def test_structural_parity_between_backends(name):
    sts = sts_of_flow_graph(load_flow_graph(name))
    module, _ = emit_tla(sts)
    model = emit_nuxmv(sts)
    assert scan_tla_structure(module) == scan_nuxmv_structure(model)


@pytest.mark.parametrize("kind", MUTATIONS)
def test_mutated_sts_emits_its_fault_in_checked_text(stee, kind):
    # a mutated STS is an ordinary one: both emitters print the fault
    sts = sts_of_flow_graph(stee)
    mutated = mutate_sts(sts, kind)
    module, _ = emit_tla(mutated)
    model = emit_nuxmv(mutated)
    assert module != emit_tla(sts)[0] and model != emit_nuxmv(sts)
    check_tla_text(module)
    check_nuxmv_text(model)
    scanned = scan_tla_structure(module)
    assert scanned == scan_nuxmv_structure(model)
    source = "*" if kind == "drop-return-test" else "n_s4"
    assert scanned["s4_return"] == (source, None, "pop", None)


def test_parity_inventory_matches_sts(stee):
    sts = sts_of_flow_graph(stee)
    module, _ = emit_tla(sts)
    scanned = scan_tla_structure(module)
    assert set(scanned) == {a.name for a in sts.actions}
    assert scanned["m2_call_steering"] == ("n_m2", "n_s1", "push", "n_m3")
    assert scanned["s4_return"] == ("n_s4", None, "pop", None)
    assert scanned["m1_to_m2"] == ("n_m1", "n_m2", "none", None)


@pytest.mark.parametrize("name", FINITE)
def test_grammar_smoke_checks(name):
    sts = sts_of_flow_graph(load_flow_graph(name))
    module, _ = emit_tla(sts)
    check_tla_text(module)
    check_nuxmv_text(emit_nuxmv(sts))


def test_unbounded_domain_rejected_by_tla_only():
    fg = load_flow_graph("unbounded")
    sts = sts_of_flow_graph(fg)
    with pytest.raises(UnboundedDomainError):
        emit_tla(sts)
    model = emit_nuxmv(sts)
    assert "c : integer;" in model


def test_capacity_too_small_is_static():
    fg = load_flow_graph("callret")
    sts = sts_of_flow_graph(fg, stack_capacity=1)
    assert static_call_depth(sts) == 1
    emit_nuxmv(sts)  # depth 1 fits capacity 1
    # force an impossible capacity without rebuilding the flow graph
    cramped = dataclasses.replace(sts, stack_capacity=0)
    with pytest.raises(CapacityTooSmallError):
        emit_nuxmv(cramped)


def test_dot_shape(stee):
    dot = emit_dot(stee)
    assert dot.count("subgraph cluster_") == 2
    assert dot.count("[label=\"n_") == 8
    assert '"n_m2" -> "n_m3" [label="steering"];' in dot
    assert '"n_m1" [label="n_m1\\ncontract havocInput", penwidth=2];' in dot


def test_dot_empty_graph():
    fg = load_flow_graph("minimal")
    empty = dataclasses.replace(fg, procedures={})
    dot = emit_dot(empty)
    assert dot.strip().endswith("}")
    assert "subgraph" not in dot


def test_bad_module_name_rejected(stee):
    sts = sts_of_flow_graph(stee)
    with pytest.raises(EmitError):
        emit_tla(dataclasses.replace(sts, module_name="not a name"))


def test_smoke_check_catches_undeclared(stee):
    sts = sts_of_flow_graph(stee)
    module, _ = emit_tla(sts)
    broken = module.replace("m4_stutter ==", "m4_stutterX ==", 1)
    with pytest.raises(EmitError):
        check_tla_text(broken)


@pytest.mark.parametrize("program, var, rejected_by", [
    pytest.param("clash", "node", {"tla", "nuxmv"}, id="node"),
    *[pytest.param("clash", var, {"tla"}, id=var)
      for var in ("IF", "CHOOSE", "LET", "Nat", "Seq", "LAMBDA", "STRING")],
    # both backends keep the prefixes of the names they generate
    *[pytest.param("clash", var, {"tla", "nuxmv"}, id=var) for var in ("WF_x", "SF_x", "st_x")],
    *[pytest.param("clash", var, {"nuxmv"}, id=var)
      for var in ("X", "AG", "EBF", "xor", "abs", "word1", "INVARSPEC",
                  "stack_save", "stack_restore")],
    pytest.param("IF", "x", {"tla"}, id="program-IF"),
    pytest.param("Nat", "x", {"tla"}, id="program-Nat"),
    pytest.param("Integers", "x", {"tla"}, id="program-Integers"),
    pytest.param("node", "x", {"dot"}, id="program-node"),
    pytest.param("SubGraph", "x", {"dot"}, id="program-SubGraph"),
    # the nuXmv model names its program only in a comment
    pytest.param("xor", "x", set(), id="program-xor"),
])
def test_reserved_variable_names_are_rejected(program, var, rejected_by):
    fg = load_text(
        f"program {program}\nglobal {var} : bool\n"
        "procedure main\n  block b1\n    point r : return\n    entry r\n    exit r\n"
    )
    sts = sts_of_flow_graph(fg)
    emitters = {
        "tla": lambda: check_tla_text(emit_tla(sts)[0]),
        "nuxmv": lambda: check_nuxmv_text(emit_nuxmv(sts)),
        "dot": lambda: emit_dot(fg),
    }
    for backend, emit in emitters.items():
        if backend in rejected_by:
            with pytest.raises(EmitError, match="reserved"):
                emit()
        else:
            emit()


def test_smv_keyword_variable_rejected_for_nuxmv_only():
    text = """
program clash2
global esac : bool
procedure main
  block b1
    point r : return
    entry r
    exit r
"""
    from flowmc.ir_text import parse_program
    from flowmc.flowgraph import translate

    result = parse_program(text)
    sts = sts_of_flow_graph(translate(result.program))
    emit_tla(sts)  # fine in TLA+
    with pytest.raises(EmitError):
        emit_nuxmv(sts)


# ---------------------------------------------------------------------------
# Shared stack clauses


_SHARED = ("stack_save", "stack_restore")


def _inline_shared(text: str) -> str:
    """``text`` with each conjunct that names a shared stack DEFINE
    replaced by that DEFINE's right-hand side, and the DEFINE dropped."""
    bodies: dict[str, str] = {}
    kept: list[str] = []
    for line in text.splitlines():
        name, _, body = line[2:].partition(" := ")
        if name in _SHARED:
            bodies[name] = body[:-1]
        else:
            kept.append(line)
    out = []
    for line in kept:
        head, sep, body = line.partition(" := ")
        if sep:
            parts = body[:-1].split(" & ")
            line = f"{head} := {' & '.join(bodies.get(part, part) for part in parts)};"
        out.append(line)
    return "\n".join(out) + "\n"


def test_shared_stack_clauses_inline_to_the_unshared_model():
    sts = sts_of_flow_graph(load_flow_graph("twocalls"))
    model = emit_nuxmv(sts)
    assert "\n  stack_save := " in model and "\n  stack_restore := " in model
    # the model as it was emitted before the clauses were shared
    unshared = (GOLDEN / "twocalls_inlined.smv").read_text(encoding="utf-8")
    assert normalize_emitted(_inline_shared(model)) == normalize_emitted(unshared)


@pytest.mark.parametrize("seed", range(5))
def test_wide_models_inline_to_checked_text(seed):
    model = emit_nuxmv(sts_of_flow_graph(translate(wide_program(seed, 6))))
    inlined = _inline_shared(model)
    assert inlined != model
    check_nuxmv_text(inlined)
    assert scan_nuxmv_structure(inlined) == scan_nuxmv_structure(model)


def test_wide_model_writes_each_stack_clause_once():
    sts = sts_of_flow_graph(translate(wide_program(1, 12)))
    model = emit_nuxmv(sts)
    assert sum(action.kind == "call" for action in sts.actions) > 1
    assert sum(action.kind == "return" for action in sts.actions) > 1
    for local in sts.locals_order:
        assert model.count(f"next(st_{local}_0) = (case depth = 0 : {local};") == 1
        assert model.count(f"depth = 1 : st_{local}_0;") == 1
