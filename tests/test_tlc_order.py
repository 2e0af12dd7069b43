"""Emitted TLA+ actions respect TLC's left-to-right evaluation.

TLC computes an action's next states by evaluating its conjuncts in
order: ``x' = e``, ``x' \\in S`` and ``UNCHANGED`` give a primed variable
its value, and reading a primed variable before that is an error.  The
scan below applies that rule to the emitted text, over the goldens, the
generated programs and the benchmark workloads.
"""

import re
from pathlib import Path

import pytest

from conftest import GOLDEN

from genprog import random_program

from flowmc.emit import emit_tla
from flowmc.flowgraph import translate
from flowmc.ir_text import parse_program
from flowmc.sts import sts_of_flow_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_PRIMED = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)'")
_ASSIGN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)' (?:=|\\in) (.*)")


def out_of_order_reads(module: str) -> list[str]:
    """The conjuncts, as ``action: conjunct``, that read a primed variable
    no earlier conjunct of their action has assigned."""
    found = []
    action, assigned = None, set()
    for line in module.splitlines():
        if line.endswith(" =="):
            action, assigned = line[:-3], set()
        elif action is not None and line.startswith("  /\\ "):
            part = line[len("  /\\ "):]
            if part.startswith("UNCHANGED <<"):
                assigned.update(part[len("UNCHANGED <<"):-2].split(", "))
                continue
            assignment = _ASSIGN.fullmatch(part)
            reads = assignment.group(2) if assignment else part
            if set(_PRIMED.findall(reads)) - assigned:
                found.append(f"{action}: {part}")
            if assignment:
                assigned.add(assignment.group(1))
        else:
            action = None
    return found


def test_the_scan_flags_a_read_before_its_assignment():
    module = (
        "a ==\n  /\\ x' = y'\n  /\\ y' \\in BOOLEAN\n\n"
        "b ==\n  /\\ y' \\in BOOLEAN\n  /\\ x' = y'\n  /\\ UNCHANGED <<z>>\n  /\\ z' = z\n\n"
        "c ==\n  /\\ ~x'\n  /\\ UNCHANGED <<x>>\n"
    )
    assert out_of_order_reads(module) == ["a: x' = y'", "c: ~x'"]


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.tla")), ids=lambda p: p.stem)
def test_goldens_assign_before_they_read(golden):
    assert out_of_order_reads(golden.read_text(encoding="utf-8")) == []


def test_generated_programs_assign_before_they_read():
    found = {}
    for seed in range(200):
        module, _ = emit_tla(sts_of_flow_graph(translate(random_program(seed))))
        if reads := out_of_order_reads(module):
            found[seed] = reads
    assert found == {}


@pytest.mark.parametrize("name", ["havoc_loop", "deep_recursion", "wide_emit"])
def test_benchmark_workloads_assign_before_they_read(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.GENERATORS[name](1, workloads.FULL[name], "in.apg", "out")
    fg = translate(parse_program(workload.source).program)
    module, _ = emit_tla(sts_of_flow_graph(fg, stack_capacity=workload.stack_capacity))
    assert out_of_order_reads(module) == []
