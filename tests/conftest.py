from __future__ import annotations

from pathlib import Path

import pytest

from flowmc.flowgraph import FlowGraph, translate
from flowmc.ir import AnnotatedProgram
from flowmc.ir_text import parse_program

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.apg").read_text(encoding="utf-8")


def load_program(name: str) -> AnnotatedProgram:
    result = parse_program(fixture_text(name))
    assert result.program is not None, result.diagnostics
    assert result.diagnostics == [], result.diagnostics
    return result.program


def load_flow_graph(name: str) -> FlowGraph:
    return translate(load_program(name))


@pytest.fixture
def stee():
    return load_flow_graph("stee")


# Unbounded recursion: f toggles a global bool and may call itself, so
# every stack bound cuts the search.
TOGGLE_RECURSION = """\
program toggle
global b : bool
init !b
procedure main
  block b1
    point c : call f
    point r : return
    edge c -> r
    entry c
    exit r
procedure f
  block b1
    point t : b := !b
    point c : call f
    point r : return
    edge t -> c
    edge t -> r
    edge c -> r
    entry t
    exit r
"""


def load_text(text: str) -> FlowGraph:
    result = parse_program(text)
    assert result.program is not None and result.diagnostics == [], result.diagnostics
    return translate(result.program)
