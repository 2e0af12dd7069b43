"""The benchmark's tracer wraps flowmc's module attributes from outside.

These tests install it on flowmc and run commands through the CLI, so a
refactor that drops one of the wrapped names, or stops calling it through
the wrapped binding, fails here rather than only in a benchmark run.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from conftest import FIXTURES

from flowmc.cli import main

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracer_module, argv):
    """Run one CLI command under a freshly installed tracer; returns
    (exit code, stdout, the command's trace record)."""
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    patched = list(tracer._patches)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code, _ = tracer.run_command(argv[0], lambda: main(argv))
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    return code, out.getvalue(), tracer.commands[-1]


def test_check_counts_one_successors_call_per_expansion(tracer_module):
    argv = ["check", str(FIXTURES / "stee.apg"), "--invariant", "true"]
    code, out, command = _traced(tracer_module, argv)
    assert (code, out) == (0, "holds\n")
    # a holding check closes the space: it expands each of stee's 27
    # reachable configurations exactly once
    metrics = tracer_module.layer_metrics(command)
    assert command["stats"].get("pds.successors", [0])[0] == 27
    assert metrics["pds.expansions"] == metrics["pds.configs"] == 27
    assert metrics["pds.deadlocks"] == 4
    assert command["stats"].get("expr.eval_expr@pds", [0])[0] > 0


def test_crosscheck_calls_the_wrapped_sts_bindings(tracer_module):
    argv = ["crosscheck", str(FIXTURES / "stee.apg")]
    code, out, command = _traced(tracer_module, argv)
    assert (code, out) == (0, "equivalent\n")
    stats = command["stats"]
    for name in ("sts.pds_successors", "sts.sts_successors", "expr.eval_expr@sts",
                 "actions.enumerate_posts", "expr.eval_expr@actions"):
        assert stats.get(name, [0])[0] > 0, name


def test_back_to_back_checks_do_the_same_work(tracer_module):
    # step memos live on the InducedPds one command builds: a second run
    # in the same process must not find the first run's steps
    argv = ["check", str(FIXTURES / "recur.apg"), "--invariant", "true"]
    counts = []
    for _ in range(2):
        code, out, command = _traced(tracer_module, argv)
        assert (code, out) == (0, "holds\n")
        stats = command["stats"]
        counts.append([stats.get(name, [0])[0]
                       for name in ("expr.eval_expr@actions", "actions.enumerate_posts")])
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0
