"""CLI behaviour: exit codes, output stability, no input mutation."""

import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, TOGGLE_RECURSION

from flowmc.cli import main
from flowmc.sts import MUTATIONS


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fx(name: str) -> str:
    return str(FIXTURES / f"{name}.apg")


def write_program(tmp_path, name: str, text: str) -> str:
    path = tmp_path / f"{name}.apg"
    path.write_text(text)
    return str(path)


def test_validate_ok():
    code, out, err = run_cli("validate", fx("stee"))
    assert code == 0
    assert "ok" in out


def test_validate_missing_file():
    code, _, err = run_cli("validate", "no_such_file.apg")
    assert code == 2
    assert "cannot read" in err


def test_validate_broken_fixture(tmp_path):
    bad = tmp_path / "broken.apg"
    bad.write_text(
        "program broken\nprocedure main\n  block b1\n"
        "    point j : jump nowhere\n    entry j\n    exit j\n"
    )
    code, _, err = run_cli("validate", str(bad))
    assert code == 1
    assert "DanglingReference" in err


def test_validate_syntax_error(tmp_path):
    bad = tmp_path / "bad.apg"
    bad.write_text("??? what\n")
    code, _, err = run_cli("validate", str(bad))
    assert code == 2
    assert "SyntaxError" in err


def test_abstract_summary_stee():
    code, out, _ = run_cli("abstract", fx("stee"))
    assert code == 0
    assert out.strip() == "main: 4 nodes, 5 edges; steering: 4 nodes, 3 edges"


def test_abstract_summary_minimal():
    code, out, _ = run_cli("abstract", fx("minimal"))
    assert code == 0
    assert out.strip() == "main: 1 node, 1 edge"


def test_abstract_cyclic_jump_fixture():
    code, _, err = run_cli("abstract", fx("cyclic"))
    assert code == 1
    assert "CyclicUnannotatedJumps" in err


def test_check_trivial_invariant_holds():
    code, out, _ = run_cli("check", fx("stee"), "--invariant", "true")
    assert code == 0
    assert out.strip() == "holds"


def test_check_mode_violation_trace():
    code, out, _ = run_cli("check", fx("mode"), "--invariant", "mode != 2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "violated"
    assert len(lines) == 7  # verdict plus six configurations (five steps)
    assert lines[1].startswith("0 | ")
    assert "(n_m1)" in lines[1]
    assert "mode=2" in lines[6]


def test_check_truncation_is_inconclusive():
    code, out, _ = run_cli("check", fx("stee"), "--invariant", "true", "--max-steps", "3")
    assert code == 3
    assert "inconclusive" in out


def test_check_rejects_local_variables():
    code, _, err = run_cli("check", fx("stee"), "--invariant", "primary_info")
    assert code == 2
    assert "invariant" in err


@pytest.mark.parametrize("invariant", ["mode + 1", "mode"])
def test_check_rejects_a_non_boolean_invariant(invariant):
    code, out, err = run_cli("check", fx("mode"), "--invariant", invariant)
    assert code == 2
    assert out == ""
    assert "invariant must be boolean, got int" in err


@pytest.mark.parametrize("command,flag", [("check", "--stack-capacity"),
                                          ("emit", "--max-steps"),
                                          ("emit", "--max-stack")])
def test_bounds_a_command_does_not_read_are_rejected(tmp_path, command, flag):
    if command == "check":
        args = ["--invariant", "true"]
    else:
        args = ["--backend", "tla", "--out", str(tmp_path)]
    code, _, err = run_cli(command, fx("stee"), *args, flag, "3")
    assert code == 2
    assert f"unrecognized arguments: {flag} 3" in err
    assert not list(tmp_path.iterdir())


def test_emit_nuxmv(tmp_path):
    code, out, _ = run_cli("emit", fx("stee"), "--backend", "nuxmv", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "stee.smv").exists()
    assert "wrote" in out


def test_emit_tla_writes_module_and_cfg(tmp_path):
    code, out, _ = run_cli("emit", fx("stee"), "--backend", "tla", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "stee.tla").exists()
    assert (tmp_path / "stee.cfg").exists()


def test_emit_tla_unbounded_domain(tmp_path):
    code, _, err = run_cli("emit", fx("unbounded"), "--backend", "tla", "--out", str(tmp_path))
    assert code == 1
    assert "unbounded" in err


def test_emit_nuxmv_accepts_unbounded(tmp_path):
    code, _, _ = run_cli("emit", fx("unbounded"), "--backend", "nuxmv", "--out", str(tmp_path))
    assert code == 0
    assert "integer" in (tmp_path / "unbounded.smv").read_text()


def test_emit_dot(tmp_path):
    code, _, _ = run_cli("emit", fx("stee"), "--backend", "dot", "--out", str(tmp_path))
    assert code == 0
    assert "digraph stee" in (tmp_path / "stee.dot").read_text()


@pytest.mark.parametrize("name", ["stee", "minimal", "callret", "guarded"])
def test_crosscheck_equivalent(name):
    code, out, _ = run_cli("crosscheck", fx(name))
    assert code == 0
    assert out.strip() == "equivalent"


@pytest.mark.parametrize(
    "kind", ["negate-guard", "drop-frame", "swap-push", "drop-return-test", "wrong-init"]
)
def test_crosscheck_mutations_divergent(kind):
    code, out, _ = run_cli("crosscheck", fx("stee"), "--mutate", kind)
    assert code == 1
    assert out.startswith("divergent")


def test_crosscheck_truncation_is_inconclusive():
    # stee has 27 reachable configurations; three expansions close neither
    # search, so a comparison of the partial frontiers would mean nothing
    code, out, _ = run_cli("crosscheck", fx("stee"), "--max-steps", "3")
    assert code == 3
    assert out.strip() == "inconclusive: bound hit before closing the state space"


def test_crosscheck_reports_a_wrong_init_as_differing_initial_states():
    code, out, _ = run_cli("crosscheck", fx("stee"), "--mutate", "wrong-init")
    assert code == 1
    assert out.splitlines()[0] == "divergent: initial states differ"


@pytest.mark.parametrize("kind, expected", [("swap-push", 1), ("drop-return-test", 3)])
def test_crosscheck_reports_a_difference_found_before_the_bound(kind, expected):
    # swap-push diverges within three expansions of recur's one search;
    # drop-return-test needs more, so the bound stops that search first
    code, out, _ = run_cli("crosscheck", fx("recur"), "--mutate", kind, "--max-steps", "3")
    assert code == expected
    assert out.startswith("divergent: " if expected == 1 else "inconclusive: ")


def test_identical_invocations_identical_bytes():
    first = run_cli("check", fx("mode"), "--invariant", "mode != 2")
    second = run_cli("check", fx("mode"), "--invariant", "mode != 2")
    assert first == second


def test_commands_do_not_mutate_input(tmp_path):
    source = Path(fx("stee")).read_bytes()
    copy = tmp_path / "stee.apg"
    copy.write_bytes(source)
    run_cli("validate", str(copy))
    run_cli("abstract", str(copy))
    run_cli("check", str(copy), "--invariant", "true")
    run_cli("emit", str(copy), "--backend", "nuxmv", "--out", str(tmp_path))
    run_cli("crosscheck", str(copy))
    assert copy.read_bytes() == source


def test_check_unbounded_domain_is_a_usage_error():
    code, _, err = run_cli("check", fx("unbounded"), "--invariant", "c >= 0")
    assert code == 2
    assert "unbounded" in err


def test_crosscheck_unbounded_domain_is_a_usage_error():
    code, _, err = run_cli("crosscheck", fx("unbounded"))
    assert code == 2
    assert "unbounded" in err


@pytest.mark.parametrize("command,flag,value", [("check", "--max-steps", "0"),
                                                ("check", "--max-steps", "-5"),
                                                ("check", "--max-stack", "0"),
                                                ("emit", "--stack-capacity", "0"),
                                                ("crosscheck", "--max-steps", "0"),
                                                ("crosscheck", "--stack-capacity", "0")])
def test_bounds_below_one_are_usage_errors(tmp_path, command, flag, value):
    args = {"check": ["--invariant", "true"],
            "emit": ["--backend", "tla", "--out", str(tmp_path)],
            "crosscheck": []}[command]
    code, out, err = run_cli(command, fx("stee"), *args, flag, value)
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["check", "crosscheck"])
def test_an_evaluation_error_is_a_failure(tmp_path, command):
    inp = write_program(tmp_path, "dz", (
        "program dz\nglobal x : int 0..2\nglobal y : int 0..2\ninit x == 0 && y == 0\n"
        "procedure main\n  block b1\n    point a : y := 1 / x\n    point r : return\n"
        "    edge a -> r\n    entry a\n    exit r\n"
    ))
    argv = ["--invariant", "true"] if command == "check" else []
    code, out, err = run_cli(command, inp, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: division by zero\n"


def test_emit_to_an_unwritable_out_is_a_usage_error(tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    code, out, err = run_cli("emit", fx("stee"), "--backend", "tla", "--out", str(blocker))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["emit", "crosscheck"])
def test_an_sts_name_clash_fails_from_every_command(tmp_path, command):
    inp = write_program(tmp_path, "clash", (
        "program clash\nglobal p__x : bool\ninit !p__x\n"
        "procedure main\n  block b1\n    point c : call p\n    point r : return\n"
        "    edge c -> r\n    entry c\n    exit r\n"
        "procedure p\n  local x : bool = false\n  block b1\n    point r : return\n"
        "    entry r\n    exit r\n"
    ))
    argv = ["--backend", "tla", "--out", str(tmp_path)] if command == "emit" else []
    code, out, err = run_cli(command, inp, *argv)
    assert code == 1
    assert out == ""
    assert "mangled name 'p__x' collides with another variable" in err


@pytest.mark.parametrize("name", ["EXTENDS", "CONSTANT", "IF", "CHOOSE", "Nat", "WF_x"])
def test_emit_tla_rejects_a_variable_named_like_a_keyword(tmp_path, name):
    inp = write_program(tmp_path, "kw", (
        f"program kw\nglobal {name} : bool\ninit !{name}\n"
        "procedure main\n  block b1\n    point r : return\n    entry r\n    exit r\n"
    ))
    code, out, err = run_cli("emit", inp, "--backend", "tla", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert f"variable '{name}' collides with a reserved TLA+ identifier" in err


@pytest.mark.parametrize("backend, program, var, message", [
    ("nuxmv", "kw", "X", "variable 'X' collides with a reserved nuXmv identifier"),
    ("nuxmv", "kw", "AG", "variable 'AG' collides with a reserved nuXmv identifier"),
    ("nuxmv", "kw", "xor", "variable 'xor' collides with a reserved nuXmv identifier"),
    ("tla", "IF", "x", "module name 'IF' is a reserved word"),
    ("dot", "node", "x", "module name 'node' is a reserved word"),
    ("dot", "Digraph", "x", "module name 'Digraph' is a reserved word"),
])
def test_emit_rejects_a_reserved_name(tmp_path, backend, program, var, message):
    inp = write_program(tmp_path, "kw", (
        f"program {program}\nglobal {var} : bool\ninit !{var}\n"
        "procedure main\n  block b1\n    point r : return\n    entry r\n    exit r\n"
    ))
    code, out, err = run_cli("emit", inp, "--backend", backend, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "kw.apg"]


@pytest.mark.parametrize("capacity", [None, 1, 2, 3])
def test_crosscheck_compares_the_stacks_the_models_hold(tmp_path, capacity):
    # every stack bound cuts this recursion, so a search that goes deeper
    # than the comparison keeps would report a divergence
    inp = write_program(tmp_path, "toggle", TOGGLE_RECURSION)
    argv = [] if capacity is None else ["--stack-capacity", str(capacity)]
    assert run_cli("crosscheck", inp, *argv) == (0, "equivalent\n", "")
    code, out, _ = run_cli("check", inp, "--invariant", "true")
    assert (code, out) == (3, "inconclusive: bound hit before closing the state space\n")


@pytest.mark.parametrize("program, capacity", [("toggle", "10"), ("toggle", "2"), ("recur", "2")])
def test_crosscheck_catches_every_mutation_at_the_capacity(tmp_path, program, capacity):
    # recur's recursion reaches capacity 2, which the search cuts
    inp = write_program(tmp_path, "toggle", TOGGLE_RECURSION) if program == "toggle" else fx(program)
    argv = ("crosscheck", inp, "--stack-capacity", capacity)
    assert run_cli(*argv) == (0, "equivalent\n", "")
    caught = 0
    for kind in MUTATIONS:
        code, out, err = run_cli(*argv, "--mutate", kind)
        if code == 2:  # the program has no site for this fault
            assert err.startswith("error: no ")
            continue
        assert code == 1 and out.startswith("divergent: "), kind
        caught += 1
    assert caught >= 3


def test_crosscheck_a_mutation_without_a_site_is_a_usage_error():
    code, out, err = run_cli("crosscheck", fx("minimal"), "--mutate", "swap-push")
    assert code == 2
    assert out == ""
    assert err == "error: no call action to mutate\n"


def test_the_module_entry_point_returns_the_usage_exit_code():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "flowmc.cli", "check", fx("stee"), "--invariant", "true",
         "--bogus"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --bogus" in proc.stderr
    assert "Traceback" not in proc.stderr


# main calls a, a calls b: the program needs 2 saved frames
NEST = """\
program nest
global x : bool
init !x
procedure main
  block b1
    point c : call a
    point r : return
    edge c -> r
    entry c
    exit r
procedure a
  block b1
    point c : call b
    point r : return
    edge c -> r
    entry c
    exit r
procedure b
  block b1
    point t : x := true
    point r : return
    edge t -> r
    entry t
    exit r
"""


@pytest.mark.parametrize("backend", ["tla", "nuxmv"])
def test_both_backends_reject_a_capacity_below_the_call_depth(tmp_path, backend):
    inp = write_program(tmp_path, "nest", NEST)
    out_dir = tmp_path / "out"
    argv = ("emit", inp, "--backend", backend, "--out", str(out_dir), "--stack-capacity")
    assert run_cli(*argv, "1") == (1, "", "error: call depth 2 exceeds the stack capacity 1\n")
    assert not out_dir.exists()
    code, _, _ = run_cli(*argv, "2")
    assert code == 0
