"""Pinned search order: the exact discovery order, deadlocks and output of
the bounded searches on the reference fixtures.  Any change to the search
engine must reproduce these byte for byte."""

import contextlib
import io

from conftest import FIXTURES

from flowmc.cli import main
from flowmc.pds import explore, format_config, induce
from flowmc.sts import execute_sts, sts_of_flow_graph


STEE_VISITED = [
    "primary_ok=false sndary_active=false | (n_m1)",
    "primary_ok=true sndary_active=false | (n_m1)",
    "primary_ok=false sndary_active=false | (n_m2)",
    "primary_ok=true sndary_active=false | (n_m2)",
    "primary_ok=false sndary_active=false | (n_m4)",
    "primary_ok=true sndary_active=false | (n_m4)",
    "primary_ok=false sndary_active=false | (n_s1 primary_info=false sndary_info=false) (n_m3)",
    "primary_ok=true sndary_active=false | (n_s1 primary_info=false sndary_info=false) (n_m3)",
    "primary_ok=false sndary_active=false | (n_s2 primary_info=false sndary_info=false) (n_m3)",
    "primary_ok=true sndary_active=false | (n_s2 primary_info=true sndary_info=false) (n_m3)",
    "primary_ok=false sndary_active=false | (n_s3 primary_info=false sndary_info=true) (n_m3)",
    "primary_ok=true sndary_active=false | (n_s3 primary_info=true sndary_info=false) (n_m3)",
    "primary_ok=false sndary_active=true | (n_s4 primary_info=false sndary_info=true) (n_m3)",
    "primary_ok=true sndary_active=false | (n_s4 primary_info=true sndary_info=false) (n_m3)",
    "primary_ok=false sndary_active=true | (n_m3)",
    "primary_ok=true sndary_active=false | (n_m3)",
    "primary_ok=false sndary_active=true | (n_m1)",
    "primary_ok=false sndary_active=true | (n_m2)",
    "primary_ok=true sndary_active=true | (n_m2)",
    "primary_ok=false sndary_active=true | (n_m4)",
    "primary_ok=true sndary_active=true | (n_m4)",
    "primary_ok=false sndary_active=true | (n_s1 primary_info=false sndary_info=false) (n_m3)",
    "primary_ok=true sndary_active=true | (n_s1 primary_info=false sndary_info=false) (n_m3)",
    "primary_ok=false sndary_active=true | (n_s2 primary_info=false sndary_info=false) (n_m3)",
    "primary_ok=true sndary_active=true | (n_s2 primary_info=true sndary_info=false) (n_m3)",
    "primary_ok=false sndary_active=true | (n_s3 primary_info=false sndary_info=true) (n_m3)",
    "primary_ok=true sndary_active=true | (n_s3 primary_info=true sndary_info=false) (n_m3)",
]

STEE_DEADLOCKS = [
    "primary_ok=false sndary_active=false | (n_m4)",
    "primary_ok=true sndary_active=false | (n_m4)",
    "primary_ok=false sndary_active=true | (n_m4)",
    "primary_ok=true sndary_active=true | (n_m4)",
]

# node, then each stack slot as return-node:snapshot, then the scalars
# (primary_ok, sndary_active, steering__primary_info, steering__sndary_info)
# as bits
STEE_STS_STATES = [
    "n_m1 0000",
    "n_m1 1000",
    "n_m2 0000",
    "n_m2 1000",
    "n_m4 0000",
    "n_m4 1000",
    "n_s1 n_m3:00 0000",
    "n_s1 n_m3:00 1000",
    "n_s2 n_m3:00 0000",
    "n_s2 n_m3:00 1010",
    "n_s3 n_m3:00 0001",
    "n_s3 n_m3:00 1010",
    "n_s4 n_m3:00 0101",
    "n_s4 n_m3:00 1010",
    "n_m3 0100",
    "n_m3 1000",
    "n_m1 0100",
    "n_m2 0100",
    "n_m2 1100",
    "n_m4 0100",
    "n_m4 1100",
    "n_s1 n_m3:00 0100",
    "n_s1 n_m3:00 1100",
    "n_s2 n_m3:00 0100",
    "n_s2 n_m3:00 1110",
    "n_s3 n_m3:00 0101",
    "n_s3 n_m3:00 1110",
]

STEE_STS_DEADLOCKS = [
    ("n_m4 0000", "no-enabled-action"),
    ("n_m4 1000", "no-enabled-action"),
    ("n_m4 0100", "no-enabled-action"),
    ("n_m4 1100", "no-enabled-action"),
]

MODE_VIOLATION = """\
violated
0 | inp=false mode=0 | (n_m1)
1 | inp=false mode=0 | (n_m2)
2 | inp=false mode=0 | (n_s1 primary_info=false sndary_info=false) (n_m3)
3 | inp=false mode=0 | (n_s2 primary_info=false sndary_info=false) (n_m3)
4 | inp=false mode=0 | (n_s3 primary_info=false sndary_info=true) (n_m3)
5 | inp=false mode=2 | (n_s4 primary_info=false sndary_info=true) (n_m3)
"""


def _bits(values) -> str:
    return "".join("1" if v else "0" for v in values)


def _sts_line(state) -> str:
    slots = [f"{node}:{_bits(snapshot)}" for node, snapshot in state.stack]
    return " ".join([state.node, *slots, _bits(v for _, v in state.scalars)])


def test_explore_stee_order(stee):
    report = explore(induce(stee))
    assert [format_config(c) for c in report.visited] == STEE_VISITED
    assert [format_config(c) for c in report.deadlocks] == STEE_DEADLOCKS
    assert report.max_stack_depth == 2
    assert not report.truncated


def test_execute_sts_stee_order(stee):
    report = execute_sts(sts_of_flow_graph(stee))
    assert [_sts_line(s) for s in report.states] == STEE_STS_STATES
    assert [(_sts_line(s), cause) for s, cause in report.deadlocks] == STEE_STS_DEADLOCKS
    assert not report.truncated


def test_check_mode_violation_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(FIXTURES / "mode.apg"), "--invariant", "mode != 2"])
    assert code == 1
    assert out.getvalue() == MODE_VIOLATION
