"""Seeded generators for the benchmark workloads, with their expected answers.

Each generator returns a :class:`Workload`: the ``.apg`` source, the
commands a user would run on it, and for every command the exit code and
verdict line that follow from how the program was built.  The expected
answers are derived from the construction below, never from flowmc.

The seed picks names, statement order and guard constants.  It never
changes the size parameters, and every seeded choice is made so that the
number of reachable configurations stays the same, so timings from
different seeds are comparable.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Callable, Optional

# Size parameters of the full-size runs; the self-test uses ``TINY``.
FULL = {"havoc_loop": 5, "deep_recursion": 9, "wide_emit": 120}
TINY = {"havoc_loop": 2, "deep_recursion": 3, "wide_emit": 8}

WHY = {
    "havoc_loop": "every action writes its whole frame, so post-state "
    "enumeration in actions/expr dominates check and crosscheck",
    "deep_recursion": "self-recursion with a havocked bool local: many "
    "configurations, deep stacks, narrow frames; stresses pds and sts",
    "wide_emit": "about 120 procedures with small state spaces: parse, "
    "translate and the emitters dominate",
}


@dataclass(frozen=True)
class Command:
    """One flowmc invocation and the answer its construction implies."""

    name: str                      # metric stem: abstract, check, cex, ...
    argv: tuple[str, ...]          # arguments after ``flowmc``
    exit_code: int
    verdict: str                   # expected first line of stdout
    # a known defect: the exit code and verdict line flowmc prints instead
    known_defect: Optional[tuple[int, str]] = None


@dataclass
class Workload:
    name: str
    size: int
    source: str
    program: str                   # the program name, which names the emitted files
    procedures: tuple[str, ...]    # procedures that survive abstraction, in order
    hold: str                      # an invariant that holds by construction
    violated: str                  # an invariant violated by construction
    # evaluates the violated invariant on a trace state (globals by name)
    violated_at: Callable[[dict], bool]
    stack_capacity: int = 10
    commands: list[Command] = field(default_factory=list)


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """``count`` distinct identifiers with seeded letters.  The running
    number in front keeps their sorted order fixed: flowmc enumerates
    variables in name order, and evaluation cost depends on that order.
    The underscore keeps them clear of reserved words and of the names
    the emitters reserve."""
    width = len(str(count - 1))
    return [f"{prefix}{i:0{width}d}_" + "".join(rng.choice(string.ascii_lowercase)
                                                 for _ in range(3))
            for i in range(count)]


def _commands(w: Workload, inp: str, out_dir: str,
              crosscheck_defect: Optional[tuple[int, str]] = None) -> None:
    cap = ("--stack-capacity", str(w.stack_capacity))
    out = f"{out_dir}/{w.program}"
    w.commands = [
        # abstract's verdict is the procedures its summary line lists
        Command("abstract", ("abstract", inp), 0, "; ".join(w.procedures)),
        Command("check", ("check", inp, "--invariant", w.hold), 0, "holds"),
        Command("cex", ("check", inp, "--invariant", w.violated), 1, "violated"),
        Command("crosscheck", ("crosscheck", inp) + cap, 0, "equivalent",
                known_defect=crosscheck_defect),
        Command("emit_tla", ("emit", inp, "--backend", "tla", "--out", out_dir) + cap,
                0, f"wrote {out}.tla"),
        Command("emit_nuxmv", ("emit", inp, "--backend", "nuxmv", "--out", out_dir) + cap,
                0, f"wrote {out}.smv"),
        Command("emit_dot", ("emit", inp, "--backend", "dot", "--out", out_dir),
                0, f"wrote {out}.dot"),
    ]


# ---------------------------------------------------------------------------
# havoc_loop


def havoc_loop(seed: int, k: int, inp: str, out_dir: str) -> Workload:
    """Globals ``a, b, c : int 0..k`` and ``f : bool``.  main loops forever:
    a contract havocs ``c, f`` with ``f == (c <= g)``, then an unannotated
    callee copies ``c`` into its local ``t`` and sets ``a := t`` and
    ``b := k - t``.  A guard on ``t`` against the seeded constant ``g``
    picks the order of the two assignments; both paths have the same
    length, so ``g`` moves no configuration count.

    Holds: ``f == (c <= g)``, since only the contract writes ``c``/``f``
    and the initial ``c == k`` exceeds ``g``.  Violated: ``a + b != k``.
    ``a`` and ``b`` start at 0 and each path makes ``a + b == k`` only
    with its second assignment, so every counterexample has the same
    length and the search stops at the same point whatever ``g`` is.
    """
    rng = random.Random(seed)
    a, b, c, f, t = _names(rng, "v", 5)
    prog, main, hv, wk = _names(rng, "p", 4)
    g = rng.randint(1, k - 1) if k > 1 else 0
    src = f"""\
program {prog}

global {a} : int 0..{k}
global {b} : int 0..{k}
global {c} : int 0..{k}
global {f} : bool
init {a} == 0 && {b} == 0 && {c} == {k} && !{f}
main {main}

procedure {main}
  block lp
    point j1 : jump body
    entry j1
    exit j1
  block body
    point h : call {hv}
    point s : call {wk}
    point w : jump body
    point r : return
    edge h -> s when 1 != 0
    edge h -> r when 1 == 0
    edge s -> w
    entry h
    exit r

procedure {hv}
  block bh contract requires true ensures {f} == ({c} <= {g}) assigns {c}, {f}
    point r : return
    entry r
    exit r

procedure {wk}
  local {t} : int 0..{k} = 0
  block bw
    point x : {t} := {c}
    point p1 : {a} := {t}
    point p2 : {b} := {k} - {t}
    point q1 : {b} := {k} - {t}
    point q2 : {a} := {t}
    point r : return
    edge x -> p1 when {t} <= {g}
    edge x -> q1 when {t} > {g}
    edge p1 -> p2
    edge q1 -> q2
    edge p2 -> r
    edge q2 -> r
    entry x
    exit r
"""
    w = Workload(
        name="havoc_loop", size=k, source=src, program=prog,
        procedures=(main, wk),
        hold=f"{f} == ({c} <= {g})",
        violated=f"{a} + {b} != {k}",
        violated_at=lambda s: s[a] + s[b] == k,
    )
    _commands(w, inp, out_dir)
    return w


# ---------------------------------------------------------------------------
# deep_recursion

# the defect the seed has for a self-recursive call whose caller's local
# was havocked before the call (see README.md)
DEEP_RECURSION_DEFECT = (1, "divergent: configuration unreachable in the STS")


def deep_recursion(seed: int, d: int, inp: str, out_dir: str) -> Workload:
    """A global counter ``n : int 0..d`` starts at ``d``; ``m : bool``
    starts false.  main calls ``down`` once.  ``down`` has a bool local
    ``b``, which a contract havocs first.  While ``n > 0`` it decrements
    ``n``, copies ``b`` into ``m`` and calls itself; at ``n == 0`` it only
    copies ``b`` into ``m``.  The deepest stack holds main and ``d + 1``
    frames of ``down``, so ``--stack-capacity`` is ``d + 2``.

    Holds: ``!(n == d && m)``, since ``m`` is written only after ``n`` has
    left ``d``, and ``n`` never grows.  Violated: ``!(n == 0 && m)``, once
    ``n`` reaches 0 in a frame whose havoc picked ``b`` true.  The seed
    picks names and one of four equivalent spellings of each guard.
    """
    rng = random.Random(seed)
    n, m, b = _names(rng, "v", 3)
    prog, main, down, pick = _names(rng, "p", 4)
    pos = rng.choice([f"{n} > 0", f"{n} >= 1", f"0 < {n}", f"1 <= {n}"])
    zero = rng.choice([f"{n} <= 0", f"{n} < 1", f"0 >= {n}", f"1 > {n}"])
    src = f"""\
program {prog}

global {n} : int 0..{d}
global {m} : bool
init {n} == {d} && !{m}
main {main}

procedure {main}
  block b1
    point c : call {down}
    point r : return
    edge c -> r
    entry c
    exit r

procedure {down}
  local {b} : bool = false
  block b1
    point h : call {pick}
    point dec : {n} := {n} - 1
    point s : {m} := {b}
    point c : call {down}
    point e : {m} := {b}
    point j : skip
    point r : return
    edge h -> dec when {pos}
    edge h -> e when {zero}
    edge dec -> s
    edge s -> c
    edge c -> j
    edge e -> j
    edge j -> r
    entry h
    exit r

procedure {pick}
  block bp contract requires true ensures true assigns {b}
    point r : return
    entry r
    exit r
"""
    w = Workload(
        name="deep_recursion", size=d, source=src, program=prog,
        procedures=(main, down),
        hold=f"!({n} == {d} && {m})",
        violated=f"!({n} == 0 && {m})",
        violated_at=lambda s: s[n] == 0 and s[m],
        stack_capacity=d + 2,
    )
    _commands(w, inp, out_dir, crosscheck_defect=DEEP_RECURSION_DEFECT)
    return w


# ---------------------------------------------------------------------------
# wide_emit


def wide_emit(seed: int, procs: int, inp: str, out_dir: str) -> Workload:
    """``procs`` unannotated procedures in a call tree under main, at most
    three levels below it, plus one contracted leaf.  Each procedure has
    two locals, a guarded branch on a seeded constant whose two arms have
    the same length, a jump to a block of its own that is spliced in
    place, its calls, and a call to the contracted leaf, which havocs the
    bool local just before the return.  Every body is deterministic up to
    that last havoc, so exploration stays small and the front end and the
    emitters carry the cost.

    Globals ``z : bool`` (false at start) and ``q : int 0..3``.  Only main
    writes ``z``, setting it after its first call; nothing writes ``q``.
    Holds: ``q == 0``.  Violated: ``!z``.
    """
    rng = random.Random(seed)
    z, q, u, kk = _names(rng, "v", 4)
    names = _names(rng, "w", procs + 3)
    prog, main, leaf = names[:3]
    workers = names[3:]
    # a tree: main has ``fan`` children, each node at most ``fan``,
    # breadth first, so no chain is deeper than main + 3 levels
    fan = 1
    while fan + fan * fan + fan ** 3 < procs:
        fan += 1
    children: dict[str, list[str]] = {main: []}
    queue = [main]
    for wname in workers:
        while len(children[queue[0]]) >= fan:
            queue.pop(0)
        children[queue[0]].append(wname)
        children[wname] = []
        queue.append(wname)

    def body(name: str, calls: list[str]) -> str:
        k0 = rng.randint(0, 3)
        g = rng.randint(0, 3)
        first, second = rng.sample([f"{u} := true", f"{kk} := {kk} + 0"], 2)
        lines = [f"procedure {name}",
                 f"  local {u} : bool = false",
                 f"  local {kk} : int 0..3 = 0",
                 "  block b1",
                 f"    point e : {kk} := {k0}",
                 f"    point g1 : {first}",
                 f"    point g2 : {second}",
                 "    point jb : jump b2"]
        for i, callee in enumerate(calls):
            lines.append(f"    point c{i} : call {callee}")
        if name == main:
            lines.append(f"    point sz : {z} := true")
        lines += [f"    point h : call {leaf}", "    point r : return",
                  f"    edge e -> g1 when {kk} <= {g}",
                  f"    edge e -> g2 when {kk} > {g}",
                  "    edge g1 -> jb", "    edge g2 -> jb"]
        chain = ["jb"] + [f"c{i}" for i in range(len(calls))]
        if name == main:
            # z is set after the first call, or at once when there is none
            chain.insert(2 if calls else 1, "sz")
        chain += ["h", "r"]
        lines += [f"    edge {x} -> {y}" for x, y in zip(chain, chain[1:])]
        lines += ["    entry e", "    exit r",
                  "  block b2",
                  f"    point t : {kk} := 3 - {kk}",
                  "    entry t",
                  "    exit t"]
        return "\n".join(lines)

    parts = [f"program {prog}", "",
             f"global {z} : bool", f"global {q} : int 0..3",
             f"init !{z} && {q} == 0", f"main {main}", ""]
    for name in [main] + workers:
        parts += [body(name, children[name]), ""]
    parts += [f"procedure {leaf}",
              f"  block bl contract requires true ensures true assigns {u}",
              "    point r : return", "    entry r", "    exit r", ""]
    w = Workload(
        name="wide_emit", size=procs, source="\n".join(parts), program=prog,
        procedures=tuple([main] + workers),
        hold=f"{q} == 0",
        violated=f"!{z}",
        violated_at=lambda s: bool(s[z]),
    )
    _commands(w, inp, out_dir)
    return w


GENERATORS = {"havoc_loop": havoc_loop, "deep_recursion": deep_recursion,
              "wide_emit": wide_emit}
