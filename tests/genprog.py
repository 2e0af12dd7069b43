"""Seeded generator of small valid annotated programs.

Shapes covered: straight-line blocks, guarded branches (including joins
entered under distinct guards), calls to an unannotated and to a
contract-annotated procedure, jumps spliced with a continuation, and
loop-closing jumps back to an already-merged block.  Every generated
program passes validation and translates; domains stay small so explicit
exploration is cheap.
"""

from __future__ import annotations

import random

from flowmc.expr import Binary, BoolLit, Domain, IntLit, TRUE, Unary, VarRef, parse_expr
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
)

BOOL = Domain("bool")
SMALL = Domain("range", 0, 2)


def _random_assign(rng: random.Random, name: str, domain: Domain) -> Assign:
    if domain.kind == "bool":
        expr = rng.choice(
            [BoolLit(True), BoolLit(False), Unary("!", VarRef(name)), VarRef(name)]
        )
    else:
        expr = rng.choice(
            [IntLit(rng.randint(0, 2)), VarRef(name), Binary("+", VarRef(name), IntLit(1))]
        )
    return Assign(name, expr)


def _random_guard(rng: random.Random, decls: list[VarDecl]):
    candidates = [d for d in decls]
    if not candidates:
        return parse_expr("1 == 1")
    decl = rng.choice(candidates)
    if decl.domain.kind == "bool":
        return rng.choice([VarRef(decl.name), Unary("!", VarRef(decl.name))])
    return rng.choice(
        [
            Binary("<=", VarRef(decl.name), IntLit(1)),
            Binary("==", VarRef(decl.name), IntLit(0)),
            Binary(">", VarRef(decl.name), IntLit(0)),
        ]
    )


def _statement(rng: random.Random, scope: list[VarDecl], callees: list[str]):
    kinds = ["skip", "assign"]
    if scope:
        kinds.append("assign")
    if callees:
        kinds.append("call")
    kind = rng.choice(kinds)
    if kind == "skip" or (kind == "assign" and not scope):
        return Skip()
    if kind == "assign":
        decl = rng.choice(scope)
        return _random_assign(rng, decl.name, decl.domain)
    return Call(rng.choice(callees))


def random_program(seed: int) -> AnnotatedProgram:
    rng = random.Random(seed)

    globals_decls: list[VarDecl] = []
    for index in range(rng.randint(0, 2)):
        domain = rng.choice([BOOL, SMALL])
        globals_decls.append(VarDecl(f"g{index}", domain))

    procedures: dict[str, AnnotatedProcedure] = {}
    callable_names: list[str] = []

    # optional annotated leaf: calls to it become contract nodes
    if globals_decls and rng.random() < 0.6:
        target = rng.choice(globals_decls)
        if target.domain.kind == "bool":
            ensures = rng.choice(
                [Binary("==", VarRef(target.name), BoolLit(True)), TRUE]
            )
        else:
            ensures = rng.choice(
                [Binary("==", VarRef(target.name), IntLit(rng.randint(0, 2))), TRUE]
            )
        contract = Contract("spec", TRUE, ensures, (target.name,))
        procedures["leaf"] = AnnotatedProcedure(
            name="leaf",
            locals=(),
            init_locals={},
            blocks={
                "b1": AnnotatedBlock(
                    points=("r",),
                    stmts={"r": Return()},
                    edges=(),
                    guards={},
                    entry="r",
                    exit="r",
                    contract=contract,
                )
            },
            entry_block="b1",
        )
        callable_names.append("leaf")

    # optional unannotated callee with a local
    if rng.random() < 0.6:
        local = VarDecl("t", rng.choice([BOOL, SMALL]))
        init = False if local.domain.kind == "bool" else 0
        scope = globals_decls + [local]
        points = ["a1", "a2", "r"]
        stmts = {
            "a1": _statement(rng, scope, []),
            "a2": _statement(rng, scope, []),
            "r": Return(),
        }
        procedures["sub"] = AnnotatedProcedure(
            name="sub",
            locals=(local,),
            init_locals={"t": init},
            blocks={
                "b1": AnnotatedBlock(
                    points=tuple(points),
                    stmts=stmts,
                    edges=(("a1", "a2"), ("a2", "r")),
                    guards={},
                    entry="a1",
                    exit="r",
                )
            },
            entry_block="b1",
        )
        callable_names.append("sub")

    # main: a chain with an optional guarded join and an optional jump block
    main_locals: list[VarDecl] = []
    if rng.random() < 0.5:
        main_locals.append(VarDecl("m", rng.choice([BOOL, SMALL])))
    init_locals = {
        d.name: (False if d.domain.kind == "bool" else 0) for d in main_locals
    }
    scope = globals_decls + main_locals

    blocks: dict[str, AnnotatedBlock] = {}
    use_jump = rng.random() < 0.5
    looping = use_jump and rng.random() < 0.5

    points = ["p1", "p2", "p3"]
    stmts = {
        "p1": _statement(rng, scope, callable_names),
        "p2": _statement(rng, scope, callable_names),
        "p3": _statement(rng, scope, callable_names),
    }
    edges = [("p1", "p2"), ("p2", "p3")]
    guards = {}
    if rng.random() < 0.5:
        # branch from p1 straight to the join p3, both arms guarded
        guard = _random_guard(rng, scope)
        edges.append(("p1", "p3"))
        guards[("p1", "p3")] = guard
        guards[("p1", "p2")] = Unary("!", guard) if rng.random() < 0.5 else guard
    if use_jump:
        points.append("pj")
        stmts["pj"] = Jump("b2")
        edges.append(("p3", "pj"))
        points.append("pr")
        stmts["pr"] = Return()
        if not looping:
            edges.append(("pj", "pr"))
        body_exit = Jump("b1") if looping else _statement(rng, scope, [])
        blocks["b2"] = AnnotatedBlock(
            points=("q1", "q2"),
            stmts={"q1": _statement(rng, scope, callable_names), "q2": body_exit},
            edges=(("q1", "q2"),),
            guards={},
            entry="q1",
            exit="q2",
        )
        exit_point = "pr"
    else:
        points.append("pr")
        stmts["pr"] = Return()
        edges.append(("p3", "pr"))
        exit_point = "pr"

    blocks["b1"] = AnnotatedBlock(
        points=tuple(points),
        stmts=stmts,
        edges=tuple(edges),
        guards=guards,
        entry="p1",
        exit=exit_point,
    )
    procedures["main"] = AnnotatedProcedure(
        name="main",
        locals=tuple(main_locals),
        init_locals=init_locals,
        blocks=blocks,
        entry_block="b1",
    )

    init_globals = TRUE
    if globals_decls and rng.random() < 0.5:
        decl = globals_decls[0]
        value = BoolLit(False) if decl.domain.kind == "bool" else IntLit(0)
        init_globals = Binary("==", VarRef(decl.name), value)

    return AnnotatedProgram(
        name=f"gen{seed}",
        procedures=procedures,
        main="main",
        globals=tuple(globals_decls),
        init_globals=init_globals,
    )


def wide_program(seed: int, procs: int) -> AnnotatedProgram:
    """``procs`` procedures in a call tree under main, at most two callees
    each, every one with a bool and an int local and ending in a call to
    a contracted leaf that havocs a global.  This is the shape of the
    benchmark's ``wide_emit`` workload: its models repeat the same stack
    clauses in every call and return action, and procedure names share
    long prefixes and end in digits."""
    rng = random.Random(seed)
    g = VarDecl("g", SMALL)
    leaf = AnnotatedProcedure(
        name="leaf",
        locals=(),
        init_locals={},
        blocks={
            "b1": AnnotatedBlock(
                points=("r",),
                stmts={"r": Return()},
                edges=(),
                guards={},
                entry="r",
                exit="r",
                contract=Contract("spec", TRUE, TRUE, ("g",)),
            )
        },
        entry_block="b1",
    )
    workers = [f"w{i}" for i in range(1, procs)]
    children: dict[str, list[str]] = {"w0": []}
    for index, name in enumerate(workers):
        children[f"w{index // 2}"].append(name)
        children[name] = []

    u, k = VarDecl("u", BOOL), VarDecl("k", SMALL)
    scope = [g, u, k]
    procedures: dict[str, AnnotatedProcedure] = {}
    for name, calls in children.items():
        points = ["e", "a"] + [f"c{i}" for i in range(len(calls))] + ["h", "r"]
        stmts = {"e": Assign("k", IntLit(rng.randint(0, 2))),
                 "a": _statement(rng, scope, []),
                 "h": Call("leaf"),
                 "r": Return()}
        stmts.update({f"c{i}": Call(callee) for i, callee in enumerate(calls)})
        procedures[name] = AnnotatedProcedure(
            name=name,
            locals=(u, k),
            init_locals={"u": False, "k": 0},
            blocks={
                "b1": AnnotatedBlock(
                    points=tuple(points),
                    stmts=stmts,
                    edges=tuple(zip(points, points[1:])),
                    guards={},
                    entry="e",
                    exit="r",
                )
            },
            entry_block="b1",
        )
    procedures["leaf"] = leaf
    return AnnotatedProgram(
        name=f"wide{seed}",
        procedures=procedures,
        main="w0",
        globals=(g,),
        init_globals=Binary("==", VarRef("g"), IntLit(0)),
    )
