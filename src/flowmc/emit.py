"""Model emitters: TLA+ module + TLC config, nuXmv model, DOT rendering.

Both symbolic backends are fed from the same ``Sts``, so their action
inventories match by construction; ``scan_tla_structure`` and
``scan_nuxmv_structure`` parse the emitted text back into (source,
target, stack effect) triples so tests can confirm that.  Emitted files
carry a header comment with the toolkit version and a digest of the
source IR; ``normalize_emitted`` strips it for golden comparisons.

Wide models have the same stack clauses in every call and return
action, so the cost of each step follows the distinct text, not its
repetitions: ``emit_nuxmv`` renders the shared clauses once per model
and, when two or more actions use one, writes it once as the DEFINE
``stack_save`` (the locals every call saves) or ``stack_restore`` (what
every return restores), which the actions name; the grammar checks
``check_tla_text`` and ``check_nuxmv_text`` read the text in one pass
and look at each distinct line or conjunct once, and the structure
scanners index every definition in one pass.

A TLA+ action renders its body conjuncts by shape (``Action.shape``):
guards, identities and updates, then havocs, then residuals, so that TLC
assigns each primed variable before a conjunct reads it.  nuXmv renders
them as they stand.

Integer division and modulus print as the backend's native operators,
whose rounding conventions differ from the evaluator's C-style
truncation; models meant for cross-checking should avoid them.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Optional

from .actions import literal
from .expr import (
    AnyVal,
    Binary,
    BoolLit,
    Domain,
    Expr,
    IntLit,
    TRUE,
    Unary,
    VarRef,
    conjuncts,
)
from .flowgraph import FlowGraph
from .sts import STACK_PADDING, Sts, StsAction


class EmitError(Exception):
    pass


class UnboundedDomainError(EmitError):
    pass


class CapacityTooSmallError(EmitError):
    pass


_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _module_name(name: str, reserved: frozenset = frozenset()) -> str:
    """The program name from the ``.apg`` file, which names the model."""
    if not _IDENT_RE.match(name):
        raise EmitError(f"module name {name!r} is not a valid identifier")
    if name in reserved:
        raise EmitError(f"module name {name!r} is a reserved word")
    return name


# The reserved words of TLA+ and of its proof language, its built-in values,
# and the EXTENDS'd Integers and Sequences with the operators they define
_TLA_WORDS = frozenset("""
    ASSUME ASSUMPTION AXIOM CASE CHOOSE CONSTANT CONSTANTS DOMAIN ELSE ENABLED EXCEPT
    EXTENDS IF IN INSTANCE LET LOCAL MODULE OTHER SUBSET THEN THEOREM UNCHANGED UNION
    VARIABLE VARIABLES WITH ACTION BY COROLLARY DEF DEFINE DEFS HAVE HIDE LAMBDA LEMMA
    NEW OBVIOUS OMITTED ONLY PICK PROOF PROPOSITION PROVE QED RECURSIVE STATE SUFFICES
    TAKE TEMPORAL USE WITNESS BOOLEAN FALSE STRING TRUE
    Integers Int Nat Sequences Seq Len Head Tail Append SubSeq SelectSeq""".split())
# ... and the identifiers the TLA+ emitter defines
_TLA_RESERVED = _TLA_WORDS | {
    "node", "stack_nodes", "stack_locals", "vars", "Init", "Next", "Spec",
    "LocalsSnapshot", "STACK_CAPACITY",
}
# The identifiers the nuXmv emitter defines, and the keywords, temporal
# operators and built-in functions of the nuXmv manual
_SMV_RESERVED = frozenset(f"""
    node depth stack_unchanged stack_save stack_restore STACK_CAPACITY {STACK_PADDING} main
    MODULE DEFINE MDEFINE CONSTANTS VAR IVAR FROZENVAR INIT TRANS INVAR SPEC CTLSPEC
    LTLSPEC PSLSPEC COMPUTE NAME INVARSPEC FAIRNESS JUSTICE COMPASSION ISA ASSIGN
    CONSTRAINT SIMPWFF CTLWFF LTLWFF PSLWFF COMPWFF IN MIN MAX MIRROR PRED PREDICATES
    process array of boolean integer real word word1 bool signed unsigned extend resize
    sizeof uwconst swconst EX AX EF AF EG AG E F O G H X Y Z A U S V T BU EBF ABF EBG ABG
    case esac mod next init union in xor xnor self count abs max min toint floor TRUE FALSE
    """.split())
# DOT keywords, which the DOT grammar matches in any case
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _check_names(sts: Sts, reserved: frozenset, backend: str) -> None:
    """Scalar names share a namespace with the emitted identifiers."""
    taken = set(reserved) | {a.name for a in sts.actions} | set(sts.node_values)
    for scalar in sts.scalar_names:
        if scalar in taken or scalar.startswith(("st_", "Dom_", "WF_", "SF_")):
            raise EmitError(
                f"variable '{scalar}' collides with a reserved {backend} identifier"
            )


def _header(comment: str, source_digest: str) -> list[str]:
    from . import __version__

    lines = [f"{comment} Generated by flowmc {__version__}"]
    if source_digest:
        lines.append(f"{comment} source-ir sha256: {source_digest}")
    return lines


def _emitted_lines(text: str) -> list[str]:
    """The lines of ``text`` after its leading header comment lines."""
    lines = text.splitlines()
    index = 0
    while index < len(lines) and lines[index].startswith(("\\*", "--", "//")):
        index += 1
    return lines[index:]


def normalize_emitted(text: str) -> str:
    """Strip the leading header comment lines (``\\*``, ``--`` or ``//``)."""
    return "\n".join(_emitted_lines(text)) + "\n"


# ---------------------------------------------------------------------------
# Expression rendering


_TLA_OPS = {"&&": "/\\", "||": "\\/", "!": "~", "==": "=", "!=": "/=", "=>": "=>",
            "+": "+", "-": "-", "*": "*", "/": "\\div", "%": "%",
            "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_SMV_OPS = {"&&": "&", "||": "|", "!": "!", "==": "=", "!=": "!=", "=>": "->",
            "+": "+", "-": "-", "*": "*", "/": "/", "%": "mod",
            "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _tla_domain(domain: Domain) -> str:
    if domain.kind == "bool":
        return "BOOLEAN"
    if domain.kind == "range":
        return f"{domain.lo}..{domain.hi}"
    raise UnboundedDomainError("the TLA+ backend requires finite domains")


def render_tla(expr: Expr) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "TRUE" if expr.value else "FALSE"
    if isinstance(expr, VarRef):
        return expr.name + ("'" if expr.primed else "")
    if isinstance(expr, Unary):
        return f"{_TLA_OPS[expr.op]}{_wrap(render_tla(expr.operand), expr.operand)}"
    if isinstance(expr, Binary):
        if isinstance(expr.right, AnyVal):
            if expr.op != "==":
                raise EmitError("any(...) only renders under equality")
            return f"{render_tla(expr.left)} \\in {_tla_domain(expr.right.domain)}"
        left = _wrap(render_tla(expr.left), expr.left)
        right = _wrap(render_tla(expr.right), expr.right)
        return f"{left} {_TLA_OPS[expr.op]} {right}"
    raise EmitError(f"cannot render {expr!r}")


def render_smv(expr: Expr) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "TRUE" if expr.value else "FALSE"
    if isinstance(expr, VarRef):
        return f"next({expr.name})" if expr.primed else expr.name
    if isinstance(expr, Unary):
        return f"{_SMV_OPS[expr.op]}{_wrap(render_smv(expr.operand), expr.operand)}"
    if isinstance(expr, Binary):
        if isinstance(expr.right, AnyVal):
            if expr.op != "==":
                raise EmitError("any(...) only renders under equality")
            lhs = render_smv(expr.left)
            domain = expr.right.domain
            if domain.kind == "bool":
                return f"({lhs} = TRUE | {lhs} = FALSE)"
            if domain.kind == "range":
                return f"({lhs} >= {domain.lo} & {lhs} <= {domain.hi})"
            return "TRUE"  # unbounded choice: the type already permits anything
        left = _wrap(render_smv(expr.left), expr.left)
        right = _wrap(render_smv(expr.right), expr.right)
        return f"{left} {_SMV_OPS[expr.op]} {right}"
    raise EmitError(f"cannot render {expr!r}")


def _wrap(text: str, expr: Expr) -> str:
    return f"({text})" if isinstance(expr, Binary) else text


# ---------------------------------------------------------------------------
# TLA+


def emit_tla(sts: Sts, source_digest: str = "") -> tuple[str, str]:
    """Returns (module text, TLC config text); byte-deterministic."""
    name = _module_name(sts.module_name, _TLA_WORDS)
    # keywords too: check_tla_text counts them as declared, so it would pass one
    _check_names(sts, _TLA_RESERVED | _TLA_KEYWORDS, "TLA+")
    _check_capacity(sts)
    for scalar in sts.scalar_names:
        if not sts.domains[scalar].is_finite:
            raise UnboundedDomainError(
                f"variable '{scalar}' has an unbounded domain; TLC needs finite domains"
            )

    scalars = list(sts.scalar_names)
    all_vars = ["node", "stack_nodes", "stack_locals"] + scalars
    dom_constants = [f"Dom_{scalar}" for scalar in scalars]

    lines: list[str] = []
    lines += _header("\\*", source_digest)
    lines.append(f"---- MODULE {name} ----")
    lines.append("EXTENDS Integers, Sequences")
    lines.append("")
    lines.append("CONSTANTS " + ", ".join(["STACK_CAPACITY"] + dom_constants))
    lines.append("")
    lines.append("VARIABLES " + ", ".join(all_vars))
    lines.append("")
    lines.append("vars == <<" + ", ".join(all_vars) + ">>")
    lines.append("")
    snapshot = ", ".join(sts.locals_order)
    lines.append(f"LocalsSnapshot == <<{snapshot}>>")
    lines.append("")

    init_conjuncts = [
        f'node = "{sts.init.node}"',
        "stack_nodes = <<>>",
        "stack_locals = <<>>",
    ]
    for decl in sts.globals_decls:
        init_conjuncts.append(f"{decl.name} \\in Dom_{decl.name}")
    if sts.init.globals_expr != TRUE:
        init_conjuncts.append(render_tla(sts.init.globals_expr))
    for local, value in sts.init.locals_values:
        init_conjuncts.append(f"{local} = {render_tla(literal(value))}")
    lines.append("Init ==")
    lines += [f"  /\\ {part}" for part in init_conjuncts]
    lines.append("")

    for action in sts.actions:
        lines += _tla_action(sts, action)
        lines.append("")

    lines.append("Next == " + " \\/ ".join(a.name for a in sts.actions))
    lines.append("")
    lines.append("Spec == Init /\\ [][Next]_vars")
    lines.append("====")
    module = "\n".join(lines) + "\n"

    cfg_lines = ["SPECIFICATION Spec", f"CONSTANT STACK_CAPACITY = {sts.stack_capacity}"]
    for scalar in scalars:
        domain = sts.domains[scalar]
        if domain.kind == "bool":
            values = "{TRUE, FALSE}"
        else:
            values = "{" + ", ".join(str(v) for v in domain.values()) + "}"
        cfg_lines.append(f"CONSTANT Dom_{scalar} = {values}")
    config = "\n".join(cfg_lines) + "\n"
    return module, config


# TLC evaluates conjuncts left to right, and ``x' = e`` or ``x' \in S``
# assigns ``x'``: a conjunct comes after those that assign what it reads
_TLA_ORDER = {"guard": 0, "identity": 0, "update": 0, "havoc": 1, "residual": 2}


def _tla_action(sts: Sts, action: StsAction) -> list[str]:
    parts: list[str] = []
    if action.source is not None:
        parts.append(f'node = "{action.source}"')
    if action.kind == "silent":
        parts.append(f'node\' = "{action.target}"')
    elif action.kind == "call":
        parts.append(f'node\' = "{action.target}"')
        parts.append("Len(stack_nodes) < STACK_CAPACITY")
        parts.append(f'stack_nodes\' = <<"{action.push_node}">> \\o stack_nodes')
        parts.append("stack_locals' = <<LocalsSnapshot>> \\o stack_locals")
    else:
        parts.append("stack_nodes /= <<>>")
        parts.append("node' = Head(stack_nodes)")
        parts.append("stack_nodes' = Tail(stack_nodes)")
        for index, local in enumerate(sts.locals_order, start=1):
            parts.append(f"{local}' = Head(stack_locals)[{index}]")
        parts.append("stack_locals' = Tail(stack_locals)")
    body = sorted(action.body.shape, key=lambda shaped: _TLA_ORDER[shaped[0]])
    parts += [render_tla(part) for _, _, part in body]
    unchanged = ["stack_nodes", "stack_locals"] if action.kind == "silent" else []
    unchanged += sts.unchanged(action)
    if unchanged:
        parts.append("UNCHANGED <<" + ", ".join(unchanged) + ">>")
    lines = [f"{action.name} =="]
    lines += [f"  /\\ {part}" for part in parts]
    return lines


# ---------------------------------------------------------------------------
# nuXmv


def static_call_depth(sts: Sts) -> Optional[int]:
    """Longest chain of pushes from main, or None when recursion makes it
    unbounded."""
    calls: dict[str, set[str]] = {}
    for action in sts.actions:
        if action.kind == "call":
            caller = sts.proc_of_node[action.source]
            calls.setdefault(caller, set()).add(sts.proc_of_node[action.target])

    depths: dict[str, int] = {}
    visiting: set[str] = set()

    def depth_of(proc: str) -> Optional[int]:
        if proc in depths:
            return depths[proc]
        if proc in visiting:
            return None  # recursion: unbounded
        visiting.add(proc)
        best = 0
        for callee in sorted(calls.get(proc, ())):
            sub = depth_of(callee)
            if sub is None:
                return None
            best = max(best, 1 + sub)
        visiting.discard(proc)
        depths[proc] = best
        return best

    main = sts.proc_of_node[sts.init.node]
    return depth_of(main)


def _check_capacity(sts: Sts) -> None:
    """Both models block a call on a full stack, so a capacity below the
    static call depth would hide the calls that do not fit."""
    depth_needed = static_call_depth(sts)
    if depth_needed is not None and depth_needed > sts.stack_capacity:
        raise CapacityTooSmallError(
            f"call depth {depth_needed} exceeds the stack capacity {sts.stack_capacity}"
        )


def emit_nuxmv(sts: Sts, source_digest: str = "") -> str:
    """nuXmv model: enumerated node variable, the stack flattened into
    per-slot scalars plus a depth counter, one DEFINE per action, TRANS as
    their disjunction.  Byte-deterministic."""
    name = _module_name(sts.module_name)
    _check_names(sts, _SMV_RESERVED, "nuXmv")
    _check_capacity(sts)
    cap = sts.stack_capacity

    def smv_domain(domain: Domain) -> str:
        if domain.kind == "bool":
            return "boolean"
        if domain.kind == "range":
            return f"{domain.lo}..{domain.hi}"
        return "integer"

    node_enum = "{" + ", ".join(sts.node_values) + "}"
    slot_enum = "{" + ", ".join([STACK_PADDING] + list(sts.node_values)) + "}"
    init_local = dict(sts.init.locals_values)

    lines: list[str] = []
    lines += _header("--", source_digest)
    lines.append(f"-- module {name}")
    lines.append("MODULE main")
    lines.append("VAR")
    lines.append(f"  node : {node_enum};")
    lines.append(f"  depth : 0..{cap};")
    for i in range(cap):
        lines.append(f"  st_node_{i} : {slot_enum};")
    for local in sts.locals_order:
        for i in range(cap):
            lines.append(f"  st_{local}_{i} : {smv_domain(sts.domains[local])};")
    for scalar in sts.scalar_names:
        lines.append(f"  {scalar} : {smv_domain(sts.domains[scalar])};")
    lines.append("DEFINE")
    lines.append(f"  STACK_CAPACITY := {cap};")

    cells = [f"st_node_{i}" for i in range(cap)]
    cells += [f"st_{local}_{i}" for local in sts.locals_order for i in range(cap)]
    stack_same = " & ".join([f"next(depth) = depth"] + [f"next({c}) = {c}" for c in cells])
    lines.append(f"  stack_unchanged := {stack_same};")

    save, restore = _smv_stack_clauses(sts)
    # a clause that two or more actions use is written once, as a DEFINE
    kinds = Counter(action.kind for action in sts.actions)
    if save and kinds["call"] > 1:
        lines.append(f"  stack_save := {save};")
        save = "stack_save"
    if kinds["return"] > 1:
        lines.append(f"  stack_restore := {restore};")
        restore = "stack_restore"
    for action in sts.actions:
        lines.append(f"  {action.name} := {_smv_action(sts, action, save, restore)};")

    init_parts = [f"node = {sts.init.node}", "depth = 0"]
    for i in range(cap):
        init_parts.append(f"st_node_{i} = {STACK_PADDING}")
    for local in sts.locals_order:
        initial = render_smv(literal(init_local[local]))
        for i in range(cap):
            init_parts.append(f"st_{local}_{i} = {initial}")
    if sts.init.globals_expr != TRUE:
        init_parts.append(render_smv(sts.init.globals_expr))
    for local, value in sts.init.locals_values:
        init_parts.append(f"{local} = {render_smv(literal(value))}")
    lines.append("INIT")
    lines.append("  " + " & ".join(init_parts) + ";")
    lines.append("TRANS")
    lines.append("  " + " | ".join(a.name for a in sts.actions) + ";")
    return "\n".join(lines) + "\n"


def _smv_stack_clauses(sts: Sts) -> tuple[str, str]:
    """The stack conjuncts that do not depend on the action, each joined
    once per model: (the local cells every call saves, the stack cells
    and locals every return restores).  Wide models repeat them in
    hundreds of actions, so ``emit_nuxmv`` writes each one that two or
    more actions use once, as the DEFINE ``stack_save`` or
    ``stack_restore``, and the actions name it."""
    cap = sts.stack_capacity
    init_local = dict(sts.init.locals_values)
    save = " & ".join(
        f"next(st_{local}_{i}) = (case depth = {i} : {local}; TRUE : st_{local}_{i}; esac)"
        for local in sts.locals_order
        for i in range(cap)
    )
    branches = "".join(f"depth = {i + 1} : st_node_{i}; " for i in range(cap))
    restore = [f"next(node) = (case {branches}TRUE : node; esac)"]
    for local in sts.locals_order:
        branches = "".join(f"depth = {i + 1} : st_{local}_{i}; " for i in range(cap))
        restore.append(f"next({local}) = (case {branches}TRUE : {local}; esac)")
    for i in range(cap):
        restore.append(
            f"next(st_node_{i}) = (case depth = {i + 1} : {STACK_PADDING}; "
            f"TRUE : st_node_{i}; esac)"
        )
    for local in sts.locals_order:
        initial = render_smv(literal(init_local[local]))
        for i in range(cap):
            restore.append(
                f"next(st_{local}_{i}) = (case depth = {i + 1} : {initial}; "
                f"TRUE : st_{local}_{i}; esac)"
            )
    return save, " & ".join(restore)


def _smv_action(sts: Sts, action: StsAction, save: str, restore: str) -> str:
    """``save`` and ``restore`` are the clauses of :func:`_smv_stack_clauses`
    or the names of their DEFINEs."""
    # the depth and st_node conjuncts stay inline: scan_nuxmv_structure reads them
    parts: list[str] = []
    if action.source is not None:
        parts.append(f"node = {action.source}")
    if action.kind == "silent":
        parts.append(f"next(node) = {action.target}")
        parts.append("stack_unchanged")
    elif action.kind == "call":
        parts.append(f"next(node) = {action.target}")
        parts.append("depth < STACK_CAPACITY")
        parts.append("next(depth) = depth + 1")
        for i in range(sts.stack_capacity):
            parts.append(
                f"next(st_node_{i}) = (case depth = {i} : {action.push_node}; "
                f"TRUE : st_node_{i}; esac)"
            )
        if save:
            parts.append(save)
    else:
        parts += ["depth > 0", "next(depth) = depth - 1", restore]
    for part in conjuncts(action.body.expr):
        if part == TRUE:
            continue
        parts.append(render_smv(part))
    for name in sts.unchanged(action):
        parts.append(f"next({name}) = {name}")
    return " & ".join(parts)


# ---------------------------------------------------------------------------
# DOT


def emit_dot(fg: FlowGraph, source_digest: str = "") -> str:
    """One cluster per procedure; entry nodes drawn with a thick border,
    return nodes with double peripheries; call edges labelled."""
    name = _module_name(fg.name)
    if name.lower() in _DOT_KEYWORDS:
        raise EmitError(f"module name {name!r} is a reserved word")
    lines: list[str] = []
    lines += _header("//", source_digest)
    lines.append(f"digraph {name} {{")
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=box, fontname="monospace"];')
    for proc in fg.procedures.values():
        lines.append(f"  subgraph cluster_{proc.name} {{")
        lines.append(f'    label="{proc.name}";')
        for node in proc.nodes:
            attrs = [f'label="{node}\\n{proc.actions[node]}"']
            if node == proc.entry:
                attrs.append("penwidth=2")
            if node == proc.return_node:
                attrs.append("peripheries=2")
            lines.append(f'    "{node}" [{", ".join(attrs)}];')
        for edge in proc.edges:
            if edge.label is None:
                lines.append(f'    "{edge.src}" -> "{edge.dst}";')
            else:
                lines.append(f'    "{edge.src}" -> "{edge.dst}" [label="{edge.label}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural scanners (parity checks between the two backends)
#
# Each scanner indexes every definition in one pass over the lines, then
# parses each action's body once, so its cost is linear in the text.


def scan_tla_structure(text: str) -> dict[str, tuple[str, Optional[str], str, Optional[str]]]:
    """Action name -> (source, target, stack effect, pushed node)."""
    lines = _emitted_lines(text)
    names = None
    blocks: dict[str, str] = {}  # the first "<name> ==" line followed by conjunct lines
    for index, line in enumerate(lines):
        if names is None and line.startswith("Next == ") and len(line) > 8:
            names = [n.strip() for n in line[8:].split("\\/")]
        if line.endswith(" ==") and line[:-3] not in blocks:
            end = index + 1
            while end < len(lines) and lines[end].startswith("  /\\ "):
                end += 1
            if end > index + 1:
                blocks[line[:-3]] = "\n".join(lines[index + 1:end]) + "\n"
    if names is None:
        raise EmitError("no Next definition found")
    out = {}
    for name in names:
        body = blocks.get(name)
        if body is None:
            raise EmitError(f"no definition found for action {name!r}")
        source = re.search(r'node = "([^"]+)"', body)
        target = re.search(r"node' = \"([^\"]+)\"", body)
        pushed = re.search(r"stack_nodes' = <<\"([^\"]+)\">> \\o stack_nodes", body)
        if pushed:
            effect = "push"
        elif "Tail(stack_nodes)" in body:
            effect = "pop"
        else:
            effect = "none"
        out[name] = (
            source.group(1) if source else "*",
            target.group(1) if target else None,
            effect,
            pushed.group(1) if pushed else None,
        )
    return out


def scan_nuxmv_structure(text: str) -> dict[str, tuple[str, Optional[str], str, Optional[str]]]:
    """Same shape as :func:`scan_tla_structure`, from the nuXmv text."""
    lines = _emitted_lines(text)
    names = None
    defines: dict[str, str] = {}  # the first "  <name> := <body>;" line
    for index, line in enumerate(lines):
        if (names is None and line == "TRANS" and index + 1 < len(lines)
                and re.match(r"  .+;\Z", lines[index + 1])):
            names = [n.strip() for n in lines[index + 1][2:-1].split("|")]
        if not (line.startswith("  ") and line.endswith(";")):
            continue
        at = line.find(" := ", 2)
        while at != -1 and at + 4 < len(line):
            defines.setdefault(line[2:at], line[at + 4:-1])
            at = line.find(" := ", at + 1)
    if names is None:
        raise EmitError("no TRANS section found")
    out = {}
    for name in names:
        body = defines.get(name)
        if body is None:
            raise EmitError(f"no define found for action {name!r}")
        source = re.search(r"(?<!next\()\bnode = (\w+)", body)
        target = re.search(r"next\(node\) = (\w+)(?! ?=)", body)
        if "next(depth) = depth + 1" in body:
            effect = "push"
            pushed_match = re.search(r"next\(st_node_0\) = \(case depth = 0 : (\w+);", body)
            pushed = pushed_match.group(1) if pushed_match else None
            target_name = target.group(1) if target else None
        elif "next(depth) = depth - 1" in body:
            effect = "pop"
            pushed = None
            target_name = None  # dynamic: restored from the stack
        else:
            effect = "none"
            pushed = None
            target_name = target.group(1) if target else None
        out[name] = (source.group(1) if source else "*", target_name, effect, pushed)
    return out


# ---------------------------------------------------------------------------
# Grammar smoke checks
#
# Both checks read the text once, line by line, and look at each distinct
# piece of it once: a TLA+ line, or a " & "-separated conjunct of a nuXmv
# line.  The set of declared names only grows as the scan moves down, so a
# piece whose names were all declared at its first occurrence is valid at
# every later one.  Identifiers, delimiters, ``next(x)`` and ``x'`` never
# cross a newline or a " & " separator, so the delimiter counts are sums
# over the distinct pieces, weighted by how often each occurs.  The checks
# report the same error as a scan of the whole text in this order:
# unbalanced delimiters, forbidden tokens, the first undeclared identifier
# in text order, the first undeclared prime or next() target, then a name
# defined or declared twice.  Enum literals are not definitions.


_TLA_KEYWORDS = {
    "MODULE", "EXTENDS", "CONSTANTS", "VARIABLES", "UNCHANGED", "Head", "Tail",
    "Len", "Integers", "Sequences", "TRUE", "FALSE", "BOOLEAN", "SPECIFICATION",
    "CONSTRAINT", "CONSTANT",
}
_SMV_KEYWORDS = {
    "MODULE", "main", "VAR", "DEFINE", "INIT", "TRANS", "next", "case", "esac",
    "TRUE", "FALSE", "boolean", "integer", "mod",
}
_TLA_MODULE_RE = re.compile(r"^-+ MODULE (\w+) -+$")
_TLA_HEADER_RE = re.compile(r"^(CONSTANTS|VARIABLES) (.+)$")
_TLA_DEFINITION_RE = re.compile(r"^(\w+) ==")
_TLA_STRING_RE = re.compile(r'"[^"]*"')
_TLA_OPERATOR_RE = re.compile(r"\\[A-Za-z]+")
_TLA_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# every match of (\w+)' starts at a word boundary; saying so saves the
# regex engine from retrying inside every word
_TLA_PRIME_RE = re.compile(r"\b(\w+)'")
_SMV_VAR_RE = re.compile(r"^  (\w+) : (.+);$")
_SMV_DEFINE_RE = re.compile(r"^  (\w+) := ")
_SMV_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SMV_NEXT_RE = re.compile(r"next\((\w+)\)")


def _by_occurrences(pieces: Counter[str]) -> dict[int, str]:
    """The distinct pieces grouped by how often each occurs in the text,
    each group joined by newlines, which no token straddles."""
    groups: dict[int, list[str]] = {}
    for piece, n in pieces.items():
        groups.setdefault(n, []).append(piece)
    return {n: "\n".join(group) for n, group in groups.items()}


def _count(groups: dict[int, str], token: str) -> int:
    """Occurrences of ``token`` in the text that ``groups`` describes."""
    return sum(text.count(token) * n for n, text in groups.items())


def _check_balance(groups: dict[int, str], pairs: list[tuple[str, str]], label: str) -> None:
    for open_tok, close_tok in pairs:
        if _count(groups, open_tok) != _count(groups, close_tok):
            raise EmitError(f"unbalanced {open_tok!r}/{close_tok!r} in {label} output")


def _first_undeclared(idents: list[str], declared: set[str]) -> Optional[str]:
    return next((ident for ident in idents if ident not in declared), None)


def _check_defined_once(defined: Counter[str]) -> None:
    """Report the first name that ``defined`` (definitions per name, in
    the order the names first occur) counts more than once."""
    for name, n in defined.items():
        if n > 1:
            raise EmitError(f"name {name!r} defined twice")


def _check_targets(targets: dict[str, None], declared: set[str], message: str) -> None:
    """``targets`` holds the primed or ``next()`` names in the order they
    first occur; every occurrence is judged against the final ``declared``."""
    for target in targets:
        if target not in declared:
            raise EmitError(f"{message} {target!r}")


def check_tla_text(text: str) -> None:
    """Balanced delimiters, declared-before-used names, prime discipline."""
    lines = Counter(_emitted_lines(text))  # each distinct line, in text order
    declared: set[str] = set(_TLA_KEYWORDS)
    defined: Counter[str] = Counter()  # constants, variables and definitions
    primed: dict[str, None] = {}
    undeclared = None  # the first identifier used before its declaration
    for line, count in lines.items():
        primed.update(dict.fromkeys(_TLA_PRIME_RE.findall(line)))
        module = _TLA_MODULE_RE.match(line)
        if module:
            declared.add(module.group(1))
            continue
        header = _TLA_HEADER_RE.match(line)
        if header:
            names = [n.strip() for n in header.group(2).split(",")]
            declared.update(names)
            defined.update(names * count)
            continue
        definition = _TLA_DEFINITION_RE.match(line)
        if definition:
            declared.add(definition.group(1))
            defined[definition.group(1)] += count
        scrubbed = _TLA_OPERATOR_RE.sub(" ", _TLA_STRING_RE.sub("", line))
        undeclared = _first_undeclared(_TLA_IDENT_RE.findall(scrubbed), declared)
        if undeclared is not None:
            break
    groups = _by_occurrences(lines)
    _check_balance(groups, [("(", ")"), ("<<", ">>"), ("{", "}")], "TLA+")
    if _count(groups, "next("):
        raise EmitError("TLA+ output must not use next(...)")
    if undeclared is not None:
        raise EmitError(f"identifier {undeclared!r} used before declaration")
    _check_targets(primed, declared, "prime applied to undeclared")
    _check_defined_once(defined)


def check_nuxmv_text(text: str) -> None:
    """Balanced delimiters, declared-before-used names, next() discipline."""
    pieces: Counter[str] = Counter()  # each VAR line and conjunct -> its occurrences
    passed: set[str] = set()  # the conjuncts whose names were all declared
    declared: set[str] = set(_SMV_KEYWORDS)
    defined: Counter[str] = Counter()  # the VAR and DEFINE names
    nexts: dict[str, None] = {}
    undeclared = None  # the first identifier used before its declaration
    for line in _emitted_lines(text):
        var_decl = _SMV_VAR_RE.match(line)
        if var_decl:
            pieces[line] += 1
            nexts.update(dict.fromkeys(_SMV_NEXT_RE.findall(line)))
            declared.add(var_decl.group(1))
            defined[var_decl.group(1)] += 1
            declared.update(_SMV_IDENT_RE.findall(var_decl.group(2)))  # enum literals
            continue
        define = _SMV_DEFINE_RE.match(line)
        checked = line
        if define:
            # the right-hand side may reference the name being defined only
            # afterwards; the left-hand side is a bare name, which is
            # counted (it may contain "case") but not checked
            lhs, checked = line.split(":=", 1)
            pieces[lhs] += 1
        parts = checked.split(" & ")
        pieces.update(parts)
        fresh = [part for part in parts if part not in passed]
        if fresh and undeclared is None:
            # nothing the patterns match straddles the separator
            joined = " & ".join(fresh)
            undeclared = _first_undeclared(_SMV_IDENT_RE.findall(joined), declared)
            nexts.update(dict.fromkeys(_SMV_NEXT_RE.findall(joined)))
            passed.update(fresh)
        if define:
            declared.add(define.group(1))
            defined[define.group(1)] += 1
    groups = _by_occurrences(pieces)
    _check_balance(groups, [("(", ")"), ("{", "}")], "nuXmv")
    if _count(groups, "case") != _count(groups, "esac"):
        raise EmitError("unbalanced case/esac in nuXmv output")
    if _count(groups, "'"):
        raise EmitError("nuXmv output must not use primes")
    if undeclared is not None:
        raise EmitError(f"identifier {undeclared!r} used before declaration")
    _check_targets(nexts, declared, "next() applied to undeclared")
    _check_defined_once(defined)
