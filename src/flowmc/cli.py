"""Command-line front end: validate -> abstract -> (check | emit | crosscheck).

Exit codes: 0 ok/holds, 1 violation/divergence/translation error or
validation diagnostics, 2 I/O or parse error, 3 inconclusive (a bound was
hit before a verdict).
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

from . import __version__
from .actions import ActionError
from .emit import (
    EmitError,
    EmitterOptions,
    check_nuxmv_text,
    check_tla_text,
    emit_dot,
    emit_nuxmv,
    emit_tla,
)
from .expr import ExprError, ExprSyntaxError, parse_expr
from .flowgraph import TranslateError, translate
from .ir_text import parse_program
from .pds import (
    NonGlobalVariableError,
    PdsError,
    check_invariant,
    format_trace,
    induce,
)
from .sts import MUTATIONS, StsError, compare_with_pds, mutate_sts, sts_of_flow_graph

OK = 0
FAIL = 1
IO_ERROR = 2
INCONCLUSIVE = 3


def _load(path: str):
    """Returns (program, digest) or exits with an I/O / parse error code."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(IO_ERROR)
    result = parse_program(text)
    if result.program is None:
        for diag in result.diagnostics:
            print(diag, file=sys.stderr)
        raise SystemExit(IO_ERROR)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return result, digest


def _require_valid(result) -> None:
    if result.diagnostics:
        for diag in result.diagnostics:
            print(diag, file=sys.stderr)
        raise SystemExit(FAIL)


def cmd_validate(args: argparse.Namespace) -> int:
    result, _ = _load(args.input)
    if result.diagnostics:
        for diag in result.diagnostics:
            print(diag, file=sys.stderr)
        return FAIL
    print(f"{args.input}: ok")
    return OK


def _abstract(result):
    try:
        return translate(result.program)
    except TranslateError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(FAIL)


def cmd_abstract(args: argparse.Namespace) -> int:
    result, digest = _load(args.input)
    _require_valid(result)
    fg = _abstract(result)
    summary = "; ".join(
        f"{proc.name}: {len(proc.nodes)} node{'s' if len(proc.nodes) != 1 else ''}, "
        f"{len(proc.edges)} edge{'s' if len(proc.edges) != 1 else ''}"
        for proc in fg.procedures.values()
    )
    print(summary)
    if args.dot:
        opts = EmitterOptions(source_digest=digest)
        Path(args.dot).write_text(emit_dot(fg, opts), encoding="utf-8")
        print(f"wrote {args.dot}")
    return OK


def cmd_check(args: argparse.Namespace) -> int:
    result, _ = _load(args.input)
    _require_valid(result)
    fg = _abstract(result)
    try:
        phi = parse_expr(args.invariant)
    except ExprSyntaxError as err:
        print(f"error: bad invariant: {err}", file=sys.stderr)
        return IO_ERROR
    try:
        pds = induce(fg)
        verdict = check_invariant(pds, phi, args.max_steps, args.max_stack)
    except (NonGlobalVariableError, PdsError, ActionError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return IO_ERROR
    if not verdict.holds:
        print("violated")
        print(format_trace(verdict.trace))
        return FAIL
    if verdict.truncated:
        return _inconclusive()
    print("holds")
    return OK


def _inconclusive() -> int:
    print("inconclusive: bound hit before closing the state space")
    return INCONCLUSIVE


def cmd_emit(args: argparse.Namespace) -> int:
    result, digest = _load(args.input)
    _require_valid(result)
    fg = _abstract(result)
    opts = EmitterOptions(source_digest=digest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        if args.backend == "dot":
            path = out_dir / f"{fg.name}.dot"
            path.write_text(emit_dot(fg, opts), encoding="utf-8")
            written.append(path)
        else:
            sts = sts_of_flow_graph(fg, stack_capacity=args.stack_capacity)
            if args.backend == "tla":
                module, config = emit_tla(sts, opts)
                check_tla_text(module)
                module_path = out_dir / f"{fg.name}.tla"
                config_path = out_dir / f"{fg.name}.cfg"
                module_path.write_text(module, encoding="utf-8")
                config_path.write_text(config, encoding="utf-8")
                written += [module_path, config_path]
            else:
                model = emit_nuxmv(sts, opts)
                check_nuxmv_text(model)
                path = out_dir / f"{fg.name}.smv"
                path.write_text(model, encoding="utf-8")
                written.append(path)
    except (EmitError, StsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return FAIL
    for path in written:
        print(f"wrote {path}")
    if args.run_external:
        return _run_external(args.backend, written)
    return OK


def _run_external(backend: str, paths: list[Path]) -> int:
    tool = {"tla": "tlc", "nuxmv": "nuXmv"}.get(backend)
    if tool is None:
        print("error: --run-external supports tla and nuxmv only", file=sys.stderr)
        return FAIL
    if shutil.which(tool) is None:
        print(f"error: {tool} is not on PATH", file=sys.stderr)
        return IO_ERROR
    cmd = [tool, "-deadlock", str(paths[0])] if backend == "tla" else [tool, str(paths[0])]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return OK if proc.returncode == 0 else FAIL


def cmd_crosscheck(args: argparse.Namespace) -> int:
    result, _ = _load(args.input)
    _require_valid(result)
    fg = _abstract(result)
    try:
        pds = induce(fg)
        sts = sts_of_flow_graph(fg, stack_capacity=args.stack_capacity)
        if args.mutate:
            sts = mutate_sts(sts, args.mutate)
        depth = min(args.max_stack, args.stack_capacity)
        verdict = compare_with_pds(sts, pds, args.max_steps, depth)
    except (StsError, PdsError, ActionError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return IO_ERROR
    if verdict.inconclusive:
        return _inconclusive()
    if verdict.equivalent:
        print("equivalent")
        return OK
    print(f"divergent: {verdict.reason}")
    if verdict.witness:
        print(f"witness: {verdict.witness}")
    return FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmc",
        description="Contract-based model extraction: annotated programs to "
        "flow graphs, pushdown exploration, TLA+/nuXmv models.",
    )
    parser.add_argument("--version", action="version", version=f"flowmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = {"--max-steps": 100_000, "--max-stack": 64, "--stack-capacity": 10}

    def add_bounds(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, type=int, default=bounds[flag])

    p = sub.add_parser("validate", help="parse and validate a .apg file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("abstract", help="translate to a flow graph and summarize")
    p.add_argument("input")
    p.add_argument("--dot", help="write a DOT rendering to this path")
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("check", help="explicit-state invariant check")
    p.add_argument("input")
    p.add_argument("--invariant", required=True, help="boolean expression over globals")
    add_bounds(p, "--max-steps", "--max-stack")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("emit", help="write a backend model")
    p.add_argument("input")
    p.add_argument("--backend", choices=("tla", "nuxmv", "dot"), required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--run-external", action="store_true",
                   help="also run the backend tool when installed")
    add_bounds(p, "--stack-capacity")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("crosscheck", help="compare backend semantics with the PDS")
    p.add_argument("input")
    p.add_argument("--mutate", choices=MUTATIONS,
                   help="inject a named fault first (translation self-test)")
    add_bounds(p, *bounds)
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else IO_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
