"""Command-line front end: validate -> abstract -> (check | emit | crosscheck).

Exit codes: 0 ok/holds/equivalent; 1 violation, divergence, validation
diagnostics, or an error in the program (translation, STS build,
emission, evaluation); 2 usage or I/O error (a bad flag or invariant, an
unreadable or unparsable input, an unwritable output, a mutation with no
site); 3 inconclusive (a bound was hit before a verdict).  Every error
reaches its code through ``EXIT_CODES``.
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
from .expr import EvalError, ExprError, ExprSyntaxError, parse_expr
from .flowgraph import TranslateError, translate
from .ir_text import parse_program
from .pds import PdsError, check_invariant, format_trace, induce
from .sts import MUTATIONS, MutationError, StsError, compare_with_pds, mutate_sts, sts_of_flow_graph

OK = 0
FAIL = 1
USAGE = 2
INCONCLUSIVE = 3


class UsageError(Exception):
    """The request cannot be served: an unreadable input or a bad invariant."""


class Diagnostics(Exception):
    """The input is not a valid program; the message is its diagnostics, one a line."""


class Unparsable(Diagnostics):
    """The input is not a program at all: it did not parse."""


# The exit code of each error; the first row the error is an instance of
# wins, so a subclass comes before its base.
EXIT_CODES: tuple[tuple[type[BaseException], int | None], ...] = (
    (SystemExit, None),         # argparse: 2 after a usage error, 0 after --help/--version
    (UsageError, USAGE),
    (Unparsable, USAGE),
    (Diagnostics, FAIL),
    (OSError, USAGE),           # an unwritable --out, a backend tool not on PATH
    (MutationError, USAGE),     # --mutate names a fault the program has no site for
    (EvalError, FAIL),          # e.g. the program divides by zero
    (ExprError, USAGE),         # e.g. an invariant that is not boolean
    (PdsError, USAGE),          # e.g. an invariant over locals
    (ActionError, USAGE),       # e.g. a search over an unbounded domain
    (TranslateError, FAIL),
    (StsError, FAIL),
    (EmitError, FAIL),
)


def _load(path: str):
    """Returns (program, source digest) of a valid input."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from err
    result = parse_program(text)
    diagnostics = "\n".join(str(diag) for diag in result.diagnostics)
    if result.program is None:
        raise Unparsable(diagnostics)
    if diagnostics:
        raise Diagnostics(diagnostics)
    return result.program, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _invariant(text: str):
    try:
        return parse_expr(text)
    except ExprSyntaxError as err:
        raise UsageError(f"bad invariant: {err}") from err


def cmd_validate(args: argparse.Namespace) -> int:
    _load(args.input)
    print(f"{args.input}: ok")
    return OK


def cmd_abstract(args: argparse.Namespace) -> int:
    program, _ = _load(args.input)
    fg = translate(program)
    summary = "; ".join(
        f"{proc.name}: {len(proc.nodes)} node{'s' if len(proc.nodes) != 1 else ''}, "
        f"{len(proc.edges)} edge{'s' if len(proc.edges) != 1 else ''}"
        for proc in fg.procedures.values()
    )
    print(summary)
    return OK


def cmd_check(args: argparse.Namespace) -> int:
    program, _ = _load(args.input)
    fg = translate(program)
    phi = _invariant(args.invariant)
    verdict = check_invariant(induce(fg), phi, args.max_steps, args.max_stack)
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
    program, digest = _load(args.input)
    fg = translate(program)
    opts = EmitterOptions(source_digest=digest)
    if args.backend == "dot":
        files = [("dot", emit_dot(fg, opts))]
    else:
        sts = sts_of_flow_graph(fg, stack_capacity=args.stack_capacity)
        if args.backend == "tla":
            module, config = emit_tla(sts, opts)
            check_tla_text(module)
            files = [("tla", module), ("cfg", config)]
        else:
            model = emit_nuxmv(sts, opts)
            check_nuxmv_text(model)
            files = [("smv", model)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for suffix, text in files:
        path = out_dir / f"{fg.name}.{suffix}"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    if args.run_external:
        return _run_external(args.backend, out_dir / f"{fg.name}.{files[0][0]}")
    return OK


def _run_external(backend: str, path: Path) -> int:
    tool = {"tla": "tlc", "nuxmv": "nuXmv"}.get(backend)
    if tool is None:
        raise EmitError("--run-external supports tla and nuxmv only")
    if shutil.which(tool) is None:
        raise FileNotFoundError(f"{tool} is not on PATH")
    cmd = [tool, "-deadlock", str(path)] if backend == "tla" else [tool, str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return OK if proc.returncode == 0 else FAIL


def cmd_crosscheck(args: argparse.Namespace) -> int:
    program, _ = _load(args.input)
    fg = translate(program)
    pds = induce(fg)
    sts = sts_of_flow_graph(fg, stack_capacity=args.stack_capacity)
    if args.mutate:
        sts = mutate_sts(sts, args.mutate)
    verdict = compare_with_pds(sts, pds, args.max_steps)
    if verdict.inconclusive:
        return _inconclusive()
    if verdict.equivalent:
        print("equivalent")
        return OK
    print(f"divergent: {verdict.reason}")
    if verdict.witness:
        print(f"witness: {verdict.witness}")
    return FAIL


def positive_int(text: str) -> int:
    """argparse type of the bound flags: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
            p.add_argument(flag, type=positive_int, default=bounds[flag])

    p = sub.add_parser("validate", help="parse and validate a .apg file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("abstract", help="translate to a flow graph and summarize")
    p.add_argument("input")
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
    add_bounds(p, "--max-steps", "--stack-capacity")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as err:
        code = next(code for cls, code in EXIT_CODES if isinstance(err, cls))
        if code is None:  # argparse has printed its message
            return err.code
        print(err if isinstance(err, Diagnostics) else f"error: {err}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
