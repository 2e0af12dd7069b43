"""Differential sweep: run the same flowmc commands on two checkouts and
compare every observable result.

    python3 tools/sweep.py --base DIR [--head DIR] [--programs fixtures,genprog:0-199,perfbench]

``--base`` and ``--head`` (default: this checkout) are repository roots;
each side runs ``flowmc.cli.main`` from its own ``src/``, all runs of a
side in one process.  The programs come from this checkout: the ``.apg``
fixtures under ``tests/fixtures``, the ``tests/genprog.py`` seeds in the
given ranges, written as text with ``serialize_program``, and the three
benchmark workloads at their small sizes, seed 1.  Every program gets
these runs:

- ``check`` with ``true``, and with ``g == v`` and ``g != v`` for each
  global ``g`` and the first value ``v`` of its domain, each three ways:
  with the default bounds, with ``--max-steps 5`` and with
  ``--max-stack 2``;
- ``crosscheck`` plain, with ``--stack-capacity 2`` and ``3``, and with
  ``--max-steps 5``;
- ``crosscheck --mutate KIND`` for every mutation, at the default
  capacity and at ``--stack-capacity 2``;
- ``emit`` for each of the three backends.

A run records its exit code, stdout, stderr and the sha256 of every file
it wrote.  The sweep prints the count of runs and of the runs that
differ, then the first differences in full, and exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN = 5  # differences printed in full


def _program_set(spec: str, out_dir: Path) -> list[list[str]]:
    """Write the programs of ``spec`` into ``out_dir``; return the argv of
    every run over them.  Runs with this checkout's flowmc and tests."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from flowmc.ir_text import parse_program, serialize_program
    from flowmc.sts import MUTATIONS

    paths = []
    for part in spec.split(","):
        if part == "fixtures":
            for src in sorted((ROOT / "tests" / "fixtures").glob("*.apg")):
                paths.append(out_dir / src.name)
                shutil.copyfile(src, paths[-1])
        elif part.startswith("genprog:"):
            from genprog import random_program

            first, _, last = part[len("genprog:"):].partition("-")
            for seed in range(int(first), int(last or first) + 1):
                paths.append(out_dir / f"gen{seed}.apg")
                paths[-1].write_text(serialize_program(random_program(seed)), encoding="utf-8")
        elif part == "perfbench":
            sys.path.insert(0, str(ROOT / "perfbench"))
            import workloads

            for name, generate in workloads.GENERATORS.items():
                paths.append(out_dir / f"{name}.apg")
                workload = generate(1, workloads.TINY[name], str(paths[-1]), "out")
                paths[-1].write_text(workload.source, encoding="utf-8")
        else:
            raise SystemExit(f"unknown program set {part!r}")

    runs = []
    for path in paths:
        program = parse_program(path.read_text(encoding="utf-8")).program
        invariants = ["true"]
        for decl in program.globals if program is not None else ():
            first = "false" if decl.domain.kind == "bool" else str(decl.domain.lo)
            invariants += [f"{decl.name} == {first}", f"{decl.name} != {first}"]
        name = str(path)
        for invariant in invariants:
            for bound in ([], ["--max-steps", "5"], ["--max-stack", "2"]):
                runs.append(["check", name, "--invariant", invariant] + bound)
        for bound in ([], ["--stack-capacity", "2"], ["--stack-capacity", "3"],
                      ["--max-steps", "5"]):
            runs.append(["crosscheck", name] + bound)
        for kind in MUTATIONS:
            for bound in ([], ["--stack-capacity", "2"]):
                runs.append(["crosscheck", name, "--mutate", kind] + bound)
        for backend in ("tla", "nuxmv", "dot"):
            runs.append(["emit", name, "--backend", backend, "--out", "out"])
    return runs


def _worker(runs_file: Path) -> None:
    """Run every argv of ``runs_file`` through ``flowmc.cli.main`` in the
    current directory; print one JSON record a run."""
    from flowmc.cli import main

    for argv in json.loads(runs_file.read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # an escaped error is a result to compare
                code = f"raised {type(exc).__name__}: {exc}"
        files = {}
        if os.path.isdir("out"):
            for path in sorted(Path("out").iterdir()):
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            shutil.rmtree("out")
        record = {"argv": argv, "code": code, "stdout": out.getvalue(),
                  "stderr": err.getvalue(), "files": files}
        print(json.dumps(record, sort_keys=True))


def _run_side(root: Path, runs_file: Path, work: Path) -> subprocess.Popen:
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(runs_file)],
        cwd=work, env=env, stdout=subprocess.PIPE, text=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--head", type=Path, default=ROOT)
    parser.add_argument("--programs", default="fixtures,genprog:0-199,perfbench")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        _worker(args.worker)
        return 0
    if args.base is None:
        parser.error("--base is required")

    with tempfile.TemporaryDirectory(prefix="flowmc-sweep-") as tmp:
        tmp_path = Path(tmp)
        programs = tmp_path / "programs"
        programs.mkdir()
        runs_file = tmp_path / "runs.json"
        runs_file.write_text(json.dumps(_program_set(args.programs, programs)),
                             encoding="utf-8")
        sides = [_run_side(root, runs_file, tmp_path / side)
                 for side, root in (("base", args.base), ("head", args.head))]
        outputs = [side.communicate()[0].splitlines() for side in sides]
        if any(side.returncode != 0 for side in sides):
            print("sweep: a side failed to run", file=sys.stderr)
            return 2

    base, head = outputs
    differ = [(b, h) for b, h in zip(base, head) if b != h]
    print(f"sweep: {len(base)} runs, {len(differ)} differ")
    for b, h in differ[:SHOWN]:
        print(f"base: {b}\nhead: {h}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
