"""Benchmark for the ``flowmc`` command: time to verdict and model emission.

Usage, from the root of a flowmc checkout:

    python3 perfbench/run.py --workload havoc_loop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run generates the workload's program from the seed, times a fresh
``python -m flowmc.cli abstract`` process several times (``setup_s``),
then calls ``flowmc.cli.main(argv)`` in process for each of the
workload's commands, pass after pass, and checks every exit code and
verdict line against the answer the generator derived from the
construction.  The number of passes follows from ``--seconds`` and the
workload's nominal pass time, so a run lasts about ``--seconds`` and
every run of a workload attempts the same operations.  ``--trace 1``
instead alternates untraced passes with passes under the outside-in
tracer and reports per-layer figures.  The last line of stdout is one JSON object;
the lines before it are a readable table.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PER_PASS = 4        # fresh processes timed for setup_s before each pass
MIN_PASSES = 3            # passes of the job per run, even when --seconds is short
MIN_TRACED = 2            # untraced + traced pass pairs per traced run, at least
# nominal seconds of one end-to-end pass (set-up processes included) and of
# one untraced + traced pass pair, as measured on a 2-core virtual machine;
# --seconds divided by these fixes the number of passes, so that the work
# of a run, and with it the operations it attempts, does not depend on
# how fast the machine happens to be
NOMINAL_PASS_S = {"havoc_loop": 4.9, "deep_recursion": 2.65, "wide_emit": 4.2}
NOMINAL_PAIR_S = {"havoc_loop": 10.1, "deep_recursion": 4.7, "wide_emit": 6.4}
# runs per end-to-end pass of the commands that take well under a second,
# so that their medians rest on enough samples; every other command runs once
REPS = {
    "havoc_loop": {"abstract": 25, "cex": 3,
                   "emit_tla": 25, "emit_nuxmv": 25, "emit_dot": 25},
    "deep_recursion": {"abstract": 25, "cex": 2,
                       "emit_tla": 25, "emit_nuxmv": 25, "emit_dot": 25},
    "wide_emit": {"abstract": 2, "check": 2, "cex": 3, "emit_dot": 5},
}
PARITY_WIDE = 24          # wide_emit size whose TLA+/nuXmv structures are compared

# end-to-end metrics, in report order: name -> unit
END_TO_END = {
    "setup_s": "s", "check_s": "s", "cex_s": "s", "crosscheck_s": "s",
    "emit_tla_s": "s", "emit_nuxmv_s": "s", "emit_dot_s": "s", "total_s": "s",
    "configs_per_s": "1/s", "model_bytes": "B", "peak_rss_mb": "MB",
}
# reported, but kept out of the JSON metrics: it is 0 on a healthy
# workload, and the JSON carries the same figure as attempted/failed
FAILED_OPS_UNIT = "ratio"

PER_LAYER_UNITS = {
    "ir_text.parse_s": "s", "ir_text.lines_per_s": "1/s",
    "ir.validate_s": "s", "ir.diagnostics": "count",
    "flowgraph.translate_s": "s", "flowgraph.nodes": "count", "flowgraph.edges": "count",
    "pds.induce_s": "s", "pds.expansions": "count", "pds.configs": "count",
    "pds.deadlocks": "count", "pds.max_depth": "count",
    "pds.successors_self_s": "s", "pds.search_self_s": "s",
    "actions.enumerate_posts_calls": "count", "actions.enumerate_posts_self_s": "s",
    "actions.candidates_per_expansion": "count", "actions.useful_ratio": "ratio",
    "expr.evals": "count", "expr.eval_s": "s",
    "sts.build_s": "s", "sts.actions": "count", "sts.states": "count",
    "sts.successors_calls": "count", "sts.successors_self_s": "s",
    "sts.execute_s": "s", "sts.compare_self_s": "s",
    "emit.tla_s": "s", "emit.nuxmv_s": "s", "emit.dot_s": "s",
    "emit.text_check_s": "s", "emit.tla_bytes": "B", "emit.smv_bytes": "B",
    "cli.self_s": "s", "trace.overhead_s": "s",
}
EMITTED = {"emit_tla": ("tla", "cfg"), "emit_nuxmv": ("smv",), "emit_dot": ("dot",)}
# counts that must repeat exactly between traced passes
DETERMINISTIC = ("pds.configs", "pds.expansions", "expr.evals",
                 "emit.tla_bytes", "emit.smv_bytes", "sts.states")
# per-layer figures taken from the holding check alone, whose search
# closes the whole reachable space; the rest are sums over the job
FROM_CHECK = ("pds.expansions", "pds.configs", "pds.deadlocks", "pds.max_depth")


class Outcome:
    """Counts attempted and failed operations and the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []   # (op, detail, known)

    def record(self, op: str, problem: str | None, known: bool = False) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append((op, problem, known))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> list[tuple[str, str, bool]]:
        return [f for f in self.failures if not f[2]]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``flowmc`` command; returns (exit code, stdout)."""
    from flowmc import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        # a crash is a wrong answer like any other; keep measuring
        return -1, "crashed: " + traceback.format_exc().replace("\n", " | ")
    return code, out.getvalue()


def judge(w: workloads.Workload, cmd: workloads.Command, code: int, stdout: str):
    """Compare one command's result with its expected answer.

    Returns ``(problem, known)``: ``problem`` is None when the answer is
    right, and ``known`` says whether a wrong answer is the documented
    defect, reproduced exactly.
    """
    lines = stdout.splitlines()
    first = lines[0] if lines else ""
    if cmd.known_defect is not None and (code, first) == cmd.known_defect:
        return f"known defect: {first}", True
    if code != cmd.exit_code:
        return f"exit {code}, expected {cmd.exit_code}: {first!r}", False
    if cmd.name == "abstract":
        # "main: 4 nodes, 5 edges; work: 6 nodes, 6 edges"
        first = "; ".join(part.split(":")[0].strip() for part in first.split(";"))
    if first != cmd.verdict:
        return f"verdict {first!r}, expected {cmd.verdict!r}", False
    if cmd.name == "cex":
        # the trace's last state must violate the invariant, by the
        # generator's own reading of it: "step | g=v ... | frames"
        last = lines[-1].split(" | ")[1] if len(lines) > 2 else ""
        state = {}
        for item in last.split():
            key, _, value = item.partition("=")
            state[key] = value == "true" if value in ("true", "false") else int(value)
        if not state or not w.violated_at(state):
            return f"trace does not end in a violating state: {last!r}", False
    if cmd.name == "emit_tla" and lines[1:] != [cmd.verdict[:-4] + ".cfg"]:
        return f"unexpected output {lines[1:]!r}", False
    return None, False


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 tiny: bool) -> None:
        self.root = root
        self.passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
        self.pairs = max(MIN_TRACED, round(seconds / NOMINAL_PAIR_S[workload]))
        self.work = root / ".bench_build" / "perfbench" / f"{workload}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.out_dir = self.work / "out"
        self.out_dir.mkdir(parents=True)
        self.inp = self.work / "input.apg"
        size = (workloads.TINY if tiny else workloads.FULL)[workload]
        self.w = workloads.GENERATORS[workload](seed, size, str(self.inp), str(self.out_dir))
        self.inp.write_text(self.w.source, encoding="utf-8")
        self.seed = seed
        self.outcome = Outcome()
        self.models: dict[str, str] = {}        # digest of the first run's model, by file type
        self.model_sizes: dict[str, int] = {}
        self.verdicts: dict[str, tuple[int, str]] = {}

    # -- set-up ------------------------------------------------------------

    def spawn_setup(self) -> float:
        """One fresh ``python -m flowmc.cli abstract`` process; its wall time."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        argv = [sys.executable, "-m", "flowmc.cli", "abstract", str(self.inp)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        problem, known = judge(self.w, self.w.commands[0], proc.returncode, proc.stdout)
        self.outcome.record("setup abstract", problem, known)
        return elapsed

    # -- one pass over the workload's commands ----------------------------

    def job(self, tracer=None, reps: dict[str, int] | None = None) -> dict[str, list[float]]:
        """Run every command once, or ``reps[name]`` times; returns the
        seconds of each run, by command."""
        samples: dict[str, list[float]] = {}
        for cmd in self.w.commands:
            for _ in range(reps.get(cmd.name, 1) if reps else 1):
                samples.setdefault(cmd.name, []).append(self.command(cmd, tracer))
        return samples

    def command(self, cmd: workloads.Command, tracer=None) -> float:
        argv = list(cmd.argv)
        if tracer is None:
            start = time.perf_counter()
            code, stdout = call_cli(argv)
            elapsed = time.perf_counter() - start
        else:
            (code, stdout), elapsed = tracer.run_command(cmd.name, lambda: call_cli(argv))
        problem, known = judge(self.w, cmd, code, stdout)
        self.outcome.record(cmd.name, problem, known)
        if self.verdicts.setdefault(cmd.name, (code, stdout)) != (code, stdout):
            self.outcome.record(f"{cmd.name} repeat", "output differs between runs")
        for ext in EMITTED.get(cmd.name, ()) if problem is None else ():
            path = self.out_dir / f"{self.w.program}.{ext}"
            data = path.read_bytes()
            self.model_sizes[ext] = len(data)
            digest = hashlib.sha256(data).hexdigest()
            if self.models.setdefault(ext, digest) != digest:
                self.outcome.record(f"{ext} model", "model text differs between runs")
            # every run emits into an emptied directory: truncating a file
            # that is still being written back makes the kernel flush it
            # first, which can cost more than the emission itself
            path.unlink()
        return elapsed

    def parity(self) -> None:
        """The TLA+ and nuXmv texts must describe the same actions."""
        from flowmc.emit import scan_nuxmv_structure, scan_tla_structure

        # the scanners search the whole text once per action, which takes
        # minutes on a full-size wide_emit model; that workload compares
        # a smaller instance of the same seed instead
        size = self.w.size
        if self.w.name == "wide_emit":
            size = min(size, PARITY_WIDE)
        out_dir = self.work / "parity"
        out_dir.mkdir()
        inp = self.work / "parity.apg"
        w = workloads.GENERATORS[self.w.name](self.seed, size, str(inp), str(out_dir))
        inp.write_text(w.source, encoding="utf-8")
        for cmd in w.commands[4:6]:
            code, stdout = call_cli(list(cmd.argv))
            problem, known = judge(w, cmd, code, stdout)
            self.outcome.record(f"parity {cmd.name}", problem, known)
            if problem is not None:
                return
        tla = (out_dir / f"{w.program}.tla").read_text(encoding="utf-8")
        smv = (out_dir / f"{w.program}.smv").read_text(encoding="utf-8")
        same = scan_tla_structure(tla) == scan_nuxmv_structure(smv)
        self.outcome.record("structure parity", None if same else
                            "scan_tla_structure and scan_nuxmv_structure disagree")

    # -- the two kinds of run -----------------------------------------------

    def count_check(self) -> dict[str, float]:
        """Per-layer counts of one traced holding check (not timed)."""
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        try:
            check = self.w.commands[1]
            tracer.run_command("check", lambda: call_cli(list(check.argv)))
        finally:
            tracer.restore()
        return layer_metrics(tracer.commands[-1])

    def end_to_end(self) -> dict[str, float]:
        self.spawn_setup()                       # fills the .pyc cache; not timed
        setup: list[float] = []
        passes: list[dict[str, list[float]]] = []
        # set-up processes are spread over the run, so that a slow spell
        # of the machine touches only a few of them
        for _ in range(self.passes):
            setup += [self.spawn_setup() for _ in range(SETUP_PER_PASS)]
            passes.append(self.job(reps=REPS[self.w.name]))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.parity()
        counts = self.count_check()
        per_cmd = {name: median(t for p in passes for t in p[name]) for name in passes[0]}
        self.timed = per_cmd
        return {
            "setup_s": median(setup),
            "check_s": per_cmd["check"],
            "cex_s": per_cmd["cex"],
            "crosscheck_s": per_cmd["crosscheck"],
            "emit_tla_s": per_cmd["emit_tla"],
            "emit_nuxmv_s": per_cmd["emit_nuxmv"],
            "emit_dot_s": per_cmd["emit_dot"],
            "total_s": median(sum(median(t) for t in p.values()) for p in passes),
            "configs_per_s": counts["pds.expansions"] / per_cmd["check"],
            "model_bytes": sum(self.model_sizes[ext] for ext in ("tla", "cfg", "smv")),
            "peak_rss_mb": rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        plain: list[dict[str, float]] = []
        traced: list[dict[str, float]] = []
        jobs: list[dict[str, dict[str, float]]] = []
        # untraced and traced passes alternate; every run's output must
        # equal the first run's, so the traced verdicts match the untraced
        for _ in range(self.pairs):
            plain.append({n: t[0] for n, t in self.job().items()})
            install(tracer)
            try:
                first = len(tracer.commands)
                traced.append({n: t[0] for n, t in self.job(tracer).items()})
            finally:
                tracer.restore()
            jobs.append({c["command"]: layer_metrics(c) for c in tracer.commands[first:]})
        tracer.write(self.work.parent / f"trace-{self.w.name}-{self.seed}.json")
        self.parity()

        for name in DETERMINISTIC:
            values = {sum_job(j, name) for j in jobs}
            if len(values) > 1:
                self.outcome.record(f"{name} repeat", f"differs between passes: {values}")
            else:
                self.outcome.record(f"{name} repeat", None)

        metrics = {}
        for name in PER_LAYER_UNITS:
            if name in ("ir_text.lines_per_s", "trace.overhead_s",
                        "actions.candidates_per_expansion", "actions.useful_ratio"):
                continue
            metrics[name] = median(sum_job(j, name) for j in jobs)
        lines = median(sum_job(j, "ir_text.lines") for j in jobs)
        metrics["ir_text.lines_per_s"] = lines / metrics["ir_text.parse_s"]
        candidates = median(sum_job(j, "actions.candidates") for j in jobs)
        posts = median(sum_job(j, "actions.posts") for j in jobs)
        calls = metrics["actions.enumerate_posts_calls"]
        metrics["actions.candidates_per_expansion"] = candidates / calls if calls else 0.0
        metrics["actions.useful_ratio"] = posts / candidates if candidates else 0.0

        untraced = {n: median(p[n] for p in plain) for n in plain[0]}
        with_trace = {n: median(p[n] for p in traced) for n in traced[0]}
        metrics["trace.overhead_s"] = (median(sum(p.values()) for p in traced)
                                       - median(sum(p.values()) for p in plain))
        self.overhead = {n: (with_trace[n] - untraced[n], untraced[n]) for n in untraced}
        return metrics


def sum_job(job: dict[str, dict[str, float]], name: str) -> float:
    """One per-layer figure of a traced pass: the holding check's for the
    closure counts, the first command's for per-translation sizes, else
    the sum over the pass."""
    if name in FROM_CHECK:
        return job["check"][name]
    if name in ("flowgraph.nodes", "flowgraph.edges", "sts.actions"):
        return max(m[name] for m in job.values())
    return sum(m[name] for m in job.values())


def report(run: Run, metrics: dict[str, float], units: dict[str, str], trace: bool) -> dict:
    o = run.outcome
    failed_ops = o.failed / o.attempted
    print(f"workload {run.w.name} (size {run.w.size}, seed {run.seed}): "
          f"{workloads.WHY[run.w.name]}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    print(f"  {'failed_ops':34s} {failed_ops:16.6f} {FAILED_OPS_UNIT}"
          f"   ({o.failed} of {o.attempted} operations)")
    if trace:
        for name, (extra, base) in run.overhead.items():
            print(f"  trace.overhead.{name + '_s':19s} {extra:16.6f} s"
                  f"   (untraced {base:.6f} s)")
    known = {(op, detail) for op, detail, k in o.failures if k}
    for op, detail in sorted(known):
        line = f"  FAILED (known defect) {op}: {detail}"
        if not trace and op in run.timed:
            line += f"; its time {run.timed[op]:.6f} s is not a passing timing"
        print(line)
    for op, detail, _ in o.unexpected[:20]:
        print(f"  FAILED {op}: {detail}")
    return {
        "correct": not o.unexpected,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    results = {}
    for name in workloads.GENERATORS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="the self-test's small sizes instead of the full ones")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flowmc" / "cli.py").is_file():
        print(f"error: no flowmc sources under {root / 'src'}; "
              "run from the root of a flowmc checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))

    run = Run(root, args.workload, args.seed, args.seconds, args.tiny)
    if args.trace:
        result = report(run, run.per_layer(), PER_LAYER_UNITS, trace=True)
    else:
        result = report(run, run.end_to_end(), END_TO_END, trace=False)
    shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
