"""Self-test of the benchmark: every workload once at a tiny size.

Run from the root of a flowmc checkout:

    python3 perfbench/selftest.py

For each workload, with and without tracing, it checks that the run exits
0, that its last line is the result object with exactly the expected
keys, that every metric named in BENCHMARK.json is there with its unit,
that the readable table names every metric with its unit, and that no
operation fails except the documented defect on deep_recursion.  It also
checks that the benchmark refuses to run where there are no flowmc
sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"
KNOWN_DEFECT = {"deep_recursion": "FAILED (known defect) crosscheck"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--tiny"], ROOT)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            table = lines[:-1]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            if trace == 0:
                expected_table = dict(expected, failed_ops="ratio")
            else:
                expected_table = dict(expected)
                for cmd in ("check", "cex", "crosscheck", "emit_tla", "emit_nuxmv",
                            "emit_dot"):
                    expected_table[f"trace.overhead.{cmd}_s"] = "s"
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, unit in expected_table.items():
                if not any(row.split()[:3:2] == [name, unit] for row in table):
                    problems.append(f"{where}: table lacks {name} in {unit}")
            if not result["correct"]:
                problems.append(f"{where}: incorrect output: {table[-5:]}")
            marker = KNOWN_DEFECT.get(workload)
            if marker is None and result["failed"]:
                problems.append(f"{where}: {result['failed']} failed operations")
            if marker is not None and not (result["failed"] and
                                           any(marker in row for row in table)):
                problems.append(f"{where}: the known defect is not reported")
            print(f"{where}: {result['attempted']} operations, {result['failed']} failed")

    # with only BENCHMARK.json and the benchmark's files, it must refuse
    bare = ROOT / ".bench_build" / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable] + spec["command"][1:] +
                          ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without flowmc sources still produced a result")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
