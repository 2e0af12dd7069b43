"""The differential sweep (``tools/sweep.py``) on small program sets."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sweep(base, head, programs):
    proc = subprocess.run(
        [sys.executable, "tools/sweep.py", "--base", str(base), "--head", str(head),
         "--programs", programs],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_checkout_against_itself_differs_nowhere():
    assert _sweep(".", ".", "genprog:0-4") == (0, "sweep: 106 runs, 0 differ\n", "")


def test_a_changed_verdict_is_a_difference(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "flowmc" / "cli.py"
    cli.write_text(cli.read_text().replace('print("holds")', 'print("held")'))
    code, out, err = _sweep(".", tmp_path, "genprog:0")
    assert (code, err) == (1, "")
    assert out.startswith("sweep: 26 runs, 2 differ\n")
    assert '"stdout": "held\\n"' in out
