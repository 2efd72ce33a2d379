"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(demo: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    proc = _run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_kv_layouts_rejects_a_reservation_shorter_than_a_sequence(tmp_path):
    # Vanilla cannot hold the 1500-token sequence; a usage error, not a traceback.
    proc = _run_demo(ROOT / "demos" / "kv_cache_layouts.py", tmp_path,
                     "--reserved-len", "1000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1].endswith(
        "error: --reserved-len must hold the longest sequence, 1500 tokens")
