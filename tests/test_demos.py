"""Every demo script runs to completion against the source tree, and parses
its numeric flags as strictly as the CLI does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _run_demo(demo: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


RATE_SWEEP = ROOT / "demos" / "serving_rate_sweep.py"
KV_LAYOUTS = ROOT / "demos" / "kv_cache_layouts.py"


def test_rate_sweep_rejects_a_rate_float_would_coerce(tmp_path):
    # float() reads "1_0" as 10.
    proc = _run_demo(RATE_SWEEP, tmp_path, "--rates", "1_0, 2", "--n", "20")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        "error: rates must be a plain number, got '1_0'")


@pytest.mark.parametrize("rates, message", [
    ("1,inf", "rates must be a finite number, got inf"),
    ("1,1", "rate 1.0 is repeated"),
])
def test_rate_sweep_rejects_an_infinite_or_repeated_rate(tmp_path, rates, message):
    # One usage line and exit 2, as `infercost simulate --rates` gives, not a traceback.
    proc = _run_demo(RATE_SWEEP, tmp_path, "--rates", rates, "--n", "20")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"error: {message}")
    assert "Traceback" not in proc.stderr


def test_rate_sweep_warns_instead_of_naming_a_peak_when_nothing_completed(tmp_path):
    proc = _run_demo(RATE_SWEEP, tmp_path, "--rates", "10,2", "--n", "20")
    assert proc.returncode == 0, proc.stderr
    assert "peaks" not in proc.stdout
    assert proc.stdout.count("warning: sweep metrics trim 100 warmup and 100 drain "
                             "requests, which consumed the whole 20-request trace") == 2


@pytest.mark.parametrize("text, message", [
    ("13.5000000001e9", "'13.5000000001e9' is not a whole number of bytes"),
    ("1_3.5e9", "value must be a plain number, got '1_3.5e9'"),
])
def test_kv_layouts_weight_bytes_are_whole_bytes(tmp_path, text, message):
    # float() then int() used to truncate the first and read the second as 13.5e9.
    proc = _run_demo(KV_LAYOUTS, tmp_path, "--weight-bytes", text)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(f"error: argument --weight-bytes: {message}")


def test_kv_layouts_weight_bytes_in_scientific_notation(tmp_path):
    plain = _run_demo(KV_LAYOUTS, tmp_path, "--weight-bytes", "13500000000")
    scientific = _run_demo(KV_LAYOUTS, tmp_path, "--weight-bytes", "13.5e9")
    assert scientific.returncode == 0
    assert scientific.stdout == plain.stdout
