#!/usr/bin/env python3
"""Host-time benchmark of infercost: end-to-end metrics or a traced breakdown.

Usage (from the repository root):

    python3 bench/run_bench.py --workload decode-16k --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
processes, then untraced passes of the workload for ``--seconds``.
``--trace 1`` sets up under the tracer and alternates untraced and traced
passes, reporting per-module call counts and self times plus
``trace_overhead_frac``. Every pass checks its outputs. The last line of
stdout is one JSON object (correct, attempted, failed, metrics); the full
report, with the simulated-statistics fingerprint and provenance, goes to
``bench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json``. The exit code
is 0 only when every check passed.
"""

import os

# Single-threaded BLAS, set before numpy is imported here or in a set-up child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 7  # fresh set-up processes per run; setup_s is their median
MIN_PASSES = 3  # untraced timed passes, even when --seconds is short
MIN_TRACED = 2  # traced passes in a --trace 1 run
MAX_PROBLEMS = 50  # failed checks printed and kept in the report

MODULES = ("cli", "workload", "servesim", "estimator", "kvsim", "costmodel",
           "hardware", "arch")

# Wrapped functions: the ones the per-layer table names, plus the cross-module
# calls (trace and coefficient files, presets, kv_cache_bytes,
# max_concurrency) that would otherwise land in a caller of another module.
# True: one span per call (coarse calls); False: counters only (per-step and
# per-grid-point leaves).
TRACED = {
    "cli.main": True,
    "workload.generate": True, "workload.load_trace": True, "workload.save_trace": True,
    "servesim.sweep_rates": True, "servesim.run": True, "servesim.trim_warmup": True,
    "servesim.compute_metrics": True, "servesim.metrics_csv_text": True,
    "estimator.fit": True, "estimator.load_timing_samples": True,
    "estimator.load_coefficients": True, "estimator.save_coefficients": True,
    "estimator.predict_at": False,
    "kvsim.allocated_tokens": False, "kvsim.footprint": False,
    "kvsim.cache_step_bytes": False, "kvsim.max_concurrency": False,
    "costmodel.prefill_op_costs": False, "costmodel.decode_op_costs": False,
    "costmodel.aggregate": False, "costmodel.kv_cache_bytes": False,
    "hardware.classify": False, "hardware.lower_bound_time": False,
    "hardware.resolve_hardware": True,
    "arch.validate_config": False, "arch.resolve_model": True,
}

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
DERIVED_UNITS = {
    "servesim.run.self_us_per_step": "us/step",
    "estimator.predict_at.calls_per_step": "count/step",
    "arch.validate_config.calls_per_step": "count/step",
    "kvsim.allocated_tokens.calls_per_request": "count/request",
    "servesim.steps": "count", "servesim.events": "count",
    "servesim.steps_per_event": "steps/event", "servesim.prefill_step_frac": "ratio",
    "servesim.kv_peak_reserved_frac": "ratio", "trace_overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in (*MODULES, "harness"):
        units[f"{module}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def import_workloads():
    """Import the benchmark's workloads against ``src/`` of this checkout only."""
    if not (SRC / "infercost" / "__init__.py").is_file():
        sys.exit(f"run_bench: no infercost sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import infercost
    if Path(infercost.__file__).resolve().parent != SRC / "infercost":
        sys.exit(f"run_bench: imported infercost from {infercost.__file__}, not {SRC}")
    import workloads
    for path in workloads.TIMING_FILES:
        if not path.is_file():
            sys.exit(f"run_bench: missing reference data {path}")
    return workloads


def make_workdir(tag: str) -> Path:
    path = RESULTS / f"work-{os.getpid()}-{tag}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to set-up done, one child at a
    time, normalised by calibration bursts taken just before and after."""
    samples = []
    for i in range(SETUP_REPEATS):
        workdir = make_workdir(f"setup{i}")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        try:
            before = hostspeed.burst()
            start = time.perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                after = hostspeed.burst()
                proc.stdout.read()
                code = proc.wait(timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child exited {code} without finishing set-up")
        samples.append(elapsed * hostspeed.speed_factor(before + after))
    return samples


def provenance(loadavg) -> dict:
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        top, head = out.stdout.split()
        if out.returncode == 0 and Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_at_start": list(loadavg), "source_lines": source_lines()}


def source_lines() -> dict:
    """Physical and non-blank, non-comment line counts of src/infercost/*.py."""
    physical = net = 0
    for path in sorted((SRC / "infercost").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            physical += 1
            stripped = line.strip()
            net += bool(stripped) and not stripped.startswith("#")
    return {"physical": physical, "net": net}


def run_passes(wl, observer, seconds, tracer=None):
    """Untraced passes (alternating with traced ones when a tracer is given)
    until the next pass would overrun `seconds`, with minimum pass counts."""
    plain, traced, stats = [], [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        plain.append(wl.run_pass(observer))
        if tracer is not None:
            before = tracer.snapshot()
            tracer.install(TRACED)
            observer.tracer = tracer
            try:
                traced.append(wl.run_pass(observer))
            finally:
                observer.tracer = None
                tracer.uninstall()
            stats.append(stats_delta(before, tracer.snapshot()))
        last = time.perf_counter() - begin
        enough = len(plain) >= MIN_PASSES if tracer is None else len(traced) >= MIN_TRACED
        if enough and time.perf_counter() - start + last > seconds:
            return plain, traced, stats


NO_CALLS = (0, 0.0, 0.0)  # (calls, total_s, self_s) of a function never called


def stats_delta(before, after) -> dict[str, tuple]:
    return {name: tuple(a - b for a, b in zip(after.get(name, NO_CALLS),
                                              before.get(name, NO_CALLS)))
            for name in TRACED}


def workload_properties(fingerprint: dict) -> dict[str, float]:
    runs = [fp for fp in fingerprint.values() if "events" in fp]
    steps = sum(fp["steps"] for fp in runs)
    events = sum(fp["events"] for fp in runs)
    return {
        "servesim.steps": steps,
        "servesim.events": events,
        "servesim.steps_per_event": steps / events if events else 0.0,
        "servesim.prefill_step_frac":
            sum(fp["prefill_steps"] for fp in runs) / steps if steps else 0.0,
        "servesim.kv_peak_reserved_frac": max(
            (fp["peak_reserved_bytes"] / fp["capacity_bytes"] for fp in runs
             if fp["capacity_bytes"]), default=0.0),
    }


def layer_metrics(setup_stats, setup_wall, pass_stats, traced, plain) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one traced pass (median)."""
    values = {}
    pass_calls, pass_self = {}, {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name in TRACED:
        pass_calls[name] = statistics.median(s[name][0] for s in pass_stats)
        pass_self[name] = statistics.median(s[name][2] for s in pass_stats)
        setup_calls, _, setup_self = setup_stats.get(name, NO_CALLS)
        values[f"{name}.calls"] = setup_calls + pass_calls[name]
        values[f"{name}.self_s"] = setup_self + pass_self[name]
        module_self[name.split(".")[0]] += setup_self + pass_self[name]
    for module, self_s in module_self.items():
        values[f"{module}.self_s"] = self_s
    # Harness time: what wrapped calls do not cover, in set-up and in a pass.
    values["harness.self_s"] = (
        setup_wall - sum(setup_stats.get(name, NO_CALLS)[2] for name in TRACED)
        + statistics.median(p.wall_s - sum(st[2] for st in s.values())
                            for p, s in zip(traced, pass_stats)))

    props = workload_properties(traced[0].fingerprint)
    steps = props["servesim.steps"]
    requests = traced[0].attempted if steps else 0
    values["servesim.run.self_us_per_step"] = (
        pass_self["servesim.run"] / steps * 1e6 if steps else 0.0)
    for name in ("estimator.predict_at", "arch.validate_config"):
        values[f"{name}.calls_per_step"] = pass_calls[name] / steps if steps else 0.0
    values["kvsim.allocated_tokens.calls_per_request"] = (
        pass_calls["kvsim.allocated_tokens"] / requests if requests else 0.0)
    values.update(props)
    values["trace_overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                     / statistics.median(p.wall_s for p in plain) - 1)
    return values


def declared_metric_names() -> tuple[set, set]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decode-16k", "rate-sweep", "analytic-grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_workloads()
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_child:
        cls(args.seed, args.workdir)
        print("ready", flush=True)
        return 0

    setup_samples = None if args.trace else measure_setup(args.workload, args.seed)
    workdir = make_workdir("main")
    try:
        tracer = None
        setup_stats, setup_wall = {}, 0.0
        if args.trace:
            import infercost
            from tracer import Tracer
            tracer = Tracer(infercost, {m: getattr(infercost, m) for m in MODULES})
            tracer.install(TRACED)
            start = time.perf_counter()
            try:
                wl = cls(args.seed, workdir)
            finally:
                setup_wall = time.perf_counter() - start
                tracer.uninstall()
            setup_stats = tracer.snapshot()
        else:
            wl = cls(args.seed, workdir)
        run_problems = workloads.fit_error_problems()
        speed = hostspeed.HostSpeed()
        observer = workloads.RunObserver(speed)
        # Untraced runs sample host speed throughout; traced runs report raw
        # per-layer times, untouched by the sampler.
        with speed.sampling() if tracer is None else nullcontext():
            warm = wl.run_pass(observer)
            plain, traced, pass_stats = run_passes(wl, observer, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [warm, *plain, *traced]
    if len({p.digest for p in passes}) != 1:
        run_problems.append("passes disagree: simulated outputs are not deterministic")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(plain), "traced_passes": len(traced),
              "pass_wall_s": [p.wall_s for p in plain], "work_per_pass": warm.work,
              "provenance": provenance(loadavg), "fingerprint": warm.fingerprint,
              "digest": warm.digest}
    if args.trace:
        metrics = layer_metrics(setup_stats, setup_wall, pass_stats, traced, plain)
        units = per_layer_units()
        report.update(setup_stats=setup_stats, pass_stats=pass_stats,
                      traced_wall_s=[p.wall_s for p in traced],
                      spans=tracer.spans)
    else:
        walls = [speed.normalise(p.wall_s, *p.span) for p in plain]
        report["normalised_pass_wall_s"] = walls
        metrics = {"wall_s": statistics.median(walls),
                   "work_per_s": statistics.median(p.work / w for p, w in zip(plain, walls)),
                   "setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        report["setup_samples_s"] = setup_samples
    declared = declared_metric_names()[args.trace]
    if declared != set(metrics):
        run_problems.append(f"metrics {sorted(set(metrics) ^ declared)} "
                            f"differ from BENCHMARK.json")
    problems = [q for p in passes for q in p.problems] + run_problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(run_problems)
    report.update(metrics=metrics, problems=problems[:MAX_PROBLEMS], problem_count=len(problems))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(plain)} passes"
          f" ({len(traced)} traced), {warm.work} work units and {warm.attempted} ops per pass,"
          f" digest {warm.digest}, source lines {report['provenance']['source_lines']}")
    if not args.trace:
        alias = "cost_evals_per_s" if args.workload == "analytic-grid" else "sim_steps_per_s"
        print(f"  {alias:<48} {metrics['work_per_s']:.6g} 1/s")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    print(f"  ops_attempted {attempted}, ops_failed {failed}")
    for problem in problems[:MAX_PROBLEMS]:
        print(f"  FAILED: {problem}")
    if len(problems) > MAX_PROBLEMS:
        print(f"  ... and {len(problems) - MAX_PROBLEMS} more failed checks")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
