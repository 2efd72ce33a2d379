"""The three benchmark workloads: seeded set-up, one timed pass, output checks.

Every workload calls infercost through module attributes (``ic.run``,
``costmodel.decode_op_costs``, ``cli.main``), so the tracer's wrappers see
each call. Output checks and digests run off the clock: a pass's ``wall_s``
excludes them.

decode-16k     64 short-16k requests, all arriving at t=0, under Static(32),
               Continuous(max_seqs=32) and SplitFuse(32) on an A800 with a
               paged KV cache: ~160k simulated steps but ~180 scheduler events
               per policy, and the KV capacity holds 7 sequences so admission
               is refused and retried on every step. Stresses the step loop,
               step pricing and KV admission.
rate-sweep     1000 long-to-short requests replayed by the `simulate` CLI at
               Poisson rates 0.5..16 req/s under continuous and split-fuse
               scheduling: ~215k steps with 1-20 steps per event, prefill
               pricing and long queues past saturation. The only workload that
               runs trace loading, the CLI, sweep_rates, metrics and the CSV.
analytic-grid  5,376 (model, hardware, b, s) points of per-op costs, roofline
               bounds, runtime predictions and KV formulas; never enters
               servesim, so a simulator-only change must leave it flat.
"""

from __future__ import annotations

import csv
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

import infercost as ic
from infercost import cli, costmodel, estimator, hardware, kvsim, servesim

from hostspeed import HostSpeed

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
VLLM_TIMING = ROOT / "paper-data" / "timing_samples_vllm.csv"
TIMING_FILES = (VLLM_TIMING, ROOT / "paper-data" / "timing_samples_transformers.csv")

# bf16 weights: 2 bytes x 6,738,415,616 (llama2-7b) and 13,015,864,320
# (llama2-13b) parameters.
WEIGHT_BYTES = {"llama2-7b": 13_476_831_232, "llama2-13b": 26_031_728_640}

RATES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
SWEEP_POLICIES = (("continuous", ["--policy", "continuous", "--max-seqs", "32"]),
                  ("splitfuse", ["--policy", "splitfuse", "--token-budget", "512"]))

GRID_MODELS = ("llama2-7b", "llama2-13b")
GRID_HARDWARE = ("a800", "rtx-4090", "rtx-3090")
GRID_BATCHES = (1, 2, 4, 8, 16, 32, 64)
GRID_LENGTHS = tuple(range(32, 4097, 32))
PAGED = ic.Paged(16)
VANILLA = ic.Vanilla(8192)


def fit_both_phases(cfg, path=VLLM_TIMING) -> dict:
    samples = ic.load_timing_samples(path)
    return {phase: ic.fit([s for s in samples if s.phase is phase], cfg, phase)
            for phase in (ic.Phase.PREFILL, ic.Phase.DECODE)}


@dataclass
class PassResult:
    wall_s: float  # host seconds, output checks excluded
    span: tuple[float, float]  # clock at start and end of the pass
    work: int  # simulated steps, or grid points
    attempted: int  # request lifecycles, or grid points
    failed: int
    problems: list[str]
    digest: str
    fingerprint: dict


# -- serving workloads --------------------------------------------------------


STEP_COLUMNS = (("start_s", float), ("end_s", float), ("batch", np.int64),
                ("tokens", np.int64), ("generated", np.int64), ("reserved_bytes", np.int64))
KIND_CODES = {"prefill": 0, "decode": 1, "mixed": 2}


def check_run(result, trace) -> tuple[int, list[str], dict]:
    """Invariants and simulated statistics of one `run` result.

    Returns (failed operations, problems, fingerprint). A request that never
    completes, or completes twice, is a failed operation; so is each violated
    invariant. Step fields are read into arrays once: checking and hashing
    160k step records must stay cheap next to simulating them.
    """
    problems = []
    records, steps = result.records, result.steps
    n = len(steps)
    col = {name: np.fromiter(map(attrgetter(name), steps), dtype=dtype, count=n)
           for name, dtype in STEP_COLUMNS}
    kind = np.fromiter(map(KIND_CODES.__getitem__, map(attrgetter("kind"), steps)),
                       dtype=np.int8, count=n)

    expected = {req.id for req in trace}
    ids = [r.id for r in records]
    missing = expected - set(ids)
    if len(ids) != len(set(ids)) or set(ids) - expected:
        problems.append("a request id completed more than once or was never submitted")
    generated = int(col["generated"].sum())
    want = sum(req.output_len for req in trace)
    if generated != want or result.generated_tokens != want:
        problems.append(f"steps generated {generated} tokens, the result reports "
                        f"{result.generated_tokens}, requests asked for {want}")
    if any(not r.arrival_s <= r.first_token_s <= r.completion_s for r in records):
        problems.append("a record violates arrival <= first_token <= completion")
    if np.any(col["start_s"][1:] < col["start_s"][:-1]):
        problems.append("step start times decrease")
    if result.capacity_bytes is not None and result.peak_reserved_bytes > result.capacity_bytes:
        problems.append("peak reserved KV bytes exceed capacity")
    failed = len(missing) + len(problems)
    if missing:
        problems.append(f"{len(missing)} requests never completed")

    # A step carries prompt tokens if it is a prefill step, or a mixed step
    # with a multi-token item or an item that did not produce a token.
    mixed = kind == KIND_CODES["mixed"]
    prompt_steps = int(np.count_nonzero((kind == KIND_CODES["prefill"]) | (mixed & (
        (col["tokens"] > col["batch"]) | (col["generated"] < col["batch"])))))
    events = len(trace) + prompt_steps + len(records)
    digest = hashlib.sha256(repr(records).encode())
    for arr in (kind, *col.values()):
        digest.update(arr.tobytes())
    fp = {"steps": n, "events": events, "steps_per_event": n / events,
          "prefill_steps": int(np.count_nonzero(kind != KIND_CODES["decode"])),
          "peak_reserved_bytes": result.peak_reserved_bytes,
          "capacity_bytes": result.capacity_bytes,
          "digest": digest.hexdigest()[:16]}
    if records:
        m = result.metrics
        ttft = np.percentile([r.first_token_s - r.arrival_s for r in records], [50, 95])
        fp.update(makespan_s=max(r.completion_s for r in records)
                  - min(r.arrival_s for r in records),
                  token_throughput=m.token_throughput,
                  p50_latency_s=m.p50_latency_s, p95_latency_s=m.p95_latency_s,
                  p50_ttft_s=float(ttft[0]), p95_ttft_s=float(ttft[1]))
    return failed, problems, fp


@dataclass
class ObservedRun:
    label: str
    requests: int
    failed: int
    problems: list[str]
    fingerprint: dict


class RunObserver:
    """Checks and fingerprints every `servesim.run` result off the clock.

    Installed once, after set-up and before any tracing, at every binding of
    `run`, so it sees the runs `sweep_rates` makes inside the CLI as well as
    direct calls. `excluded_s` accumulates the checking time a pass
    subtracts from its wall time; `speed` takes no samples meanwhile.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.excluded_s = 0.0
        self.tracer = None
        self.runs: list[ObservedRun] = []
        original = servesim.run

        def observed(policy, trace, *args, **kwargs):
            label = servesim.describe_policy(policy)
            try:
                result = original(policy, trace, *args, **kwargs)
            except ic.CapacityError as exc:
                self.runs.append(ObservedRun(label, len(trace), len(trace),
                                             [f"refused: {exc}"], {}))
                raise
            with self.speed.pause(), (
                    self.tracer.region("harness.check") if self.tracer else nullcontext()):
                start = clock()
                failed, problems, fp = check_run(result, trace)
                self.excluded_s += clock() - start
            self.runs.append(ObservedRun(label, len(trace), failed, problems, fp))
            return result

        for module in (ic, servesim):
            if module.run is original:
                module.run = observed

    def take(self) -> tuple[list[ObservedRun], float]:
        runs, self.runs, excluded, self.excluded_s = self.runs, [], self.excluded_s, 0.0
        return runs, excluded


def _serving_result(wall, span, runs, keys, extra_problems=()) -> PassResult:
    problems = [f"{key}: {p}" for key, run in zip(keys, runs) for p in run.problems]
    problems += extra_problems
    fingerprint = {key: run.fingerprint for key, run in zip(keys, runs)}
    digest = hashlib.sha256(repr(sorted(
        (k, fp.get("digest")) for k, fp in fingerprint.items())).encode()).hexdigest()[:16]
    return PassResult(
        wall_s=wall, span=span,
        work=sum(fp.get("steps", 0) for fp in fingerprint.values()),
        attempted=sum(run.requests for run in runs),
        failed=sum(run.failed for run in runs) + len(extra_problems),
        problems=problems, digest=digest, fingerprint=fingerprint)


class Decode16k:
    name = "decode-16k"
    POLICIES = (ic.Static(32), ic.Continuous(max_seqs=32), ic.SplitFuse(32))

    def __init__(self, seed: int, workdir: Path):
        self.cfg = ic.resolve_model("llama2-7b")
        fits = fit_both_phases(self.cfg)
        self.coeffs = ic.CoefficientPair(fits[ic.Phase.PREFILL].coefficients,
                                         fits[ic.Phase.DECODE].coefficients)
        self.capacity = ic.KvCapacity.from_hardware(
            ic.Paged(16), ic.resolve_hardware("a800"), WEIGHT_BYTES["llama2-7b"])
        self.trace = ic.generate("short-16k", 64, seed=seed)

    def run_pass(self, observer: RunObserver) -> PassResult:
        start = clock()
        for policy in self.POLICIES:
            try:
                ic.run(policy, self.trace, self.cfg, self.coeffs, capacity=self.capacity)
            except ic.CapacityError:
                pass  # counted by the observer
        end = clock()
        runs, excluded = observer.take()
        return _serving_result(end - start - excluded, (start, end), runs,
                               [run.label for run in runs])


class RateSweep:
    name = "rate-sweep"

    def __init__(self, seed: int, workdir: Path):
        cfg = ic.resolve_model("llama2-7b")
        fits = fit_both_phases(cfg)
        self.seed = seed
        self.trace_path = workdir / "trace.jsonl"
        self.coeff_paths = {phase: workdir / f"{phase.value}.json" for phase in fits}
        ic.save_trace(ic.generate("long-to-short", 1000, seed=seed), self.trace_path)
        for phase, result in fits.items():
            ic.save_coefficients(result.coefficients, self.coeff_paths[phase])
        self.csv_paths = {name: workdir / f"sweep-{name}.csv" for name, _ in SWEEP_POLICIES}

    def argv(self, name, policy_args) -> list[str]:
        return ["simulate", "--model", "llama2-7b",
                "--prefill-coeffs", str(self.coeff_paths[ic.Phase.PREFILL]),
                "--decode-coeffs", str(self.coeff_paths[ic.Phase.DECODE]),
                *policy_args, "--trace", str(self.trace_path),
                "--rates", ",".join(f"{r:g}" for r in RATES),
                "--arrival-process", "poisson", "--seed", str(self.seed),
                "--hardware", "a800", "--weight-bytes", str(WEIGHT_BYTES["llama2-7b"]),
                "--layout", "paged", "--out", str(self.csv_paths[name])]

    def run_pass(self, observer: RunObserver) -> PassResult:
        argvs = [(name, self.argv(name, args)) for name, args in SWEEP_POLICIES]
        start = clock()
        codes = [cli.main(argv) for _, argv in argvs]
        end = clock()
        runs, excluded = observer.take()
        problems = [f"simulate --policy {name} exited {code}"
                    for (name, _), code in zip(argvs, codes) if code != 0]
        for name, _ in SWEEP_POLICIES:
            problems += self.check_csv(name)
        keys = [f"{run.label}@{RATES[i % len(RATES)]:g}" for i, run in enumerate(runs)]
        return _serving_result(end - start - excluded, (start, end), runs, keys, problems)

    def check_csv(self, name) -> list[str]:
        try:
            with open(self.csv_paths[name], newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return [f"{name} CSV unreadable: {exc}"]
        if [float(r["rate"]) for r in rows] != list(RATES):
            return [f"{name} CSV has rates {[r['rate'] for r in rows]}"]
        if any(int(r["completed"]) <= 0 for r in rows):
            return [f"{name} CSV has a rate with no completed requests"]
        return []


# -- analytic grid ------------------------------------------------------------


class AnalyticGrid:
    name = "analytic-grid"

    def __init__(self, seed: int, workdir: Path):
        self.models = {name: ic.resolve_model(name) for name in GRID_MODELS}
        self.hardware = {name: ic.resolve_hardware(name) for name in GRID_HARDWARE}
        fits = fit_both_phases(self.models["llama2-7b"])
        self.coeffs = (fits[ic.Phase.PREFILL].coefficients, fits[ic.Phase.DECODE].coefficients)
        points = [(m, h, b, s) for m in GRID_MODELS for h in GRID_HARDWARE
                  for b in GRID_BATCHES for s in GRID_LENGTHS]
        order = np.random.default_rng(seed).permutation(len(points))
        self.points = [points[i] for i in order]

    def run_pass(self, observer: RunObserver) -> PassResult:
        pre_coeffs, dec_coeffs = self.coeffs
        memory_bound = ic.BoundKind.MEMORY_BOUND
        speed = observer.speed
        rows, problems = [], []
        excluded = 0.0
        failed = 0
        start = clock()
        for m, h, b, s in self.points:
            cfg, hw = self.models[m], self.hardware[h]
            op_lists = (costmodel.prefill_op_costs(cfg, b, s),
                        costmodel.decode_op_costs(cfg, b, s, cache_layout=PAGED),
                        costmodel.decode_op_costs(cfg, b, s, cache_layout=VANILLA))
            bounds = [[hardware.classify(op, hw) for op in ops] for ops in op_lists]
            totals = [costmodel.aggregate(ops, cfg) for ops in op_lists]
            floors = [hardware.lower_bound_time(t, hw) for t in totals]
            times = (estimator.predict_at(pre_coeffs, cfg, b, s),
                     estimator.predict_at(dec_coeffs, cfg, b, s))
            kv = [kvsim.footprint(layout, cfg, [s] * b) for layout in (PAGED, VANILLA)]
            traffic = [kvsim.cache_step_bytes(layout, cfg, b, s) for layout in (PAGED, VANILLA)]
            conc = [kvsim.max_concurrency(layout, cfg, hw, WEIGHT_BYTES[m], s)
                    for layout in (PAGED, VANILLA)] if h == "a800" else []

            t0 = clock()
            speed.paused = True
            bad = self.check_point(cfg, h, op_lists, bounds, totals)
            if (m, b, s) == ("llama2-7b", 8, 512) and round(
                    op_lists[1][0].arithmetic_intensity, 2) != 7.98:
                bad.append("decode QkvProj intensity at b=8, s=512 is not 7.98")
            if bad:
                failed += 1
                problems += [f"{m}/{h}/b={b}/s={s}: {p}" for p in bad]
            rows.append(repr((m, h, b, s, [(t.flops, t.mops) for t in totals], floors,
                              [sum(k is memory_bound for k in ks) for ks in bounds],
                              times, [(c.allocated_bytes, c.wasted_bytes) for c in kv],
                              traffic, conc)))
            speed.paused = False
            excluded += clock() - t0
        end = clock()
        digest = hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()[:16]
        n = len(self.points)
        return PassResult(wall_s=end - start - excluded, span=(start, end), work=n,
                          attempted=n, failed=failed, problems=problems, digest=digest,
                          fingerprint={"grid": {"points": n, "digest": digest}})

    @staticmethod
    def check_point(cfg, hw_name, op_lists, bounds, totals) -> list[str]:
        bad = []
        for ops, total in zip(op_lists, totals):
            if (total.total_flops != cfg.num_layers * sum(op.flops for op in ops)
                    or total.total_mops != cfg.num_layers * sum(op.mops for op in ops)):
                bad.append("aggregate totals differ from num_layers x per-op sums")
        if hw_name == "a800" and any(k is not ic.BoundKind.MEMORY_BOUND
                                     for ks in bounds[1:] for k in ks):
            bad.append("a decode op is not memory-bound on A800")
        return bad


WORKLOADS = {cls.name: cls for cls in (Decode16k, RateSweep, AnalyticGrid)}


# rms relative error ceilings. The README states 1-3 % on the bundled data;
# that holds except for vLLM prefill, whose samples bend away from the linear
# model (~17 %, characterized as loose by design in tests/test_estimator.py).
FIT_RMS_CEILING = {("timing_samples_vllm.csv", ic.Phase.PREFILL): 0.20}


def fit_error_problems() -> list[str]:
    cfg = ic.resolve_model("llama2-7b")
    problems = []
    for path in TIMING_FILES:
        for phase, result in fit_both_phases(cfg, path).items():
            ceiling = FIT_RMS_CEILING.get((path.name, phase), 0.03)
            if not result.rms_relative_error <= ceiling:
                problems.append(f"fit {path.name} {phase.value}: rms relative error "
                                f"{result.rms_relative_error:.2%} exceeds {ceiling:.0%}")
    return problems
