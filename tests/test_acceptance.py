"""Acceptance gate: nine pinned behaviors, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each test also enforces the stated runtime budget on its core
computation (after one warm-up call).
"""

import json
import time

import numpy as np

from oracles import brute_prefill_flops

from infercost import Paged, Vanilla
from infercost.arch import MODEL_PRESETS, ModelConfig, Phase
from infercost.costmodel import (
    DECODE_OP_ORDER,
    LINEAR_PROJECTIONS,
    decode_op_costs,
    prefill_op_costs,
)
from infercost.estimator import (
    RegressionCoefficients,
    features_for,
    fit,
    fit_design,
    load_timing_samples,
    predict_at,
)
from infercost.hardware import HARDWARE_PRESETS, BoundKind, classify, ridge_point
from infercost.kvsim import cache_step_bytes
from infercost.servesim import (
    Continuous,
    CoefficientPair,
    KvCapacity,
    SplitFuse,
    Static,
    metrics_csv_text,
    run,
    sweep_rates,
)
from infercost.workload import SCENARIO_BOUNDS, Scenario, generate

LLAMA7B = MODEL_PRESETS["llama2-7b"]
A800 = HARDWARE_PRESETS["a800"]
EPS = 1e-12


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _timed(fn, budget_s: float):
    """Best-of-three wall time for fn() after a warm-up call."""
    fn()
    elapsed = min(_once(fn) for _ in range(3))
    return fn(), elapsed, elapsed < budget_s


def _once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _published(data: dict, backend: str, phase: Phase) -> RegressionCoefficients:
    values = data[backend][phase.value]
    return RegressionCoefficients(
        phase, tuple(values[name] for name in
                     (("alpha", "beta", "gamma", "eta", "lambda", "mu")
                      if phase is Phase.PREFILL else ("phi", "psi", "omega", "nu"))))


def test_criterion_1_decode_qkv_intensity():
    def compute():
        ops = decode_op_costs(LLAMA7B, 8, 512, cache_layout=Paged(16))
        return next(op for op in ops if op.kind.value == "QkvProj")

    qkv, elapsed, in_budget = _timed(compute, 1e-3)
    ai = qkv.arithmetic_intensity
    ok = abs(ai - 7.98) <= 0.02 and in_budget
    _report(1, ok, f"decode QKV arithmetic intensity {ai:.4f} "
                   f"(target 7.98 +- 0.02), {elapsed * 1e6:.0f} us")


def test_criterion_2_bound_classification():
    def compute():
        decode = decode_op_costs(LLAMA7B, 8, 512, cache_layout=Paged(16))
        prefill = prefill_op_costs(LLAMA7B, 8, 512)
        return ([classify(op, A800) for op in decode],
                [classify(op, A800) for op in prefill
                 if op.kind in LINEAR_PROJECTIONS])

    (decode_bounds, linear_bounds), elapsed, in_budget = _timed(compute, 1e-3)
    ridge = ridge_point(A800)
    ok = (abs(ridge - 153.0) < 0.05
          and len(decode_bounds) == len(DECODE_OP_ORDER)
          and all(b is BoundKind.MEMORY_BOUND for b in decode_bounds)
          and len(linear_bounds) == 4
          and all(b is BoundKind.COMPUTE_BOUND for b in linear_bounds)
          and in_budget)
    _report(2, ok, f"A800 ridge {ridge:.3f}; 10/10 decode ops MemoryBound, "
                   f"4/4 prefill projections ComputeBound, {elapsed * 1e6:.0f} us")


def test_criterion_3_published_coefficient_predictions(paper_data):
    with open(paper_data / "table10_regression_coefficients.json") as fh:
        table = json.load(fh)

    def compute():
        return {
            (backend, phase): predict_at(_published(table, backend, phase),
                                         LLAMA7B, 8, 512)
            for backend in ("transformers", "vllm")
            for phase in (Phase.PREFILL, Phase.DECODE)
        }

    preds, elapsed, in_budget = _timed(compute, 1.0)
    checks = [
        # (backend, phase, pinned prediction, abs tol, measured, rel tol)
        ("transformers", Phase.PREFILL, 524.0, 3.0, 526.19, 0.05),
        ("transformers", Phase.DECODE, 30.9, 0.5, 30.55, 0.05),
        ("vllm", Phase.PREFILL, 341.0, 1.0, 335.31, 0.05),
        ("vllm", Phase.DECODE, 12.4, 0.1, 13.37, 0.10),
    ]
    ok = in_budget
    parts = []
    for backend, phase, pinned, tol, measured, rel in checks:
        got = preds[(backend, phase)]
        ok = (ok and abs(got - pinned) <= tol
              and abs(got - measured) / measured <= rel)
        parts.append(f"{backend} {phase.value} {got:.1f}ms vs {measured}")
    _report(3, ok, "; ".join(parts))


RECOVERY_CONFIGS = [
    ModelConfig(1024, 3072, 16, 64, 4),
    ModelConfig(2048, 5504, 16, 128, 8),
    ModelConfig(4096, 8192, 128, 32, 2),
    ModelConfig(512, 2560, 2, 256, 6),
]


def _recovery_error(coeffs: RegressionCoefficients) -> float:
    X, y = [], []
    for cfg in RECOVERY_CONFIGS:
        for b in (1, 3, 8):
            for s in (17, 256, 1200):
                X.append(features_for(cfg, b, s, coeffs.phase))
                y.append(predict_at(coeffs, cfg, b, s))
    solution, rank, _ = fit_design(np.array(X), np.array(y))
    assert rank == len(coeffs.values)
    true = np.array(coeffs.values)
    return float(np.max(np.abs(solution - true) / np.abs(true)))


def test_criterion_4_refit_round_trip(paper_data):
    with open(paper_data / "table10_regression_coefficients.json") as fh:
        table = json.load(fh)
    samples = load_timing_samples(paper_data / "timing_samples_transformers.csv")

    def compute():
        worst = max(_recovery_error(_published(table, backend, phase))
                    for backend in ("transformers", "vllm")
                    for phase in (Phase.PREFILL, Phase.DECODE))
        fits = {phase: fit([s for s in samples if s.phase is phase],
                           LLAMA7B, phase)
                for phase in (Phase.PREFILL, Phase.DECODE)}
        return worst, fits

    (worst, fits), elapsed, in_budget = _timed(compute, 1.0)
    prefill_rms = fits[Phase.PREFILL].rms_relative_error
    decode_rms = fits[Phase.DECODE].rms_relative_error
    ok = worst < 1e-6 and prefill_rms <= 0.10 and decode_rms <= 0.10 and in_budget
    _report(4, ok, f"synthetic recovery max rel err {worst:.2e}; dense-backend "
                   f"refit rms prefill {prefill_rms * 100:.2f}% / "
                   f"decode {decode_rms * 100:.2f}% (<= 10%)")


def test_criterion_5_cache_traffic_scaling():
    def compute():
        return [(s_past,
                 cache_step_bytes(Vanilla(2048), LLAMA7B, 8, s_past),
                 cache_step_bytes(Paged(16), LLAMA7B, 8, s_past))
                for s_past in (1, 511, 2047)]

    rows, elapsed, in_budget = _timed(compute, 1e-3)
    ok = in_budget
    for s_past, vanilla, paged in rows:
        ok = ok and vanilla == paged * (s_past + 1)
    paged_values = {paged for _, _, paged in rows}
    ok = ok and len(paged_values) == 1  # append-only layouts are history-free
    ratios = [vanilla / paged for _, vanilla, paged in rows]
    _report(5, ok, f"vanilla/paged traffic ratio == s_past+1 at 1/511/2047 "
                   f"(ratios {ratios[0]:.0f}/{ratios[1]:.0f}/{ratios[2]:.0f}), "
                   f"paged step constant")


def test_criterion_6_simulator_conservation_and_determinism(paper_data):
    with open(paper_data / "table10_regression_coefficients.json") as fh:
        table = json.load(fh)
    coeffs = CoefficientPair(_published(table, "vllm", Phase.PREFILL),
                             _published(table, "vllm", Phase.DECODE))
    trace = generate(Scenario.SHORT_TO_SHORT, 1000, seed=0)
    want_tokens = sum(r.output_len for r in trace)
    capacity = KvCapacity.from_hardware(Paged(16), A800, 13_500_000_000)
    policies = [Static(8), Continuous(max_seqs=32), SplitFuse(token_budget=512)]

    start = time.perf_counter()
    ok = True
    details = []
    for policy in policies:
        first = run(policy, trace, LLAMA7B, coeffs, capacity=capacity)
        second = run(policy, trace, LLAMA7B, coeffs, capacity=capacity)
        ok = (ok
              and first.generated_tokens == want_tokens
              and first.metrics.completed == len(trace)
              and all(s.reserved_bytes <= capacity.total_bytes for s in first.steps)
              and first == second
              and metrics_csv_text([("p", 0.0, first.metrics)])
              == metrics_csv_text([("p", 0.0, second.metrics)]))
        details.append(f"{type(policy).__name__} {first.generated_tokens} tokens")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(6, ok, f"1000-request trace: conservation exact, capacity respected, "
                   f"reruns byte-identical ({'; '.join(details)}; {elapsed:.2f} s)")


def test_criterion_7_serving_shape_properties(paper_data):
    with open(paper_data / "table10_regression_coefficients.json") as fh:
        table = json.load(fh)
    coeffs = CoefficientPair(_published(table, "vllm", Phase.PREFILL),
                             _published(table, "vllm", Phase.DECODE))
    rates = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    seeds = range(5)
    policies = {"continuous": Continuous(max_seqs=32),
                "splitfuse": SplitFuse(token_budget=512)}

    start = time.perf_counter()
    mean_latency = {}
    mean_throughput = {}
    for name, policy in policies.items():
        per_rate_latency = {rate: [] for rate in rates}
        per_rate_tp = {rate: [] for rate in rates}
        for seed in seeds:
            base = generate(Scenario.LONG_TO_SHORT, 400, seed=seed)
            swept = sweep_rates(policy, base, rates, LLAMA7B, coeffs, seed=seed)
            for rate in rates:
                per_rate_latency[rate].append(swept[rate].mean_token_latency_s)
                per_rate_tp[rate].append(swept[rate].token_throughput)
        mean_latency[name] = [float(np.mean(per_rate_latency[r])) for r in rates]
        mean_throughput[name] = [float(np.mean(per_rate_tp[r])) for r in rates]
    elapsed = time.perf_counter() - start

    latency_ok = all(
        later >= earlier - EPS
        for series in mean_latency.values()
        for earlier, later in zip(series, series[1:]))
    tp = mean_throughput["splitfuse"]
    saturation = int(np.argmax(tp))
    throughput_ok = all(tp[i + 1] >= tp[i] - EPS for i in range(saturation))
    ok = latency_ok and throughput_ok and elapsed < 300.0
    _report(7, ok, f"mean token latency non-decreasing over rates {rates} for "
                   f"continuous+splitfuse; splitfuse throughput rises to "
                   f"saturation at rate {rates[saturation]} ({elapsed:.1f} s, "
                   f"5 seeds)")


def test_criterion_8_tiny_instance_oracle():
    cfg = ModelConfig(hidden_size=4, intermediate_size=8, num_heads=2,
                      head_dim=2, num_layers=1)

    def compute():
        return {op.kind.value: op.flops for op in prefill_op_costs(cfg, 1, 2)}

    got, elapsed, in_budget = _timed(compute, 1e-3)
    want = brute_prefill_flops(h=4, n=2, d=2, h_ffn=8, b=1, s=2)
    ok = got == want and in_budget
    _report(8, ok, f"prefill FLOPs at (h=4,n=2,d=2,h'=8,b=1,s=2) match "
                   f"brute-force enumeration op-for-op: {got}")


def test_criterion_9_workload_bounds():
    def compute():
        return {scenario: generate(scenario, 10_000, seed=11)
                for scenario in Scenario}

    traces, elapsed, in_budget = _timed(compute, 1.0)
    ok = in_budget
    for scenario, trace in traces.items():
        in_lo, in_hi, out_lo, out_hi = SCENARIO_BOUNDS[scenario]
        ok = (ok and len(trace) == 10_000
              and all(in_lo <= r.input_len <= in_hi for r in trace)
              and all(out_lo <= r.output_len <= out_hi for r in trace))
    ok = ok and all(r.output_len == 16_000 for r in traces[Scenario.SHORT_16K])
    _report(9, ok, f"10000 requests per scenario within stated bounds; "
                   f"short-16k outputs all 16000 ({elapsed * 1e3:.0f} ms)")
