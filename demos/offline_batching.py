"""Offline batch inference: the same requests under three schedulers.

All requests are available at t=0 and we only care how fast the whole batch
drains. Static batching pays for padding (every lane runs until the longest
sequence finishes); continuous batching refills lanes the moment one frees;
the token-budget scheduler additionally chops prompts into chunks so every
step does the same amount of work. Step times come from a runtime model
fitted to real measurements, so the comparison reflects measured per-step
costs, not just step counts.

Usage:
    python3 demos/offline_batching.py
    python3 demos/offline_batching.py --n 400 --scenario short-to-long
"""

import argparse

from infercost import (
    CoefficientPair,
    Continuous,
    Phase,
    SplitFuse,
    Static,
    describe_policy,
    fit,
    generate,
    load_timing_samples,
    resolve_model,
    run,
)
from infercost.cli import _count, paper_data_dir


def fitted_coefficients(cfg, backend):
    samples = load_timing_samples(paper_data_dir() / f"timing_samples_{backend}.csv")
    by_phase = {
        phase: fit([s for s in samples if s.phase is phase], cfg, phase).coefficients
        for phase in (Phase.PREFILL, Phase.DECODE)
    }
    return CoefficientPair(by_phase[Phase.PREFILL], by_phase[Phase.DECODE])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="llama2-7b")
    parser.add_argument("--backend", choices=["transformers", "vllm"], default="vllm")
    parser.add_argument("--scenario", default="short-to-short")
    parser.add_argument("--n", type=_count, default=200)
    parser.add_argument("--seed", type=_count, default=0)
    args = parser.parse_args()

    cfg = resolve_model(args.model)
    coeffs = fitted_coefficients(cfg, args.backend)
    trace = generate(args.scenario, args.n, seed=args.seed)
    total_tokens = sum(r.output_len for r in trace)
    print(f"{args.n} {args.scenario!r} requests, {total_tokens} output tokens, "
          f"step times fitted to {args.backend} measurements\n")

    policies = [Static(8), Continuous(max_seqs=32), SplitFuse(token_budget=512)]
    print(f"{'policy':<30} {'makespan s':>11} {'tok/s':>8} {'seq/s':>7} "
          f"{'p50 lat':>8} {'p95 lat':>8} {'steps':>6}")
    for policy in policies:
        result = run(policy, trace, cfg, coeffs)
        makespan = max(r.completion_s for r in result.records)
        m = result.metrics
        print(f"{describe_policy(policy):<30} {makespan:>11.2f} "
              f"{m.token_throughput:>8.1f} {m.seq_throughput:>7.2f} "
              f"{m.p50_latency_s:>8.2f} {m.p95_latency_s:>8.2f} "
              f"{len(result.steps):>6}")

    print("\nStatic pays twice: padded decode steps keep pricing the full batch"
          "\nwidth, and a long straggler holds its whole batch open. Per-step"
          "\nadmission spreads that cost over many more, cheaper steps.")


if __name__ == "__main__":
    main()
