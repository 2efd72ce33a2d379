"""Online serving under load: latency and throughput across arrival rates.

Replays one synthetic trace at increasing Poisson arrival rates under two
per-step schedulers and prints warmup-trimmed steady-state metrics. Two
shapes to look for: mean token latency only ever climbs with the arrival
rate, and token throughput climbs with it until the engine saturates — past
that point extra offered load only adds queueing delay.

Usage:
    python3 demos/serving_rate_sweep.py
    python3 demos/serving_rate_sweep.py --rates 0.5,1,2,4,8,16 --n 600 --out sweep.csv
"""

import argparse
from pathlib import Path

from infercost import (
    CoefficientPair,
    Continuous,
    Phase,
    SplitFuse,
    describe_policy,
    fit,
    generate,
    load_timing_samples,
    metrics_csv_text,
    resolve_model,
    sweep_rates,
)
from infercost.arch import _parse_number
from infercost.cli import _all_trimmed_warning, _count, paper_data_dir
from infercost.servesim import _checked_rates


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
    parser.add_argument("--scenario", default="long-to-short")
    parser.add_argument("--n", type=_count, default=400)
    parser.add_argument("--rates", default="0.5,1,2,4,8,16",
                        help="comma-separated arrival rates in requests/s")
    parser.add_argument("--seed", type=_count, default=0)
    parser.add_argument("--out", default=None, help="also write a metrics CSV here")
    args = parser.parse_args()
    try:
        rates = _checked_rates(
            [_parse_number("rates", tok) for tok in args.rates.split(",")])
    except ValueError as exc:
        parser.error(str(exc))

    cfg = resolve_model(args.model)
    coeffs = fitted_coefficients(cfg, args.backend)
    base = generate(args.scenario, args.n, seed=args.seed)
    print(f"{args.n} {args.scenario!r} requests, Poisson arrivals, "
          f"{args.backend}-fitted step times; metrics trim 100 requests of "
          f"warmup and drain\n")

    policies = [Continuous(max_seqs=32), SplitFuse(token_budget=512)]
    csv_rows = []
    for policy in policies:
        label = describe_policy(policy)
        swept = sweep_rates(policy, base, rates, cfg, coeffs, seed=args.seed)
        print(label)
        print(f"    {'rate':>6} {'tok/s':>8} {'seq/s':>7} {'mean tok lat':>13} "
              f"{'p95 lat s':>10}")
        for rate in rates:
            m = swept[rate]
            print(f"    {rate:>6.1f} {m.token_throughput:>8.1f} "
                  f"{m.seq_throughput:>7.2f} {m.mean_token_latency_s:>13.4f} "
                  f"{m.p95_latency_s:>10.2f}")
            csv_rows.append((label, rate, m))
        if all(swept[rate].completed == 0 for rate in rates):
            print(f"    {_all_trimmed_warning(args.n)}\n")
        else:
            peak = max(rates, key=lambda r: swept[r].token_throughput)
            print(f"    throughput peaks at {peak:g} req/s offered load\n")

    if args.out:
        Path(args.out).write_text(metrics_csv_text(csv_rows), encoding="utf-8", newline="")
        print(f"wrote {args.out}")
    else:
        print("pass --out sweep.csv to capture these rows; format:")
        print(metrics_csv_text(csv_rows[:1]), end="")


if __name__ == "__main__":
    main()
