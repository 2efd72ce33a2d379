"""Fit a linear runtime model to step-time measurements and sanity-check it.

Loads the bundled step-time samples for one backend, fits the runtime model
for both phases by least squares, and prints a per-sample table of measured
against predicted time, which no command prints. The check is in-sample: the
predictions are compared with the very samples the model was fitted to,
because the bundled samples are the only step times there are. It shows how
closely the model reproduces them, not how well it predicts unseen points.
Also demonstrates why the fit is reported rank-deficient: with a single
architecture, several feature columns are proportional, so only their
combined effect is identified — the predictions at the sampled points do not
depend on how it is split, but individual coefficients are not meaningful.

Usage:
    python3 demos/fit_and_predict.py
    python3 demos/fit_and_predict.py --backend vllm
"""

import argparse

from infercost import Phase, fit, load_timing_samples, predict_at, resolve_model
from infercost.cli import paper_data_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=["transformers", "vllm"],
                        default="transformers")
    parser.add_argument("--model", default="llama2-7b")
    args = parser.parse_args()

    cfg = resolve_model(args.model)
    path = paper_data_dir() / f"timing_samples_{args.backend}.csv"
    samples = load_timing_samples(path)
    print(f"{len(samples)} samples from {path.name}")

    for phase in (Phase.PREFILL, Phase.DECODE):
        subset = [s for s in samples if s.phase is phase]
        result = fit(subset, cfg, phase)
        flag = "  [rank-deficient: minimum-norm solution]" if result.condition_warning else ""
        print(f"\n{phase.value}: {len(subset)} samples, rank {result.rank}, "
              f"rms relative error {result.rms_relative_error * 100:.2f}%{flag}")
        for name, value in result.coefficients.named().items():
            print(f"    {name} = {value:+.4e}")

        print(f"    {'b':>3} {'s':>5} {'measured ms':>12} {'predicted ms':>13} {'err':>7}")
        for sample in subset:
            got = predict_at(result.coefficients, cfg, sample.b, sample.s)
            err = (got - sample.measured_ms) / sample.measured_ms
            print(f"    {sample.b:>3} {sample.s:>5} {sample.measured_ms:>12.2f} "
                  f"{got:>13.2f} {err:>+6.1%}")

    print("\nThe decode model is nearly affine in b and s_past, so four numbers"
          "\ncover the whole sweep; prefill picks up the quadratic attention"
          "\nterm, which is why long-sequence rows need the s^2 feature.")


if __name__ == "__main__":
    main()
