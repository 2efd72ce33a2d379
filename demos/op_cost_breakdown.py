"""Where the FLOPs and the bytes go: per-operation costs in both phases.

Walks one decoder layer of a LLaMA-style model at a chosen (batch, length)
point, printing FLOPs, modeled memory traffic, arithmetic intensity, and the
roofline verdict for every operation in prefill and in decode. The punchline
is the phase asymmetry: the big prefill matmuls sit far above the ridge point
(compute-bound), while in decode every single operation drops below it —
the whole phase is paced by memory bandwidth, not arithmetic.

Usage:
    python3 demos/op_cost_breakdown.py
    python3 demos/op_cost_breakdown.py --model llama2-13b --hardware rtx-4090 --b 4 --s 1024
"""

import argparse

from infercost import (
    Paged,
    aggregate,
    classify,
    decode_op_costs,
    lower_bound_time,
    prefill_op_costs,
    resolve_hardware,
    resolve_model,
    ridge_point,
)
from infercost.cli import _count


def print_phase(title, ops, cfg, hw):
    print(f"\n{title}")
    print(f"{'op':<14} {'GFLOPs':>10} {'MB moved':>10} {'AI':>9} "
          f"{'bound':>13} {'min ms':>8}")
    for op in ops:
        ai = op.arithmetic_intensity
        print(f"{op.kind.value:<14} {op.flops / 1e9:>10.3f} "
              f"{op.mops / 1e6:>10.2f} "
              f"{'inf' if ai == float('inf') else f'{ai:9.2f}'} "
              f"{classify(op, hw).value:>13} "
              f"{lower_bound_time(op, hw) * 1e3:>8.3f}")
    total = aggregate(ops, cfg)
    print(f"{'total x' + str(cfg.num_layers):<14} {total.total_flops / 1e9:>10.3f} "
          f"{total.total_mops / 1e6:>10.2f} {total.arithmetic_intensity:>9.2f} "
          f"{classify(total, hw).value:>13} "
          f"{lower_bound_time(total, hw) * 1e3:>8.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="llama2-7b")
    parser.add_argument("--hardware", default="a800")
    parser.add_argument("--b", type=_count, default=8)
    parser.add_argument("--s", type=_count, default=512)
    args = parser.parse_args()

    cfg = resolve_model(args.model)
    hw = resolve_hardware(args.hardware)
    ridge = ridge_point(hw)
    print(f"model={args.model} (h={cfg.hidden_size}, h'={cfg.intermediate_size}, "
          f"{cfg.num_heads} heads x {cfg.head_dim}, {cfg.num_layers} layers), "
          f"hardware={hw.name}")
    print(f"ridge point = {ridge:.1f} FLOP/B "
          f"(ops above it are compute-bound, below it bandwidth-bound)")

    prefill = prefill_op_costs(cfg, args.b, args.s)
    print_phase(f"prefill, b={args.b}, s={args.s} (per layer):", prefill, cfg, hw)

    decode = decode_op_costs(cfg, args.b, args.s, cache_layout=Paged(16))
    print_phase(f"decode, b={args.b}, s_past={args.s} (per layer):", decode, cfg, hw)

    worst = max(op.arithmetic_intensity for op in decode)
    print(f"\nEvery decode op has intensity <= {worst:.2f}, a factor of "
          f"{ridge / worst:.0f} below the ridge: decoding {args.b} sequences "
          f"moves the full weight set for 1 token each, so the GPU mostly waits "
          f"on DRAM.")


if __name__ == "__main__":
    main()
