"""What a KV-cache layout costs: waste, update traffic, and concurrency.

Compares the three cache disciplines on the same resident sequences:

  vanilla  - one contiguous reservation per sequence, recopied on append
  paged    - fixed-size token blocks, appended in place
  token    - exact per-token allocation, appended in place

Three views: (1) allocation waste while sequences are partially filled,
(2) bytes the cache update itself moves per decode step as history grows —
the reallocate-and-copy layout degrades linearly while block/token layouts
stay flat — and (3) how many sequences of a given length fit next to the
model weights, which is the serving concurrency ceiling.

Usage:
    python3 demos/kv_cache_layouts.py
    python3 demos/kv_cache_layouts.py --model llama2-13b
"""

import argparse

from infercost import (
    Paged,
    TokenGranular,
    Vanilla,
    cache_step_bytes,
    footprint,
    kv_cache_bytes,
    max_concurrency,
    resolve_hardware,
    resolve_model,
    weight_bytes,
)
from infercost.cli import _byte_count, _count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="llama2-7b")
    parser.add_argument("--hardware", default="a800")
    parser.add_argument("--weight-bytes", type=_byte_count, default=None,
                        help="bytes of model weights resident on the device, "
                             "overriding the model's own (scientific notation accepted)")
    parser.add_argument("--reserved-len", type=_count, default=2048)
    parser.add_argument("--block-size", type=_count, default=16)
    args = parser.parse_args()

    cfg = resolve_model(args.model)
    hw = resolve_hardware(args.hardware)
    weights = args.weight_bytes if args.weight_bytes is not None else weight_bytes(cfg)
    layouts = {
        f"vanilla({args.reserved_len})": Vanilla(reserved_len=args.reserved_len),
        f"paged({args.block_size})": Paged(block_size=args.block_size),
        "token": TokenGranular(),
    }

    per_token = kv_cache_bytes(cfg, 1, 1)
    print(f"model={args.model}: {per_token} B of KV cache per token "
          f"({per_token * 1000 / 2 ** 20:.0f} MiB per 1k tokens)")

    seq_lens = [40, 300, 700, 1500]
    print(f"\nallocation for resident sequences of lengths {seq_lens}:")
    print(f"{'layout':<16} {'allocated MiB':>14} {'live MiB':>10} {'wasted':>8}")
    for name, layout in layouts.items():
        stats = footprint(layout, cfg, seq_lens)
        frac = stats.wasted_bytes / stats.allocated_bytes if stats.allocated_bytes else 0.0
        print(f"{name:<16} {stats.allocated_bytes / 2 ** 20:>14.1f} "
              f"{stats.live_bytes / 2 ** 20:>10.1f} {frac:>8.1%}")

    print("\nbytes moved by the cache update in one decode step (b=8):")
    print(f"{'s_past':>7}  {'vanilla MiB':>12}  {'paged MiB':>10}")
    for s_past in (32, 128, 512, 1024, 2047):
        vanilla = cache_step_bytes(Vanilla(args.reserved_len), cfg, 8, s_past)
        paged = cache_step_bytes(Paged(args.block_size), cfg, 8, s_past)
        print(f"{s_past:>7}  {vanilla / 2 ** 20:>12.1f}  {paged / 2 ** 20:>10.3f}")
    print("the copy-on-append layout re-touches the whole history every step;"
          "\nappend-in-place layouts pay a constant per-token cost.")

    seq_len = min(1500, args.reserved_len)
    print(f"\nconcurrency ceiling on {hw.name} with "
          f"{weights / 1e9:.1f} GB of weights ({seq_len}-token sequences):")
    for name, layout in layouts.items():
        limit = max_concurrency(layout, cfg, hw, weights, per_seq_len=seq_len)
        print(f"    {name:<16} {limit:>4} sequences")
    print("the contiguous layout pays for its full reservation per sequence;"
          "\nblock and token layouts only pay for the tokens actually held.")


if __name__ == "__main__":
    main()
