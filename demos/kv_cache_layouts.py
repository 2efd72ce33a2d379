"""What a KV-cache layout allocates for resident sequences of unequal lengths.

Compares the three cache disciplines on four sequences of 40, 300, 700 and
1500 tokens:

  vanilla  - one contiguous reservation per sequence
  paged    - fixed-size token blocks
  token    - exact per-token allocation

and prints each layout's allocated and live bytes and the share wasted. No
command prints this: `infercost memory` sizes `b` sequences of one length
`s`. The README's "What a KV-cache layout costs" session shows the rest of
the story from commands: the bytes a decode step's cache update moves under
each layout (`analyze`) and how many sequences fit beside the weights
(`memory`).

Usage:
    python3 demos/kv_cache_layouts.py
    python3 demos/kv_cache_layouts.py --model llama2-13b --block-size 32
"""

import argparse

from infercost import Paged, TokenGranular, Vanilla, footprint, resolve_model
from infercost.cli import _count

SEQ_LENS = [40, 300, 700, 1500]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="llama2-7b")
    parser.add_argument("--reserved-len", type=_count, default=2048)
    parser.add_argument("--block-size", type=_count, default=16)
    args = parser.parse_args()
    if args.reserved_len < max(SEQ_LENS):
        parser.error(f"--reserved-len must hold the longest sequence, {max(SEQ_LENS)} tokens")

    cfg = resolve_model(args.model)
    layouts = {
        f"vanilla({args.reserved_len})": Vanilla(reserved_len=args.reserved_len),
        f"paged({args.block_size})": Paged(block_size=args.block_size),
        "token": TokenGranular(),
    }
    print(f"model={args.model}: allocation for resident sequences of lengths {SEQ_LENS}")
    print(f"{'layout':<16} {'allocated MiB':>14} {'live MiB':>10} {'wasted':>8}")
    for name, layout in layouts.items():
        stats = footprint(layout, cfg, SEQ_LENS)
        print(f"{name:<16} {stats.allocated_bytes / 2 ** 20:>14.1f} "
              f"{stats.live_bytes / 2 ** 20:>10.1f} "
              f"{stats.wasted_bytes / stats.allocated_bytes:>8.1%}")


if __name__ == "__main__":
    main()
