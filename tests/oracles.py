"""Independent brute-force oracles for the cost model, and the serving
simulator's invariants.

FLOP counts come from literal loop enumeration of multiplies and adds under
the package's counting conventions (2 FLOPs per multiply-accumulate, 6 per
rotary pair, 4 per attention-score element, 5 per add-norm element, 2 per
swish-multiply element). Byte counts come from explicit tensor-shape
enumeration under the single-pass traffic model. Nothing here calls into
the package, so agreement is meaningful.

The serving helpers read a run's steps through their numpy columns and its
request records only: `rows` for oracles that list every step, and
`check_invariants` for the properties every run keeps.
"""

from __future__ import annotations

import numpy as np


def matmul_flops(m: int, k: int, n: int) -> int:
    """C[m,n] = A[m,k] @ B[k,n]: one multiply and one accumulate per term."""
    ops = 0
    for _ in range(m):
        for _ in range(n):
            for _ in range(k):
                ops += 2
    return ops


def brute_prefill_flops(h: int, n: int, d: int, h_ffn: int, b: int, s: int) -> dict[str, int]:
    assert h == n * d
    counts: dict[str, int] = {}

    counts["QkvProj"] = sum(matmul_flops(b * s, h, h) for _ in range(3))

    rope = 0
    for _ in range(b * s):            # tokens
        for _ in range(h // 2):       # rotation pairs per token
            for _ in range(2):        # applied to Q and K
                rope += 4 + 2         # 4 multiplies, 2 adds per pair
    counts["Rope"] = rope

    attn = 0
    for _ in range(b * n):            # independent (batch, head) slices
        attn += matmul_flops(s, d, s)         # scores = Q @ K^T
        for _ in range(s * s):
            attn += 4                 # scale + softmax, per score element
        attn += matmul_flops(s, s, d)         # context = scores @ V
    counts["Attention"] = attn

    counts["OutProj"] = matmul_flops(b * s, h, h)

    addnorm = 0
    for _ in range(b * s * h):
        addnorm += 5                  # residual add + normalization work
    counts["AddNormAttn"] = addnorm
    counts["AddNormFfn"] = addnorm

    counts["GateUpProj"] = sum(matmul_flops(b * s, h, h_ffn) for _ in range(2))

    swish = 0
    for _ in range(b * s * h_ffn):
        swish += 2                    # gate activation + elementwise multiply
    counts["SwishMul"] = swish

    counts["DownProj"] = matmul_flops(b * s, h_ffn, h)
    return counts


def brute_decode_flops(h: int, n: int, d: int, h_ffn: int, b: int, s_past: int) -> dict[str, int]:
    """Single-token step against s_past cached tokens."""
    counts = brute_prefill_flops(h, n, d, h_ffn, b, 1)
    attn = 0
    for _ in range(b * n):            # independent (batch, head) slices
        attn += matmul_flops(1, d, s_past)    # scores = q @ K^T
        for _ in range(s_past):
            attn += 4                 # scale + softmax, per score element
        attn += matmul_flops(1, s_past, d)    # context = scores @ V
    counts["Attention"] = attn
    counts["CacheUpdate"] = 0
    return counts


def brute_prefill_bytes(h: int, n: int, d: int, h_ffn: int, b: int, s: int,
                        bytes_per_scalar: int) -> dict[str, int]:
    """Scalars moved per op, from tensor shapes, times the element width."""
    w = bytes_per_scalar
    x = b * s * h                     # activations entering/leaving most ops
    scores = b * n * s * s
    return {
        "QkvProj": w * (x + 3 * h * h + 3 * x),          # read X, 3 weights; write Q K V
        "Rope": w * (2 * x + 2 * x),                     # read Q K; write Q K
        "Attention": w * (3 * x + x + 2 * scores),       # read Q K V, write O, spill+reload scores
        "OutProj": w * (x + h * h + x),
        "AddNormAttn": w * (2 * x + h + x),              # read X + residual + gain; write X
        "GateUpProj": w * (x + 2 * h * h_ffn + 2 * b * s * h_ffn),
        "SwishMul": w * (3 * b * s * h_ffn),             # read G U; write D
        "DownProj": w * (b * s * h_ffn + h_ffn * h + x),
        "AddNormFfn": w * (2 * x + h + x),
    }


def brute_decode_bytes(h: int, n: int, d: int, h_ffn: int, b: int, s_past: int,
                       bytes_per_scalar: int, vanilla_reserved: bool) -> dict[str, int]:
    w = bytes_per_scalar
    counts = brute_prefill_bytes(h, n, d, h_ffn, b, 1, w)
    counts["Attention"] = w * (2 * b * s_past * h      # read cached K and V
                               + 2 * b * s_past * n    # spill + reload score row
                               + 2 * b * h)            # read q, write o
    new_kv = 2 * b * h                                 # this step's k and v
    if vanilla_reserved:
        old_kv = 2 * b * s_past * h
        counts["CacheUpdate"] = w * 2 * (old_kv + new_kv)  # copy everything, read+write
    else:
        counts["CacheUpdate"] = w * 2 * new_kv             # append in place, read+write
    return counts


STEP_COLUMNS = ("start_s", "end_s", "kind", "batch", "tokens", "generated", "reserved_bytes")


def rows(steps) -> list[tuple]:
    """A run's steps as tuples of Python scalars in STEP_COLUMNS order, the
    kind as its name."""
    columns = [getattr(steps, name).tolist() for name in STEP_COLUMNS]
    columns[2] = [steps.KINDS[code] for code in columns[2]]
    return list(zip(*columns))


def check_invariants(result, trace, capacity=None) -> None:
    """Assert what every run keeps, whatever its policy, pricing or cap:
    each request completes exactly once, after it arrives and no earlier
    than its first token; the steps generate exactly the requested tokens;
    no step ends before it starts or starts before the previous one ends;
    and reserved KV cache stays within the capacity."""
    steps = result.steps
    assert result.metrics.completed == len(result.records) == len(trace)
    assert sorted(r.id for r in result.records) == sorted(r.id for r in trace)
    for record in result.records:
        assert record.arrival_s <= record.first_token_s <= record.completion_s
    want = sum(r.output_len for r in trace)
    assert result.generated_tokens == int(steps.generated.sum()) == want
    assert np.all(steps.end_s >= steps.start_s)
    assert np.all(steps.start_s[1:] >= steps.end_s[:-1])
    if capacity is not None:
        assert np.all(steps.reserved_bytes <= capacity.total_bytes)
        assert result.peak_reserved_bytes <= capacity.total_bytes
