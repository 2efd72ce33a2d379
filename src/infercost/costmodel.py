"""Per-operation FLOPs, modeled memory traffic (MOPs) and arithmetic
intensity for one decoder layer, in both phases, plus KV-cache footprint.

Every row comes from one of three formulas, which the two phases call with
different arguments (w = bytes_per_scalar):

  token-wise    the eight ops that act on each of t tokens on their own, with
                each weight matrix read once per step; prefill t = b*s,
                decode t = b
  attention     b sequences, each attending q new tokens over k keys: flops
                4bqk(h + n), bytes w(2bqh + 2bkh + 2bqkn); prefill q = k = s,
                decode q = 1 and k = s_past
  cache update  decode only: the bytes the KV-cache layout moves to append one
                token per sequence (cache_update_mops)

Rows are placed by position: _token_ops returns its eight rows as a tuple in
layer order (the kinds come from PREFILL_OP_ORDER), and prefill_op_costs and
decode_op_costs splice the attention row (in decode, the cache-update row and
then attention) in after QkvProj and Rope. The tests check that the result
follows PREFILL_OP_ORDER and DECODE_OP_ORDER.

FLOPs count 2 per multiply-accumulate, 6 per rotary pair, a lump 4 per
attention-score element for scale+softmax, 5 per element for residual-add +
RMSNorm, and 2 per element for Swish+multiply. MOPs are an ideal single-pass
byte model: every operand read once, every result written once. Real kernels
re-read tiles, so modeled MOPs are a lower bound on traffic and intensity an
upper bound: tight where weight traffic dominates (decode: modeled QKV
intensity 7.98 matches measurement), loose for prefill matmuls (modeled 1755
vs ~642 measured). Intensity is never stored: OpCost and ModelCost derive it
from their integer counts when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Union

from .arch import ModelConfig, _require_nonnegative, _require_positive


class OpKind(Enum):
    QKV_PROJ = "QkvProj"
    ROPE = "Rope"
    CACHE_UPDATE = "CacheUpdate"  # decode only
    ATTENTION = "Attention"
    OUT_PROJ = "OutProj"
    ADD_NORM_ATTN = "AddNormAttn"
    GATE_UP_PROJ = "GateUpProj"
    SWISH_MUL = "SwishMul"
    DOWN_PROJ = "DownProj"
    ADD_NORM_FFN = "AddNormFfn"

    # Members are singletons compared by identity, so the identity hash agrees
    # with ==; Enum's own __hash__ is a Python call on every kind-keyed lookup.
    __hash__ = object.__hash__


PREFILL_OP_ORDER: tuple[OpKind, ...] = (
    OpKind.QKV_PROJ, OpKind.ROPE, OpKind.ATTENTION, OpKind.OUT_PROJ,
    OpKind.ADD_NORM_ATTN, OpKind.GATE_UP_PROJ, OpKind.SWISH_MUL,
    OpKind.DOWN_PROJ, OpKind.ADD_NORM_FFN,
)

DECODE_OP_ORDER: tuple[OpKind, ...] = (
    OpKind.QKV_PROJ, OpKind.ROPE, OpKind.CACHE_UPDATE, OpKind.ATTENTION,
    OpKind.OUT_PROJ, OpKind.ADD_NORM_ATTN, OpKind.GATE_UP_PROJ,
    OpKind.SWISH_MUL, OpKind.DOWN_PROJ, OpKind.ADD_NORM_FFN,
)

# The four weight-bearing linear projections.
LINEAR_PROJECTIONS: tuple[OpKind, ...] = (
    OpKind.QKV_PROJ, OpKind.OUT_PROJ, OpKind.GATE_UP_PROJ, OpKind.DOWN_PROJ,
)


def _intensity(flops: int, mops: int) -> float:
    """flops / mops; 0 for pure data movement, inf for compute on no bytes."""
    if flops == 0:
        return 0.0
    if mops == 0:
        return math.inf
    return flops / mops


@dataclass(frozen=True, init=False)
class OpCost:
    """FLOPs and modeled bytes moved for one operation.

    flops and mops are exact integers; arithmetic_intensity is derived from
    them when read (flops / mops, or 0 for pure data movement).
    """

    kind: OpKind
    flops: int
    mops: int

    def __init__(self, kind: OpKind, flops: int, mops: int) -> None:
        # Written by hand: the generated frozen __init__ pays one
        # object.__setattr__ per field and a __post_init__ frame per row.
        if flops < 0 or mops < 0:
            raise ValueError("flops and mops must be non-negative")
        fields = self.__dict__
        fields["kind"], fields["flops"], fields["mops"] = kind, flops, mops

    @property
    def arithmetic_intensity(self) -> float:
        return _intensity(self.flops, self.mops)


# KV-cache layouts. They are defined here because decode_op_costs dispatches
# on them; kvsim imports them for its allocation math.

@dataclass(frozen=True)
class Vanilla:
    """Contiguous cache re-allocated and copied on every append."""
    reserved_len: int

    def __post_init__(self) -> None:
        _require_positive("reserved_len", self.reserved_len)


@dataclass(frozen=True)
class Paged:
    """Fixed-size block allocation; appends touch only the new token."""
    block_size: int = 16

    def __post_init__(self) -> None:
        _require_positive("block_size", self.block_size)


@dataclass(frozen=True)
class TokenGranular:
    """Per-token allocation; appends touch only the new token."""


CacheLayout = Union[Vanilla, Paged, TokenGranular]


# The token-wise kinds in layer order. Unpacking them is cheaper than reading
# eight members off the Enum class, which is a slow lookup on Python 3.11.
_TOKEN_OP_KINDS = tuple(kind for kind in PREFILL_OP_ORDER if kind is not OpKind.ATTENTION)


def _token_ops(cfg: ModelConfig, t: int) -> tuple[OpCost, ...]:
    """The eight ops that act on each of t tokens independently, with every
    weight matrix read once, in layer order: QkvProj, Rope, then OutProj
    through AddNormFfn."""
    qkv, rope, out, add_norm_attn, gate_up, swish_mul, down, add_norm_ffn = _TOKEN_OP_KINDS
    h, hf, w = cfg.hidden_size, cfg.intermediate_size, cfg.bytes_per_scalar
    add_norm_flops, add_norm_mops = 5 * t * h, w * (3 * t * h + h)
    return (
        OpCost(qkv, 6 * t * h * h, w * (4 * t * h + 3 * h * h)),
        OpCost(rope, 6 * t * h, w * 4 * t * h),
        OpCost(out, 2 * t * h * h, w * (2 * t * h + h * h)),
        OpCost(add_norm_attn, add_norm_flops, add_norm_mops),
        OpCost(gate_up, 4 * t * h * hf, w * (t * h + 2 * h * hf + 2 * t * hf)),
        OpCost(swish_mul, 2 * t * hf, w * 3 * t * hf),
        OpCost(down, 2 * t * h * hf, w * (t * hf + h * hf + t * h)),
        OpCost(add_norm_ffn, add_norm_flops, add_norm_mops),
    )


def _attention(cfg: ModelConfig, b: int, q: int, k: int) -> OpCost:
    """b sequences, each attending q new tokens over k keys: read Q, K and V,
    write the output, and write then read the b x n x q x k score matrix."""
    h, n, w = cfg.hidden_size, cfg.num_heads, cfg.bytes_per_scalar
    return OpCost(OpKind.ATTENTION, 4 * b * q * k * (h + n),
                  w * (2 * b * q * h + 2 * b * k * h + 2 * b * q * k * n))


def prefill_op_costs(cfg: ModelConfig, b: int, s: int) -> list[OpCost]:
    """Per-operation costs of one decoder layer processing a b x s prompt."""
    _require_positive("b and s", b, s)
    qkv, rope, *rest = _token_ops(cfg, b * s)
    return [qkv, rope, _attention(cfg, b, s, s), *rest]


def cache_update_mops(layout: CacheLayout, cfg: ModelConfig, b: int, s_past: int) -> int:
    """Bytes one layer's cache update moves when b sequences with s_past cached
    tokens each append one token.

    Vanilla reallocates and copies: both full caches are read and rewritten
    along with the appended token (2 tensors x read+write x h x b x
    (s_past + 1) scalars). Paged and TokenGranular are append-only: only the
    new k, v vectors are written (and read back).
    """
    if isinstance(layout, Vanilla):
        tokens = s_past + 1
    elif isinstance(layout, (Paged, TokenGranular)):
        tokens = 1
    else:
        raise TypeError(f"unknown cache layout: {layout!r}")
    return cfg.bytes_per_scalar * 2 * 2 * cfg.hidden_size * b * tokens


def decode_op_costs(cfg: ModelConfig, b: int, s_past: int,
                    cache_layout: CacheLayout = Paged()) -> list[OpCost]:
    """Per-operation costs of one decoder layer generating one token per
    sequence with s_past cached tokens each."""
    _require_positive("b and s_past", b, s_past)
    cache_mops = cache_update_mops(cache_layout, cfg, b, s_past)
    qkv, rope, *rest = _token_ops(cfg, b)
    return [qkv, rope, OpCost(OpKind.CACHE_UPDATE, 0, cache_mops),
            _attention(cfg, b, 1, s_past), *rest]


@dataclass(frozen=True)
class ModelCost:
    """Whole-stack totals: num_layers times the sums of one layer's costs."""

    total_flops: int
    total_mops: int

    @property
    def arithmetic_intensity(self) -> float:
        return _intensity(self.total_flops, self.total_mops)

    # Aliases so a ModelCost quacks like an OpCost for roofline queries.
    @property
    def flops(self) -> int:
        return self.total_flops

    @property
    def mops(self) -> int:
        return self.total_mops


_kind, _flops, _mops = attrgetter("kind"), attrgetter("flops"), attrgetter("mops")


def aggregate(layer_costs: list[OpCost], cfg: ModelConfig) -> ModelCost:
    """Whole-stack totals of one layer's per-op costs; each op kind at most once."""
    kinds = list(map(_kind, layer_costs))
    if len(set(kinds)) < len(kinds):
        duplicate = next(kind for kind in kinds if kinds.count(kind) > 1)
        raise ValueError(f"duplicate op kind in layer costs: {duplicate}")
    l = cfg.num_layers
    return ModelCost(l * sum(map(_flops, layer_costs)), l * sum(map(_mops, layer_costs)))


def kv_cache_bytes(cfg: ModelConfig, b: int, s: int) -> int:
    """Bytes held by the K and V caches for b sequences of s tokens, all layers."""
    _require_nonnegative("b and s", b, s)
    return 2 * cfg.num_layers * cfg.hidden_size * cfg.bytes_per_scalar * b * s


__all__ = [
    "OpKind", "OpCost", "ModelCost", "CacheLayout", "Vanilla", "Paged",
    "TokenGranular", "PREFILL_OP_ORDER", "DECODE_OP_ORDER",
    "LINEAR_PROJECTIONS", "prefill_op_costs", "decode_op_costs", "aggregate",
    "kv_cache_bytes",
]
