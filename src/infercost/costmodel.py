"""Per-operation FLOPs, modeled memory traffic (MOPs) and arithmetic
intensity for one decoder layer, in both phases, plus KV-cache footprint,
weight bytes and the KV-cache layouts.

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

The token-wise rows depend only on (cfg, t), so both phases read them from one
bounded cache keyed by (cfg, t): 1.1 MiB at the 1,034 pairs one analytic-grid
pass reads (tracemalloc, Python 3.11). OpCost is frozen and slotted, so a
shared row cannot be changed; each call still returns a new list.

The KV-cache layouts (Vanilla, Paged, TokenGranular) are CacheLayouts that
carry their own allocation and copy rules; cache_update_mops and kvsim only
apply them.

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
from functools import lru_cache
from itertools import repeat
from operator import attrgetter, floordiv

from .arch import ConfigError, ModelConfig, _require_nonnegative, _require_positive


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

    # Slotted: a cached row carries no per-instance dict (on Python 3.11, 56
    # bytes a row instead of 152 with its dict).
    __slots__ = ("kind", "flops", "mops")
    kind: OpKind
    flops: int
    mops: int

    def __init__(self, kind: OpKind, flops: int, mops: int) -> None:
        # Written by hand: the generated frozen __init__ pays one
        # object.__setattr__ per field and a __post_init__ frame per row.
        # arch._require_nonnegative's rule (an int, not a bool), written inline
        # so that a row pays no extra call.
        if type(flops) is not int or type(mops) is not int or flops < 0 or mops < 0:
            raise ValueError(f"flops and mops must be non-negative integers, "
                             f"got {flops!r} and {mops!r}")
        _set_kind(self, kind)
        _set_flops(self, flops)
        _set_mops(self, mops)

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots by setattr, which
        # a frozen dataclass refuses.
        return OpCost, (self.kind, self.flops, self.mops)

    @property
    def arithmetic_intensity(self) -> float:
        return _intensity(self.flops, self.mops)


# The slots' own setters: the fastest way past the frozen __setattr__.
_set_kind, _set_flops, _set_mops = (
    OpCost.kind.__set__, OpCost.flops.__set__, OpCost.mops.__set__)


class ReservedOverflowError(ValueError):
    """A sequence outgrew the Vanilla layout's reserved length."""


class CacheLayout:
    """A KV-cache layout: a frozen dataclass with the only rules the cost
    model and kvsim ask for. allocated(length): the tokens' worth of cache a
    sequence of length tokens occupies (length is an int >= 0, checked by
    the caller). total_allocated(lengths): its sum over a non-empty list of
    lengths. copies: whether an append copies the whole cache (s_past + 1
    tokens per sequence) instead of writing only the new token."""

    copies = False


def _require_layout(layout) -> None:
    if not isinstance(layout, CacheLayout):
        raise TypeError(f"unknown cache layout: {layout!r}")


@dataclass(frozen=True)
class Vanilla(CacheLayout):
    """Contiguous reserved_len-token cache per sequence, copied on every append."""
    reserved_len: int
    copies = True

    def __post_init__(self) -> None:
        _require_positive("reserved_len", self.reserved_len)

    def allocated(self, length: int) -> int:
        if length > self.reserved_len:
            raise ReservedOverflowError(
                f"sequence of {length} tokens exceeds reserved_len={self.reserved_len}")
        return self.reserved_len

    def total_allocated(self, lengths: list[int]) -> int:
        # Every sequence reserves reserved_len; only the longest can overflow.
        return self.allocated(max(lengths)) * len(lengths)


@dataclass(frozen=True)
class Paged(CacheLayout):
    """Fixed-size block allocation; appends touch only the new token."""
    block_size: int = 16

    def __post_init__(self) -> None:
        _require_positive("block_size", self.block_size)

    def allocated(self, length: int) -> int:
        return -(length // -self.block_size) * self.block_size  # exact ceil

    def total_allocated(self, lengths: list[int]) -> int:
        # Sum of the exact ceilings -(length // -block), in one C pass.
        return -sum(map(floordiv, lengths, repeat(-self.block_size))) * self.block_size


@dataclass(frozen=True)
class TokenGranular(CacheLayout):
    """Per-token allocation; appends touch only the new token."""

    def allocated(self, length: int) -> int:
        return length

    def total_allocated(self, lengths: list[int]) -> int:
        return sum(lengths)


# The token-wise kinds in layer order. Unpacking them is cheaper than reading
# eight members off the Enum class, which is a slow lookup on Python 3.11.
_TOKEN_OP_KINDS = tuple(kind for kind in PREFILL_OP_ORDER if kind is not OpKind.ATTENTION)


# Bounded, so that a sweep over many (cfg, t) pairs does not grow the process.
# One analytic-grid pass over two models reads 1,034 distinct pairs.
_TOKEN_OPS_CACHE_SIZE = 2048


@lru_cache(maxsize=_TOKEN_OPS_CACHE_SIZE)
def _token_ops(cfg: ModelConfig, t: int) -> tuple[OpCost, ...]:
    """The eight ops that act on each of t tokens independently, with every
    weight matrix read once, in layer order: QkvProj, Rope, then OutProj
    through AddNormFfn. Built once per (cfg, t) and shared by both phases."""
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

    A layout that copies (Vanilla) reads and rewrites both full caches along
    with the appended token (2 tensors x read+write x h x b x (s_past + 1)
    scalars); s_past + 1 tokens past its reservation raise
    ReservedOverflowError, as they do in footprint. An append-only layout
    (Paged, TokenGranular) writes only the new k, v vectors (and reads them
    back).
    """
    _require_layout(layout)
    tokens = 1
    if layout.copies:
        tokens = s_past + 1
        layout.allocated(tokens)  # Vanilla raises past its reservation
    return cfg.bytes_per_scalar * 2 * 2 * cfg.hidden_size * b * tokens


def decode_op_costs(cfg: ModelConfig, b: int, s_past: int,
                    cache_layout: CacheLayout = Paged()) -> list[OpCost]:
    """Per-operation costs of one decoder layer generating one token per
    sequence with s_past cached tokens each; 0 is an empty cache (no scores).

    Only the cache-update and attention rows depend on s_past."""
    _require_nonnegative("b and s_past", b, s_past)
    if not b:
        _require_positive("b", b)
    cache_mops = cache_update_mops(cache_layout, cfg, b, s_past)
    qkv, rope, *rest = _token_ops(cfg, b)
    return [qkv, rope, OpCost(OpKind.CACHE_UPDATE, 0, cache_mops),
            _attention(cfg, b, 1, s_past), *rest]


@dataclass(frozen=True, init=False)
class ModelCost:
    """Whole-stack totals: num_layers times the sums of one layer's costs."""

    total_flops: int
    total_mops: int

    def __init__(self, total_flops: int, total_mops: int) -> None:
        # Written by hand, as OpCost's is.
        if (type(total_flops) is not int or type(total_mops) is not int
                or total_flops < 0 or total_mops < 0):
            raise ValueError(f"total_flops and total_mops must be non-negative integers, "
                             f"got {total_flops!r} and {total_mops!r}")
        fields = self.__dict__
        fields["total_flops"], fields["total_mops"] = total_flops, total_mops

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
    if len(set(map(_kind, layer_costs))) < len(layer_costs):
        kinds = list(map(_kind, layer_costs))
        duplicate = next(kind for kind in kinds if kinds.count(kind) > 1)
        raise ValueError(f"duplicate op kind in layer costs: {duplicate}")
    l = cfg.num_layers
    return ModelCost(l * sum(map(_flops, layer_costs)), l * sum(map(_mops, layer_costs)))


def kv_cache_bytes(cfg: ModelConfig, b: int, s: int) -> int:
    """Bytes held by the K and V caches for b sequences of s tokens, all layers."""
    _require_nonnegative("b and s", b, s)
    return 2 * cfg.num_layers * cfg.hidden_size * cfg.bytes_per_scalar * b * s


def weight_bytes(cfg: ModelConfig) -> int:
    """Bytes of the model's weights: w(l(4h^2 + 3hh' + 2h) + 2Vh + h) for a
    vocabulary of V tokens.

    A layer's weights are what its token-wise rows move at t = 0 tokens, so
    their shapes are written once, in _token_ops. The rest is an untied
    embedding and LM head (V x h each) and the final norm (h)."""
    if cfg.vocab_size is None:
        raise ConfigError("weight_bytes needs the model's vocab_size")
    h = cfg.hidden_size
    per_layer = sum(map(_mops, _token_ops(cfg, 0)))
    return cfg.num_layers * per_layer + cfg.bytes_per_scalar * (2 * cfg.vocab_size * h + h)


__all__ = [
    "OpKind", "OpCost", "ModelCost", "CacheLayout", "Vanilla", "Paged",
    "TokenGranular", "ReservedOverflowError", "PREFILL_OP_ORDER", "DECODE_OP_ORDER",
    "LINEAR_PROJECTIONS", "prefill_op_costs", "decode_op_costs", "aggregate",
    "kv_cache_bytes", "weight_bytes",
]
