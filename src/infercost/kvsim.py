"""KV-cache byte accounting under a costmodel.CacheLayout: footprint and
waste, per-step update traffic, and the concurrency ceiling beside the
weights.

The layouts (Vanilla's reserve-and-copy, Paged's blocks, TokenGranular's
single tokens) carry their own allocation and copy rules; this module only
turns the tokens they allocate into bytes; its code names no layout class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import ModelConfig, _require_nonnegative, _require_positive
from .costmodel import CacheLayout, _require_layout, cache_update_mops, kv_cache_bytes
from .hardware import HardwareSpec


@dataclass(frozen=True, init=False)
class CacheStats:
    """Byte accounting at one observation point: allocated = live + wasted."""

    allocated_bytes: int
    live_bytes: int
    wasted_bytes: int

    def __init__(self, allocated_bytes: int, live_bytes: int, wasted_bytes: int) -> None:
        # Written by hand, as costmodel.OpCost's is: the generated frozen
        # __init__ pays one object.__setattr__ per field. The counts are
        # checked inline, as OpCost's are; only a failed check calls
        # arch._require_nonnegative, whose message names the field.
        if (type(allocated_bytes) is not int or type(live_bytes) is not int
                or type(wasted_bytes) is not int
                or allocated_bytes < 0 or live_bytes < 0 or wasted_bytes < 0):
            _require_nonnegative("allocated_bytes", allocated_bytes)
            _require_nonnegative("live_bytes", live_bytes)
            _require_nonnegative("wasted_bytes", wasted_bytes)
        if allocated_bytes != live_bytes + wasted_bytes:
            raise ValueError("allocated_bytes must equal live_bytes + wasted_bytes")
        fields = self.__dict__
        fields["allocated_bytes"], fields["live_bytes"], fields["wasted_bytes"] = (
            allocated_bytes, live_bytes, wasted_bytes)


def allocated_tokens(layout: CacheLayout, length: int) -> int:
    """Tokens' worth of cache a sequence of `length` tokens occupies."""
    _require_nonnegative("sequence length", length)
    _require_layout(layout)
    return layout.allocated(length)


def cache_step_bytes(layout: CacheLayout, cfg: ModelConfig, b: int, s_past: int) -> int:
    """Bytes the cache update moves in one decode step, all layers: num_layers
    times costmodel.cache_update_mops. s_past = 0 (an empty cache) is allowed.
    """
    _require_positive("b", b)
    _require_nonnegative("s_past", s_past)
    return cfg.num_layers * cache_update_mops(layout, cfg, b, s_past)


def footprint(layout: CacheLayout, cfg: ModelConfig, seq_lens: list[int]) -> CacheStats:
    """Cache byte accounting for a set of concurrently resident sequences."""
    if not seq_lens:
        raise ValueError("seq_lens must be non-empty")
    if set(map(type, seq_lens)) != {int}:  # one C-level pass; bool is not int
        bad = next(length for length in seq_lens if type(length) is not int)
        raise ValueError(f"sequence lengths must be integers, got {bad!r}")
    if min(seq_lens) < 0:
        raise ValueError("sequence lengths must be >= 0")
    _require_layout(layout)
    live, allocated = sum(seq_lens), layout.total_allocated(seq_lens)
    per_token = kv_cache_bytes(cfg, 1, 1)
    return CacheStats(per_token * allocated, per_token * live, per_token * (allocated - live))


def _free_kv_bytes(hw: HardwareSpec, model_weight_bytes: int) -> int:
    """Device memory left for the KV cache beside the model weights."""
    _require_nonnegative("model_weight_bytes", model_weight_bytes)
    if model_weight_bytes >= hw.memory_bytes:
        raise ValueError(f"model weights ({model_weight_bytes} B) do not fit in "
                         f"{hw.name} memory ({hw.memory_bytes} B)")
    return hw.memory_bytes - model_weight_bytes


def max_concurrency(layout: CacheLayout, cfg: ModelConfig, hw: HardwareSpec,
                    model_weight_bytes: int, per_seq_len: int) -> int:
    """Largest number of per_seq_len-token sequences whose cache fits beside
    the weights in hw memory. Zero is a valid answer."""
    free = _free_kv_bytes(hw, model_weight_bytes)
    _require_positive("per_seq_len", per_seq_len)
    _require_layout(layout)
    per_seq_bytes = kv_cache_bytes(cfg, 1, 1) * layout.allocated(per_seq_len)
    return free // per_seq_bytes


__all__ = [
    "CacheStats", "allocated_tokens", "cache_step_bytes",
    "footprint", "max_concurrency",
]
