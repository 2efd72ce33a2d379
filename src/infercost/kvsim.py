"""KV-cache memory modeling under three layout disciplines.

Vanilla keeps one contiguous buffer per sequence and reallocates-and-copies
the whole cache on every append; Paged allocates fixed-size token blocks and
appends in place; TokenGranular allocates exactly one token at a time. The
layouts differ in per-step traffic (copy vs append) and in allocation waste
(reservation / block rounding / none).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import floordiv

from .arch import ModelConfig, _require_nonnegative, _require_positive
from .costmodel import (CacheLayout, Paged, TokenGranular, Vanilla, cache_update_mops,
                        kv_cache_bytes)
from .hardware import HardwareSpec


class ReservedOverflowError(ValueError):
    """A sequence outgrew the Vanilla layout's reserved length."""


@dataclass(frozen=True)
class CacheStats:
    """Byte accounting at one observation point: allocated = live + wasted."""

    allocated_bytes: int
    live_bytes: int
    wasted_bytes: int

    def __post_init__(self) -> None:
        for name in ("allocated_bytes", "live_bytes", "wasted_bytes"):
            _require_nonnegative(name, getattr(self, name))
        if self.allocated_bytes != self.live_bytes + self.wasted_bytes:
            raise ValueError("allocated_bytes must equal live_bytes + wasted_bytes")


def allocated_tokens(layout: CacheLayout, length: int) -> int:
    """Tokens' worth of cache a sequence of `length` tokens occupies."""
    _require_nonnegative("sequence length", length)
    return _allocated_tokens(layout, length)


def _allocated_tokens(layout: CacheLayout, length: int) -> int:
    """allocated_tokens for a length already checked to be an int >= 0."""
    if isinstance(layout, Vanilla):
        if length > layout.reserved_len:
            raise ReservedOverflowError(
                f"sequence of {length} tokens exceeds reserved_len={layout.reserved_len}")
        return layout.reserved_len
    if isinstance(layout, Paged):
        return -(length // -layout.block_size) * layout.block_size  # exact ceil
    if isinstance(layout, TokenGranular):
        return length
    raise TypeError(f"unknown cache layout: {layout!r}")


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
    live = sum(seq_lens)
    if isinstance(layout, Vanilla):
        # Every sequence reserves reserved_len; only the longest can overflow.
        allocated = _allocated_tokens(layout, max(seq_lens)) * len(seq_lens)
    elif isinstance(layout, Paged):
        # Sum of the exact ceilings -(length // -block), in one C pass.
        block = layout.block_size
        allocated = -sum(map(floordiv, seq_lens, repeat(-block))) * block
    elif isinstance(layout, TokenGranular):
        allocated = live
    else:
        raise TypeError(f"unknown cache layout: {layout!r}")
    per_token = kv_cache_bytes(cfg, 1, 1)
    return CacheStats(allocated_bytes=per_token * allocated, live_bytes=per_token * live,
                      wasted_bytes=per_token * (allocated - live))


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
    per_seq_bytes = kv_cache_bytes(cfg, 1, 1) * _allocated_tokens(layout, per_seq_len)
    return free // per_seq_bytes


__all__ = [
    "CacheStats", "ReservedOverflowError", "allocated_tokens", "cache_step_bytes",
    "footprint", "max_concurrency",
]
