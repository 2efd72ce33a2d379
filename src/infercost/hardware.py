"""Hardware capability description and roofline classification.

The roofline's ridge point is peak compute divided by memory bandwidth; an
operation whose arithmetic intensity exceeds the ridge is limited by compute,
otherwise by bandwidth. Ties classify MemoryBound: at the knee the bandwidth
is already saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from pathlib import Path

from .arch import _load_json, _require_keys, _resolve
from .costmodel import OpCost


class DegenerateCostError(ValueError):
    """An operation reports compute but zero memory traffic."""


class HardwareError(ValueError):
    """A hardware description violates its invariants."""


class BoundKind(Enum):
    COMPUTE_BOUND = "ComputeBound"
    MEMORY_BOUND = "MemoryBound"


@dataclass(frozen=True)
class HardwareSpec:
    """One accelerator: capacity in bytes, bandwidth in B/s, peak in FLOP/s.

    Bandwidth is the unidirectional aggregate DRAM figure from the datasheet;
    no read/write split is modeled.
    """

    name: str
    memory_bytes: int
    bandwidth_bytes_per_s: int
    peak_flops_per_s: int

    def __post_init__(self) -> None:
        for field in ("memory_bytes", "bandwidth_bytes_per_s", "peak_flops_per_s"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise HardwareError(f"{field} must be a strictly positive integer, got {value!r}")


def ridge_point(hw: HardwareSpec) -> float:
    """Arithmetic intensity (FLOP/B) at which the roofline leaves the bandwidth slope."""
    return hw.peak_flops_per_s / hw.bandwidth_bytes_per_s


def classify(cost: OpCost, hw: HardwareSpec) -> BoundKind:
    """ComputeBound iff the op's intensity strictly exceeds the ridge point.

    The test is exact: flops * bandwidth > peak * mops on the integer counts,
    so an op one FLOP above the ridge is ComputeBound even where the two
    float quotients round to the same value, and an exact tie is MemoryBound.
    """
    flops, mops = cost.flops, cost.mops
    if mops == 0 and flops > 0:
        name = getattr(getattr(cost, "kind", None), "value", type(cost).__name__)
        raise DegenerateCostError(f"{name}: flops={flops} with zero modeled traffic")
    if flops * hw.bandwidth_bytes_per_s > hw.peak_flops_per_s * mops:
        return _COMPUTE_BOUND
    return _MEMORY_BOUND


# Bound once: on Python 3.11 reading a member off its Enum class costs about
# as much as the rest of classify.
_COMPUTE_BOUND, _MEMORY_BOUND = BoundKind.COMPUTE_BOUND, BoundKind.MEMORY_BOUND


def attainable_flops(ai: float, hw: HardwareSpec) -> float:
    """Roofline curve: attainable FLOP/s at a given arithmetic intensity."""
    if not ai >= 0:  # NaN fails too
        raise ValueError(f"arithmetic intensity must be >= 0, got {ai}")
    return min(float(hw.peak_flops_per_s), ai * hw.bandwidth_bytes_per_s)


def lower_bound_time(cost: OpCost, hw: HardwareSpec) -> float:
    """Roofline-consistent floor on execution time, in seconds."""
    return max(cost.flops / hw.peak_flops_per_s,
               cost.mops / hw.bandwidth_bytes_per_s)


# GB and TFLOPs are decimal (1e9 / 1e12), matching vendor datasheets.
_GB = 10 ** 9
_TFLOPS = 10 ** 12

HARDWARE_PRESETS: dict[str, HardwareSpec] = {
    "rtx-3090": HardwareSpec("RTX-3090", 24 * _GB, 936 * _GB, 71 * _TFLOPS),
    "rtx-4090": HardwareSpec("RTX-4090", 24 * _GB, 1008 * _GB, 165_200_000_000_000),
    "a800": HardwareSpec("A800", 80 * _GB, 2039 * _GB, 312 * _TFLOPS),
}


_HW_JSON_KEYS = ("name", "memory_gb", "bandwidth_gb_per_s", "bf16_tflops")


def _exact_scaled_int(value, scale: int, field: str) -> int:
    """Convert a JSON number (int or Decimal) to base units without rounding."""
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise HardwareError(f"{field} must be a number, got {value!r}")
    scaled = Decimal(value) * scale
    if scaled != scaled.to_integral_value():
        raise HardwareError(f"{field}={value} does not scale to a whole number of base units")
    return int(scaled)


def hardware_from_dict(data: dict) -> HardwareSpec:
    _require_keys(data, "hardware", _HW_JSON_KEYS, error=HardwareError)
    return HardwareSpec(
        name=str(data["name"]),
        memory_bytes=_exact_scaled_int(data["memory_gb"], _GB, "memory_gb"),
        bandwidth_bytes_per_s=_exact_scaled_int(data["bandwidth_gb_per_s"], _GB,
                                                "bandwidth_gb_per_s"),
        peak_flops_per_s=_exact_scaled_int(data["bf16_tflops"], _TFLOPS, "bf16_tflops"),
    )


def load_hardware(path: str | Path) -> HardwareSpec:
    # Decimal parsing keeps values like 165.2 TFLOPs exact.
    return _load_json(path, hardware_from_dict, (HardwareError,), parse_float=Decimal)


def resolve_hardware(name_or_path: str | Path) -> HardwareSpec:
    """Accept a preset name or a JSON file path (the CLI's --hardware semantics)."""
    return _resolve("--hardware", name_or_path, HARDWARE_PRESETS, load_hardware, HardwareError)


__all__ = [
    "BoundKind", "HardwareSpec", "HardwareError", "DegenerateCostError",
    "ridge_point", "classify", "attainable_flops", "lower_bound_time",
    "load_hardware", "resolve_hardware",
]
