"""Roofline math, bound classification, presets, and hardware JSON loading."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infercost.costmodel import OpCost, OpKind
from infercost.hardware import (
    BoundKind,
    DegenerateCostError,
    HARDWARE_PRESETS,
    HardwareError,
    HardwareSpec,
    attainable_flops,
    classify,
    hardware_from_dict,
    load_hardware,
    lower_bound_time,
    resolve_hardware,
    ridge_point,
)

A800 = HARDWARE_PRESETS["a800"]
RTX3090 = HARDWARE_PRESETS["rtx-3090"]
RTX4090 = HARDWARE_PRESETS["rtx-4090"]


def op(flops, mops, kind=OpKind.QKV_PROJ):
    return OpCost(kind=kind, flops=flops, mops=mops)


class TestRidgePoint:
    def test_a800_ridge(self):
        # 312e12 / 2039e9 FLOP per byte.
        assert ridge_point(A800) == pytest.approx(153.016, abs=5e-4)

    def test_rtx3090_ridge(self):
        assert ridge_point(RTX3090) == pytest.approx(71e12 / 936e9, rel=1e-12)

    def test_rtx4090_ridge(self):
        assert ridge_point(RTX4090) == pytest.approx(165.2e12 / 1008e9, rel=1e-12)


class TestClassify:
    def test_intensity_above_ridge_is_compute_bound(self):
        assert classify(op(1540, 10), A800) is BoundKind.COMPUTE_BOUND

    def test_intensity_below_ridge_is_memory_bound(self):
        assert classify(op(1520, 10), A800) is BoundKind.MEMORY_BOUND

    def test_tie_is_memory_bound(self):
        # Pick hardware with an integer ridge so the tie is exact.
        hw = HardwareSpec("unit", 1, 1, 8)
        assert ridge_point(hw) == 8.0
        assert classify(op(8, 1), hw) is BoundKind.MEMORY_BOUND
        assert classify(op(9, 1), hw) is BoundKind.COMPUTE_BOUND

    @pytest.mark.parametrize("extra,bound", [(0, BoundKind.MEMORY_BOUND),
                                             (1, BoundKind.COMPUTE_BOUND)])
    def test_near_tie_classifies_exactly(self, extra, bound):
        # At k = 10**12 both ops' float intensities equal the A800's float
        # ridge; only the exact comparison tells one FLOP above the tie.
        k = 10 ** 12
        assert classify(op(312_000 * k + extra, 2039 * k), A800) is bound

    def test_zero_flops_is_memory_bound(self):
        assert classify(op(0, 100, kind=OpKind.CACHE_UPDATE), A800) is BoundKind.MEMORY_BOUND

    def test_compute_without_traffic_is_degenerate(self):
        with pytest.raises(DegenerateCostError, match="QkvProj"):
            classify(op(5, 0), A800)

    def test_zero_flops_zero_mops_is_memory_bound(self):
        assert classify(op(0, 0), A800) is BoundKind.MEMORY_BOUND


class TestAttainable:
    def test_bandwidth_leg(self):
        # Below the ridge the roof is ai * bandwidth.
        assert attainable_flops(10.0, A800) == 10.0 * 2039e9

    def test_flat_roof(self):
        assert attainable_flops(1e6, A800) == 312e12

    def test_knee_continuity(self):
        ridge = ridge_point(A800)
        assert attainable_flops(ridge, A800) == pytest.approx(312e12, rel=1e-12)

    @pytest.mark.parametrize("ai", [-1.0, float("nan")])
    def test_negative_ai_rejected(self, ai):
        with pytest.raises(ValueError, match=">= 0"):
            attainable_flops(ai, A800)

    def test_infinite_ai_reaches_the_peak(self):
        assert attainable_flops(float("inf"), A800) == 3.12e14

    @given(ai=st.floats(0, 1e9, allow_nan=False))
    def test_never_exceeds_either_roof(self, ai):
        got = attainable_flops(ai, RTX3090)
        assert got <= RTX3090.peak_flops_per_s
        assert got <= ai * RTX3090.bandwidth_bytes_per_s or ai == 0


class TestLowerBoundTime:
    def test_memory_bound_op_paced_by_bandwidth(self):
        cost = op(flops=1, mops=2039 * 10 ** 9)
        assert lower_bound_time(cost, A800) == 1.0

    def test_compute_bound_op_paced_by_peak(self):
        cost = op(flops=312 * 10 ** 12, mops=1)
        assert lower_bound_time(cost, A800) == 1.0

    @given(flops=st.integers(0, 10 ** 15), mops=st.integers(1, 10 ** 13))
    def test_is_max_of_both_floors(self, flops, mops):
        cost = op(flops, mops)
        t = lower_bound_time(cost, A800)
        assert t >= flops / A800.peak_flops_per_s
        assert t >= mops / A800.bandwidth_bytes_per_s
        assert t == max(flops / A800.peak_flops_per_s,
                        mops / A800.bandwidth_bytes_per_s)


class TestPresets:
    def test_a800_fields(self):
        assert A800.memory_bytes == 80 * 10 ** 9
        assert A800.bandwidth_bytes_per_s == 2039 * 10 ** 9
        assert A800.peak_flops_per_s == 312 * 10 ** 12

    def test_rtx4090_fractional_tflops_exact(self):
        assert RTX4090.peak_flops_per_s == 165_200_000_000_000

    @pytest.mark.parametrize("field,value", [
        ("memory_bytes", 0), ("bandwidth_bytes_per_s", -1),
        ("peak_flops_per_s", 0),
    ])
    def test_nonpositive_rejected(self, field, value):
        kwargs = dict(name="x", memory_bytes=1, bandwidth_bytes_per_s=1,
                      peak_flops_per_s=1)
        kwargs[field] = value
        with pytest.raises(HardwareError):
            HardwareSpec(**kwargs)

    def test_float_fields_rejected(self):
        with pytest.raises(HardwareError):
            HardwareSpec("x", 1.5, 1, 1)


class TestJsonRoundTrip:
    def test_fractional_tflops_survive_round_trip(self, tmp_path):
        # 165.2 TFLOPs is not a float-exact multiple of 1e12; the Decimal
        # parse must still land on the exact integer.
        path = tmp_path / "hw.json"
        path.write_text(json.dumps({
            "name": "RTX-4090", "memory_gb": 24, "bandwidth_gb_per_s": 1008,
            "bf16_tflops": 165.2,
        }))
        assert load_hardware(path).peak_flops_per_s == 165_200_000_000_000

    @pytest.mark.parametrize("fields, message", [
        ({"tdp_watts": 300}, "unknown hardware keys: tdp_watts"),
        ({"memory_gb": 0}, "memory_bytes must be a strictly positive integer"),
        ({"bf16_tflops": 1e-13}, "bf16_tflops=1E-13 does not scale"),
    ])
    def test_file_errors_name_the_file(self, tmp_path, fields, message):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps({"name": "x", "memory_gb": 1, "bandwidth_gb_per_s": 1,
                                    "bf16_tflops": 1, **fields}))
        with pytest.raises(HardwareError, match=re.escape(f"{path}: {message}")):
            load_hardware(path)

    def test_unknown_keys_rejected(self):
        with pytest.raises(HardwareError, match="unknown hardware keys: tdp_watts"):
            hardware_from_dict({"name": "x", "memory_gb": 1,
                                "bandwidth_gb_per_s": 1, "bf16_tflops": 1,
                                "tdp_watts": 300})

    def test_missing_keys_rejected(self):
        with pytest.raises(HardwareError, match="missing hardware keys"):
            hardware_from_dict({"name": "x"})

    def test_non_object_rejected(self):
        with pytest.raises(HardwareError, match="JSON object"):
            hardware_from_dict([])

    def test_fraction_that_is_not_whole_base_units(self):
        with pytest.raises(HardwareError, match="whole number"):
            hardware_from_dict({"name": "x", "memory_gb": 1,
                                "bandwidth_gb_per_s": 1,
                                "bf16_tflops": json.loads(
                                    "1e-13", parse_float=__import__("decimal").Decimal)})


class TestResolveHardware:
    def test_preset_name(self):
        assert resolve_hardware("a800") is A800

    def test_json_path(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps({"name": "RTX-3090", "memory_gb": 24,
                                    "bandwidth_gb_per_s": 936, "bf16_tflops": 71}))
        assert resolve_hardware(path) == RTX3090

    def test_neither(self):
        # The message lists the known presets.
        with pytest.raises(HardwareError,
                           match=r"neither a preset \(a800, rtx-3090, rtx-4090\)"):
            resolve_hardware("no-such-card")
