"""Exact time scaling of the serving simulator, through public names only.

Doubling every runtime coefficient doubles every predicted step time, and
doubling every arrival time keeps each arrival in the same place relative to
the step boundaries, so every scheduling decision stays the same. Scaling by
two is exact in binary floating point, also through the zero clamp, the
division to seconds, the cumulative sum of step boundaries and the latency
percentiles. So every time the simulator reports must double bit for bit and
every throughput must halve. Unlike the step-by-step reference, this check
reads nothing of the engine's own code.
"""

import json

import numpy as np
import pytest

from infercost import (
    CoefficientPair,
    Continuous,
    KvCapacity,
    Paged,
    Phase,
    RegressionCoefficients,
    Request,
    SplitFuse,
    Static,
    coeff_names,
    describe_policy,
    generate,
    run,
    weight_bytes,
)
from infercost.arch import MODEL_PRESETS
from infercost.hardware import HARDWARE_PRESETS

LLAMA7B = MODEL_PRESETS["llama2-7b"]
A800_PAGED = KvCapacity.from_hardware(Paged(16), HARDWARE_PRESETS["a800"],
                                      weight_bytes(LLAMA7B))
# The a800 cap never refuses these traces; 4 GiB refuses admission on the
# long-to-short traces (test_the_small_cap_refuses_admission).
PAGED_4GIB = KvCapacity(Paged(16), 4 * 2**30)
POLICIES = [Static(8), Continuous(max_seqs=16), SplitFuse(256)]


def _table10(paper_data, backend: str, scale: float) -> CoefficientPair:
    with open(paper_data / "table10_regression_coefficients.json", encoding="utf-8") as fh:
        table = json.load(fh)[backend]
    return CoefficientPair(*(
        RegressionCoefficients(phase, tuple(scale * table[phase.value][name]
                                            for name in coeff_names(phase)))
        for phase in (Phase.PREFILL, Phase.DECODE)))


def _poisson_trace(scenario: str, scale: float) -> list[Request]:
    """200 requests arriving at 4 req/s; every arrival time times scale."""
    arrivals = np.cumsum(np.random.default_rng(5).exponential(0.25, size=200))
    return [Request(r.id, r.input_len, r.output_len, scale * float(at))
            for r, at in zip(generate(scenario, 200, seed=5), arrivals)]


@pytest.mark.parametrize("capacity", [None, A800_PAGED, PAGED_4GIB],
                         ids=["uncapped", "a800-paged16", "paged16-4gib"])
@pytest.mark.parametrize("policy", POLICIES, ids=describe_policy)
@pytest.mark.parametrize("scenario", ["short-to-short", "short-to-long", "long-to-short"])
@pytest.mark.parametrize("backend", ["vllm", "transformers"])
def test_doubling_coefficients_and_arrivals_doubles_every_time(
        paper_data, backend, scenario, policy, capacity):
    base = run(policy, _poisson_trace(scenario, 1.0), LLAMA7B,
               _table10(paper_data, backend, 1.0), capacity)
    doubled = run(policy, _poisson_trace(scenario, 2.0), LLAMA7B,
                  _table10(paper_data, backend, 2.0), capacity)

    assert np.array_equal(doubled.steps.start_s, 2 * base.steps.start_s)
    assert np.array_equal(doubled.steps.end_s, 2 * base.steps.end_s)
    for field in ("kind", "batch", "tokens", "generated", "reserved_bytes"):
        assert np.array_equal(getattr(doubled.steps, field), getattr(base.steps, field))
    assert [r.id for r in doubled.records] == [r.id for r in base.records]
    for name in ("arrival_s", "first_token_s", "completion_s"):
        assert [getattr(r, name) for r in doubled.records] == \
            [2 * getattr(r, name) for r in base.records]

    got, want = doubled.metrics, base.metrics
    assert got.completed == want.completed == 200
    assert got.p50_latency_s == 2 * want.p50_latency_s
    assert got.p95_latency_s == 2 * want.p95_latency_s
    assert got.mean_token_latency_s == 2 * want.mean_token_latency_s
    assert got.token_throughput == want.token_throughput / 2
    assert got.seq_throughput == want.seq_throughput / 2


@pytest.mark.parametrize("policy", POLICIES, ids=describe_policy)
@pytest.mark.parametrize("backend", ["vllm", "transformers"])
def test_the_small_cap_refuses_admission(paper_data, backend, policy):
    # Refusal shows in the schedule: a step starts at another time or carries
    # another batch than under the a800 cap. reserved_bytes would differ
    # under any other cap from block rounding alone.
    trace = _poisson_trace("long-to-short", 1.0)
    coeffs = _table10(paper_data, backend, 1.0)
    small = run(policy, trace, LLAMA7B, coeffs, PAGED_4GIB).steps
    large = run(policy, trace, LLAMA7B, coeffs, A800_PAGED).steps
    assert not (np.array_equal(small.start_s, large.start_s)
                and np.array_equal(small.batch, large.batch))
