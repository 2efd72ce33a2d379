"""Metamorphic identities of the serving simulator, through public names only.

Each identity relates two runs that must agree bit for bit, records and steps,
whatever the step pricing, so it pins the scheduling rules without restating
them:

- Static(1) and Continuous(max_seqs=1) both run one request at a time: its
  prefill step, then its decode steps, then the next request. The same trace
  gives the same result under either policy.
- Idle-gap decomposition: once trace A has drained, the engine holds no
  state but the clock, and waiting for the next arrival moves the clock to
  it. So if trace B arrives after A has drained, run(A + B) is run(A)
  followed by run(B). Static(8) waits for stragglers to fill its last batch,
  so each part holds a multiple of 8 requests, and no cap may split a batch.
"""

import numpy as np
import pytest
from oracles import STEP_COLUMNS

from infercost import (
    Continuous,
    KvCapacity,
    Paged,
    Request,
    SplitFuse,
    Static,
    StepTable,
    describe_policy,
    generate,
    resolve_hardware,
    resolve_model,
    run,
    weight_bytes,
)

LLAMA7B = resolve_model("llama2-7b")
A800_PAGED = KvCapacity.from_hardware(Paged(16), resolve_hardware("a800"),
                                      weight_bytes(LLAMA7B))
# The a800 cap never refuses these traces; 4 GiB refuses admission in most
# Continuous(16) and SplitFuse(256) cases on the two long scenarios.
CAPACITIES = {"uncapped": None, "a800-paged16": A800_PAGED,
              "paged16-4gib": KvCapacity(Paged(16), 4 * 2**30)}
SCENARIOS = ["short-to-short", "short-to-long", "long-to-short"]


def _poisson_trace(scenario: str, n: int, seed: int, start_s: float = 0.0,
                   first_id: int = 0) -> list[Request]:
    """n requests arriving at 4 req/s after start_s, numbered from first_id."""
    arrivals = start_s + np.cumsum(np.random.default_rng(seed).exponential(0.25, size=n))
    return [Request(first_id + r.id, r.input_len, r.output_len, float(at))
            for r, at in zip(generate(scenario, n, seed=seed), arrivals)]


@pytest.mark.parametrize("capacity", CAPACITIES.values(), ids=CAPACITIES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", ["vllm", "transformers"])
def test_static_one_equals_continuous_one(table10, backend, scenario, capacity):
    trace = _poisson_trace(scenario, 300, seed=11)
    coeffs = table10(backend)
    static = run(Static(1), trace, LLAMA7B, coeffs, capacity)
    continuous = run(Continuous(max_seqs=1), trace, LLAMA7B, coeffs, capacity)
    assert static == continuous  # records, steps and totals


# A cap that refuses admission starts partial static batches, and a partial
# last batch of A would wait for B's arrivals; Static(8) runs uncapped and
# under the a800 cap only.
IDLE_GAP_CASES = [pytest.param(policy, capacity, id=f"{describe_policy(policy)}-{name}")
                  for policy in (Static(8), Continuous(max_seqs=16), SplitFuse(256))
                  for name, capacity in CAPACITIES.items()
                  if not (policy == Static(8) and name == "paged16-4gib")]


@pytest.mark.parametrize("policy, capacity", IDLE_GAP_CASES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", ["vllm", "transformers"])
def test_runs_split_at_an_idle_gap(table10, backend, scenario, policy, capacity):
    coeffs = table10(backend)
    part_a = _poisson_trace(scenario, 64, seed=3)
    first = run(policy, part_a, LLAMA7B, coeffs, capacity)
    drained_s = first.records[-1].completion_s
    assert drained_s == first.steps.end_s[-1]
    part_b = _poisson_trace(scenario, 64, seed=4, start_s=drained_s, first_id=len(part_a))
    second = run(policy, part_b, LLAMA7B, coeffs, capacity)
    whole = run(policy, part_a + part_b, LLAMA7B, coeffs, capacity)

    assert whole.records == first.records + second.records
    assert whole.steps == StepTable(*(np.concatenate((getattr(first.steps, name),
                                                      getattr(second.steps, name)))
                                      for name in STEP_COLUMNS))
    assert whole.generated_tokens == first.generated_tokens + second.generated_tokens
    assert whole.peak_reserved_bytes == max(first.peak_reserved_bytes,
                                            second.peak_reserved_bytes)
