"""Closed-form serving times, through public names only.

With every request arriving at 0, no KV cap and Continuous(max_seqs=1), the
requests run one after another in trace order. A request that starts at T has
its first token at T + P(1, input_len), where the prefill step yields that
token, and completes after output_len - 1 decode steps, the j-th priced at
D(1, input_len + j). Each step lasts max(0.0, ms) / 1000 seconds, and T
accumulates the durations left to right.

P and D are written here from the feature formulas in the estimator
docstring, as a left-to-right add of coefficient-feature products, so the
check shares no pricing code with the simulator. vLLM's negative prefill
intercept sends short prompts through the zero clamp.
"""

import numpy as np
import pytest

from infercost import Continuous, generate, resolve_model, run

LLAMA7B = resolve_model("llama2-7b")


def _dot(values, features) -> float:
    ms = 0.0
    for c, f in zip(values, features):
        ms = ms + c * f
    return ms


def _seconds(values, features) -> float:
    return max(0.0, _dot(values, features)) / 1000.0


def _prefill(values, b: int, s: int) -> float:
    h, hf, n, l = (LLAMA7B.hidden_size, LLAMA7B.intermediate_size,
                   LLAMA7B.num_heads, LLAMA7B.num_layers)
    return _seconds(values, (float(b * s * h * h * l), float(b * s * h * hf * l),
                             float(b * s * s * n * l), float(b * s * h * l),
                             float(b * s * hf * l), 1.0))


def _decode(values, b: int, s: int) -> float:
    h, n, l = LLAMA7B.hidden_size, LLAMA7B.num_heads, LLAMA7B.num_layers
    return _seconds(values, (float(b * s * h * l), float(b * s * n * l),
                             float(b * h * l), 1.0))


@pytest.mark.parametrize("scenario", ["short-to-short", "short-to-long", "long-to-short"])
@pytest.mark.parametrize("backend", ["vllm", "transformers"])
def test_one_sequence_at_a_time_matches_the_closed_form(table10, backend, scenario):
    coeffs = table10(backend)
    trace = generate(scenario, 60, seed=3)
    result = run(Continuous(max_seqs=1), trace, LLAMA7B, coeffs)

    t = 0.0
    want = {}
    for req in trace:
        t = t + _prefill(coeffs.prefill.values, 1, req.input_len)
        first = t
        for j in range(req.output_len - 1):
            t = t + _decode(coeffs.decode.values, 1, req.input_len + j)
        want[req.id] = (first, t)

    got = {r.id: (r.first_token_s, r.completion_s) for r in result.records}
    assert got == want
    assert result.steps.end_s[-1] == t
    assert len(result.steps) == sum(r.output_len for r in trace)
    assert np.array_equal(result.steps.start_s[1:], result.steps.end_s[:-1])
