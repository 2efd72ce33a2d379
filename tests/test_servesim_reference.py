"""`run` against a step-by-step reference engine.

`reference_run` is the engine loop without decode spans or a decode clock:
it keeps every running sequence's own s_past and remaining counts, and prices
and applies every step on its own. It shares no code with the engine. Its
pricing, `_price`, is written from the table in the docstring of the paper's
step model, `servesim._PhaseStepModel`, on top of `estimator.predict_at`; its
scheduling rules, `admission_limit` and `step_items`, are written from the
policies' docstrings, so a policy that stops charging its budget or padding
its batch disagrees with them. `run` advances stretches of decode-only steps,
up to and including the step that completes a sequence, in one span on one
shared clock, and must still produce exactly the same RunResult - every
float bit-identical, no tolerance.
"""

import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_servesim import ANY_POLICY, ORACLE, TINY, req, traces_under_capacity

from infercost import servesim
from infercost.arch import MODEL_PRESETS, Phase
from infercost.costmodel import kv_cache_bytes
from infercost.estimator import RegressionCoefficients, fit, load_timing_samples, predict_at
from infercost.hardware import HARDWARE_PRESETS
from infercost import Paged
from infercost.kvsim import allocated_tokens
from infercost.servesim import (
    CoefficientPair,
    Continuous,
    KvCapacity,
    RequestRecord,
    RunResult,
    SplitFuse,
    Static,
    StepRecord,
    compute_metrics,
    describe_policy,
    run,
)
from infercost.workload import generate

LLAMA7B = MODEL_PRESETS["llama2-7b"]
VLLM_TIMING = Path(__file__).resolve().parents[1] / "paper-data" / "timing_samples_vllm.csv"


def _fitted_vllm() -> CoefficientPair:
    samples = load_timing_samples(VLLM_TIMING)
    return CoefficientPair(*(fit([s for s in samples if s.phase is phase], LLAMA7B,
                                 phase).coefficients
                             for phase in (Phase.PREFILL, Phase.DECODE)))


# Both models go negative for small steps, so the zero clamp switches on and
# off inside a decode span: 4*b*s_past - 30 ms per decode step.
NEGATIVE_INTERCEPT = CoefficientPair(
    RegressionCoefficients(Phase.PREFILL, (0, 0, 0, 1.0, 0, -50.0)),
    RegressionCoefficients(Phase.DECODE, (1.0, 0, 0, -30.0)))

COEFFICIENT_SETS = {
    "oracle": (TINY, ORACLE),
    "negative-intercept": (TINY, NEGATIVE_INTERCEPT),
    "vllm-llama2-7b": (LLAMA7B, _fitted_vllm()),
}


def _price(kind, items, cfg, coeffs) -> float:
    """Seconds one step takes, from the table in the phase model's docstring;
    a negative prediction is a zero-length step."""
    new_tokens = [new for _, new, _ in items]
    if kind == "prefill":
        ms = predict_at(coeffs.prefill, cfg, len(items), max(new_tokens))
    elif kind == "decode":
        ms = predict_at(coeffs.decode, cfg, len(items), max(s for _, _, s in items))
    else:
        ms = predict_at(coeffs.prefill, cfg, 1, sum(new_tokens))
    return max(0.0, ms) / 1000.0


class _RefSeq:
    """A running request in the reference engine, advanced token by token."""

    def __init__(self, r, reserved):
        self.req = r
        self.reserved = reserved
        self.s_past = 0
        self.remaining_prompt = r.input_len
        self.remaining_output = r.output_len
        self.first_token_s = 0.0


def _reserved(r, per_token, capacity) -> int:
    """The most KV cache the request will hold: input + output - 1 tokens."""
    tokens = r.input_len + r.output_len - 1
    return per_token * (tokens if capacity is None else allocated_tokens(capacity.layout, tokens))


def admission_limit(policy, running) -> int:
    """How many sequences may be running once the FIFO admissions are done."""
    if isinstance(policy, Static):
        # Static fills an empty batch and admits nothing once it has prefilled.
        started = running and not running[0].remaining_prompt
        return 0 if started else policy.batch_size
    if isinstance(policy, Continuous):
        return policy.max_seqs
    return policy.token_budget  # SplitFuse: one decode token per sequence fits


def step_items(policy, running, waiting, more_arrivals):
    """The next step's kind and its (sequence, new_tokens, s_past) items; no
    items means wait for the next arrival."""
    if isinstance(policy, Static):
        # One prefill of the whole batch once it is full or nothing more can
        # join it, then decode steps over every sequence, finished ones too.
        if running and not running[0].remaining_prompt:
            return "decode", [(s, 1, s.s_past) for s in running]
        if len(running) < policy.batch_size and not waiting and more_arrivals:
            return "prefill", []
        return "prefill", [(s, s.remaining_prompt, s.s_past) for s in running]
    if isinstance(policy, Continuous):
        # An exclusive prefill of the oldest unprefilled sequence, else one
        # decode step over all of them.
        prompts = [s for s in running if s.remaining_prompt]
        if prompts:
            return "prefill", [(prompts[0], prompts[0].remaining_prompt, prompts[0].s_past)]
        return "decode", [(s, 1, s.s_past) for s in running]
    # SplitFuse: one token per decoding sequence, then prompt chunks in FIFO
    # order, all within token_budget tokens.
    items = [(s, 1, s.s_past) for s in running if not s.remaining_prompt]
    budget = policy.token_budget - len(items)
    for s in running:
        chunk = min(s.remaining_prompt, budget)
        if chunk:
            items.append((s, chunk, s.s_past))
            budget -= chunk
    return "mixed", items


def reference_run(policy, trace, cfg, coeffs, capacity=None) -> RunResult:
    """The engine loop one step at a time, with no decode spans."""
    per_token = kv_cache_bytes(cfg, 1, 1)
    pending = [_RefSeq(r, _reserved(r, per_token, capacity))
               for r in sorted(trace, key=lambda r: (r.arrival_time_s, r.id))]
    total = math.inf if capacity is None else capacity.total_bytes
    waiting: deque = deque()
    running: list = []
    records: list = []
    steps: list = []
    t = 0.0
    next_arrival = reserved = peak = generated_tokens = 0
    while next_arrival < len(pending) or waiting or running:
        while next_arrival < len(pending) and pending[next_arrival].req.arrival_time_s <= t:
            waiting.append(pending[next_arrival])
            next_arrival += 1
        limit = admission_limit(policy, running)
        while waiting and len(running) < limit and reserved + waiting[0].reserved <= total:
            seq = waiting.popleft()
            reserved += seq.reserved
            peak = max(peak, reserved)
            running.append(seq)

        kind, items = step_items(policy, running, waiting, next_arrival < len(pending))
        if not items:
            t = max(t, pending[next_arrival].req.arrival_time_s)
            continue
        start = t
        t += _price(kind, items, cfg, coeffs)

        tokens = generated = 0
        finished = []
        for seq, new_tokens, _ in items:
            seq.s_past += new_tokens
            tokens += new_tokens
            if seq.remaining_prompt:
                seq.remaining_prompt -= new_tokens
                if seq.remaining_prompt:
                    continue
                seq.first_token_s = t
            elif not seq.remaining_output:
                continue  # padding in a static batch
            seq.remaining_output -= 1
            generated += 1
            if not seq.remaining_output:
                finished.append(seq)
        generated_tokens += generated
        steps.append(StepRecord(start, t, kind, len(items), tokens, generated, reserved))
        if not finished:
            continue
        for seq in finished:
            r = seq.req
            records.append(RequestRecord(
                id=r.id, arrival_s=r.arrival_time_s, first_token_s=seq.first_token_s,
                completion_s=t, input_len=r.input_len, output_len=r.output_len))
            reserved -= seq.reserved
        live = [s for s in running if s.remaining_output]
        if not isinstance(policy, Static) or not live:
            running = live  # only a static batch keeps its finished sequences

    return RunResult(compute_metrics(records), tuple(records), tuple(steps),
                     generated_tokens, peak,
                     None if capacity is None else capacity.total_bytes)


def _scaled(capacity: KvCapacity, cfg) -> KvCapacity:
    """The capacity `traces_under_capacity` sized for TINY's 16 B/token, in
    cfg's bytes per token; admission decisions are unchanged."""
    return KvCapacity(capacity.layout, capacity.total_bytes // 16 * kv_cache_bytes(cfg, 1, 1))


@settings(max_examples=300, deadline=None)
@given(case=traces_under_capacity(), policy=ANY_POLICY,
       coeff_set=st.sampled_from(sorted(COEFFICIENT_SETS)), capped=st.booleans())
def test_run_equals_step_by_step_reference(case, policy, coeff_set, capped):
    trace, capacity = case
    cfg, coeffs = COEFFICIENT_SETS[coeff_set]
    capacity = _scaled(capacity, cfg) if capped else None
    assert run(policy, trace, cfg, coeffs, capacity) == \
        reference_run(policy, trace, cfg, coeffs, capacity)


@pytest.mark.parametrize("coeff_set", sorted(COEFFICIENT_SETS))
@pytest.mark.parametrize("policy", [Static(4), Continuous(max_seqs=4), SplitFuse(8)],
                         ids=describe_policy)
def test_long_decode_spans_cut_by_arrivals_equal_reference(policy, coeff_set):
    # Hundreds of decode steps per event, arrivals landing mid-span, and a
    # capacity of three sequences so admission is refused at most steps.
    cfg, coeffs = COEFFICIENT_SETS[coeff_set]
    gaps = np.random.default_rng(7).exponential(0.5, size=12)
    trace = [req(r.id, r.input_len, r.output_len, at=float(at))
             for r, at in zip(generate("short-to-long", 12, seed=3), np.cumsum(gaps))]
    per_token = kv_cache_bytes(cfg, 1, 1)
    capacity = KvCapacity(Paged(16), 3 * per_token * 1056)
    for cap in (None, capacity):
        assert run(policy, trace, cfg, coeffs, cap) == \
            reference_run(policy, trace, cfg, coeffs, cap)


def test_decode_16k_shape_equals_reference():
    # The benchmark's shape at a smaller scale: all arrivals at t=0, long
    # fixed outputs, KV capacity from a device that holds a few sequences.
    cfg, coeffs = COEFFICIENT_SETS["vllm-llama2-7b"]
    trace = generate("short-16k", 6, seed=1)
    trace = [req(r.id, r.input_len, 1 + r.id * 397, r.arrival_time_s) for r in trace]
    capacity = KvCapacity.from_hardware(Paged(16), HARDWARE_PRESETS["a800"],
                                        78_000_000_000)
    for policy in (Static(4), Continuous(max_seqs=4), SplitFuse(4)):
        assert run(policy, trace, cfg, coeffs, capacity) == \
            reference_run(policy, trace, cfg, coeffs, capacity)


def test_a_span_runs_through_the_step_that_completes_a_sequence(monkeypatch):
    # One prefill, then all 8,999 decode steps in one span that ends with the
    # completion: two model evaluations, not a third for the last step.
    calls = []

    def counted_step_time(coeffs, cfg):
        model = step_time(coeffs, cfg)

        def counted(b, s):
            calls.append((coeffs.phase, b))
            return model(b, s)
        return counted

    step_time = servesim._step_time
    monkeypatch.setattr(servesim, "_step_time", counted_step_time)
    trace = [req(0, 1, 9000)]
    result = run(Continuous(max_seqs=1), trace, TINY, ORACLE)
    assert len(calls) == 2
    assert result == reference_run(Continuous(max_seqs=1), trace, TINY, ORACLE)


def test_arrival_on_a_step_boundary_is_admitted_at_that_boundary():
    # ORACLE prices the prefill at 100 ms and a decode step at 4 * s_past ms,
    # so this arrival lands exactly on the end of the second decode step.
    boundary = 0.1 + 0.004 + 0.008
    trace = [req(0, 1, 6), req(1, 1, 1, at=boundary)]
    result = run(Continuous(max_seqs=2), trace, TINY, ORACLE)
    assert result == reference_run(Continuous(max_seqs=2), trace, TINY, ORACLE)
    assert [(s.kind, s.start_s) for s in result.steps[2:4]] == [
        ("decode", 0.1 + 0.004), ("prefill", boundary)]
