"""Serving simulator: policy semantics, KV capacity, metrics, rate sweeps.

Oracle coefficients make step times hand-computable: the prefill model is a
pure 100 ms intercept and the decode model is phi * b * s_past * h * l with
phi = 1 on a config where h * l = 4, i.e. 4 * b * s_past milliseconds.
"""

import csv
import gc
import io
import math
import re
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import STEP_COLUMNS, check_invariants, rows

from infercost import servesim
from infercost.arch import MODEL_PRESETS, ModelConfig, Phase
from infercost.estimator import RegressionCoefficients, TimingSample
from infercost.hardware import HARDWARE_PRESETS
from infercost import Paged, TokenGranular, Vanilla
from infercost.kvsim import allocated_tokens
from infercost.servesim import (
    EMPTY_METRICS,
    METRICS_CSV_HEADER,
    CapacityError,
    CoefficientPair,
    Continuous,
    KvCapacity,
    MissingCoefficientError,
    Request,
    RequestRecord,
    RunResult,
    ServingMetrics,
    SplitFuse,
    Static,
    StepModel,
    StepRecord,
    StepTable,
    compute_metrics,
    describe_policy,
    metrics_csv_text,
    run,
    sweep_rates,
    trim_warmup,
)
from infercost.workload import generate

TINY = ModelConfig(4, 8, 2, 2, 1)  # h*l = 4; KV cache is 16 B/token
LLAMA7B = MODEL_PRESETS["llama2-7b"]
CONST_PREFILL = RegressionCoefficients(Phase.PREFILL, (0, 0, 0, 0, 0, 100.0))
PHI_DECODE = RegressionCoefficients(Phase.DECODE, (1.0, 0, 0, 0))
ORACLE = CoefficientPair(CONST_PREFILL, PHI_DECODE)
PHASE_MODEL = servesim._PhaseStepModel  # the StepModel run builds from a CoefficientPair


def req(rid, inp, out, at=0.0):
    return Request(id=rid, input_len=inp, output_len=out, arrival_time_s=at)


def kinds(steps) -> list[str]:
    return [steps.KINDS[code] for code in steps.kind.tolist()]


def durations(steps) -> list[float]:
    return (steps.end_s - steps.start_s).tolist()


class TestRequestValidation:
    def test_lengths_must_be_positive(self):
        with pytest.raises(ValueError, match="input_len and output_len"):
            req(0, 0, 1)
        with pytest.raises(ValueError, match="input_len and output_len"):
            req(0, 1, 0)

    def test_arrival_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="arrival_time_s"):
            req(0, 1, 1, at=-0.5)

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), -float("inf"), True, False,
                                    Fraction(1, 3), Decimal("0.5"), "0.5", None])
    def test_arrival_must_be_finite(self, at):
        # A NaN arrival is never <= the clock, so run() would wait for it
        # forever. A bool is not a time, and run() would copy a Fraction or a
        # Decimal into RequestRecord.arrival_s.
        with pytest.raises(ValueError, match="arrival_time_s must be a finite number"):
            req(0, 1, 1, at=at)

    @pytest.mark.parametrize("at", [0, 2, 2.5, np.float64(2.5), -0.0], ids=repr)
    def test_arrival_may_be_an_int_or_a_float(self, at):
        assert req(0, 1, 1, at=at).arrival_time_s == at


class TestPolicyValidation:
    def test_static(self):
        with pytest.raises(ValueError, match="batch_size"):
            Static(0)
        assert describe_policy(Static(4)) == "static(batch_size=4)"

    def test_continuous_needs_a_limit(self):
        with pytest.raises(ValueError, match="Continuous needs max_seqs"):
            Continuous(max_seqs=None)
        with pytest.raises(ValueError, match="max_seqs must be >= 1"):
            Continuous(max_seqs=0)

    def test_continuous_seq_limit_is_min_of_set_limits(self):
        assert describe_policy(Continuous(max_seqs=32)) == "continuous(max_seqs=32)"

    def test_splitfuse(self):
        with pytest.raises(ValueError, match="token_budget"):
            SplitFuse(0)
        assert describe_policy(SplitFuse(512)) == "splitfuse(token_budget=512)"

    def test_unknown_policy_rejected(self):
        with pytest.raises(TypeError, match="unknown policy"):
            describe_policy("fifo")
        with pytest.raises(TypeError, match="unknown policy"):
            run("fifo", [req(0, 1, 1)], TINY, ORACLE)


# Every count a constructor takes follows one rule: an int >= 1, not a bool.
COUNT_CONSTRUCTORS = {
    "Request.input_len": lambda v: Request(0, v, 3),
    "Request.output_len": lambda v: Request(0, 3, v),
    "Static": Static,
    "Continuous": Continuous,
    "SplitFuse": SplitFuse,
    "Vanilla": Vanilla,
    "Paged": Paged,
    "TimingSample.b": lambda v: TimingSample(Phase.DECODE, v, 2, 3.0),
    "TimingSample.s": lambda v: TimingSample(Phase.DECODE, 2, v, 3.0),
}


@pytest.mark.parametrize("value, message", [
    (2.5, "must be an integer, got 2.5"),
    (True, "must be an integer, got True"),
    (0, "must be >= 1, got 0"),
])
@pytest.mark.parametrize("name", list(COUNT_CONSTRUCTORS))
def test_counts_are_integers_of_at_least_one(name, value, message):
    with pytest.raises(ValueError, match=message):
        COUNT_CONSTRUCTORS[name](value)


class TestExactRange:
    # The step-time model multiplies context lengths by b*h*l and b*n*l in
    # float64, which is exact only for integers up to 2**53; the phase model
    # that run builds checks the largest values the trace can reach before
    # the first step.
    def test_context_length_past_2_to_53_fails_up_front(self, monkeypatch):
        monkeypatch.setattr(PHASE_MODEL, "bounds", None)  # no step may be priced
        trace = [req(0, 2**52, 2**52 + 1), req(1, 1, 1)]
        with pytest.raises(OverflowError, match=r"s can reach 9007199254740993, above 2\*\*"):
            run(Continuous(max_seqs=2), trace, TINY, ORACLE)

    def test_batch_width_past_2_to_53_fails_up_front(self, monkeypatch):
        monkeypatch.setattr(PHASE_MODEL, "bounds", None)
        deep = ModelConfig(4, 8, 2, 2, 2**50)  # b*h*l = b * 2**52
        trace = [req(i, 1, 1) for i in range(3)]
        with pytest.raises(OverflowError, match=r"max\(h, n\)\*l can reach 13510798882111488"):
            run(Continuous(max_seqs=1), trace, deep, ORACLE)


class TestCoefficientPair:
    def test_phases_enforced(self):
        with pytest.raises(MissingCoefficientError, match="prefill slot"):
            CoefficientPair(PHI_DECODE, PHI_DECODE)
        with pytest.raises(MissingCoefficientError, match="decode slot"):
            CoefficientPair(CONST_PREFILL, CONST_PREFILL)
        with pytest.raises(MissingCoefficientError, match="required"):
            CoefficientPair(None, PHI_DECODE)

    @pytest.mark.parametrize("junk", [CONST_PREFILL, None, StepModel],
                             ids=["coefficients", "none", "step-model-class"])
    def test_run_rejects_junk_coeffs(self, junk):
        with pytest.raises(MissingCoefficientError,
                           match="must be a CoefficientPair or a StepModel"):
            run(Continuous(max_seqs=2), [req(0, 1, 1)], TINY, junk)


class TestContinuousOracle:
    def test_single_request_step_by_step(self):
        # prefill 100 ms; decode at s_past=4 is 16 ms; at s_past=5 is 20 ms.
        result = run(Continuous(max_seqs=2), [req(0, 4, 3)], TINY, ORACLE)
        [record] = result.records
        assert record.first_token_s == pytest.approx(0.1)
        assert record.completion_s == pytest.approx(0.136)
        assert kinds(result.steps) == ["prefill", "decode", "decode"]
        assert durations(result.steps) == pytest.approx([0.1, 0.016, 0.020])
        assert result.generated_tokens == 3

    def test_exclusive_prefills_then_joint_decode(self):
        # A and B prefill one at a time (100 ms each); the joint decode step
        # prices at b=2 and the larger history (s_past=3): 24 ms.
        trace = [req(0, 2, 2), req(1, 3, 2)]
        result = run(Continuous(max_seqs=4), trace, TINY, ORACLE)
        assert kinds(result.steps) == ["prefill", "prefill", "decode"]
        assert result.steps.batch.tolist() == [1, 1, 2]
        assert durations(result.steps)[2] == pytest.approx(0.024)
        by_id = {r.id: r for r in result.records}
        assert by_id[0].first_token_s == pytest.approx(0.1)
        assert by_id[1].first_token_s == pytest.approx(0.2)
        assert by_id[0].completion_s == by_id[1].completion_s == pytest.approx(0.224)

    def test_decode_priced_at_max_history(self):
        trace = [req(0, 2, 2), req(1, 5, 2)]
        result = run(Continuous(max_seqs=4), trace, TINY, ORACLE)
        # The last step, a decode at b=2, s_past = max(2, 5) = 5: 4 * 2 * 5 = 40 ms.
        assert kinds(result.steps)[-1] == "decode"
        assert durations(result.steps)[-1] == pytest.approx(0.040)

    def test_seq_limit_defers_admission(self):
        trace = [req(0, 2, 3), req(1, 2, 3), req(2, 2, 3)]
        result = run(Continuous(max_seqs=2), trace, TINY, ORACLE)
        assert result.metrics.completed == 3
        assert result.steps.batch.max() == 2

    def test_finished_sequences_vacate_immediately(self):
        # A finishes after its first decode; the next decode prices at b=1.
        trace = [req(0, 2, 2), req(1, 2, 3)]
        result = run(Continuous(max_seqs=4), trace, TINY, ORACLE)
        steps = result.steps
        assert steps.batch[steps.kind == StepTable.KINDS.index("decode")].tolist() == [2, 1]


class TestStaticOracle:
    def test_padded_batch_pricing(self):
        # A(in=2,out=1) and B(in=4,out=3) pad to (4, 3): one prefill at b=2
        # plus two decode steps priced at b=2 even after A finishes.
        trace = [req(0, 2, 1), req(1, 4, 3)]
        result = run(Static(2), trace, TINY, ORACLE)
        by_id = {r.id: r for r in result.records}
        assert by_id[0].completion_s == pytest.approx(0.1)
        # decode k=1 at s_past=4 (32 ms), k=2 at s_past=5 (40 ms)
        assert by_id[1].completion_s == pytest.approx(0.172)
        assert result.steps.batch.tolist() == [2, 2, 2]
        assert kinds(result.steps) == ["prefill", "decode", "decode"]
        assert result.steps.generated.tolist() == [2, 1, 1]
        assert result.generated_tokens == 4

    def test_padding_keeps_the_longest_prompt_history(self):
        # A(in=4,out=1) finishes at the prefill but stays in the batch as
        # padding, so decode k still prices at s_past = 4 + k - 1: 32, 40 ms.
        trace = [req(0, 4, 1), req(1, 2, 3)]
        result = run(Static(2), trace, TINY, ORACLE)
        assert durations(result.steps) == pytest.approx([0.1, 0.032, 0.040])
        assert result.steps.generated.tolist() == [2, 1, 1]

    def test_batch_waits_for_stragglers(self):
        # B arrives at t=10; a batch of 2 cannot form earlier, so A queues.
        trace = [req(0, 4, 1), req(1, 4, 1, at=10.0)]
        result = run(Static(2), trace, TINY, ORACLE)
        assert result.steps.start_s[0] == pytest.approx(10.0)
        by_id = {r.id: r for r in result.records}
        assert by_id[0].latency_s == pytest.approx(10.1)
        assert by_id[1].latency_s == pytest.approx(0.1)

    def test_trailing_partial_batch_runs(self):
        trace = [req(i, 2, 1) for i in range(5)]
        result = run(Static(2), trace, TINY, ORACLE)
        assert result.metrics.completed == 5
        assert result.steps.batch.tolist() == [2, 2, 1]

    def test_single_step_outputs_complete_at_prefill(self):
        result = run(Static(1), [req(0, 7, 1)], TINY, ORACLE)
        [record] = result.records
        assert record.first_token_s == record.completion_s == pytest.approx(0.1)
        assert kinds(result.steps) == ["prefill"]


class TestSplitFuseOracle:
    def test_prompt_chunking_across_steps(self):
        # budget 4, prompt 6: steps carry [4, 2, 1] tokens; the prompt's last
        # chunk yields the first token, decode happens the following step.
        result = run(SplitFuse(4), [req(0, 6, 2)], TINY, ORACLE)
        assert result.steps.tokens.tolist() == [4, 2, 1]
        assert kinds(result.steps) == ["mixed"] * 3
        [record] = result.records
        assert record.first_token_s == pytest.approx(0.2)
        assert record.completion_s == pytest.approx(0.3)

    def test_decode_tokens_preempt_prompt_chunks(self):
        # A(in=3,out=2), B(in=5,out=1): step1 = A's 3 prompt + 1 of B's
        # prompt; step2 = A's decode token + 3 of B's prompt; step3 = B's
        # final prompt token.
        trace = [req(0, 3, 2), req(1, 5, 1)]
        result = run(SplitFuse(4), trace, TINY, ORACLE)
        assert result.steps.tokens.tolist() == [4, 4, 1]
        by_id = {r.id: r for r in result.records}
        assert by_id[0].completion_s == pytest.approx(0.2)
        assert by_id[1].completion_s == pytest.approx(0.3)
        assert by_id[1].first_token_s == pytest.approx(0.3)

    def test_every_step_priced_by_tokens_carried(self):
        # All steps use the prefill model at b=1, s=tokens; with the constant
        # oracle every step is exactly 100 ms.
        result = run(SplitFuse(4), [req(0, 6, 2)], TINY, ORACLE)
        assert durations(result.steps) == pytest.approx([0.1] * len(result.steps))

    def test_budget_never_exceeded(self):
        trace = [req(i, 7, 3) for i in range(5)]
        result = run(SplitFuse(4), trace, TINY, ORACLE)
        assert result.steps.tokens.max() <= 4
        assert result.metrics.completed == 5


def _record(r, first_token_s, completion_s):
    return RequestRecord(r.id, r.arrival_time_s, first_token_s, completion_s,
                         r.input_len, r.output_len)


class TestDecodeClockOracle:
    """Edge cases of the shared decode clock, traced by hand: the prefill is
    100 ms and a decode step 4 * b * s_past ms; TINY's cache is 16 B/token.
    Times are summed left to right, as the engine does."""

    def test_static_batch_ending_at_its_prefill_then_a_second_batch(self):
        # A and B finish at their prefill, so no padding is left to decode;
        # C forms the next batch: prefill, then one decode at s_past = 4.
        a, b, c = trace = [req(0, 3, 1), req(1, 2, 1), req(2, 4, 2)]
        result = run(Static(2), trace, TINY, ORACLE)
        t1 = 0.1
        t2 = t1 + 0.1
        t3 = t2 + 0.016
        assert rows(result.steps) == [
            (0.0, t1, "prefill", 2, 5, 2, 48 + 32),
            (t1, t2, "prefill", 1, 4, 1, 80),
            (t2, t3, "decode", 1, 1, 1, 80)]
        assert result.records == (_record(a, t1, t1), _record(b, t1, t1), _record(c, t2, t3))
        assert result.generated_tokens == 4

    def test_padding_with_the_longest_history_keeps_pricing_the_batch(self):
        # A (s_past 6) finishes after one decode; as padding its s_past still
        # sets the price of B's last two steps: s = 7 and 8, not 3 and 4.
        a, b = trace = [req(0, 6, 2), req(1, 2, 4)]
        result = run(Static(2), trace, TINY, ORACLE)
        t1 = 0.1
        t2 = t1 + 0.048
        t3 = t2 + 0.056
        t4 = t3 + 0.064
        assert rows(result.steps) == [
            (0.0, t1, "prefill", 2, 8, 2, 112 + 80),
            (t1, t2, "decode", 2, 2, 2, 112 + 80),
            (t2, t3, "decode", 2, 2, 1, 80),
            (t3, t4, "decode", 2, 2, 1, 80)]
        assert result.records == (_record(a, t1, t2), _record(b, t1, t4))

    def test_a_decoder_and_a_one_token_prompt_finish_on_one_mixed_step(self):
        # Step 1: A's whole prompt and 2 of B's. Step 2: A's last token and
        # B's last 3 prompt tokens, whose prefill is B's only token. The
        # decoder's record comes first.
        a, b = trace = [req(0, 2, 2), req(1, 5, 1)]
        result = run(SplitFuse(4), trace, TINY, ORACLE)
        t1 = 0.1
        t2 = t1 + 0.1
        assert rows(result.steps) == [
            (0.0, t1, "mixed", 2, 4, 1, 48 + 80),
            (t1, t2, "mixed", 2, 4, 2, 48 + 80)]
        assert result.records == (_record(a, t1, t2), _record(b, t2, t2))
        assert result.generated_tokens == 3

    def test_two_sequences_completing_on_one_step_record_in_admission_order(self):
        # B has the longer history, so the two joint decodes price at s_past
        # 5 and 6; both finish on the second, A's record first.
        a, b = trace = [req(0, 3, 3), req(1, 5, 3)]
        result = run(Continuous(max_seqs=2), trace, TINY, ORACLE)
        t1 = 0.1
        t2 = t1 + 0.1
        t3 = t2 + 0.04
        t4 = t3 + 0.048
        assert rows(result.steps) == [
            (0.0, t1, "prefill", 1, 3, 1, 80 + 112),
            (t1, t2, "prefill", 1, 5, 1, 80 + 112),
            (t2, t3, "decode", 2, 2, 2, 80 + 112),
            (t3, t4, "decode", 2, 2, 2, 80 + 112)]
        assert result.records == (_record(a, t1, t4), _record(b, t2, t4))

    def test_a_policy_that_never_runs_a_step_raises(self):
        # Waiting is only for an arrival; once none is left, a policy that
        # still schedules nothing has broken the contract.
        class NeverAdmits(Continuous):
            def admission_limit(self, decoding):
                return 0

        with pytest.raises(RuntimeError, match="stalled"):
            run(NeverAdmits(max_seqs=2), [req(0, 2, 2), req(1, 2, 2, at=1.0)], TINY, ORACLE)


class TestCapacity:
    # TINY's cache is 16 B/token; a request holds input+output-1 tokens.

    def test_infeasible_request_raises(self):
        cap = KvCapacity(TokenGranular(), 47)
        with pytest.raises(CapacityError, match="needs 48 B"):
            run(Continuous(max_seqs=2), [req(0, 2, 2)], TINY, ORACLE, capacity=cap)

    def test_exact_fit_runs(self):
        cap = KvCapacity(TokenGranular(), 48)
        result = run(Continuous(max_seqs=2), [req(0, 2, 2)], TINY, ORACLE, capacity=cap)
        assert result.metrics.completed == 1
        assert result.peak_reserved_bytes == 48
        assert result.capacity_bytes == 48

    def test_admission_respects_reservations(self):
        # Two 48 B requests under 64 B: they must run one at a time.
        cap = KvCapacity(TokenGranular(), 64)
        trace = [req(0, 2, 2), req(1, 2, 2)]
        result = run(Continuous(max_seqs=4), trace, TINY, ORACLE, capacity=cap)
        assert result.metrics.completed == 2
        assert result.peak_reserved_bytes <= 64
        assert result.steps.reserved_bytes.max() <= 64
        assert result.steps.batch.max() == 1

    def test_paged_capacity_rounds_reservations_up(self):
        # 3 live tokens round to one 16-token block: 256 B.
        cap = KvCapacity(Paged(16), 255)
        with pytest.raises(CapacityError, match="needs 256 B"):
            run(Continuous(max_seqs=2), [req(0, 2, 2)], TINY, ORACLE, capacity=cap)

    def test_vanilla_reservation_overflow_becomes_capacity_error(self):
        cap = KvCapacity(Vanilla(reserved_len=2), 10 ** 9)
        with pytest.raises(CapacityError, match="request 0"):
            run(Continuous(max_seqs=2), [req(0, 2, 2)], TINY, ORACLE, capacity=cap)

    def test_static_stops_filling_at_capacity(self):
        cap = KvCapacity(TokenGranular(), 48)
        trace = [req(0, 2, 2), req(1, 2, 2)]
        result = run(Static(2), trace, TINY, ORACLE, capacity=cap)
        assert result.metrics.completed == 2
        steps = result.steps
        assert steps.batch[steps.kind == StepTable.KINDS.index("prefill")].tolist() == [1, 1]
        assert steps.reserved_bytes.max() <= 48

    def test_from_hardware(self):
        a800 = HARDWARE_PRESETS["a800"]
        cap = KvCapacity.from_hardware(Paged(16), a800, 13_500_000_000)
        assert cap.total_bytes == 80 * 10 ** 9 - 13_500_000_000
        with pytest.raises(CapacityError, match="do not fit"):
            KvCapacity.from_hardware(Paged(16), a800, 80 * 10 ** 9)

    def test_from_hardware_rejects_negative_weights(self):
        with pytest.raises(CapacityError, match="model_weight_bytes must be >= 0"):
            KvCapacity.from_hardware(Paged(16), HARDWARE_PRESETS["a800"], -10 ** 9)

    def test_reservation_released_on_completion(self):
        # Capacity holds exactly one 48 B request, so the second can only be
        # admitted if the first's reservation was released; every step then
        # shows a single live reservation.
        result = run(Continuous(max_seqs=4), [req(0, 2, 2), req(1, 2, 2)],
                     TINY, ORACLE, capacity=KvCapacity(TokenGranular(), 48))
        assert result.metrics.completed == 2
        assert np.all(result.steps.reserved_bytes == 48)
        assert result.peak_reserved_bytes == 48


class TestMetrics:
    def test_compute_metrics_oracle(self):
        records = [
            RequestRecord(id=0, arrival_s=0.0, first_token_s=1.0,
                          completion_s=2.0, input_len=5, output_len=10),
            RequestRecord(id=1, arrival_s=1.0, first_token_s=2.0,
                          completion_s=4.0, input_len=5, output_len=20),
        ]
        m = compute_metrics(records)
        assert m.token_throughput == pytest.approx(7.5)   # 30 tokens / 4 s
        assert m.seq_throughput == pytest.approx(0.5)
        assert m.mean_token_latency_s == pytest.approx(0.175)
        assert m.p50_latency_s == pytest.approx(2.5)
        assert m.p95_latency_s == pytest.approx(2.95)
        assert m.completed == 2

    def test_empty_records(self):
        assert compute_metrics([]) == EMPTY_METRICS

    def test_zero_span_has_zero_throughput(self):
        records = [RequestRecord(0, 0.0, 0.0, 0.0, 1, 1)]
        m = compute_metrics(records)
        assert m.token_throughput == 0.0
        assert m.seq_throughput == 0.0
        assert m.completed == 1

    def test_record_latency_properties(self):
        r = RequestRecord(0, 1.0, 2.0, 4.0, 8, 10)
        assert r.latency_s == pytest.approx(3.0)
        assert r.token_latency_s == pytest.approx(0.3)


class TestNegativeClamp:
    def test_negative_prediction_is_a_zero_duration_step(self):
        coeffs = CoefficientPair(
            RegressionCoefficients(Phase.PREFILL, (0, 0, 0, 0, 0, -1.64)),
            PHI_DECODE)
        result = run(Continuous(max_seqs=1), [req(0, 1, 1)], TINY, coeffs)
        assert len(result.steps) == 1
        assert result.steps.end_s[0] == result.steps.start_s[0] == 0.0
        assert result.records[0].completion_s == 0.0


class TestTrimWarmup:
    def test_drops_both_tails(self):
        records = [RequestRecord(i, 0.0, 0.0, float(i), 1, 1) for i in range(10)]
        assert [r.id for r in trim_warmup(records, n=3)] == [3, 4, 5, 6]

    def test_sorts_by_completion_before_trimming(self):
        records = [RequestRecord(i, 0.0, 0.0, float(10 - i), 1, 1) for i in range(10)]
        # completions run 10..1 for ids 0..9; the two in the middle remain
        assert [r.id for r in trim_warmup(records, n=4)] == [5, 4]

    def test_too_few_records_empties(self):
        records = [RequestRecord(i, 0.0, 0.0, float(i), 1, 1) for i in range(4)]
        assert trim_warmup(records, n=2) == []
        assert trim_warmup(records[:3], n=2) == []
        assert trim_warmup([], n=0) == []

    def test_default_n_is_100(self):
        records = [RequestRecord(i, 0.0, 0.0, float(i), 1, 1) for i in range(201)]
        assert [r.id for r in trim_warmup(records)] == [100]

    @pytest.mark.parametrize("n,message", [(-1, "n must be >= 0"),
                                           (True, "n must be an integer"),
                                           (2.5, "n must be an integer")], ids=repr)
    def test_n_must_be_a_count(self, n, message):
        # Unchecked, -1 kept only the last record and True trimmed one per end.
        records = [RequestRecord(i, 0.0, 0.0, float(i), 1, 1) for i in range(4)]
        with pytest.raises(ValueError, match=message):
            trim_warmup(records, n)


class TestSweepRates:
    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_rates(Continuous(max_seqs=2), [req(0, 1, 1)], [1.0, 0.0],
                        TINY, ORACLE)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_rates_must_be_finite(self, bad):
        with pytest.raises(ValueError,
                           match=re.escape(f"rates must be a finite number, got {bad!r}")):
            sweep_rates(Continuous(max_seqs=2), [req(0, 1, 1)], [1.0, bad],
                        TINY, ORACLE)

    def test_repeated_rate_is_rejected(self):
        # 2 and 2.0 are the same dict key: one of the two runs would be lost.
        with pytest.raises(ValueError, match=r"rate 2\.0 is repeated"):
            sweep_rates(Continuous(max_seqs=2), [req(0, 1, 1)], [2, 1.0, 2.0],
                        TINY, ORACLE)

    @pytest.mark.parametrize("bad", [True, "2", None, Fraction(1, 2)])
    def test_rates_must_be_real_numbers(self, bad):
        # float() would sweep True at 1.0 and "2" at 2.0.
        with pytest.raises(ValueError,
                           match=re.escape(f"rates must be a finite number, got {bad!r}")):
            sweep_rates(Continuous(max_seqs=2), [req(0, 1, 1)], [1.0, bad],
                        TINY, ORACLE)

    def test_unknown_arrival_process(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            sweep_rates(Continuous(max_seqs=2), [req(0, 1, 1)], [1.0],
                        TINY, ORACLE, arrival_process="bursty")

    def test_uniform_arrivals_match_manual_run(self):
        # Uniform gaps are deterministic: request i arrives at (i+1)/rate.
        base = [req(i, 2, 2) for i in range(210)]
        rate = 8.0
        swept = sweep_rates(Continuous(max_seqs=4), base, [rate], TINY, ORACLE,
                            arrival_process="uniform")
        manual_trace = [req(i, 2, 2, at=(i + 1) / rate) for i in range(210)]
        manual = run(Continuous(max_seqs=4), manual_trace, TINY, ORACLE)
        assert swept[rate] == compute_metrics(trim_warmup(manual.records))

    def test_same_seed_is_reproducible(self):
        base = [req(i, 2, 2) for i in range(210)]
        kwargs = dict(cfg=TINY, coeffs=ORACLE, seed=42)
        a = sweep_rates(Continuous(max_seqs=4), base, [1.0, 4.0], **kwargs)
        b = sweep_rates(Continuous(max_seqs=4), base, [1.0, 4.0], **kwargs)
        assert a == b

    def test_different_seeds_differ(self):
        base = [req(i, 2, 2) for i in range(210)]
        a = sweep_rates(Continuous(max_seqs=4), base, [4.0], TINY, ORACLE, seed=0)
        b = sweep_rates(Continuous(max_seqs=4), base, [4.0], TINY, ORACLE, seed=1)
        assert a != b

    def test_results_keyed_by_float_rate(self):
        base = [req(i, 1, 1) for i in range(5)]
        swept = sweep_rates(Continuous(max_seqs=2), base, [2], TINY, ORACLE)
        assert set(swept) == {2.0}
        # 5 records trim to nothing under the default warmup window.
        assert swept[2.0] == EMPTY_METRICS


class TestMetricsCsv:
    def test_header_and_full_precision_round_trip(self):
        m = ServingMetrics(0.1 + 0.2, 1 / 3, 2 / 7, 0.5, 0.95, 42)
        text = metrics_csv_text([("static(batch_size=4)", 8.0, m)])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == METRICS_CSV_HEADER
        assert rows[1][0] == "static(batch_size=4)"
        assert float(rows[1][1]) == 8.0
        assert float(rows[1][2]) == 0.1 + 0.2
        assert float(rows[1][3]) == 1 / 3
        assert int(rows[1][7]) == 42


POLICIES = [Static(3), Continuous(max_seqs=3), SplitFuse(6)]


@pytest.mark.parametrize("policy", POLICIES, ids=describe_policy)
class TestInvariantsAcrossPolicies:
    def test_conservation_and_ordering(self, policy):
        trace = [req(i, 1 + (i * 7) % 5, 1 + (i * 3) % 4, at=0.05 * i)
                 for i in range(20)]
        check_invariants(run(policy, trace, TINY, ORACLE), trace)

    def test_determinism(self, policy):
        trace = [req(i, 2 + i % 3, 1 + i % 4, at=0.1 * i) for i in range(12)]
        assert run(policy, trace, TINY, ORACLE) == run(policy, trace, TINY, ORACLE)

    def test_empty_trace(self, policy):
        result = run(policy, [], TINY, ORACLE)
        assert result == RunResult(EMPTY_METRICS, (), StepTable(*[[]] * 7), 0, 0, None)

    def test_step_record_contract(self, policy, monkeypatch):
        # Decode spans and single steps must build the same record type.
        span_steps = []

        def spy(*args):
            bounds = step_bounds(*args)
            if len(bounds) > 2:
                span_steps.append(len(bounds) - 1)
            return bounds

        step_bounds = PHASE_MODEL.bounds
        monkeypatch.setattr(PHASE_MODEL, "bounds", spy)
        trace = [req(0, 2, 6), req(1, 3, 4), req(2, 1, 5, at=0.5)]
        steps = run(policy, trace, TINY, ORACLE).steps
        assert 0 < sum(span_steps) < len(steps)
        assert StepRecord._fields == STEP_COLUMNS
        assert list(steps) == rows(steps)
        for step in steps:
            assert type(step) is StepRecord
            with pytest.raises(AttributeError):
                step.kind = "decode"
            assert repr(step) == (
                f"StepRecord(start_s={step.start_s!r}, end_s={step.end_s!r}, "
                f"kind={step.kind!r}, batch={step.batch!r}, tokens={step.tokens!r}, "
                f"generated={step.generated!r}, reserved_bytes={step.reserved_bytes!r})")
            assert hash(step) == hash(tuple(step))


class TestStepTable:
    TRACE = [req(0, 2, 6), req(1, 3, 4), req(2, 1, 5, at=0.5)]

    def steps(self):
        return run(Continuous(max_seqs=3), self.TRACE, TINY, ORACLE).steps

    def test_equals_only_a_table_with_equal_columns(self):
        steps = self.steps()
        assert isinstance(steps, StepTable) and len(steps) > 4
        assert steps == self.steps()
        columns = [getattr(steps, name) for name in STEP_COLUMNS]
        assert steps == StepTable(*columns)
        end_s = columns[1].copy()
        end_s[-1] += 1.0
        assert steps != StepTable(columns[0], end_s, *columns[2:])
        assert steps != StepTable(*(column[:-1] for column in columns))
        empty = run(Continuous(max_seqs=3), [], TINY, ORACLE).steps
        assert empty == StepTable(*[[]] * 7) and empty != steps
        # Columns, not a sequence: a table neither indexes nor equals its rows.
        assert not isinstance(steps, Sequence)
        assert steps != rows(steps) and rows(steps) != steps
        with pytest.raises(TypeError):
            steps[0]

    def test_columns_are_read_only(self):
        steps = self.steps()
        for name in STEP_COLUMNS:
            column = getattr(steps, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        assert [getattr(steps, name).dtype for name in STEP_COLUMNS] == [
            np.float64, np.float64, np.int8, np.int64, np.int64, np.int64, np.int64]

    def test_iteration_crosses_chunk_boundaries(self):
        # Iteration turns 4096 rows at a time into StepRecords of Python scalars.
        steps = run(Continuous(max_seqs=1), [req(0, 1, 9000)], TINY, ORACLE).steps
        records = list(steps)
        assert len(records) == len(steps) == 9000
        assert records == rows(steps)
        for i in (0, 4095, 4096, 4097, 8191, 8192, 8999):
            assert type(records[i]) is StepRecord
            assert type(records[i].start_s) is float and type(records[i].batch) is int

    def test_request_times_stay_python_floats(self):
        # Records completed right after a decode span take their times from
        # the span's boundary array; repr(records) must not show numpy scalars.
        result = run(Continuous(max_seqs=3), self.TRACE, TINY, ORACLE)
        for record in result.records:
            assert type(record.first_token_s) is float
            assert type(record.completion_s) is float

    def test_objects_kept_alive_do_not_grow_with_steps(self):
        def tracked_objects_kept(n):
            gc.collect()
            before = len(gc.get_objects())
            result = run(Continuous(max_seqs=1), [req(0, 1, n)], TINY, ORACLE)
            gc.collect()
            kept = len(gc.get_objects()) - before
            assert len(result.steps) == n
            return kept

        tracked_objects_kept(1_000)  # warm caches the first run fills
        assert tracked_objects_kept(50_000) <= tracked_objects_kept(1_000) + 10


@settings(max_examples=40, deadline=None)
@given(lens=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                     min_size=1, max_size=10),
       policy=st.sampled_from(POLICIES))
def test_every_request_completes_with_full_output(lens, policy):
    trace = [req(i, inp, out) for i, (inp, out) in enumerate(lens)]
    result = run(policy, trace, TINY, ORACLE)
    assert result.metrics.completed == len(trace)
    got = {r.id: r.output_len for r in result.records}
    assert got == {r.id: r.output_len for r in trace}


@st.composite
def traces_under_capacity(draw):
    """A trace with arrivals plus a KV capacity under one of the three layouts
    that every request fits on its own (tight capacities force queueing)."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8),
                                     st.floats(0.0, 2.0)), min_size=1, max_size=12))
    trace = [req(i, inp, out, at=at) for i, (inp, out, at) in enumerate(shapes)]
    longest = max(r.input_len + r.output_len - 1 for r in trace)
    layout = draw(st.one_of(st.just(TokenGranular()), st.builds(Paged, st.integers(1, 8)),
                            st.builds(Vanilla, st.integers(longest, longest + 4))))
    need = max(16 * allocated_tokens(layout, r.input_len + r.output_len - 1) for r in trace)
    return trace, KvCapacity(layout, draw(st.integers(need, 4 * need)))


ANY_POLICY = st.one_of(
    st.builds(Static, st.integers(1, 4)),
    st.builds(Continuous, st.integers(1, 4)),
    st.builds(SplitFuse, st.integers(1, 8)),
)


@settings(max_examples=200, deadline=None)
@given(case=traces_under_capacity(), policy=ANY_POLICY)
def test_invariants_with_arrivals_and_kv_capacity(case, policy):
    trace, capacity = case
    result = run(policy, trace, TINY, ORACLE, capacity=capacity)
    check_invariants(result, trace, capacity)
    assert run(policy, trace, TINY, ORACLE, capacity=capacity) == result


def _poisson_trace(scenario: str, n: int, seed: int) -> list[Request]:
    """n requests arriving at 4 req/s."""
    arrivals = np.cumsum(np.random.default_rng(seed).exponential(0.25, size=n))
    return [Request(r.id, r.input_len, r.output_len, float(at))
            for r, at in zip(generate(scenario, n, seed=seed), arrivals)]


class OneMillisecond(StepModel):
    """Every step takes 1 ms, added left to right; no module names it."""

    def bounds(self, kind, chunks, width, s_past, n, t, arrival_s):
        cut = math.inf if arrival_s is None else arrival_s
        bounds = [t]
        while len(bounds) <= n and bounds[-1] < cut:
            bounds.append(bounds[-1] + 0.001)
        return bounds


@pytest.mark.parametrize("capacity", [None, KvCapacity(Paged(16), 2**30)],
                         ids=["uncapped", "paged16-1gib"])
@pytest.mark.parametrize("policy", [Static(4), Continuous(max_seqs=8), SplitFuse(256)],
                         ids=describe_policy)
def test_a_new_step_model_is_one_class(policy, capacity):
    # mu = nu = 1.0 and every other coefficient 0: the phase model prices
    # every step at exactly 1 ms, on its scalar and array paths alike. The
    # 1 GiB cap holds fewer sequences than each policy would admit.
    unit = CoefficientPair(RegressionCoefficients(Phase.PREFILL, (0, 0, 0, 0, 0, 1.0)),
                           RegressionCoefficients(Phase.DECODE, (0, 0, 0, 1.0)))
    trace = _poisson_trace("short-to-long", 40, seed=5)
    result = run(policy, trace, LLAMA7B, OneMillisecond(), capacity)
    assert result == run(policy, trace, LLAMA7B, unit, capacity)
    assert len(result.records) == len(trace)
    assert np.allclose(result.steps.end_s - result.steps.start_s, 0.001)


class TestSpanPaths:
    """The phase model prices up to _SHORT_SPAN steps one by one as Python
    floats, longer spans as one array; both must give the same steps to the
    bit."""

    def run_three_ways(self, monkeypatch, *args):
        """run(*args) with every span on the array path, every span on the
        scalar path, and the default split; asserts all three are equal."""
        kinds = []

        def spy(*bounds_args):
            bounds = step_bounds(*bounds_args)
            if len(bounds) > 2:
                kinds.append(type(bounds))
            return bounds

        step_bounds = PHASE_MODEL.bounds
        monkeypatch.setattr(PHASE_MODEL, "bounds", spy)
        results = []
        for short_span in (1, 2**62, PHASE_MODEL._SHORT_SPAN):
            kinds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PHASE_MODEL, "_SHORT_SPAN", short_span)
                results.append(run(*args))
            if short_span == 1:
                assert kinds and set(kinds) == {np.ndarray}
            elif short_span == 2**62:
                assert set(kinds) == {list}
        array_only, scalar_only, default = results
        assert scalar_only == array_only
        assert default == array_only
        return default, set(kinds)

    @pytest.mark.parametrize("capacity", [None, KvCapacity(Paged(16), 4 * 2**30)],
                             ids=["uncapped", "paged16-4gib"])
    @pytest.mark.parametrize("policy", [Static(8), Continuous(max_seqs=16), SplitFuse(256)],
                             ids=describe_policy)
    @pytest.mark.parametrize("backend", ["vllm", "transformers"])
    def test_table10_poisson_runs_agree(self, table10, monkeypatch, backend, policy, capacity):
        trace = _poisson_trace("short-to-long", 150, seed=9)
        result, kinds = self.run_three_ways(monkeypatch, policy, trace, LLAMA7B,
                                            table10(backend), capacity)
        assert kinds == {list, np.ndarray}  # the default takes both paths
        assert len(result.records) == len(trace)

    @pytest.mark.parametrize("output_len, steps_before", [(30, 2), (100, 70)])
    def test_a_step_starting_at_an_arrival_is_not_in_the_span(self, monkeypatch,
                                                              output_len, steps_before):
        # ORACLE prices the prefill at 100 ms and a decode step at 4 * s_past
        # ms; request 1 arrives exactly when decode step steps_before ends,
        # inside a span of output_len - 1 steps.
        boundary = 0.1
        for s_past in range(1, steps_before + 1):
            boundary += 4 * s_past / 1000.0
        trace = [req(0, 1, output_len), req(1, 1, 1, at=boundary)]
        result, _ = self.run_three_ways(monkeypatch, Continuous(max_seqs=2), trace,
                                        TINY, ORACLE)
        assert result.steps.end_s[steps_before] == boundary
        assert rows(result.steps)[steps_before + 1][:3] == (boundary, boundary + 0.1, "prefill")
