"""Discrete-event simulation of batch and online serving.

Requests arrive, are admitted under a scheduling policy, and advance through
the prefill/decode lifecycle; step durations come from the fitted runtime
model. The prefill step itself yields a request's first token, so a request
with output_len L costs one prefill step plus L-1 decode steps, the i-th
decode step running against s_past = input_len + i - 1 cached tokens.

One engine loop runs every policy. Each pass pulls arrivals, admits queued
requests in FIFO order, asks the policy for the step's work items - one
(sequence, new_tokens, s_past) tuple per sequence the step touches - prices
the step, then applies tokens, first-token times and completions. A policy
supplies only its admission limit and timing, the step's kind and items, and
whether finished sequences vacate:

  Static     - admits up to batch_size requests into an empty batch, waiting
               for stragglers until the batch is full or the trace is
               exhausted; one prefill step over the whole batch, then decode
               steps until the batch drains. Finished sequences stay in the
               batch as padding and keep advancing their s_past.
  Continuous - admits up to max_seqs sequences at every step boundary; each
               admission runs one exclusive prefill step, then joins
               per-token decoding. Finished sequences vacate immediately.
  SplitFuse  - admits up to token_budget sequences; every step is mixed: one
               decode token per decoding sequence, the rest of the budget
               filled with prompt chunks split off pending prefills (FIFO).

One function, _step_bounds, prices every run of steps from its kind and
items:

  prefill -> prefill model at (len(items), max new_tokens)
  decode  -> decode model at (len(items), max s_past)
  mixed   -> prefill model at (1, sum of new_tokens)

Decode spans: between two scheduler events a batch whose items are all
one-token decodes keeps its sequences and its admission state, and each
step's s_past grows by one. The engine advances such a stretch in one pass:
it prices every step with one array evaluation of the decode model (a mixed
step of decode tokens only has one constant price) and takes the boundaries
as a left-to-right cumulative sum, exactly like adding the steps one by one.
A span ends with the step that completes a sequence, or before the first
step that starts at or after the next arrival; only a step that carries a
prompt token runs alone. Every run of steps, one step or a span, is applied
by the same code. Simulator cost therefore scales with scheduler events, not
with generated tokens.

Step storage: a run's steps are a StepTable, one read-only numpy column per
StepRecord field, so no Python object exists per step. A span contributes
slices of its boundary array and run lengths of its constant fields; a single
step contributes scalars; the columns are joined once when the run ends.
Indexing and iterating a StepTable yield StepRecords equal to those of a
step-by-step loop.

KV accounting: admission reserves the maximum cache a request will ever hold
(input_len + output_len - 1 tokens, rounded up per the capacity's layout) and
releases it on completion. Each reservation is computed once, before the
first step, so a request that can never fit raises CapacityError up front.
Negative model predictions (possible near zero workload with a negative
intercept) are clamped to zero-duration steps.

Token latency is defined as request latency divided by output_len.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional, Union

import numpy as np

from .arch import ModelConfig, Phase, _require_nonnegative, _require_positive
from .costmodel import kv_cache_bytes
from .estimator import RegressionCoefficients, predict_at
from .hardware import HardwareSpec
from .kvsim import CacheLayout, ReservedOverflowError, _free_kv_bytes, allocated_tokens


class CapacityError(ValueError):
    """A request cannot ever fit in the configured KV capacity."""


class MissingCoefficientError(ValueError):
    """run() needs fitted coefficients for both phases."""


@dataclass(frozen=True)
class Request:
    id: int
    input_len: int
    output_len: int
    arrival_time_s: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(f"request {self.id}: input_len and output_len",
                          self.input_len, self.output_len)
        if not (math.isfinite(self.arrival_time_s) and self.arrival_time_s >= 0):
            raise ValueError(f"request {self.id}: arrival_time_s must be finite and >= 0, "
                             f"got {self.arrival_time_s!r}")


@dataclass(frozen=True)
class Static:
    batch_size: int

    def __post_init__(self) -> None:
        _require_positive("batch_size", self.batch_size)


@dataclass(frozen=True)
class Continuous:
    max_seqs: int

    def __post_init__(self) -> None:
        if self.max_seqs is None:
            raise ValueError("Continuous needs max_seqs")
        _require_positive("max_seqs", self.max_seqs)


@dataclass(frozen=True)
class SplitFuse:
    token_budget: int

    def __post_init__(self) -> None:
        _require_positive("token_budget", self.token_budget)


SchedulingPolicy = Union[Static, Continuous, SplitFuse]


def describe_policy(policy: SchedulingPolicy) -> str:
    if isinstance(policy, Static):
        return f"static(batch_size={policy.batch_size})"
    if isinstance(policy, Continuous):
        return f"continuous(max_seqs={policy.max_seqs})"
    if isinstance(policy, SplitFuse):
        return f"splitfuse(token_budget={policy.token_budget})"
    raise TypeError(f"unknown policy: {policy!r}")


@dataclass(frozen=True)
class CoefficientPair:
    prefill: RegressionCoefficients
    decode: RegressionCoefficients

    def __post_init__(self) -> None:
        if self.prefill is None or self.decode is None:
            raise MissingCoefficientError("both prefill and decode coefficients are required")
        if self.prefill.phase is not Phase.PREFILL:
            raise MissingCoefficientError("prefill slot holds non-prefill coefficients")
        if self.decode.phase is not Phase.DECODE:
            raise MissingCoefficientError("decode slot holds non-decode coefficients")


@dataclass(frozen=True)
class KvCapacity:
    """Total bytes available to the KV cache, allocated under `layout`."""

    layout: CacheLayout
    total_bytes: int

    def __post_init__(self) -> None:
        _require_nonnegative("total_bytes", self.total_bytes)

    @classmethod
    def from_hardware(cls, layout: CacheLayout, hw: HardwareSpec,
                      model_weight_bytes: int) -> "KvCapacity":
        try:
            free = _free_kv_bytes(hw, model_weight_bytes)
        except ValueError as exc:
            raise CapacityError(str(exc)) from exc
        return cls(layout, free)


@dataclass(frozen=True)
class RequestRecord:
    id: int
    arrival_s: float
    first_token_s: float
    completion_s: float
    input_len: int
    output_len: int

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def token_latency_s(self) -> float:
        return self.latency_s / self.output_len


class StepRecord(NamedTuple):
    start_s: float
    end_s: float
    kind: str  # prefill | decode | mixed
    batch: int
    tokens: int  # tokens carried by the step
    generated: int  # output tokens produced at the step boundary
    reserved_bytes: int


# A StepRecord from one 7-tuple, built in C without the Python-level __new__
# that StepRecord(...) runs.
_new_step_record = partial(tuple.__new__, StepRecord)

_ITER_CHUNK = 4096  # rows a StepTable turns into Python objects at a time


class StepTable(Sequence):
    """A run's steps as read-only numpy columns, one per StepRecord field.

    start_s and end_s are float64; batch, tokens, generated and reserved_bytes
    are int64; kind holds int8 codes into KINDS. len, indexing (negative too)
    and iteration yield StepRecords; a slice is a StepTable of views. A table
    equals another table with equal columns and, in both directions, any
    sequence of equal records.
    """

    __slots__ = StepRecord._fields
    KINDS = ("prefill", "decode", "mixed")
    _DTYPES = (np.float64, np.float64, np.int8, np.int64, np.int64, np.int64, np.int64)

    def __init__(self, start_s, end_s, kind, batch, tokens, generated, reserved_bytes):
        columns = (start_s, end_s, kind, batch, tokens, generated, reserved_bytes)
        for name, values, dtype in zip(self.__slots__, columns, self._DTYPES):
            col = np.asarray(values, dtype=dtype).view()  # a view: the caller's flags stay
            col.flags.writeable = False
            setattr(self, name, col)
        if any(col.ndim != 1 or len(col) != len(self.start_s) for col in self._columns()):
            raise ValueError("StepTable columns must be 1-D and of equal length")

    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.start_s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return StepTable(*(col[index] for col in self._columns()))
        row = [col[operator.index(index)].item() for col in self._columns()]
        row[2] = self.KINDS[row[2]]
        return _new_step_record(row)

    def _rows(self, lo: int):
        hi = lo + _ITER_CHUNK
        cols = [col[lo:hi].tolist() for col in self._columns()]
        cols[2] = map(self.KINDS.__getitem__, cols[2])
        return map(_new_step_record, zip(*cols))

    def __iter__(self):
        # Fixed-size chunks: tolist() over whole columns would hold every
        # row's Python objects at once.
        return chain.from_iterable(map(self._rows, range(0, len(self), _ITER_CHUNK)))

    def __eq__(self, other):
        if isinstance(other, StepTable):
            return all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"StepTable({len(self)} steps)"


_KIND_CODES = {kind: code for code, kind in enumerate(StepTable.KINDS)}


class _StepLog:
    """Gathers a run's steps column by column, in step order. A run of steps
    comes as its boundaries (t, t_1, ..., t_n): a single step appends Python
    scalars, a longer run appends slices of its boundary array. kind, batch,
    tokens, generated and reserved_bytes take one value per run, with the
    number of steps it stands for."""

    def __init__(self):
        self.start: list[float] = []  # single steps since the last longer run
        self.end: list[float] = []
        self.start_parts: list = [self.start]  # those lists and run slices, in order
        self.end_parts: list = [self.end]
        self.fields: tuple[list, ...] = ([], [], [], [], [])
        self.counts: list[int] = []

    def add(self, bounds, *fields) -> None:
        if len(bounds) == 2:
            self.start.append(bounds[0])
            self.end.append(bounds[1])
        else:
            self.start, self.end = [], []
            self.start_parts += [bounds[:-1], self.start]
            self.end_parts += [bounds[1:], self.end]
        for values, value in zip(self.fields, fields):
            values.append(value)
        self.counts.append(len(bounds) - 1)

    def table(self) -> StepTable:
        kinds, *ints = self.fields
        codes = list(map(_KIND_CODES.__getitem__, kinds))
        return StepTable(
            np.concatenate(self.start_parts), np.concatenate(self.end_parts),
            *(np.repeat(np.array(values, dtype=dtype), self.counts)
              for values, dtype in zip((codes, *ints), StepTable._DTYPES[2:])))


@dataclass(frozen=True)
class ServingMetrics:
    token_throughput: float
    seq_throughput: float
    mean_token_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    completed: int


EMPTY_METRICS = ServingMetrics(0.0, 0.0, 0.0, 0.0, 0.0, 0)


@dataclass(frozen=True)
class RunResult:
    metrics: ServingMetrics
    records: tuple[RequestRecord, ...]
    steps: StepTable
    generated_tokens: int
    peak_reserved_bytes: int
    capacity_bytes: Optional[int]


def compute_metrics(records) -> ServingMetrics:
    """Aggregate throughput/latency over a record set.

    The throughput window runs from the earliest arrival to the latest
    completion in the set, so metrics over trimmed records measure the
    steady-state span.
    """
    records = list(records)
    if not records:
        return EMPTY_METRICS
    span = max(r.completion_s for r in records) - min(r.arrival_s for r in records)
    tokens = sum(r.output_len for r in records)
    latencies = np.array([r.latency_s for r in records], dtype=float)
    token_latencies = np.array([r.token_latency_s for r in records], dtype=float)
    token_tp = tokens / span if span > 0 else 0.0
    seq_tp = len(records) / span if span > 0 else 0.0
    return ServingMetrics(
        token_throughput=float(token_tp),
        seq_throughput=float(seq_tp),
        mean_token_latency_s=float(np.mean(token_latencies)),
        p50_latency_s=float(np.percentile(latencies, 50)),
        p95_latency_s=float(np.percentile(latencies, 95)),
        completed=len(records),
    )


_NEW_TOKENS, _S_PAST = itemgetter(1), itemgetter(2)  # fields of a step item


def _step_bounds(kind: str, items, t: float, arrival_s: Optional[float],
                 cfg: ModelConfig, coeffs: CoefficientPair):
    """Boundaries (t, t_1, ..., t_n) of the next n >= 1 steps, which all carry
    these (sequence, new_tokens, s_past) items; the one place a step is
    priced. A step that carries a prompt token runs alone, as a Python
    (t, t_1) pair. Decode-only steps run up to and including the step that
    completes a sequence, as a float64 array, cut before the first step that
    starts at or after arrival_s, the next arrival (None when no request is
    still to arrive)."""
    if kind == "prefill" or any(seq.remaining_prompt for seq, _, _ in items):
        n = 1
    else:
        n = min(seq.remaining_output for seq, _, _ in items if seq.remaining_output)
    if kind == "prefill":
        model, b, s = coeffs.prefill, len(items), max(map(_NEW_TOKENS, items))
    elif kind == "decode":
        model, b, s = coeffs.decode, len(items), max(map(_S_PAST, items))
    else:
        model, b, s = coeffs.prefill, 1, sum(map(_NEW_TOKENS, items))
    if n == 1:
        return t, t + max(0.0, predict_at(model, cfg, b, s)) / 1000.0
    if kind == "decode":  # s_past grows by one per step
        ms = predict_at(model, cfg, b, np.arange(s, s + n, dtype=np.int64))
        durations = np.where(ms > 0.0, ms, 0.0) / 1000.0  # max(0.0, ms) per step
    else:  # a mixed step of decode tokens only: the same token count each step
        durations = np.full(n, max(0.0, predict_at(model, cfg, b, s)) / 1000.0)
    bounds = np.cumsum(np.concatenate(([t], durations)))
    if arrival_s is not None:  # >= 1: step 0 starts before the next arrival
        n = int(np.searchsorted(bounds[:n], arrival_s))
    return bounds[:n + 1]


def _reservation(req: Request, per_token: int, capacity: Optional[KvCapacity]) -> int:
    """KV bytes reserved for a request: the most cache it will ever hold."""
    tokens = req.input_len + req.output_len - 1
    if capacity is None:
        return per_token * tokens
    try:
        need = per_token * allocated_tokens(capacity.layout, tokens)
    except ReservedOverflowError as exc:
        raise CapacityError(f"request {req.id}: {exc}") from exc
    if need > capacity.total_bytes:
        raise CapacityError(f"request {req.id} needs {need} B of KV cache, "
                            f"capacity is {capacity.total_bytes} B")
    return need


class _Seq:
    """Mutable per-request simulation state."""

    __slots__ = ("req", "reserved", "s_past", "remaining_prompt", "remaining_output",
                 "first_token_s")

    def __init__(self, req: Request, reserved: int):
        self.req = req
        self.reserved = reserved
        self.s_past = 0
        self.remaining_prompt = req.input_len
        self.remaining_output = req.output_len
        self.first_token_s = 0.0


def _admission_limit(policy: SchedulingPolicy, running: list[_Seq]) -> int:
    """How many sequences may be resident once this pass's admissions are done."""
    if isinstance(policy, Static):
        # Admit only into a batch that has not started its prefill.
        return policy.batch_size if not running or running[0].remaining_prompt else 0
    if isinstance(policy, Continuous):
        return policy.max_seqs
    # One decode token per running sequence must fit in the budget.
    return policy.token_budget


def _step_items(policy: SchedulingPolicy, running: list[_Seq], waiting: deque,
                more_arrivals: bool) -> tuple[str, list]:
    """The next step's kind and (sequence, new_tokens, s_past) items; no items
    means the engine should wait for the next arrival."""
    if isinstance(policy, Static):
        if running and not running[0].remaining_prompt:
            return "decode", [(s, 1, s.s_past) for s in running]
        if len(running) < policy.batch_size and not waiting and more_arrivals:
            return "prefill", []  # wait for stragglers
        return "prefill", [(s, s.remaining_prompt, s.s_past) for s in running]
    if isinstance(policy, Continuous):
        for s in running:
            if s.remaining_prompt:
                return "prefill", [(s, s.remaining_prompt, s.s_past)]
        return "decode", [(s, 1, s.s_past) for s in running]
    items = [(s, 1, s.s_past) for s in running if not s.remaining_prompt]
    budget = policy.token_budget - len(items)
    for s in running:
        if s.remaining_prompt and budget:
            chunk = min(s.remaining_prompt, budget)
            items.append((s, chunk, s.s_past))
            budget -= chunk
    return "mixed", items


def run(policy: SchedulingPolicy, trace: list[Request], cfg: ModelConfig,
        coeffs: CoefficientPair, capacity: Optional[KvCapacity] = None) -> RunResult:
    """Simulate a trace under a policy; deterministic for fixed inputs.

    Each pass of the loop pulls arrivals, admits queued requests in FIFO
    order up to the policy's limit and the KV capacity, asks the policy for
    the step's work items, prices the run of steps that carry those items up
    to the next event, and applies its tokens, first tokens and completions.
    """
    if not isinstance(coeffs, CoefficientPair):
        raise MissingCoefficientError(
            f"coeffs must be a CoefficientPair, got {type(coeffs).__name__}")
    if not isinstance(policy, (Static, Continuous, SplitFuse)):
        raise TypeError(f"unknown policy: {policy!r}")
    pads = isinstance(policy, Static)  # finished sequences stay until the batch drains

    per_token = kv_cache_bytes(cfg, 1, 1)
    pending = [_Seq(req, _reservation(req, per_token, capacity))
               for req in sorted(trace, key=lambda r: (r.arrival_time_s, r.id))]
    total = math.inf if capacity is None else capacity.total_bytes
    waiting: deque[_Seq] = deque()
    running: list[_Seq] = []
    records: list[RequestRecord] = []
    steps = _StepLog()
    t = 0.0
    next_arrival = reserved = peak = generated_tokens = 0
    while next_arrival < len(pending) or waiting or running:
        while next_arrival < len(pending) and pending[next_arrival].req.arrival_time_s <= t:
            waiting.append(pending[next_arrival])
            next_arrival += 1
        limit = _admission_limit(policy, running)
        while waiting and len(running) < limit and reserved + waiting[0].reserved <= total:
            seq = waiting.popleft()
            reserved += seq.reserved
            peak = max(peak, reserved)
            running.append(seq)

        arrival_s = (pending[next_arrival].req.arrival_time_s
                     if next_arrival < len(pending) else None)
        kind, items = _step_items(policy, running, waiting, arrival_s is not None)
        if not items:
            t = max(t, arrival_s)
            continue
        bounds = _step_bounds(kind, items, t, arrival_s, cfg, coeffs)
        n = len(bounds) - 1  # > 1 only for one-token decodes
        t = float(bounds[-1])

        tokens = generated = 0
        finished: list[_Seq] = []
        for seq, new_tokens, _ in items:
            seq.s_past += n * new_tokens
            tokens += new_tokens
            if seq.remaining_prompt:
                seq.remaining_prompt -= new_tokens
                if seq.remaining_prompt:
                    continue
                seq.first_token_s = t
            elif not seq.remaining_output:
                continue  # padding in a static batch
            seq.remaining_output -= n
            generated += 1
            if not seq.remaining_output:
                finished.append(seq)
        generated_tokens += n * generated
        steps.add(bounds, kind, len(items), tokens, generated, reserved)
        if not finished:
            continue
        for seq in finished:
            req = seq.req
            records.append(RequestRecord(
                id=req.id, arrival_s=req.arrival_time_s, first_token_s=seq.first_token_s,
                completion_s=t, input_len=req.input_len, output_len=req.output_len))
            reserved -= seq.reserved
        live = [s for s in running if s.remaining_output]
        if not pads or not live:
            running = live

    return RunResult(
        metrics=compute_metrics(records),
        records=tuple(records),
        steps=steps.table(),
        generated_tokens=generated_tokens,
        peak_reserved_bytes=peak,
        capacity_bytes=None if capacity is None else capacity.total_bytes,
    )


_WARMUP_TRIM = 100  # completions trim_warmup drops at each end by default


def trim_warmup(records, n: int = _WARMUP_TRIM) -> list[RequestRecord]:
    """Drop the first and last n completions; empty when 2n or fewer exist."""
    _require_nonnegative("n", n)
    ordered = sorted(records, key=lambda r: (r.completion_s, r.id))
    return ordered[n:len(ordered) - n]


def sweep_rates(policy: SchedulingPolicy, base_trace: list[Request], rates,
                cfg: ModelConfig, coeffs, capacity: Optional[KvCapacity] = None,
                seed: int = 0, arrival_process: str = "poisson",
                ) -> dict[float, ServingMetrics]:
    """Re-run the trace at each arrival rate; metrics are warmup-trimmed.

    Arrival offsets are drawn once per seed at unit rate (exponential gaps for
    poisson, constant gaps for uniform) and divided by each rate, so rates
    share randomness and differ only in time scale. Rates must be finite,
    positive and distinct, since the result is keyed by rate.
    """
    rates = [float(r) for r in rates]
    for i, rate in enumerate(rates):
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"rates must be finite and positive, got {rate!r}")
        if rate in rates[:i]:
            raise ValueError(f"rate {rate!r} is repeated")
    if arrival_process == "poisson":
        gaps = np.random.default_rng(seed).exponential(1.0, size=len(base_trace))
    elif arrival_process == "uniform":
        gaps = np.ones(len(base_trace))
    else:
        raise ValueError(f"unknown arrival process {arrival_process!r}")
    unit_offsets = np.cumsum(gaps)

    out: dict[float, ServingMetrics] = {}
    for rate in rates:
        trace = [replace(req, arrival_time_s=float(offset / rate))
                 for req, offset in zip(base_trace, unit_offsets)]
        result = run(policy, trace, cfg, coeffs, capacity=capacity)
        out[rate] = compute_metrics(trim_warmup(result.records))
    return out


METRICS_CSV_HEADER = ["policy", "rate", "token_throughput", "seq_throughput",
                      "mean_token_latency_s", "p50_latency_s", "p95_latency_s",
                      "completed"]


def metrics_csv_text(rows) -> str:
    """rows: iterable of (policy_label, rate, ServingMetrics). Full precision."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(METRICS_CSV_HEADER)
    for label, rate, m in rows:
        writer.writerow([label, repr(float(rate)), repr(m.token_throughput),
                         repr(m.seq_throughput), repr(m.mean_token_latency_s),
                         repr(m.p50_latency_s), repr(m.p95_latency_s), m.completed])
    return buf.getvalue()


__all__ = [
    "Request", "Static", "Continuous", "SplitFuse", "SchedulingPolicy",
    "CoefficientPair", "KvCapacity", "RequestRecord", "StepRecord", "StepTable",
    "ServingMetrics", "RunResult", "CapacityError", "MissingCoefficientError",
    "run", "trim_warmup", "sweep_rates", "compute_metrics", "describe_policy",
    "metrics_csv_text",
]
