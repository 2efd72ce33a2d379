"""Discrete-event simulation of batch and online serving.

Requests arrive, are admitted under a scheduling policy, and advance through
the prefill/decode lifecycle; a step model prices each step. The prefill step
itself yields a request's first token, so a request with output_len L costs
one prefill step plus L-1 decode steps, the i-th decode step running against
s_past = input_len + i - 1 cached tokens.

run() is one engine loop for every policy and every step model, and names
none of them: a SchedulingPolicy supplies admission_limit, step_items and
pads, a StepModel supplies bounds, and no more. The paper's model, each
phase's fitted step time, is the StepModel that run() builds from a
CoefficientPair.

The decode clock: every decode or mixed step gives each decoding sequence,
Static's padding included, one token, so run() counts such steps on one
integer clock instead of touching each sequence. A sequence joining decoding
stores base = s_past - clock and end = clock + remaining output; run() keeps
top (the largest base), next_end (the smallest end of a live sequence) and
live (their number). After a step that carries no prompt chunk, the next
steps keep its kind and width until an event, so run() hands the step model
next_end - clock such steps as one run, up to the step that completes a
sequence, cut before the first step that starts at or after the next
arrival, and applies them as clock += n. A step with a chunk runs alone.

Simulator cost therefore scales with scheduler events, not generated tokens,
and an event costs O(1) plus its prompt chunks, whatever the batch width;
only a completion (clock == next_end) scans decoding, to collect it and
recompute top, next_end and live.

Step storage: a run's steps are a StepTable, one read-only numpy column per
StepRecord field, so no Python object exists per step until it is read. A
run of steps contributes its boundaries (Python floats appended to lists, or
slices of a long span's array) and run lengths of its constant fields; the
columns are joined once when the run ends. Indexing and iterating a
StepTable yield StepRecords equal to those of a step-by-step loop.

KV accounting: admission reserves the maximum cache a request will ever hold
(input_len + output_len - 1 tokens, rounded up per the capacity's layout) and
releases it on completion. Each reservation is computed once, before the
first step, so a request that can never fit raises CapacityError up front.

Token latency is defined as request latency divided by output_len.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .arch import ModelConfig, Phase, _require_nonnegative, _require_positive, _require_real
from .costmodel import CacheLayout, ReservedOverflowError, _require_layout, kv_cache_bytes
from .estimator import RegressionCoefficients, _require_exact, _step_time
from .hardware import HardwareSpec
from .kvsim import _free_kv_bytes, allocated_tokens


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
        at = self.arrival_time_s
        # arch._require_real's rule, written inline as OpCost writes the count
        # rule: a sweep builds a Request per request per rate.
        if not isinstance(at, (int, float)) or isinstance(at, bool) or not math.isfinite(at):
            raise ValueError(f"request {self.id}: arrival_time_s must be a finite number, "
                             f"got {at!r}")
        if at < 0:
            raise ValueError(f"request {self.id}: arrival_time_s must be >= 0, got {at!r}")


class SchedulingPolicy:
    """A batching policy: the only rules run() asks for. Each policy is a
    frozen dataclass with one count field, which describe_policy names.

    admission_limit(decoding) -> int: how many sequences may be resident once
    the pass's FIFO admissions are done, given how many are decoding.
    step_items(prompting, decoding, waiting, more_arrivals) -> (kind,
    chunks): the next step's kind ("prefill", "decode" or "mixed") and its
    prompt chunks, (sequence, new_tokens) pairs taken in order from the head
    of prompting, the admitted sequences with prompt left. A decode or mixed
    step also carries one token of every decoding sequence; a decode step
    carries no chunk. A step that generates no token means wait for the next
    arrival; with none left, run() raises. pads: whether finished sequences
    stay as padding until the whole batch ends.
    """

    pads = False


@dataclass(frozen=True)
class Static(SchedulingPolicy):
    """Fills an empty batch with up to batch_size requests, waiting for
    stragglers until it is full or the trace is exhausted, prefills it in one
    step and decodes it until every sequence has finished; finished sequences
    stay as padding and keep advancing their s_past."""

    batch_size: int
    pads = True

    def __post_init__(self) -> None:
        _require_positive("batch_size", self.batch_size)

    def admission_limit(self, decoding):
        # Admit only into a batch that has not started its prefill.
        return 0 if decoding else self.batch_size

    def step_items(self, prompting, decoding, waiting, more_arrivals):
        if decoding:
            return "decode", []
        if len(prompting) < self.batch_size and not waiting and more_arrivals:
            return "prefill", []  # wait for stragglers
        return "prefill", [(s, s.remaining_prompt) for s in prompting]


@dataclass(frozen=True)
class Continuous(SchedulingPolicy):
    """Admits up to max_seqs sequences at every step boundary; each runs one
    exclusive prefill step, then joins per-token decoding."""

    max_seqs: int

    def __post_init__(self) -> None:
        if self.max_seqs is None:
            raise ValueError("Continuous needs max_seqs")
        _require_positive("max_seqs", self.max_seqs)

    def admission_limit(self, decoding):
        return self.max_seqs

    def step_items(self, prompting, decoding, waiting, more_arrivals):
        if prompting:
            return "prefill", [(prompting[0], prompting[0].remaining_prompt)]
        return "decode", []


@dataclass(frozen=True)
class SplitFuse(SchedulingPolicy):
    """Admits up to token_budget sequences. Every step is mixed: one token per
    decoding sequence, and the rest of the budget in prompt chunks split off
    pending prefills in FIFO order."""

    token_budget: int

    def __post_init__(self) -> None:
        _require_positive("token_budget", self.token_budget)

    def admission_limit(self, decoding):
        # One decode token per resident sequence must fit in the budget.
        return self.token_budget

    def step_items(self, prompting, decoding, waiting, more_arrivals):
        chunks = []
        budget = self.token_budget - decoding
        for s in prompting:
            if not budget:
                break
            chunk = min(s.remaining_prompt, budget)
            chunks.append((s, chunk))
            budget -= chunk
        return "mixed", chunks


def describe_policy(policy: SchedulingPolicy) -> str:
    """The lower-cased class name and the one field: "static(batch_size=8)"."""
    if not isinstance(policy, SchedulingPolicy):
        raise TypeError(f"unknown policy: {policy!r}")
    (field,) = fields(policy)
    return f"{type(policy).__name__.lower()}({field.name}={getattr(policy, field.name)})"


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


class StepModel:
    """A step-time model: the only pricing rule run() asks for.

    bounds(kind, chunks, width, s_past, n, t, arrival_s) -> [t, t_1, ...,
    t_m]: the boundaries, in seconds, of a run of n >= 1 steps that starts at
    t. Every step of the run has the same kind ("prefill", "decode" or
    "mixed") and carries the same prompt chunks, the (sequence, new_tokens)
    pairs SchedulingPolicy.step_items returned, and one token of each of
    width decoding sequences (0 in a prefill step). s_past is the cached
    tokens of the longest decoding sequence at the first step, and each
    decode or mixed step adds one to it. A run with a chunk has n = 1. The
    run is cut before the first step that starts at or after arrival_s, the
    next arrival (None when none is left); t is before it, so 1 <= m <= n.
    The boundaries never decrease, and come as a list of floats or a 1-D
    float64 array.
    """


_NEW_TOKENS = itemgetter(1)  # of a (sequence, new_tokens) prompt chunk


class _PhaseStepModel(StepModel):
    """The paper's step-time model: each phase's fitted model from
    estimator._step_time, priced at one point per step:

      prefill -> prefill model at (number of chunks, max chunk tokens)
      decode  -> decode model at (width, s_past), s_past growing per step
      mixed   -> prefill model at (1, width + sum of chunk tokens)

    Built once per run: it checks then that the largest b and s the trace
    can reach are in the models' exact range, so no step repeats a check and
    every price is bit-identical to estimator.predict_at; the prefill model
    prices each (b, s) once per run. A negative price (possible near zero
    work with a negative intercept) is a zero-duration step. Runs of up to
    _SHORT_SPAN steps are priced as Python floats up to the cut, longer ones
    as one float64 array cut afterwards; both add max(0, ms) / 1000 per step
    left to right, so they give the same bits.
    """

    # Longest span priced step by step as Python floats rather than as one
    # array. An uncut span breaks even at about 30 (decode) to 64 (mixed)
    # steps, but the float loop stops at the next arrival, which cuts most
    # spans well before.
    _SHORT_SPAN = 64

    def __init__(self, coeffs: CoefficientPair, cfg: ModelConfig, trace: list[Request]):
        if trace:
            # A batch holds at most every request, and no s_past, padding's
            # included, reaches the longest prompt plus the longest output.
            s_max = max(r.input_len for r in trace) + max(r.output_len for r in trace)
            _require_exact(cfg, len(trace), s_max)
        self.prefill = _step_time(coeffs.prefill, cfg)
        self.decode = _step_time(coeffs.decode, cfg)

    def bounds(self, kind, chunks, width, s_past, n, t, arrival_s):
        if kind == "decode":
            model, b, s, grows = self.decode, width, s_past, True
        elif kind == "mixed":
            model, b, s, grows = self.prefill, 1, width + sum(map(_NEW_TOKENS, chunks)), False
        else:
            model, b, s, grows = self.prefill, len(chunks), max(map(_NEW_TOKENS, chunks)), False
        if n == 1:
            return [t, t + max(0.0, model(b, s)) / 1000.0]
        if n <= self._SHORT_SPAN:
            # Priced lazily: no step past the cut is evaluated.
            prices = model(b, range(s, s + n)) if grows else repeat(model(b, s), n)
            cut = math.inf if arrival_s is None else arrival_s
            bounds = [t]
            for ms in prices:
                t += (ms if ms > 0.0 else 0.0) / 1000.0  # max(0.0, ms), as np.where below
                bounds.append(t)
                if t >= cut:
                    break
            return bounds
        if grows:
            ms = model(b, np.arange(s, s + n, dtype=np.float64))
            durations = np.where(ms > 0.0, ms, 0.0) / 1000.0
        else:
            durations = np.full(n, max(0.0, model(b, s)) / 1000.0)
        bounds = np.cumsum(np.concatenate(([t], durations)))
        if arrival_s is not None:  # >= 1: step 0 starts before the next arrival
            n = int(np.searchsorted(bounds[:n], arrival_s))
        return bounds[:n + 1]


@dataclass(frozen=True)
class KvCapacity:
    """Total bytes available to the KV cache, allocated under `layout`."""

    layout: CacheLayout
    total_bytes: int

    def __post_init__(self) -> None:
        _require_layout(self.layout)
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
    comes as its boundaries (t, t_1, ..., t_n): one step or a list extends the
    current start and end lists, a longer array adds slices of itself between
    them. kind, batch, tokens, generated and reserved_bytes take one value per
    run, with the number of steps it stands for."""

    def __init__(self):
        self.start: list[float] = []  # steps since the last array slices
        self.end: list[float] = []
        self.start_parts: list = [self.start]  # those lists and run slices, in order
        self.end_parts: list = [self.end]
        self.fields: tuple[list, ...] = ([], [], [], [], [])
        self.counts: list[int] = []

    def add(self, bounds, *fields) -> None:
        if len(bounds) == 2:  # one step, the commonest run
            self.start.append(bounds[0])
            self.end.append(bounds[1])
        elif isinstance(bounds, list):
            self.start += bounds[:-1]
            self.end += bounds[1:]
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
    """Mutable per-request simulation state. When it joins decoding, run()
    sets base and end: its s_past is then base + clock, and it finishes when
    run()'s decode clock reaches end (padding's end has passed)."""

    __slots__ = ("req", "reserved", "remaining_prompt", "first_token_s", "base", "end")

    def __init__(self, req: Request, reserved: int):
        self.req = req
        self.reserved = reserved
        self.remaining_prompt = req.input_len
        self.first_token_s = 0.0


def run(policy: SchedulingPolicy, trace: list[Request], cfg: ModelConfig,
        coeffs: CoefficientPair | StepModel,
        capacity: Optional[KvCapacity] = None) -> RunResult:
    """Simulate a trace under a policy; deterministic for fixed inputs.

    coeffs is a StepModel, or a CoefficientPair for the paper's model. Each
    pass pulls arrivals, admits queued requests in FIFO order up to
    policy.admission_limit and the KV capacity, asks policy.step_items for
    the step's kind and prompt chunks, prices the run of steps up to the next
    event with the step model, and applies its chunks and completions.
    """
    if not isinstance(coeffs, (CoefficientPair, StepModel)):
        raise MissingCoefficientError(
            f"coeffs must be a CoefficientPair or a StepModel, got {type(coeffs).__name__}")
    if not isinstance(policy, SchedulingPolicy):
        raise TypeError(f"unknown policy: {policy!r}")
    model = _PhaseStepModel(coeffs, cfg, trace) if isinstance(coeffs, CoefficientPair) else coeffs

    per_token = kv_cache_bytes(cfg, 1, 1)
    pending = [_Seq(req, _reservation(req, per_token, capacity))
               for req in sorted(trace, key=lambda r: (r.arrival_time_s, r.id))]
    total = math.inf if capacity is None else capacity.total_bytes
    waiting: deque[_Seq] = deque()
    prompting: list[_Seq] = []  # admitted, with prompt left, in FIFO order
    decoding: list[_Seq] = []  # one token on every decode or mixed step, in join order
    records: list[RequestRecord] = []
    steps = _StepLog()
    t = 0.0
    next_arrival = reserved = peak = generated_tokens = 0
    # The decode clock counts decode and mixed steps. top is the largest base
    # in decoding, next_end the smallest end of a live (not padding) sequence,
    # live their number.
    clock = top = live = 0
    next_end = math.inf
    while next_arrival < len(pending) or waiting or prompting or decoding:
        while next_arrival < len(pending) and pending[next_arrival].req.arrival_time_s <= t:
            waiting.append(pending[next_arrival])
            next_arrival += 1
        limit = policy.admission_limit(len(decoding))
        while (waiting and len(prompting) + len(decoding) < limit
               and reserved + waiting[0].reserved <= total):
            seq = waiting.popleft()
            reserved += seq.reserved
            peak = max(peak, reserved)
            prompting.append(seq)

        arrival_s = (pending[next_arrival].req.arrival_time_s
                     if next_arrival < len(pending) else None)
        kind, chunks = policy.step_items(prompting, len(decoding), waiting,
                                         arrival_s is not None)
        width = len(decoding) if kind != "prefill" else 0  # decode tokens per step
        generated = live if width else 0
        if chunks:
            n = 1
        elif generated:
            n = next_end - clock
        elif arrival_s is None:
            raise RuntimeError(f"{policy!r} stalled: no step to run and no arrival left")
        else:  # the step would generate no token: wait for the next arrival
            t = max(t, arrival_s)
            continue
        bounds = model.bounds(kind, chunks, width, top + clock, n, t, arrival_s)
        n = len(bounds) - 1  # fewer than asked if cut at the next arrival
        t = float(bounds[-1])
        if width:
            clock += n

        finished: list[_Seq] = []
        if clock == next_end:  # a decoding sequence completes: scan decoding
            finished = [s for s in decoding if s.end == clock]
            live -= len(finished)
            if not policy.pads:
                decoding = [s for s in decoding if s.end > clock]
                top = max([s.base for s in decoding], default=0)
            next_end = min([s.end for s in decoding if s.end > clock], default=math.inf)
        done = 0
        for seq, new_tokens in chunks:
            seq.remaining_prompt -= new_tokens
            if seq.remaining_prompt:
                continue
            done += 1
            seq.first_token_s = t
            generated += 1  # the prefill yields the first token
            left = seq.req.output_len - 1
            if not left:
                finished.append(seq)
                if not policy.pads:
                    continue
            seq.base, seq.end = seq.req.input_len - clock, clock + left
            top = max(top, seq.base) if decoding else seq.base
            decoding.append(seq)
            if left:
                live += 1
                next_end = min(next_end, seq.end)
        del prompting[:done]
        if not live:
            decoding = []  # a padded batch ends with its last live sequence

        generated_tokens += n * generated
        steps.add(bounds, kind, width + len(chunks), width + sum(map(_NEW_TOKENS, chunks)),
                  generated, reserved)
        for seq in finished:
            req = seq.req
            records.append(RequestRecord(
                id=req.id, arrival_s=req.arrival_time_s, first_token_s=seq.first_token_s,
                completion_s=t, input_len=req.input_len, output_len=req.output_len))
            reserved -= seq.reserved

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


def _checked_rates(rates) -> list[float]:
    """The rates as floats, if they are finite, positive and distinct."""
    rates = list(rates)
    for i, rate in enumerate(rates):
        _require_real("rates", rate)
        rates[i] = rate = float(rate)
        if rate <= 0:
            raise ValueError(f"rates must be positive, got {rate!r}")
        if rate in rates[:i]:
            raise ValueError(f"rate {rate!r} is repeated")
    return rates


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
    rates = _checked_rates(rates)
    if arrival_process == "poisson":
        gaps = np.random.default_rng(seed).exponential(1.0, size=len(base_trace))
    elif arrival_process == "uniform":
        gaps = np.ones(len(base_trace))
    else:
        raise ValueError(f"unknown arrival process {arrival_process!r}")
    unit_offsets = np.cumsum(gaps)

    out: dict[float, ServingMetrics] = {}
    for rate in rates:
        trace = [Request(req.id, req.input_len, req.output_len, arrival_s)
                 for req, arrival_s in zip(base_trace, (unit_offsets / rate).tolist())]
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
    "CoefficientPair", "StepModel", "KvCapacity", "RequestRecord", "StepRecord", "StepTable",
    "ServingMetrics", "RunResult", "CapacityError", "MissingCoefficientError",
    "run", "trim_warmup", "sweep_rates", "compute_metrics", "describe_policy",
    "metrics_csv_text",
]
