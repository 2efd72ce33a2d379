"""Synthetic request traces: scenario generators and JSONL persistence.

Each scenario draws input/output lengths uniformly from a characteristic
range (inclusive bounds):

  short-to-short  in [1, 50]      out [1, 50]
  short-to-long   in [1, 50]      out [51, 1000]
  short-16k       in [1, 50]      out = 16000 (fixed)
  long-to-short   in [1100, 1500] out [1, 120]

Traces serialize as JSON Lines with one request per line:
  {"input_tokens": <int>, "output_tokens": <int>, "arrival_s": <float>}
arrival_s is optional and defaults to 0 on load. Loading is strict: a line
is a JSON object with no other keys, and its values go to Request as read, so
Request's own checks are the trace's rules (token counts are integers >= 1,
never booleans, floats or strings; arrival_s is a finite int or float >= 0).
"""

from __future__ import annotations

import enum
import json
from contextlib import nullcontext

import numpy as np

from .arch import _require_keys, _require_nonnegative
from .servesim import Request


class Scenario(enum.Enum):
    SHORT_TO_SHORT = "short-to-short"
    SHORT_TO_LONG = "short-to-long"
    SHORT_16K = "short-16k"
    LONG_TO_SHORT = "long-to-short"


# (input_lo, input_hi, output_lo, output_hi), inclusive.
SCENARIO_BOUNDS: dict[Scenario, tuple[int, int, int, int]] = {
    Scenario.SHORT_TO_SHORT: (1, 50, 1, 50),
    Scenario.SHORT_TO_LONG: (1, 50, 51, 1000),
    Scenario.SHORT_16K: (1, 50, 16000, 16000),
    Scenario.LONG_TO_SHORT: (1100, 1500, 1, 120),
}


def generate(scenario: Scenario | str, n: int, seed: int = 0) -> list[Request]:
    """Draw n requests for the scenario; deterministic per seed."""
    scenario = Scenario(scenario)
    _require_nonnegative("n", n)
    in_lo, in_hi, out_lo, out_hi = SCENARIO_BOUNDS[scenario]
    rng = np.random.default_rng(seed)
    inputs = rng.integers(in_lo, in_hi, size=n, endpoint=True)
    outputs = rng.integers(out_lo, out_hi, size=n, endpoint=True)
    return [Request(id=i, input_len=int(inputs[i]), output_len=int(outputs[i]))
            for i in range(n)]


def save_trace(trace, path) -> None:
    """Write a trace as JSONL to a path or to an open text stream."""
    stream = hasattr(path, "write")
    with nullcontext(path) if stream else open(path, "w", encoding="utf-8") as fh:
        for req in trace:
            record = {"input_tokens": req.input_len, "output_tokens": req.output_len,
                      "arrival_s": req.arrival_time_s}
            fh.write(json.dumps(record) + "\n")


def load_trace(path) -> list[Request]:
    """Parse a JSONL trace; errors carry the 1-based line number."""
    trace: list[Request] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _require_keys(json.loads(line), "trace record",
                                       ("input_tokens", "output_tokens"), ("arrival_s",))
                trace.append(Request(len(trace), record["input_tokens"],
                                     record["output_tokens"], record.get("arrival_s", 0.0)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return trace


__all__ = ["Scenario", "generate", "save_trace", "load_trace"]
