"""Linear runtime model: feature construction, least-squares fitting from
timing samples, and prediction.

Step time in milliseconds is modeled as a dot product of phase-specific
features with fitted coefficients:

  prefill: (b*s*h^2*l, b*s*h*h'*l, b*s^2*n*l, b*s*h*l, b*s*h'*l, 1)
           named (alpha, beta, gamma, eta, lambda, mu)
  decode:  (b*s*h*l, b*s*n*l, b*h*l, 1)
           named (phi, psi, omega, nu)

A prediction adds the coefficient-feature products left to right. The decode
model also takes an int64 array of context lengths s and then returns one
prediction per entry, each bit-identical to the scalar call at that s: the
integer products are exact either way, int64 -> float64 rounds like float(),
and the element-wise adds follow the same order.

The intercept absorbs per-step fixed overhead (kernel launches, scheduler);
it may be negative (unconstrained OLS), so predictions for tiny workloads can
dip below zero — consumers that need a duration clamp at zero.

Samples taken at a single model config span at most three independent feature
directions (for fixed h, h', n, l several columns are proportional), so such
designs are rank-deficient by construction. fit() therefore returns the
minimum-norm least-squares solution and reports a condition warning.
Coefficients are only individually identifiable from designs that vary the
model dimensions — see fit_design.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arch import (DimensionMismatchError, ModelConfig, Phase, _require_nonnegative,
                   _require_positive)

RANK_RTOL = 1e-10  # singular-value ratio below which a direction is treated as null
_INT64_MAX = np.iinfo(np.int64).max

PREFILL_COEFF_NAMES: tuple[str, ...] = ("alpha", "beta", "gamma", "eta", "lambda", "mu")
DECODE_COEFF_NAMES: tuple[str, ...] = ("phi", "psi", "omega", "nu")


class UnderdeterminedSystemError(ValueError):
    """Fewer samples than coefficients."""


@dataclass(frozen=True)
class TimingSample:
    """One measured configuration: total decoder-stack step time in ms."""

    phase: Phase
    b: int
    s: int
    measured_ms: float

    def __post_init__(self) -> None:
        _require_positive("b and s", self.b, self.s)
        if not (self.measured_ms > 0 and math.isfinite(self.measured_ms)):
            raise ValueError(f"measured_ms must be finite and > 0, got {self.measured_ms}")


@dataclass(frozen=True)
class RegressionCoefficients:
    phase: Phase
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        expected = len(coeff_names(self.phase))
        if len(self.values) != expected:
            raise DimensionMismatchError(
                f"{self.phase.value} coefficients need {expected} values, "
                f"got {len(self.values)}")
        for name, value in zip(coeff_names(self.phase), self.values):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{self.phase.value} coefficient {name} must be a "
                                 f"finite number, got {value!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def named(self) -> dict[str, float]:
        return dict(zip(coeff_names(self.phase), self.values))


def coeff_names(phase: Phase) -> tuple[str, ...]:
    return PREFILL_COEFF_NAMES if phase is Phase.PREFILL else DECODE_COEFF_NAMES


def prefill_features(cfg: ModelConfig, b: int, s: int) -> tuple[float, ...]:
    _require_positive("b and s", b, s)
    h, hf, n, l = cfg.hidden_size, cfg.intermediate_size, cfg.num_heads, cfg.num_layers
    return (float(b * s * h * h * l), float(b * s * h * hf * l),
            float(b * s * s * n * l), float(b * s * h * l),
            float(b * s * hf * l), 1.0)


def _exact_float(x):
    """float(x) of an int; the same round-to-nearest per entry of an int64 array."""
    return x.astype(np.float64) if isinstance(x, np.ndarray) else float(x)


def decode_features(cfg: ModelConfig, b: int, s) -> tuple:
    """Decode features at context length s: an int, or an int64 array giving
    one float64 array per s-dependent feature. s = 0 is an empty cache."""
    h, n, l = cfg.hidden_size, cfg.num_heads, cfg.num_layers
    _require_positive("b", b)
    if not isinstance(s, np.ndarray):
        _require_nonnegative("s", s)
    elif s.dtype != np.int64:
        raise ValueError(f"an s array must be int64, got {s.dtype}")
    elif s.size:
        top = int(s.view(np.uint64).max())  # one pass: a negative s reads as >= 2**63
        if top > _INT64_MAX:
            raise ValueError(f"s must be >= 0, got {s.min()}")
        if b * top * max(h, n) * l > _INT64_MAX:
            raise OverflowError("decode features overflow int64 at this s")
    return (_exact_float(b * s * h * l), _exact_float(b * s * n * l), float(b * h * l), 1.0)


def features_for(cfg: ModelConfig, b: int, s: int, phase: Phase) -> tuple[float, ...]:
    if phase is Phase.PREFILL:
        return prefill_features(cfg, b, s)
    return decode_features(cfg, b, s)


def _weighted_sum(values, features):
    # An explicit left-to-right add: sum() compensates float sums on Python
    # >= 3.12 but not array sums, which would split the scalar and array paths.
    total = 0.0
    for c, f in zip(values, features):
        total = total + c * f
    return total


def predict_at(coeffs: RegressionCoefficients, cfg: ModelConfig, b: int,
               s) -> float | np.ndarray:
    """Predicted milliseconds at (b, s); a decode int64 s array gives an array."""
    total = _weighted_sum(coeffs.values, features_for(cfg, b, s, coeffs.phase))
    return total if isinstance(total, np.ndarray) else float(total)


@dataclass(frozen=True)
class FitResult:
    coefficients: RegressionCoefficients
    rms_relative_error: float
    condition_warning: bool
    rank: int


def fit_design(X, y) -> tuple[np.ndarray, int, bool]:
    """Minimum-norm OLS on an explicit design matrix.

    Columns are equilibrated to unit max-magnitude before the SVD so the rank
    test compares shapes, not units (raw feature columns span ~12 orders of
    magnitude). Returns (solution, rank, condition_warning).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"design {X.shape} incompatible with targets {y.shape}")
    n_samples, n_coeffs = X.shape
    if n_samples < n_coeffs:
        raise UnderdeterminedSystemError(
            f"{n_samples} samples cannot determine {n_coeffs} coefficients")

    scale = np.max(np.abs(X), axis=0)
    scale[scale == 0.0] = 1.0
    solution, _, rank, _ = np.linalg.lstsq(X / scale, y, rcond=RANK_RTOL)
    return solution / scale, int(rank), bool(rank < n_coeffs)


def fit(samples: list[TimingSample], cfg: ModelConfig, phase: Phase) -> FitResult:
    """Ordinary least squares over timing samples for one phase."""
    if not samples:
        raise UnderdeterminedSystemError("no samples")
    bad = [s for s in samples if s.phase is not phase]
    if bad:
        raise ValueError(f"{len(bad)} samples have phase != {phase.value}")

    X = np.array([features_for(cfg, s.b, s.s, phase) for s in samples], dtype=float)
    y = np.array([s.measured_ms for s in samples], dtype=float)
    solution, rank, warned = fit_design(X, y)

    residual_rel = (X @ solution - y) / y
    rms = float(np.sqrt(np.mean(residual_rel ** 2)))
    coeffs = RegressionCoefficients(phase, tuple(solution))
    return FitResult(coeffs, rms, warned, rank)


# --- file formats -----------------------------------------------------------

def _csv_count(name: str, text: str) -> int:
    # int() also takes "1_6", " 64 " and non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name} must be a decimal integer, got {text!r}")
    return int(text)


def _csv_ms(text: str) -> float:
    # float() also takes "1_0.5" and " 10.5 "; inf and nan fail in TimingSample.
    if "_" in text or text != text.strip():
        raise ValueError(f"time_ms must be a plain number, got {text!r}")
    return float(text)


def load_timing_samples(path: str | Path) -> list[TimingSample]:
    """Read the `phase,b,s,time_ms` CSV; errors name `path: line N`."""
    expected = ["phase", "b", "s", "time_ms"]
    samples: list[TimingSample] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ValueError(f"{path}: header must be {','.join(expected)}, got {header}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(expected):
                    raise ValueError(f"expected {len(expected)} fields, got {len(row)}")
                phase, b, s, time_ms = row
                samples.append(TimingSample(Phase(phase), _csv_count("b", b),
                                            _csv_count("s", s), _csv_ms(time_ms)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    return samples


def coefficients_to_dict(coeffs: RegressionCoefficients) -> dict:
    return {"phase": coeffs.phase.value, **coeffs.named()}


def coefficients_from_dict(data: dict) -> RegressionCoefficients:
    if "phase" not in data:
        raise ValueError("coefficients object needs a 'phase' key")
    phase = Phase(data["phase"])
    names = coeff_names(phase)
    missing = [n for n in names if n not in data]
    if missing:
        raise ValueError(f"missing {phase.value} coefficients: {', '.join(missing)}")
    return RegressionCoefficients(phase, tuple(data[n] for n in names))


def load_coefficients(path: str | Path) -> RegressionCoefficients:
    with open(path, encoding="utf-8") as fh:
        return coefficients_from_dict(json.load(fh))


def save_coefficients(coeffs: RegressionCoefficients, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coefficients_to_dict(coeffs), fh, indent=2)
        fh.write("\n")


__all__ = [
    "TimingSample", "RegressionCoefficients", "FitResult",
    "UnderdeterminedSystemError", "coeff_names",
    "prefill_features", "decode_features", "features_for",
    "predict_at", "fit", "fit_design",
    "load_timing_samples", "load_coefficients", "save_coefficients",
]
