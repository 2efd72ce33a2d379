"""Linear runtime model: feature construction, least-squares fitting from
timing samples, and prediction.

Step time in milliseconds is modeled as a dot product of phase-specific
features with fitted coefficients:

  prefill: (b*s*h^2*l, b*s*h*h'*l, b*s^2*n*l, b*s*h*l, b*s*h'*l, 1)
           named (alpha, beta, gamma, eta, lambda, mu)
  decode:  (b*s*h*l, b*s*n*l, b*h*l, 1)
           named (phi, psi, omega, nu)

Each feature is an exact integer, b*s (or b) times a per-config integer
factor such as h^2*l, rounded once to float64. A prediction adds the
coefficient-feature products left to right.

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
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .arch import (DimensionMismatchError, ModelConfig, Phase, _load_json, _parse_int,
                   _parse_number, _require_keys, _require_nonnegative, _require_positive,
                   _require_real)

RANK_RTOL = 1e-10  # singular-value ratio below which a direction is treated as null
_FLOAT64_EXACT = 2 ** 53  # float64 holds every integer up to this magnitude

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
        _require_real("measured_ms", self.measured_ms)
        if not self.measured_ms > 0:
            raise ValueError(f"measured_ms must be > 0, got {self.measured_ms!r}")


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
            _require_real(f"{self.phase.value} coefficient {name}", value)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def named(self) -> dict[str, float]:
        return dict(zip(coeff_names(self.phase), self.values))


def coeff_names(phase: Phase) -> tuple[str, ...]:
    return PREFILL_COEFF_NAMES if phase is Phase.PREFILL else DECODE_COEFF_NAMES


def _prefill_factors(cfg: ModelConfig) -> tuple[int, ...]:
    h, hf, n, l = cfg.hidden_size, cfg.intermediate_size, cfg.num_heads, cfg.num_layers
    return h * h * l, h * hf * l, n * l, h * l, hf * l


def _prefill_terms(factors: tuple[int, ...], b: int, s: int) -> tuple[int, ...]:
    """The prefill features as exact integers, from _prefill_factors."""
    hhl, hhfl, nl, hl, hfl = factors
    bs = b * s
    return bs * hhl, bs * hhfl, bs * s * nl, bs * hl, bs * hfl, 1


def _decode_factors(cfg: ModelConfig) -> tuple[int, int]:
    return cfg.hidden_size * cfg.num_layers, cfg.num_heads * cfg.num_layers


def _decode_terms(s, bhl, bnl) -> tuple:
    """The decode features from s, b*h*l and b*n*l: exact integers from
    integers, float64 from floats of exact integers."""
    return s * bhl, s * bnl, bhl, 1


def _terms(cfg: ModelConfig, b: int, s: int, phase: Phase) -> tuple[int, ...]:
    """The features of phase at (b, s) as exact integers, inputs checked."""
    if phase is Phase.PREFILL:
        _require_positive("b and s", b, s)
        return _prefill_terms(_prefill_factors(cfg), b, s)
    _require_positive("b", b)
    _require_nonnegative("s", s)
    hl, nl = _decode_factors(cfg)
    return _decode_terms(s, b * hl, b * nl)


def features_for(cfg: ModelConfig, b: int, s: int, phase: Phase) -> tuple[float, ...]:
    """The features of phase at (b, s); a decode s = 0 is an empty cache."""
    return tuple(map(float, _terms(cfg, b, s, phase)))


def _weighted_sum(values, features):
    # An explicit left-to-right add: sum() compensates float sums on Python
    # >= 3.12 but not array sums, which would split predict_at from
    # _step_time's array prices.
    total = 0.0
    for c, f in zip(values, features):
        total = total + c * f
    return total


def predict_at(coeffs: RegressionCoefficients, cfg: ModelConfig, b: int, s: int) -> float:
    """Predicted milliseconds at (b, s)."""
    # float * int rounds the int as float() does, so summing the exact terms
    # gives the bits of _weighted_sum(values, features_for(...)).
    return _weighted_sum(coeffs.values, _terms(cfg, b, s, coeffs.phase))


def _step_time(coeffs: RegressionCoefficients, cfg: ModelConfig):
    """predict_at for one (coeffs, cfg), built once: a function of (b, s)
    that runs no input check. b is an int >= 1. A prefill s is an int >= 1;
    each (b, s) is priced once per model. A decode s is an int >= 0, a
    float64 array of such integers (giving an array) or a range of them
    (giving an iterator of prices, each computed as it is read). Counts must
    lie in the range _require_exact accepted for cfg."""
    values = coeffs.values
    if coeffs.phase is Phase.PREFILL:
        factors = _prefill_factors(cfg)

        @cache
        def prefill(b: int, s: int) -> float:
            # float * int rounds the int as float() does.
            return _weighted_sum(values, _prefill_terms(factors, b, s))
        return prefill
    hl, nl = _decode_factors(cfg)
    phi, psi, omega, nu = values

    def decode(b: int, s):
        bhl, bnl = float(b * hl), float(b * nl)

        def price(x):
            # _weighted_sum written out, without its loop per step: the same
            # operations in the same order. An int x rounds in x * bhl as
            # float() rounds it.
            f0, f1, f2, f3 = _decode_terms(x, bhl, bnl)
            return 0.0 + phi * f0 + psi * f1 + omega * f2 + nu * f3
        return map(price, s) if isinstance(s, range) else price(s)
    return decode


def _require_exact(cfg: ModelConfig, b_max: int, s_max: int) -> None:
    """Fail unless _step_time's decode model is exact for every b <= b_max
    and s <= s_max: s, b*h*l and b*n*l must be integers float64 holds. IEEE
    then rounds s * float(b*h*l) like float() rounds the exact integer, so
    every price is bit-identical to predict_at's."""
    if s_max > _FLOAT64_EXACT:
        raise OverflowError(f"context length s can reach {s_max}, above 2**53, "
                            "the largest the step-time model prices exactly")
    top = b_max * max(cfg.hidden_size, cfg.num_heads) * cfg.num_layers
    if top > _FLOAT64_EXACT:
        raise OverflowError(f"b*max(h, n)*l can reach {top}, above 2**53, "
                            "the largest the step-time model prices exactly")


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
                samples.append(TimingSample(Phase(phase), _parse_int("b", b),
                                            _parse_int("s", s),
                                            _parse_number("time_ms", time_ms)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    return samples


def coefficients_to_dict(coeffs: RegressionCoefficients) -> dict:
    return {"phase": coeffs.phase.value, **coeffs.named()}


def coefficients_from_dict(data: dict) -> RegressionCoefficients:
    """Coefficients from a JSON object: "phase" and that phase's names only."""
    _require_keys(data, "coefficients", ("phase",), PREFILL_COEFF_NAMES + DECODE_COEFF_NAMES)
    phase = Phase(data["phase"])
    names = coeff_names(phase)
    _require_keys(data, f"{phase.value} coefficient", ("phase", *names))
    return RegressionCoefficients(phase, tuple(data[n] for n in names))


def load_coefficients(path: str | Path) -> RegressionCoefficients:
    return _load_json(path, coefficients_from_dict, (ValueError, OverflowError))


def save_coefficients(coeffs: RegressionCoefficients, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coefficients_to_dict(coeffs), fh, indent=2)
        fh.write("\n")


__all__ = [
    "TimingSample", "RegressionCoefficients", "FitResult",
    "UnderdeterminedSystemError", "coeff_names", "features_for",
    "predict_at", "fit", "fit_design",
    "load_timing_samples", "load_coefficients", "save_coefficients",
]
