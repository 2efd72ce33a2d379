"""Model architecture description shared by all modules.

Formula notation used in docstrings throughout the package: h = hidden size,
h' = intermediate (FFN) size, n = number of attention heads, d = head
dimension, l = decoder layers, b = batch size, s = sequence length (prefill)
or cached past tokens (decode). In code the dimensions are ModelConfig's
field names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class ConfigError(ValueError):
    """A model config violates its invariants."""


class DimensionMismatchError(ConfigError):
    """hidden_size != num_heads * head_dim (or a vector length mismatch)."""


class NonPositiveFieldError(ConfigError):
    """A dimension that must be strictly positive is zero or negative."""


class Phase(Enum):
    PREFILL = "prefill"
    DECODE = "decode"


@dataclass(frozen=True)
class ModelConfig:
    """Decoder-stack dimensions of a LLaMA-style model plus scalar width.

    bytes_per_scalar defaults to 2 (bf16); set 4 for fp32 or 1 for fp8
    what-if analyses.
    """

    hidden_size: int
    intermediate_size: int
    num_heads: int
    head_dim: int
    num_layers: int
    bytes_per_scalar: int = 2

    def __post_init__(self) -> None:
        _check_config(self)


def _check_config(cfg: ModelConfig) -> None:
    for name in ("hidden_size", "intermediate_size", "num_heads", "head_dim",
                 "num_layers", "bytes_per_scalar"):
        value = getattr(cfg, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value <= 0:
            raise NonPositiveFieldError(f"{name} must be strictly positive, got {value}")
    if cfg.hidden_size != cfg.num_heads * cfg.head_dim:
        raise DimensionMismatchError(
            f"hidden_size ({cfg.hidden_size}) != num_heads * head_dim "
            f"({cfg.num_heads} * {cfg.head_dim} = {cfg.num_heads * cfg.head_dim})")


def _require_positive(what: str, *values) -> None:
    """Raise ValueError unless every value is an integer >= 1; a bool is not
    a count. `what` names the values in the message."""
    for value in values:
        if type(value) is not int:  # bool is an int subclass
            raise ValueError(f"{what} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{what} must be >= 1, got {value}")


def _require_nonnegative(what: str, *values) -> None:
    """As _require_positive, for lengths, which may be 0."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{what} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{what} must be >= 0, got {value}")


def validate_config(cfg: ModelConfig) -> ModelConfig:
    """Return cfg unchanged iff all invariants hold; raise ConfigError otherwise.

    Idempotent: a valid config validates to an equal config.
    """
    _check_config(cfg)
    return cfg


# Publicly documented LLaMA-2 architectures; the reference measurements in
# paper-data/ were taken on the 7B variant.
MODEL_PRESETS: dict[str, ModelConfig] = {
    "llama2-7b": ModelConfig(hidden_size=4096, intermediate_size=11008,
                             num_heads=32, head_dim=128, num_layers=32),
    "llama2-13b": ModelConfig(hidden_size=5120, intermediate_size=13824,
                              num_heads=40, head_dim=128, num_layers=40),
}


_MODEL_JSON_KEYS = ("hidden_size", "intermediate_size", "num_heads", "head_dim",
                    "num_layers", "bytes_per_scalar")


def model_config_from_dict(data: dict) -> ModelConfig:
    """Build a validated ModelConfig from a JSON object; unknown keys rejected."""
    if not isinstance(data, dict):
        raise ConfigError(f"model config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_MODEL_JSON_KEYS))
    if unknown:
        raise ConfigError(f"unknown model config keys: {', '.join(unknown)}")
    missing = [k for k in _MODEL_JSON_KEYS[:5] if k not in data]
    if missing:
        raise ConfigError(f"missing model config keys: {', '.join(missing)}")
    return ModelConfig(**data)


def load_model_config(path: str | Path) -> ModelConfig:
    with open(path, encoding="utf-8") as fh:
        return model_config_from_dict(json.load(fh))


def resolve_model(name_or_path: str | Path) -> ModelConfig:
    """Accept a preset name or a JSON file path (the CLI's --model semantics)."""
    name = str(name_or_path)
    if name in MODEL_PRESETS:
        return MODEL_PRESETS[name]
    if Path(name).exists():
        return load_model_config(name)
    raise ConfigError(f"--model {name!r} is neither a preset "
                      f"({', '.join(sorted(MODEL_PRESETS))}) nor an existing file")


__all__ = [
    "ConfigError", "DimensionMismatchError", "NonPositiveFieldError",
    "Phase", "ModelConfig", "load_model_config", "resolve_model", "validate_config",
]
