"""Model architecture description shared by all modules, and the rules every
module applies to input values.

The rules: a count is an int (never a bool), a real is a finite int or float
(never a bool), and a JSON object holds its required keys and no other.
_require_positive, _require_nonnegative, _require_real and _require_keys
state them; OpCost, ModelCost, CacheStats and Request write a rule inline
where they are built per row or per request, and say so. A constructor checks
its own fields, so a loader checks a file's keys and passes the values it read
straight to the constructor; an error from a JSON file names the file.

Formula notation used in docstrings throughout the package: h = hidden size,
h' = intermediate (FFN) size, n = number of attention heads, d = head
dimension, l = decoder layers, b = batch size, s = sequence length (prefill)
or cached past tokens (decode). In code the dimensions are ModelConfig's
field names.
"""

from __future__ import annotations

import json
import math
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
    what-if analyses. vocab_size, which only costmodel.weight_bytes reads, may
    be None; it comes last, so a config built positionally keeps its meaning.
    """

    hidden_size: int
    intermediate_size: int
    num_heads: int
    head_dim: int
    num_layers: int
    bytes_per_scalar: int = 2
    vocab_size: int | None = None

    def __post_init__(self) -> None:
        _check_config(self)


# The fields in order, which are also the model JSON keys: five required,
# then the optional ones.
_MODEL_JSON_KEYS = ("hidden_size", "intermediate_size", "num_heads", "head_dim",
                    "num_layers", "bytes_per_scalar", "vocab_size")


def _check_config(cfg: ModelConfig) -> None:
    for name in _MODEL_JSON_KEYS:
        value = getattr(cfg, name)
        if value is None and name == "vocab_size":
            continue
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


def _require_real(what: str, value) -> None:
    """Raise ValueError unless value is a finite int or float (numpy float64
    is a float); a bool, a Fraction or a string is not. An int too large for
    a float raises OverflowError."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and math.isfinite(value):
            return
    except OverflowError:
        raise OverflowError(f"{what} is an integer too large for a float") from None
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _require_keys(data, what: str, required, optional=(), error=ValueError) -> dict:
    """Return data if it is a JSON object (a dict) holding every required key
    and no key outside required and optional; raise `error` otherwise."""
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data).difference(required, optional))
    if unknown:
        raise error(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise error(f"missing {what} keys: {', '.join(missing)}")
    return data


def _load_json(path, from_dict, errors, parse_float=None):
    """from_dict(the JSON in path); broken JSON, as errors[0], and errors in errors name path."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return from_dict(json.loads(text, parse_float=parse_float))
    except json.JSONDecodeError as exc:
        raise errors[0](f"{path}: invalid JSON: {exc}") from exc
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_int(what: str, text: str) -> int:
    """An integer written in ASCII decimal digits, after an optional "-"."""
    # int() also takes "1_6", " 64 ", "+16" and non-ASCII digits.
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{what} must be a decimal integer, got {text!r}")
    return int(text)


def _parse_number(what: str, text: str) -> float:
    """A number as float() reads it, minus "_" and blanks around it; inf and nan pass."""
    if "_" in text or text != text.strip():
        raise ValueError(f"{what} must be a plain number, got {text!r}")
    return float(text)


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
                             num_heads=32, head_dim=128, num_layers=32, vocab_size=32000),
    "llama2-13b": ModelConfig(hidden_size=5120, intermediate_size=13824,
                              num_heads=40, head_dim=128, num_layers=40, vocab_size=32000),
}


def model_config_from_dict(data: dict) -> ModelConfig:
    """Build a validated ModelConfig from a JSON object; unknown keys rejected."""
    return ModelConfig(**_require_keys(data, "model config", _MODEL_JSON_KEYS[:5],
                                       _MODEL_JSON_KEYS[5:], ConfigError))


def load_model_config(path: str | Path) -> ModelConfig:
    return _load_json(path, model_config_from_dict, (ConfigError,))


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
