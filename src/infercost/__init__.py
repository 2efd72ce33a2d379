"""Analytical cost modeling and serving simulation for transformer inference.

The package answers three questions about a decoder-only transformer running
on a given accelerator, without touching a GPU:

* What does each operation cost? `costmodel` counts FLOPs and memory traffic
  per operation for the prefill and decode phases; `hardware` classifies each
  against a roofline (compute- vs memory-bound).
* How long will a step take? `estimator` fits a closed-form runtime model to
  measured step times and evaluates it at new batch/sequence points.
* How will a serving system behave? `kvsim` models KV-cache layouts and
  capacity; `servesim` simulates static, continuous, and split-fuse
  scheduling over request traces from `workload`.

The `infercost` console script exposes the same capabilities as subcommands.
"""

from .arch import (
    ConfigError,
    DimensionMismatchError,
    ModelConfig,
    NonPositiveFieldError,
    Phase,
    load_model_config,
    resolve_model,
    validate_config,
)
from .costmodel import (
    DECODE_OP_ORDER,
    LINEAR_PROJECTIONS,
    PREFILL_OP_ORDER,
    CacheLayout,
    ModelCost,
    OpCost,
    OpKind,
    Paged,
    TokenGranular,
    Vanilla,
    aggregate,
    decode_op_costs,
    kv_cache_bytes,
    prefill_op_costs,
)
from .estimator import (
    FitResult,
    RegressionCoefficients,
    TimingSample,
    UnderdeterminedSystemError,
    coeff_names,
    decode_features,
    features_for,
    fit,
    fit_design,
    load_coefficients,
    load_timing_samples,
    predict_at,
    prefill_features,
    save_coefficients,
)
from .hardware import (
    BoundKind,
    DegenerateCostError,
    HardwareError,
    HardwareSpec,
    attainable_flops,
    classify,
    load_hardware,
    lower_bound_time,
    resolve_hardware,
    ridge_point,
)
from .kvsim import (
    CacheStats,
    ReservedOverflowError,
    allocated_tokens,
    cache_step_bytes,
    footprint,
    max_concurrency,
)
from .servesim import (
    CapacityError,
    CoefficientPair,
    Continuous,
    KvCapacity,
    MissingCoefficientError,
    Request,
    RequestRecord,
    RunResult,
    SchedulingPolicy,
    ServingMetrics,
    SplitFuse,
    Static,
    StepRecord,
    StepTable,
    compute_metrics,
    describe_policy,
    metrics_csv_text,
    run,
    sweep_rates,
    trim_warmup,
)
from .workload import Scenario, generate, load_trace, save_trace

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arch
    "ModelConfig", "Phase", "ConfigError",
    "DimensionMismatchError", "NonPositiveFieldError", "validate_config",
    "resolve_model", "load_model_config",
    # costmodel
    "OpKind", "OpCost", "ModelCost", "PREFILL_OP_ORDER", "DECODE_OP_ORDER",
    "LINEAR_PROJECTIONS", "CacheLayout", "Vanilla", "Paged", "TokenGranular",
    "prefill_op_costs", "decode_op_costs", "aggregate", "kv_cache_bytes",
    # hardware
    "HardwareSpec", "BoundKind", "HardwareError", "DegenerateCostError",
    "ridge_point", "classify", "attainable_flops", "lower_bound_time",
    "resolve_hardware", "load_hardware",
    # estimator
    "TimingSample", "RegressionCoefficients", "FitResult", "fit", "fit_design",
    "predict_at", "prefill_features", "decode_features",
    "features_for", "coeff_names", "UnderdeterminedSystemError",
    "load_timing_samples", "load_coefficients", "save_coefficients",
    # kvsim
    "CacheStats", "ReservedOverflowError", "allocated_tokens",
    "cache_step_bytes", "footprint", "max_concurrency",
    # servesim
    "Request", "Static", "Continuous", "SplitFuse", "SchedulingPolicy",
    "CoefficientPair", "KvCapacity", "RequestRecord", "StepRecord", "StepTable",
    "ServingMetrics", "RunResult", "CapacityError", "MissingCoefficientError",
    "run", "trim_warmup", "sweep_rates", "compute_metrics",
    "describe_policy", "metrics_csv_text",
    # workload
    "Scenario", "generate", "save_trace", "load_trace",
]
