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

Each module's `__all__` is the package's export list for that module; this
file star-imports the seven modules and only joins their lists.
"""

from . import arch, costmodel, estimator, hardware, kvsim, servesim, workload
from .arch import *
from .costmodel import *
from .estimator import *
from .hardware import *
from .kvsim import *
from .servesim import *
from .workload import *

__version__ = "0.1.0"

__all__ = ["__version__", *arch.__all__, *costmodel.__all__, *estimator.__all__,
           *hardware.__all__, *kvsim.__all__, *servesim.__all__, *workload.__all__]
