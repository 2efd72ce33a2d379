"""Shared fixtures: locations of the bundled reference measurements, and the
paper's published coefficients."""

import json
from pathlib import Path

import pytest

from infercost import CoefficientPair, Phase, RegressionCoefficients, coeff_names

PKG_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def paper_data() -> Path:
    path = PKG_ROOT / "paper-data"
    assert path.is_dir(), f"reference-measurement directory missing: {path}"
    return path


@pytest.fixture(scope="session")
def table10(paper_data):
    """table10(backend, scale=1.0): the paper's Table 10 coefficients for a
    backend ("vllm" or "transformers"), each times scale, as a
    CoefficientPair. A scale of 1.0 leaves every value as published."""
    with open(paper_data / "table10_regression_coefficients.json", encoding="utf-8") as fh:
        table = json.load(fh)

    def coefficients(backend: str, scale: float = 1.0) -> CoefficientPair:
        return CoefficientPair(*(
            RegressionCoefficients(phase, tuple(scale * table[backend][phase.value][name]
                                                for name in coeff_names(phase)))
            for phase in (Phase.PREFILL, Phase.DECODE)))

    return coefficients
