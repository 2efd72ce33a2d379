"""Feature construction, least-squares fitting, prediction, and persistence."""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infercost.arch import DimensionMismatchError, ModelConfig, Phase
from infercost.estimator import (
    DECODE_COEFF_NAMES,
    PREFILL_COEFF_NAMES,
    FitResult,
    RegressionCoefficients,
    TimingSample,
    UnderdeterminedSystemError,
    _require_exact,
    _step_time,
    _weighted_sum,
    coeff_names,
    coefficients_from_dict,
    coefficients_to_dict,
    features_for,
    fit,
    fit_design,
    load_coefficients,
    load_timing_samples,
    predict_at,
    save_coefficients,
)

LLAMA7B = ModelConfig(4096, 11008, 32, 128, 32)

# Recovering all coefficients of the runtime model needs architectures whose
# ffn/hidden ratios are pairwise distinct (else the two weight-matmul columns
# are parallel) and whose head dims differ (else the decode attention column
# is parallel to the projection column).
RECOVERY_CONFIGS = [
    ModelConfig(1024, 3072, 16, 64, 4),
    ModelConfig(2048, 5504, 16, 128, 8),
    ModelConfig(4096, 8192, 128, 32, 2),
    ModelConfig(512, 2560, 2, 256, 6),
]
RECOVERY_POINTS = [(b, s) for b in (1, 3, 8) for s in (17, 256, 1200)]


class TestFeatures:
    def test_prefill_features_exact(self):
        cfg = LLAMA7B
        b, s = 8, 512
        h, hf, n, l = 4096, 11008, 32, 32
        assert features_for(cfg, b, s, Phase.PREFILL) == (
            float(b * s * h * h * l), float(b * s * h * hf * l),
            float(b * s * s * n * l), float(b * s * h * l),
            float(b * s * hf * l), 1.0,
        )

    def test_decode_features_exact(self):
        cfg = LLAMA7B
        b, s = 8, 512
        h, n, l = 4096, 32, 32
        assert features_for(cfg, b, s, Phase.DECODE) == (
            float(b * s * h * l), float(b * s * n * l), float(b * h * l), 1.0,
        )

    def test_coeff_names(self):
        assert coeff_names(Phase.PREFILL) == PREFILL_COEFF_NAMES
        assert coeff_names(Phase.DECODE) == DECODE_COEFF_NAMES
        assert len(PREFILL_COEFF_NAMES) == 6
        assert len(DECODE_COEFF_NAMES) == 4


class TestPredict:
    def test_wrong_length_coefficients(self):
        with pytest.raises(DimensionMismatchError, match="6 values"):
            RegressionCoefficients(Phase.PREFILL, (1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, "1.5", None,
                                     Fraction(1, 3)])
    def test_coefficients_must_be_finite_numbers(self, bad):
        with pytest.raises(ValueError, match="decode coefficient omega"):
            RegressionCoefficients(Phase.DECODE, (1.0, 2.0, bad, 4.0))

    def test_predict_at_equals_manual_dot(self):
        coeffs = RegressionCoefficients(Phase.PREFILL,
                                        (3.75e-11, 3.69e-11, 4.2e-8, 1.7e-7, 6.35e-9, 32.8))
        feats = features_for(LLAMA7B, 8, 512, Phase.PREFILL)
        assert predict_at(coeffs, LLAMA7B, 8, 512) == pytest.approx(
            sum(c * f for c, f in zip(coeffs.values, feats)), rel=1e-15)

    def test_intercept_only(self):
        coeffs = RegressionCoefficients(Phase.PREFILL, (0, 0, 0, 0, 0, 41.5))
        assert predict_at(coeffs, LLAMA7B, 16, 2048) == 41.5

    @pytest.mark.parametrize("phase", list(Phase))
    @pytest.mark.parametrize("b, s", [(0, 512), (-4, 512), (2.5, 10), (True, 3), (None, 3),
                                      (8, -1), (8, 2.0), (8, True),
                                      (8, np.array([1, 2], dtype=np.int64))])
    def test_counts_without_meaning_are_rejected(self, phase, b, s):
        coeffs = RegressionCoefficients(phase, (1.0,) * len(coeff_names(phase)))
        with pytest.raises(ValueError, match=r"^[bs]"):
            predict_at(coeffs, LLAMA7B, b, s)

    def test_prefill_needs_a_prompt_token(self):
        with pytest.raises(ValueError, match="b and s must be >= 1, got 0"):
            features_for(LLAMA7B, 8, 0, Phase.PREFILL)

    def test_decode_over_an_empty_cache_is_priced(self):
        coeffs = RegressionCoefficients(Phase.DECODE, (2.23e-9, 1.75e-11, 1.63e-8, 11.2))
        assert predict_at(coeffs, LLAMA7B, 1, 0) == 1.63e-8 * 4096 * 32 + 11.2


FINITE = st.floats(-1e3, 1e3)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(values=st.tuples(*[FINITE] * 6),
       cfg=st.sampled_from([LLAMA7B, ModelConfig(4, 8, 2, 2, 1),
                            ModelConfig(5120, 13824, 40, 128, 40)]),
       b=st.integers(1, 256),
       s=st.one_of(st.integers(0, 200_000), st.integers(2**40, 2**53 - 64)),
       n=st.integers(1, 40))
# predict_at's sum starts at 0.0, so an all-signed-zero decode sum is +0.0.
@example(values=(-1.0, -1.0, -0.0, -0.0, 0.0, 0.0), cfg=LLAMA7B, b=1, s=0, n=2)
def test_step_time_equals_predict_at_bit_for_bit(values, cfg, b, s, n):
    # The per-run model prices decode s in float64: an int, an array span and
    # a range span alike; near 2**53 the products round, and must round like
    # predict_at's. A prefill point is priced once and then looked up.
    _require_exact(cfg, b, s + n)
    for phase, exponents in ((Phase.PREFILL, (11, 11, 8, 7, 9, 0)),
                             (Phase.DECODE, (9, 7, 6, 0))):
        scaled = tuple(v * 10.0 ** -e for v, e in zip(values, exponents))
        for c in (RegressionCoefficients(phase, values[:len(exponents)]),
                  RegressionCoefficients(phase, scaled)):
            model = _step_time(c, cfg)
            point = max(s, 1) if phase is Phase.PREFILL else s
            got = model(b, point)
            assert type(got) is float
            assert _bits([got]) == _bits([predict_at(c, cfg, b, point)])
            if phase is Phase.PREFILL:
                assert model(b, point) is got
                continue
            want = _bits(predict_at(c, cfg, b, x) for x in range(s, s + n))
            assert _bits(model(b, np.arange(s, s + n, dtype=np.float64))) == want
            prices = list(model(b, range(s, s + n)))
            assert all(type(ms) is float for ms in prices)
            assert _bits(prices) == want


def _outcome(call) -> str:
    try:
        return _bits([call()])[0]
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


@settings(max_examples=200, deadline=None)
@given(values=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 6),
       cfg=st.sampled_from([LLAMA7B, ModelConfig(4, 8, 2, 2, 1)]),
       b=st.integers(1, 256),
       s=st.one_of(st.integers(0, 2**53), st.integers(2**1024, 2**1100)))
def test_predict_at_equals_the_sum_over_features_bit_for_bit(values, cfg, b, s):
    # predict_at sums the exact integer terms; float * int rounds each as
    # features_for's float() does, and an int too large for a float raises
    # OverflowError in both, as prefill's s = 0 raises ValueError in both.
    for phase in Phase:
        coeffs = RegressionCoefficients(phase, values[:len(coeff_names(phase))])
        want = _outcome(lambda: _weighted_sum(coeffs.values, features_for(cfg, b, s, phase)))
        assert _outcome(lambda: predict_at(coeffs, cfg, b, s)) == want


def _synthetic_design(phase, true_values):
    coeffs = RegressionCoefficients(phase, true_values)
    X, y = [], []
    for cfg in RECOVERY_CONFIGS:
        for b, s in RECOVERY_POINTS:
            X.append(features_for(cfg, b, s, phase))
            y.append(predict_at(coeffs, cfg, b, s))
    return np.array(X), np.array(y)


class TestFitRecovery:
    def test_prefill_roundtrip_recovers_planted_coefficients(self):
        true = (3.75e-11, 3.69e-11, 4.2e-8, 1.7e-7, 6.35e-9, 32.8)
        X, y = _synthetic_design(Phase.PREFILL, true)
        solution, rank, warned = fit_design(X, y)
        assert rank == 6 and not warned
        rel = np.abs(solution - np.array(true)) / np.abs(true)
        assert rel.max() < 1e-6

    def test_decode_roundtrip_recovers_planted_coefficients(self):
        true = (2.31e-8, 2.65e-11, 3.32e-12, 18.5)
        X, y = _synthetic_design(Phase.DECODE, true)
        solution, rank, warned = fit_design(X, y)
        assert rank == 4 and not warned
        rel = np.abs(solution - np.array(true)) / np.abs(true)
        assert rel.max() < 1e-6

    def test_single_model_prefill_design_is_rank_three(self):
        # With one architecture, the four b*s-proportional columns collapse
        # into one direction: {b*s, b*s^2, 1} is all the data can see.
        samples = [TimingSample(Phase.PREFILL, b, s, 1.0 + b * s)
                   for b in (1, 2, 4, 8, 16) for s in (32, 128, 512, 2048)]
        result = fit(samples, LLAMA7B, Phase.PREFILL)
        assert result.rank == 3
        assert result.condition_warning is True

    def test_single_model_decode_design_is_rank_three(self):
        # b*s*h*l and b*s*n*l are parallel for fixed h/n.
        samples = [TimingSample(Phase.DECODE, b, s, 1.0 + b * s)
                   for b in (1, 2, 4, 8, 16) for s in (32, 128, 512, 2048)]
        result = fit(samples, LLAMA7B, Phase.DECODE)
        assert result.rank == 3
        assert result.condition_warning is True

    def test_deficient_fit_still_predicts_training_points(self):
        # Minimum-norm solution reproduces the data it saw even when the
        # individual coefficients are not identified.
        true = RegressionCoefficients(Phase.DECODE, (2.31e-8, 2.65e-11, 3.32e-12, 18.5))
        samples = [TimingSample(Phase.DECODE, b, s, predict_at(true, LLAMA7B, b, s))
                   for b in (1, 2, 4, 8, 16) for s in (32, 128, 512, 1024, 2048)]
        result = fit(samples, LLAMA7B, Phase.DECODE)
        assert result.rms_relative_error < 1e-9
        for sample in samples:
            got = predict_at(result.coefficients, LLAMA7B, sample.b, sample.s)
            assert got == pytest.approx(sample.measured_ms, rel=1e-9)


class TestFitErrors:
    def test_fewer_samples_than_coefficients(self):
        samples = [TimingSample(Phase.DECODE, 1, 1, 1.0),
                   TimingSample(Phase.DECODE, 2, 2, 2.0)]
        with pytest.raises(UnderdeterminedSystemError, match="2 samples"):
            fit(samples, LLAMA7B, Phase.DECODE)

    def test_no_samples(self):
        with pytest.raises(UnderdeterminedSystemError, match="no samples"):
            fit([], LLAMA7B, Phase.DECODE)

    def test_mixed_phases_rejected(self):
        samples = [TimingSample(Phase.DECODE, b, 8, float(b)) for b in range(1, 5)]
        samples.append(TimingSample(Phase.PREFILL, 1, 8, 1.0))
        with pytest.raises(ValueError, match="1 samples have phase != decode"):
            fit(samples, LLAMA7B, Phase.DECODE)

    def test_design_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fit_design(np.ones((3, 2)), np.ones(4))

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            TimingSample(Phase.DECODE, 0, 8, 1.0)
        with pytest.raises(ValueError, match="measured_ms"):
            TimingSample(Phase.DECODE, 1, 8, 0.0)

    @pytest.mark.parametrize("ms", [math.inf, math.nan, -math.inf, True, Fraction(1, 3),
                                    Decimal("1.5"), "1.5"])
    def test_sample_time_must_be_finite(self, ms):
        # A bool is not a time, and a Fraction or a Decimal is not a float64.
        with pytest.raises(ValueError, match="measured_ms must be a finite number"):
            TimingSample(Phase.DECODE, 1, 8, ms)

    @pytest.mark.parametrize("ms", [2, 2.5, np.float64(2.5)], ids=repr)
    def test_sample_time_may_be_an_int_or_a_float(self, ms):
        assert TimingSample(Phase.DECODE, 1, 8, ms).measured_ms == ms


class TestReferenceMeasurementFits:
    """Fits against the bundled measurement CSVs (single-model designs)."""

    def test_dense_backend_prefill_fit_is_tight(self, paper_data):
        samples = load_timing_samples(paper_data / "timing_samples_transformers.csv")
        prefill = [s for s in samples if s.phase is Phase.PREFILL]
        result = fit(prefill, LLAMA7B, Phase.PREFILL)
        assert result.rms_relative_error < 0.10
        got = predict_at(result.coefficients, LLAMA7B, 8, 512)
        assert got == pytest.approx(526.19, rel=0.10)

    def test_dense_backend_decode_fit_is_tight(self, paper_data):
        samples = load_timing_samples(paper_data / "timing_samples_transformers.csv")
        decode = [s for s in samples if s.phase is Phase.DECODE]
        result = fit(decode, LLAMA7B, Phase.DECODE)
        assert result.rms_relative_error < 0.10

    def test_paged_backend_decode_fit_is_tight(self, paper_data):
        samples = load_timing_samples(paper_data / "timing_samples_vllm.csv")
        decode = [s for s in samples if s.phase is Phase.DECODE]
        result = fit(decode, LLAMA7B, Phase.DECODE)
        assert result.rms_relative_error < 0.10

    def test_paged_backend_prefill_fit_characterization(self, paper_data):
        # The paged backend's prefill times bend away from the linear model at
        # short sequences; the best-attainable OLS rms on these samples is
        # ~17%, so this fit is flagged, rank-deficient, and loose by design.
        samples = load_timing_samples(paper_data / "timing_samples_vllm.csv")
        prefill = [s for s in samples if s.phase is Phase.PREFILL]
        result = fit(prefill, LLAMA7B, Phase.PREFILL)
        assert result.condition_warning is True
        assert result.rank == 3
        assert 0.10 < result.rms_relative_error < 0.20


class TestPersistence:
    def test_timing_csv_round_trip(self, tmp_path):
        samples = [TimingSample(Phase.PREFILL, 8, 512, 526.19),
                   TimingSample(Phase.DECODE, 8, 512, 30.55)]
        path = tmp_path / "t.csv"
        path.write_text("phase,b,s,time_ms\nprefill,8,512,526.19\ndecode,8,512,30.55\n")
        assert load_timing_samples(path) == samples

    def test_timing_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase,batch,s,time_ms\nprefill,1,1,1.0\n")
        with pytest.raises(ValueError, match="header must be phase,b,s,time_ms"):
            load_timing_samples(path)

    def test_timing_csv_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase,b,s,time_ms\nprefill,1,1,1.0\ndecode,oops,1,1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_timing_samples(path)

    @pytest.mark.parametrize("time_ms", ["inf", "nan", "-inf", "Infinity"])
    def test_timing_csv_rejects_non_finite_times(self, tmp_path, time_ms):
        path = tmp_path / "bad.csv"
        path.write_text(f"phase,b,s,time_ms\nprefill,1,1,1.0\nprefill,2,1,{time_ms}\n")
        with pytest.raises(ValueError, match="line 3: measured_ms must be a finite number"):
            load_timing_samples(path)

    @pytest.mark.parametrize("row, message", [
        ("decode,1_6, 64 ,1_0.5", "b must be a decimal integer, got '1_6'"),
        ("decode,16, 64,10.5", "s must be a decimal integer, got ' 64'"),
        ("decode,+16,64,10.5", "b must be a decimal integer"),
        ("decode,16,64,1_0.5", "time_ms must be a plain number, got '1_0.5'"),
        ("decode,16,64,10.5 ", "time_ms must be a plain number"),
        ("decode,16,64", "expected 4 fields, got 3"),
        ("decode,16,64,10.5,1", "expected 4 fields, got 5"),
    ])
    def test_timing_csv_parses_strictly(self, tmp_path, row, message):
        # int() and float() accept digit-group underscores and surrounding
        # spaces; a short row used to escape as a TypeError with no line.
        path = tmp_path / "bad.csv"
        path.write_text(f"phase,b,s,time_ms\nprefill,1,1,1.0\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv: line 3: {re.escape(message)}"):
            load_timing_samples(path)

    def test_timing_csv_full_float_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"phase,b,s,time_ms\ndecode,3,7,{0.1 + 0.2!r}\n")
        assert load_timing_samples(path)[0].measured_ms == 0.1 + 0.2

    def test_coefficients_json_round_trip(self, tmp_path):
        coeffs = RegressionCoefficients(Phase.PREFILL,
                                        (3.75e-11, 3.69e-11, 4.2e-8, 1.7e-7, 6.35e-9, -1.64))
        path = tmp_path / "c.json"
        save_coefficients(coeffs, path)
        assert load_coefficients(path) == coeffs

    def test_coefficients_dict_shape(self):
        coeffs = RegressionCoefficients(Phase.DECODE, (1.0, 2.0, 3.0, 4.0))
        assert coefficients_to_dict(coeffs) == {
            "phase": "decode", "phi": 1.0, "psi": 2.0, "omega": 3.0, "nu": 4.0,
        }

    def test_coefficients_dict_missing_names(self):
        with pytest.raises(ValueError, match="missing decode coefficient keys: nu"):
            coefficients_from_dict({"phase": "decode", "phi": 1, "psi": 2, "omega": 3})

    @pytest.mark.parametrize("bad", [True, False, "4.0", None, [4.0]])
    def test_coefficients_dict_values_must_be_json_numbers(self, bad):
        with pytest.raises(ValueError, match="decode coefficient nu"):
            coefficients_from_dict(
                {"phase": "decode", "phi": 1, "psi": 2.0, "omega": 3, "nu": bad})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_coefficients_json_rejects_non_finite_values(self, tmp_path, token):
        path = tmp_path / "c.json"
        path.write_text('{"phase": "decode", "phi": %s, "psi": 0, "omega": 0, "nu": 1}'
                        % token)
        with pytest.raises(ValueError, match="decode coefficient phi"):
            load_coefficients(path)

    @pytest.mark.parametrize("extra, message", [
        ({"bogus": 1}, "unknown coefficients keys: bogus"),
        ({"alpha": 1}, "unknown decode coefficient keys: alpha"),
        ({"alpha": 1, "bogus": 1}, "unknown coefficients keys: bogus"),
    ])
    def test_coefficients_json_rejects_unknown_keys(self, tmp_path, extra, message):
        # A prefill name in a decode file, or a misspelt one, is not ignored.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"phase": "decode", "phi": 1, "psi": 0, "omega": 0,
                                    "nu": 1, **extra}))
        with pytest.raises(ValueError, match=message):
            load_coefficients(path)

    @pytest.mark.parametrize("fields, error, message", [
        ({"nu": 10**400}, OverflowError,
         "decode coefficient nu is an integer too large for a float"),
        ({"bogus": 1}, ValueError, "unknown coefficients keys: bogus"),
        ({"phi": "1"}, ValueError, "decode coefficient phi must be a finite number"),
    ])
    def test_coefficients_json_errors_name_the_file(self, tmp_path, fields, error, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"phase": "decode", "phi": 1, "psi": 0, "omega": 0,
                                    "nu": 1, **fields}))
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            load_coefficients(path)

    @pytest.mark.parametrize("data", [[], "decode", None], ids=repr)
    def test_coefficients_must_be_a_json_object(self, data):
        with pytest.raises(ValueError, match="coefficients must be a JSON object"):
            coefficients_from_dict(data)

    def test_coefficients_dict_missing_phase(self):
        with pytest.raises(ValueError, match="missing coefficients keys: phase"):
            coefficients_from_dict({"phi": 1})


def test_fit_result_is_frozen():
    result = FitResult(RegressionCoefficients(Phase.DECODE, (1, 2, 3, 4)), 0.0, False, 4)
    with pytest.raises(Exception):
        result.rank = 2
