"""Model-config validation, presets, JSON loading, and workload points."""

import dataclasses
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infercost.arch import (
    ConfigError,
    DimensionMismatchError,
    MODEL_PRESETS,
    ModelConfig,
    NonPositiveFieldError,
    Phase,
    load_model_config,
    model_config_from_dict,
    resolve_model,
    validate_config,
)


def make(h=4096, h_ffn=11008, n=32, d=128, l=32, w=2):
    return ModelConfig(hidden_size=h, intermediate_size=h_ffn, num_heads=n,
                       head_dim=d, num_layers=l, bytes_per_scalar=w)


def dims(cfg):
    return (cfg.hidden_size, cfg.intermediate_size, cfg.num_heads, cfg.head_dim,
            cfg.num_layers)


def write_json(path, cfg):
    path.write_text(json.dumps(dataclasses.asdict(cfg)))


class TestModelConfig:
    def test_hidden_size_must_factor_into_heads(self):
        with pytest.raises(DimensionMismatchError):
            make(h=4096, n=32, d=127)

    @pytest.mark.parametrize("field", [
        "hidden_size", "intermediate_size", "num_heads", "head_dim",
        "num_layers", "bytes_per_scalar", "vocab_size",
    ])
    def test_nonpositive_fields_rejected(self, field):
        kwargs = dict(hidden_size=4, intermediate_size=8, num_heads=2,
                      head_dim=2, num_layers=1, bytes_per_scalar=2)
        kwargs[field] = 0
        # Keep h = n*d consistent so the positivity check is what fires.
        if field in ("hidden_size", "num_heads", "head_dim"):
            with pytest.raises(ConfigError):
                ModelConfig(**kwargs)
        else:
            with pytest.raises(NonPositiveFieldError):
                ModelConfig(**kwargs)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            make(w=True)
        with pytest.raises(ConfigError, match="vocab_size must be an integer"):
            dataclasses.replace(make(), vocab_size=True)

    def test_vocab_size_is_optional_and_last(self):
        # A config built positionally keeps bytes_per_scalar in sixth place.
        cfg = ModelConfig(4096, 11008, 32, 128, 32, 4)
        assert (cfg.bytes_per_scalar, cfg.vocab_size) == (4, None)
        with pytest.raises(ConfigError, match="vocab_size must be an integer"):
            ModelConfig(4096, 11008, 32, 128, 32, 2, 32000.0)

    def test_float_rejected(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            make(h_ffn=11008.0)

    def test_validate_config_is_identity_on_valid(self):
        cfg = make()
        assert validate_config(cfg) is cfg

    def test_frozen(self):
        with pytest.raises(Exception):
            make().hidden_size = 1


class TestPresets:
    def test_llama2_7b_dimensions(self):
        cfg = resolve_model("llama2-7b")
        assert dims(cfg) == (4096, 11008, 32, 128, 32)
        assert cfg.bytes_per_scalar == 2

    def test_llama2_13b_dimensions(self):
        cfg = resolve_model("llama2-13b")
        assert dims(cfg) == (5120, 13824, 40, 128, 40)

    def test_all_presets_validate(self):
        for cfg in MODEL_PRESETS.values():
            assert validate_config(cfg) is cfg


class TestJsonRoundTrip:
    def test_round_trip_preserves_equality(self, tmp_path):
        cfg = make(h=512, h_ffn=1536, n=4, d=128, l=6, w=4)
        path = tmp_path / "model.json"
        write_json(path, cfg)
        assert load_model_config(path) == cfg

    @pytest.mark.parametrize("fields, error, message", [
        ({"vocab": 32000}, ConfigError, "unknown model config keys: vocab"),
        ({"num_heads": 3}, DimensionMismatchError, "hidden_size (4) != num_heads * head_dim"),
        ({"num_layers": 0}, NonPositiveFieldError, "num_layers must be strictly positive"),
    ])
    def test_file_errors_name_the_file(self, tmp_path, fields, error, message):
        # The class is kept, so a caller catching DimensionMismatchError still does.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"hidden_size": 4, "intermediate_size": 8, "num_heads": 2,
                                    "head_dim": 2, "num_layers": 1, **fields}))
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            load_model_config(path)

    def test_vocab_size_loads_into_its_field(self):
        cfg = model_config_from_dict({
            "hidden_size": 4, "intermediate_size": 8, "num_heads": 2,
            "head_dim": 2, "num_layers": 1, "vocab_size": 32000,
        })
        assert cfg == dataclasses.replace(make(h=4, h_ffn=8, n=2, d=2, l=1), vocab_size=32000)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing model config keys"):
            model_config_from_dict({"hidden_size": 4})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            model_config_from_dict([1, 2, 3])

    def test_bytes_per_scalar_optional_in_json(self):
        cfg = model_config_from_dict({
            "hidden_size": 4, "intermediate_size": 8, "num_heads": 2,
            "head_dim": 2, "num_layers": 1,
        })
        assert (cfg.bytes_per_scalar, cfg.vocab_size) == (2, None)


class TestResolveModel:
    def test_preset_name(self):
        assert resolve_model("llama2-7b") == MODEL_PRESETS["llama2-7b"]

    def test_json_path(self, tmp_path):
        cfg = make(h=256, h_ffn=512, n=2, d=128, l=2)
        path = tmp_path / "tiny.json"
        write_json(path, cfg)
        assert resolve_model(path) == cfg

    def test_neither_preset_nor_file(self):
        # The message lists the known presets.
        with pytest.raises(ConfigError, match=r"neither a preset \(llama2-13b, llama2-7b\)"):
            resolve_model("no-such-model")


def test_phase_values():
    assert Phase.PREFILL.value == "prefill"
    assert Phase.DECODE.value == "decode"


@given(n=st.integers(1, 64), d=st.integers(1, 256),
       h_ffn=st.integers(1, 1 << 20), l=st.integers(1, 128))
def test_any_consistent_dimensions_validate(n, d, h_ffn, l):
    cfg = ModelConfig(hidden_size=n * d, intermediate_size=h_ffn,
                      num_heads=n, head_dim=d, num_layers=l)
    assert cfg.hidden_size == n * d
