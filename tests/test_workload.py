"""Scenario trace generation bounds, determinism, and JSONL persistence."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from infercost.servesim import Request
from infercost.workload import (
    SCENARIO_BOUNDS,
    Scenario,
    generate,
    load_trace,
    save_trace,
)


class TestGenerate:
    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_lengths_within_inclusive_bounds(self, scenario):
        in_lo, in_hi, out_lo, out_hi = SCENARIO_BOUNDS[scenario]
        trace = generate(scenario, 500, seed=3)
        assert len(trace) == 500
        assert all(in_lo <= r.input_len <= in_hi for r in trace)
        assert all(out_lo <= r.output_len <= out_hi for r in trace)

    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_bounds_are_reached(self, scenario):
        # 500 draws from a <=950-wide range should hit both endpoints of the
        # narrow ranges; at minimum the span must be non-degenerate.
        in_lo, in_hi, out_lo, out_hi = SCENARIO_BOUNDS[scenario]
        trace = generate(scenario, 2000, seed=0)
        if in_hi - in_lo <= 100:
            assert min(r.input_len for r in trace) == in_lo
            assert max(r.input_len for r in trace) == in_hi
        if out_hi == out_lo:
            assert {r.output_len for r in trace} == {out_lo}

    def test_fixed_output_scenario(self):
        trace = generate("short-16k", 50, seed=1)
        assert all(r.output_len == 16000 for r in trace)

    def test_deterministic_per_seed(self):
        a = generate(Scenario.SHORT_TO_LONG, 100, seed=7)
        b = generate(Scenario.SHORT_TO_LONG, 100, seed=7)
        c = generate(Scenario.SHORT_TO_LONG, 100, seed=8)
        assert a == b
        assert a != c

    def test_string_scenario_accepted(self):
        assert generate("long-to-short", 3, seed=0) == generate(
            Scenario.LONG_TO_SHORT, 3, seed=0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            generate("medium-to-medium", 1)

    def test_ids_are_sequential(self):
        trace = generate(Scenario.SHORT_TO_SHORT, 10, seed=0)
        assert [r.id for r in trace] == list(range(10))

    def test_arrivals_default_to_zero(self):
        trace = generate(Scenario.SHORT_TO_SHORT, 5, seed=0)
        assert all(r.arrival_time_s == 0.0 for r in trace)

    def test_n_zero(self):
        assert generate(Scenario.SHORT_TO_SHORT, 0) == []

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            generate(Scenario.SHORT_TO_SHORT, -1)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, None], ids=repr)
    def test_n_must_be_an_integer(self, n):
        # A float, a bool or None is not a count, even where numpy would take it.
        with pytest.raises(ValueError, match="n must be an integer"):
            generate("short-to-short", n)


# Request's messages, which load_trace prefixes with path:line.
_COUNTS = "request 1: input_len and output_len must be an integer, got "
_ARRIVAL = "request 1: arrival_time_s must be "


# Every kind of JSON scalar, with the edges of each: bools, floats with nan
# and inf, ints too large for a float, strings and null.
_JSON_SCALARS = st.one_of(
    st.integers(-3, 3), st.integers(), st.sampled_from([2**53 + 1, 10**400, -10**400]),
    st.floats(), st.booleans(), st.text(max_size=3), st.none())


class TestPersistence:
    def test_round_trip(self, tmp_path):
        trace = [Request(id=0, input_len=4, output_len=2, arrival_time_s=0.25),
                 Request(id=1, input_len=40, output_len=900, arrival_time_s=1.5)]
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_arrival_optional_on_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"input_tokens": 4, "output_tokens": 2}\n')
        [req] = load_trace(path)
        assert req == Request(id=0, input_len=4, output_len=2, arrival_time_s=0.0)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('\n{"input_tokens": 1, "output_tokens": 1}\n\n')
        assert len(load_trace(path)) == 1

    def test_invalid_json_carries_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"input_tokens": 1, "output_tokens": 1}\n{oops\n')
        with pytest.raises(ValueError, match=r":2: invalid JSON"):
            load_trace(path)

    def test_unknown_keys_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"input_tokens": 1, "output_tokens": 1, "priority": 9}\n')
        with pytest.raises(ValueError, match=":1: unknown trace record keys: priority"):
            load_trace(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"input_tokens": 1}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_trace(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=":1: trace record must be a JSON object, got list"):
            load_trace(path)

    def test_invalid_lengths_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"input_tokens": 0, "output_tokens": 1}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_trace(path)

    @pytest.mark.parametrize("field, value, message", [
        ("input_tokens", 3.7, _COUNTS + "3.7"),
        ("input_tokens", 3.0, _COUNTS + "3.0"),
        ("input_tokens", "3", _COUNTS + "'3'"),
        ("output_tokens", True, _COUNTS + "True"),
        ("output_tokens", None, _COUNTS + "None"),
        ("arrival_s", "2", _ARRIVAL + "a finite number, got '2'"),
        ("arrival_s", False, _ARRIVAL + "a finite number, got False"),
        ("arrival_s", float("nan"), _ARRIVAL + "a finite number, got nan"),
        ("arrival_s", float("inf"), _ARRIVAL + "a finite number, got inf"),
        ("arrival_s", -0.5, _ARRIVAL + ">= 0, got -0.5"),
        ("arrival_s", 10**400, "int too large to convert to float"),
    ])
    def test_values_parse_strictly(self, tmp_path, field, value, message):
        record = {"input_tokens": 3, "output_tokens": 2, "arrival_s": 0.5, field: value}
        path = tmp_path / "trace.jsonl"
        path.write_text('{"input_tokens": 1, "output_tokens": 1}\n' + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"trace.jsonl:2: {message}")) as info:
            load_trace(path)
        assert str(path) in str(info.value)

    # Half the counts drawn are valid, so the arrival's rule is reached often.
    @given(input_tokens=st.one_of(st.integers(1, 64), _JSON_SCALARS),
           output_tokens=st.one_of(st.integers(1, 64), _JSON_SCALARS),
           arrival_s=_JSON_SCALARS)
    @example(input_tokens=1, output_tokens=1, arrival_s=True)
    def test_load_trace_raises_iff_request_does(self, input_tokens, output_tokens, arrival_s):
        # The loader checks no value itself: a line loads exactly when
        # Request takes its values, and fails with Request's message.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            path.write_text(json.dumps({"input_tokens": input_tokens,
                                        "output_tokens": output_tokens,
                                        "arrival_s": arrival_s}) + "\n")
            try:
                expected = Request(0, input_tokens, output_tokens, arrival_s)
            except (OverflowError, ValueError) as exc:
                with pytest.raises(ValueError, match=re.escape(f"{path}:1: {exc}")):
                    load_trace(path)
            else:
                assert load_trace(path) == [expected]

    def test_generated_trace_survives_round_trip(self, tmp_path):
        trace = generate(Scenario.LONG_TO_SHORT, 64, seed=5)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        assert load_trace(path) == trace
