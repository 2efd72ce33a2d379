"""End-to-end CLI behavior: every subcommand, both formats, error paths."""

import csv
import io
import json
import xml.etree.ElementTree as ET

import pytest

from infercost import estimator, workload
from infercost.arch import MODEL_PRESETS, Phase
from infercost.cli import (
    PAPER_DATA_ENV,
    ROOFLINE_CSV_HEADER,
    _render_table,
    main,
    paper_data_dir,
    roofline_csv,
    roofline_svg,
)
from infercost.costmodel import prefill_op_costs, weight_bytes
from infercost.estimator import RegressionCoefficients
from infercost.hardware import HARDWARE_PRESETS

A800 = HARDWARE_PRESETS["a800"]
LLAMA7B = MODEL_PRESETS["llama2-7b"]

VLLM_PREFILL = RegressionCoefficients(
    Phase.PREFILL, (4.51e-11, 3.35e-11, 2.29e-9, 5.88e-8, 6.26e-9, -1.64))
VLLM_DECODE = RegressionCoefficients(
    Phase.DECODE, (2.23e-9, 1.75e-11, 1.63e-8, 11.2))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def coeff_files(tmp_path):
    prefill = tmp_path / "prefill.json"
    decode = tmp_path / "decode.json"
    estimator.save_coefficients(VLLM_PREFILL, prefill)
    estimator.save_coefficients(VLLM_DECODE, decode)
    return str(prefill), str(decode)


@pytest.fixture
def model_without_vocabulary(tmp_path):
    """llama2-7b's dimensions in a model file with no vocab_size."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"hidden_size": 4096, "intermediate_size": 11008,
                                "num_heads": 32, "head_dim": 128, "num_layers": 32}))
    return str(path)


class TestPaperDataDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PAPER_DATA_ENV, str(tmp_path))
        assert paper_data_dir() == tmp_path

    def test_finds_repository_copy(self, monkeypatch):
        monkeypatch.delenv(PAPER_DATA_ENV, raising=False)
        found = paper_data_dir()
        assert found.is_dir()
        assert (found / "timing_samples_transformers.csv").exists()


class TestReportTable:
    def test_markdown_shape(self):
        md = _render_table("t", ("a", "b"), [("1", "2")], "markdown")
        assert md.startswith("### t\n\n| a | b |\n")
        assert "| 1 | 2 |" in md


class TestAnalyze:
    def test_markdown_and_csv_agree_cell_for_cell(self, capsys, tmp_path):
        base = ["analyze", "--model", "llama2-7b", "--hardware", "a800",
                "--b", "8", "--s", "512", "--phase", "prefill"]
        code, md, _ = run_cli(capsys, *base)
        assert code == 0
        code, csv_text, _ = run_cli(capsys, *base, "--format", "csv")
        assert code == 0

        md_rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in md.splitlines()
            if line.startswith("|") and "---" not in line
        ]
        csv_rows = list(csv.reader(io.StringIO(csv_text)))
        assert md_rows == csv_rows

    def test_has_per_op_rows_and_total(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--model", "llama2-7b",
                               "--hardware", "a800", "--b", "8", "--s", "512")
        assert code == 0
        for label in ("QkvProj", "Rope", "Attention", "OutProj", "AddNormAttn",
                      "GateUpProj", "SwishMul", "DownProj", "AddNormFfn",
                      "Total x32 layers"):
            assert label in out

    def test_decode_includes_cache_update(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--model", "llama2-7b",
                               "--hardware", "a800", "--phase", "decode",
                               "--b", "8", "--s", "512")
        assert code == 0
        assert "CacheUpdate" in out

    def test_writes_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.md"
        code, out, _ = run_cli(capsys, "analyze", "--model", "llama2-7b",
                               "--hardware", "a800", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert "GFLOPs" in out_path.read_text()

    def test_unknown_model_is_a_clean_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--model", "gpt-5",
                                 "--hardware", "a800")
        assert code == 2
        assert err.startswith("error: ")
        assert "neither a preset" in err


class TestRoofline:
    def test_csv_has_ridge_then_ops(self, capsys):
        code, out, _ = run_cli(capsys, "roofline", "--model", "llama2-7b",
                               "--hardware", "a800", "--b", "8", "--s", "512")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ROOFLINE_CSV_HEADER
        ridge_cells = lines[1].split(",")
        assert ridge_cells[0] == "ridge"
        assert float(ridge_cells[1]) == pytest.approx(153.016, abs=5e-4)
        assert float(ridge_cells[2]) == 312e12
        assert any(line.startswith("QkvProj,") for line in lines)

    def test_rows_carry_full_precision(self):
        ops = prefill_op_costs(LLAMA7B, 8, 512)
        text = roofline_csv(ops, A800)
        for line in text.splitlines()[2:]:
            name, ai, attainable = line.split(",")
            op = next(o for o in ops if o.kind.value == name)
            assert float(ai) == op.arithmetic_intensity

    def test_empty_ops_is_header_only(self):
        assert roofline_csv([], A800) == ROOFLINE_CSV_HEADER + "\n"

    def test_svg_is_well_formed_xml(self, capsys, tmp_path):
        svg_path = tmp_path / "roofline.svg"
        code, _, _ = run_cli(capsys, "roofline", "--model", "llama2-7b",
                             "--hardware", "a800", "--b", "8", "--s", "512",
                             "--out", str(tmp_path / "r.csv"), "--svg", str(svg_path))
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert any("ridge" in (t or "") for t in labels)
        assert any("QkvProj" in (t or "") for t in labels)

    def test_svg_helper_places_all_finite_ops(self):
        ops = prefill_op_costs(LLAMA7B, 8, 512)
        svg = roofline_svg(ops, A800)
        ET.fromstring(svg)
        assert svg.count("<circle") == len(ops)


class TestFitPredict:
    def test_fit_then_predict_round_trip(self, capsys, tmp_path):
        out_json = tmp_path / "coeffs.json"
        code, out, _ = run_cli(capsys, "fit", "--model", "llama2-7b",
                               "--phase", "prefill",
                               "--timing", "timing_samples_transformers.csv",
                               "--out", str(out_json))
        assert code == 0
        assert "rms relative error" in out
        assert "rank-deficient" in out  # single-model design
        saved = json.loads(out_json.read_text())
        assert saved["phase"] == "prefill"

        code, out, _ = run_cli(capsys, "predict", "--model", "llama2-7b",
                               "--coefficients", str(out_json),
                               "--b", "8", "--s", "512")
        assert code == 0
        ms = float(out.split(":")[1].strip().removesuffix(" ms"))
        assert ms == pytest.approx(526.19, rel=0.10)

    def test_fit_explicit_path_also_works(self, capsys, tmp_path, paper_data):
        out_json = tmp_path / "coeffs.json"
        code, _, _ = run_cli(capsys, "fit", "--model", "llama2-7b",
                             "--phase", "decode",
                             "--timing", str(paper_data / "timing_samples_vllm.csv"),
                             "--out", str(out_json))
        assert code == 0
        assert json.loads(out_json.read_text())["phase"] == "decode"

    def test_fit_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--model", "llama2-7b",
                               "--timing", "no_such_file.csv",
                               "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert err.startswith("error: ")

    def test_fit_rejects_infinite_time(self, capsys, tmp_path):
        timing = tmp_path / "t.csv"
        timing.write_text("phase,b,s,time_ms\n" + "".join(
            f"decode,{b},{s},{b + s}.5\n" for b in (1, 2, 4) for s in (16, 64))
            + "decode,8,128,inf\n")
        out_json = tmp_path / "c.json"
        code, _, err = run_cli(capsys, "fit", "--model", "llama2-7b",
                               "--phase", "decode", "--timing", str(timing),
                               "--out", str(out_json))
        assert code == 2
        assert "line 8: measured_ms must be a finite number, got inf" in err
        assert not out_json.exists()

    def test_predict_phase_mismatch(self, capsys, tmp_path, coeff_files):
        prefill_json, _ = coeff_files
        code, _, err = run_cli(capsys, "predict", "--model", "llama2-7b",
                               "--coefficients", prefill_json,
                               "--phase", "decode", "--b", "8", "--s", "512")
        assert code == 2
        assert "coefficients are for prefill (6 terms)" in err
        assert "4-term model" in err

    def test_predict_rejects_a_negative_batch(self, capsys, coeff_files):
        _, decode_json = coeff_files
        code, out, err = run_cli(capsys, "predict", "--model", "llama2-7b",
                                 "--coefficients", decode_json, "--b", "-4", "--s", "512")
        assert code == 2
        assert out == ""
        assert err == "error: b must be >= 1, got -4\n"

    def test_predict_published_decode_point(self, capsys, coeff_files):
        _, decode_json = coeff_files
        code, out, _ = run_cli(capsys, "predict", "--model", "llama2-7b",
                               "--coefficients", decode_json,
                               "--phase", "decode", "--b", "8", "--s", "512")
        assert code == 0
        ms = float(out.split(":")[1].strip().removesuffix(" ms"))
        assert ms == pytest.approx(13.37, rel=0.10)

    @pytest.mark.parametrize("b, s, layout", [
        *(pytest.param(b, s, (), id=f"{b}-{s}")
          for b, s in [(8, 512), (1, 1), (8, 0), (0, 8), (-1, 8), (8, -1)]),
        # A reservation that holds exactly the appended token's s + 1.
        pytest.param(8, 512, ("--layout", "vanilla", "--reserved-len", "513"),
                     id="8-512-vanilla"),
        pytest.param(8, 0, ("--layout", "vanilla", "--reserved-len", "1"), id="8-0-vanilla"),
    ])
    @pytest.mark.parametrize("phase", ["prefill", "decode"])
    def test_analyze_and_predict_accept_the_same_points(self, capsys, coeff_files,
                                                         phase, b, s, layout):
        # The cost model and the runtime model share one domain: a decode
        # s_past of 0 is an empty cache for both, a prefill s of 0 for neither.
        coefficients = coeff_files[phase == "decode"]
        point = ("--model", "llama2-7b", "--phase", phase, "--b", str(b), "--s", str(s))
        analyzed, _, _ = run_cli(capsys, "analyze", "--hardware", "a800", *layout, *point)
        predicted, _, _ = run_cli(capsys, "predict", "--coefficients", coefficients, *point)
        assert analyzed == predicted
        assert analyzed == (0 if b >= 1 and s >= (phase == "prefill") else 2)

    def test_analyze_refuses_a_decode_past_the_vanilla_reservation(self, capsys):
        # s = 100 cached tokens plus the appended one do not fit in 64.
        code, out, err = run_cli(capsys, "analyze", "--model", "llama2-7b",
                                 "--hardware", "a800", "--phase", "decode",
                                 "--layout", "vanilla", "--reserved-len", "64", "--s", "100")
        assert (code, out) == (2, "")
        assert err == "error: sequence of 101 tokens exceeds reserved_len=64\n"


class TestMemory:
    def test_reports_pinned_plan(self, capsys):
        code, out, _ = run_cli(capsys, "memory", "--model", "llama2-7b",
                               "--hardware", "a800", "--b", "8", "--s", "512",
                               "--layout", "paged",
                               "--weight-bytes", "13500000000",
                               "--per-seq-len", "2048")
        assert code == 0
        assert "| KV bytes per token | 524288 |" in out
        assert "| KV bytes live at b=8, s=512 | 2147483648 |" in out
        assert "| max concurrent seqs of 2048 tokens on A800 | 61 |" in out

    def test_vanilla_waste_visible(self, capsys):
        code, out, _ = run_cli(capsys, "memory", "--model", "llama2-7b",
                               "--hardware", "a800", "--b", "1", "--s", "512",
                               "--layout", "vanilla", "--reserved-len", "2048")
        assert code == 0
        live = 524288 * 512
        allocated = 524288 * 2048
        assert f"| allocated under vanilla | {allocated} |" in out
        assert f"| wasted (allocated - live) | {allocated - live} |" in out

    def test_weight_bytes_default_to_the_models(self, capsys):
        # Without --weight-bytes the concurrency row uses the model's own
        # weight bytes; the flag overrides them.
        args = ("memory", "--model", "llama2-7b", "--hardware", "a800", "--s", "4096")
        derived = run_cli(capsys, *args)
        given = run_cli(capsys, *args, "--weight-bytes", str(weight_bytes(LLAMA7B)))
        override = run_cli(capsys, *args, "--weight-bytes", "70e9")
        assert derived == given and derived[0] == 0
        assert "| max concurrent seqs of 4096 tokens on A800 | 30 |" in derived[1]
        assert "| max concurrent seqs of 4096 tokens on A800 | 4 |" in override[1]

    def test_model_without_vocabulary_has_no_concurrency_row(self, capsys,
                                                             model_without_vocabulary):
        code, out, _ = run_cli(capsys, "memory", "--model", model_without_vocabulary,
                               "--hardware", "a800")
        assert code == 0
        assert "KV bytes per token" in out and "max concurrent" not in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "memory", "--model", "llama2-7b",
                               "--hardware", "a800", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["Quantity", "Value"]


class TestWorkloadCommand:
    def test_stdout_is_valid_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "workload", "--scenario", "short-to-short",
                               "--n", "5", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"input_tokens", "output_tokens", "arrival_s"}

    def test_deterministic_per_seed(self, capsys):
        args = ("workload", "--scenario", "short-to-long", "--n", "10", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_unknown_action_word_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["workload", "fetch", "--scenario", "short-16k"])
        assert exc.value.code == 2

    def test_file_output_round_trips(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "workload", "--scenario", "long-to-short",
                               "--n", "12", "--seed", "1", "--out", str(path))
        assert code == 0
        assert "wrote 12 requests" in out
        trace = workload.load_trace(path)
        assert trace == workload.generate("long-to-short", 12, seed=1)

    def test_stdout_is_byte_equal_to_file_output(self, capsysbinary, tmp_path):
        path = tmp_path / "trace.jsonl"
        flags = ("workload", "--scenario", "short-to-long", "--n", "9", "--seed", "4")
        assert main([*flags]) == 0
        stdout = capsysbinary.readouterr().out
        assert main([*flags, "--out", str(path)]) == 0
        assert stdout == path.read_bytes()


class TestSimulate:
    def test_single_run_metrics_csv(self, capsys, coeff_files):
        prefill_json, decode_json = coeff_files
        code, out, _ = run_cli(capsys, "simulate", "--model", "llama2-7b",
                               "--prefill-coeffs", prefill_json,
                               "--decode-coeffs", decode_json,
                               "--policy", "static", "--batch-size", "8",
                               "--scenario", "short-to-short", "--n", "16")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["policy", "rate", "token_throughput", "seq_throughput",
                           "mean_token_latency_s", "p50_latency_s",
                           "p95_latency_s", "completed"]
        assert rows[1][0] == "static(batch_size=8)"
        assert int(rows[1][7]) == 16
        assert float(rows[1][2]) > 0

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "true", '"11.2"'])
    def test_non_finite_coefficient_is_clean_error(self, capsys, tmp_path,
                                                   coeff_files, value):
        prefill_json, _ = coeff_files
        decode_json = tmp_path / "bad_decode.json"
        decode_json.write_text('{"phase": "decode", "phi": 2.23e-09, "psi": 1.75e-11, '
                               '"omega": 1.63e-08, "nu": %s}' % value)
        code, out, err = run_cli(capsys, "simulate", "--model", "llama2-7b",
                                 "--prefill-coeffs", prefill_json,
                                 "--decode-coeffs", str(decode_json),
                                 "--policy", "static", "--batch-size", "8",
                                 "--scenario", "short-to-short", "--n", "16")
        assert code == 2
        assert out == ""
        assert "decode coefficient nu must be a finite number" in err

    def test_sweep_is_reproducible_byte_for_byte(self, capsys, tmp_path, coeff_files):
        prefill_json, decode_json = coeff_files
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(capsys, "simulate", "--model", "llama2-7b",
                                 "--prefill-coeffs", prefill_json,
                                 "--decode-coeffs", decode_json,
                                 "--policy", "continuous", "--max-seqs", "32",
                                 "--scenario", "short-to-short", "--n", "250",
                                 "--rates", "2,8", "--seed", "5",
                                 "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        rows = list(csv.reader(io.StringIO(paths[0].read_text())))
        assert [r[1] for r in rows[1:]] == ["2.0", "8.0"]
        assert all(r[0] == "continuous(max_seqs=32)" for r in rows[1:])

    def test_trace_file_overrides_scenario(self, capsys, tmp_path, coeff_files):
        prefill_json, decode_json = coeff_files
        trace_path = tmp_path / "trace.jsonl"
        workload.save_trace(workload.generate("short-to-short", 8, seed=2), trace_path)
        code, out, _ = run_cli(capsys, "simulate", "--model", "llama2-7b",
                               "--prefill-coeffs", prefill_json,
                               "--decode-coeffs", decode_json,
                               "--policy", "splitfuse", "--token-budget", "512",
                               "--trace", str(trace_path))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert int(rows[1][7]) == 8

    def test_capacity_needs_weight_bytes(self, capsys, coeff_files, model_without_vocabulary):
        prefill_json, decode_json = coeff_files
        code, out, err = run_cli(capsys, "simulate", "--model", model_without_vocabulary,
                                 "--prefill-coeffs", prefill_json,
                                 "--decode-coeffs", decode_json,
                                 "--policy", "static", "--hardware", "a800")
        assert (code, out) == (2, "")
        assert err == "error: --hardware needs --weight-bytes for a model without a vocab_size\n"

    def test_capacity_defaults_to_the_models_weight_bytes(self, capsys, coeff_files):
        prefill_json, decode_json = coeff_files
        args = ("simulate", "--model", "llama2-7b", "--prefill-coeffs", prefill_json,
                "--decode-coeffs", decode_json, "--policy", "continuous",
                "--max-seqs", "32", "--scenario", "short-to-short", "--n", "24",
                "--hardware", "a800")
        derived = run_cli(capsys, *args)
        given = run_cli(capsys, *args, "--weight-bytes", str(weight_bytes(LLAMA7B)))
        assert derived == given and derived[0] == 0

    def test_capacity_bound_simulation_runs(self, capsys, coeff_files):
        prefill_json, decode_json = coeff_files
        code, out, _ = run_cli(capsys, "simulate", "--model", "llama2-7b",
                               "--prefill-coeffs", prefill_json,
                               "--decode-coeffs", decode_json,
                               "--policy", "continuous", "--max-seqs", "32",
                               "--scenario", "short-to-short", "--n", "24",
                               "--hardware", "a800",
                               "--weight-bytes", "13500000000")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert int(rows[1][7]) == 24

    def test_continuous_without_limits_is_clean_error(self, capsys, coeff_files):
        prefill_json, decode_json = coeff_files
        code, _, err = run_cli(capsys, "simulate", "--model", "llama2-7b",
                               "--prefill-coeffs", prefill_json,
                               "--decode-coeffs", decode_json,
                               "--policy", "continuous")
        assert code == 2
        assert "Continuous needs max_seqs" in err

    def test_negative_weight_bytes_is_clean_error(self, capsys, coeff_files):
        prefill_json, decode_json = coeff_files
        code, _, err = run_cli(capsys, "simulate", "--model", "llama2-7b",
                               "--prefill-coeffs", prefill_json,
                               "--decode-coeffs", decode_json,
                               "--policy", "static", "--hardware", "a800",
                               "--weight-bytes=-1e9")
        assert code == 2
        assert "model_weight_bytes must be >= 0" in err

    def test_sweep_warns_when_trimming_consumes_the_trace(self, capsys, coeff_files):
        prefill_json, decode_json = coeff_files
        code, out, err = run_cli(capsys, "simulate", "--model", "llama2-7b",
                                 "--prefill-coeffs", prefill_json,
                                 "--decode-coeffs", decode_json,
                                 "--policy", "continuous", "--max-seqs", "32",
                                 "--scenario", "short-to-short", "--n", "40",
                                 "--rates", "2,8")
        assert code == 0
        assert "trim 100 warmup and 100 drain requests" in err
        assert "whole 40-request trace" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert [int(r[7]) for r in rows[1:]] == [0, 0]

    def test_sweep_rejects_an_infinite_rate(self, capsys, coeff_files):
        prefill_json, decode_json = coeff_files
        code, out, err = run_cli(capsys, "simulate", "--model", "llama2-7b",
                                 "--prefill-coeffs", prefill_json,
                                 "--decode-coeffs", decode_json,
                                 "--policy", "continuous", "--max-seqs", "32",
                                 "--scenario", "short-to-short", "--n", "4",
                                 "--rates", "1,inf")
        assert code == 2
        assert out == ""
        assert "rates must be a finite number, got inf" in err

    @pytest.mark.parametrize("rates", ["1_0,2", " 2", "2 ", "2, 8"])
    def test_sweep_rejects_a_rate_float_would_coerce(self, capsys, coeff_files, rates):
        # float() reads "1_0" as 10 and ignores surrounding blanks.
        prefill_json, decode_json = coeff_files
        code, out, err = run_cli(capsys, "simulate", "--model", "llama2-7b",
                                 "--prefill-coeffs", prefill_json,
                                 "--decode-coeffs", decode_json,
                                 "--policy", "continuous", "--max-seqs", "32",
                                 "--scenario", "short-to-short", "--n", "4",
                                 "--rates", rates)
        assert code == 2
        assert out == ""
        assert err.startswith("error: rates must be a plain number, got ")
        assert err.count("\n") == 1


class TestParserErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--model", "llama2-7b", "--hardware", "a800",
                  "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_scenario_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["workload", "--scenario", "medium"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "memory"])
    def test_unknown_format_choice(self, capsys, command):
        # The only check on --format: the table renderer trusts its caller.
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "llama2-7b", "--hardware", "a800",
                  "--format", "html"])
        assert exc.value.code == 2
        assert "invalid choice: 'html'" in capsys.readouterr().err


MEMORY = ["memory", "--model", "llama2-7b", "--hardware", "a800"]
SIMULATE = ["simulate", "--model", "llama2-7b", "--prefill-coeffs", "p.json",
            "--decode-coeffs", "d.json", "--policy", "static"]
INTEGER_FLAGS = [
    (MEMORY, "--b"), (MEMORY, "--s"), (MEMORY, "--block-size"),
    (MEMORY, "--reserved-len"), (MEMORY, "--per-seq-len"),
    (["workload", "--scenario", "short-to-short"], "--n"),
    (["workload", "--scenario", "short-to-short"], "--seed"),
    (SIMULATE, "--batch-size"), (SIMULATE, "--max-seqs"), (SIMULATE, "--token-budget"),
]


class TestStrictNumberFlags:
    # int() reads "1_6" as 16 and ignores blanks; float() the same for bytes.
    @pytest.mark.parametrize("text", ["1_6", " 512", "512 ", "+16", "١٦", "16.0",
                                      "1e3", "0x10", ""])
    @pytest.mark.parametrize("command, flag", INTEGER_FLAGS,
                             ids=[f"{c[0]}{f}" for c, f in INTEGER_FLAGS])
    def test_integer_flag_rejects_a_form_int_would_coerce(self, capsys, command, flag, text):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, text])
        assert exc.value.code == 2
        *_, line = capsys.readouterr().err.splitlines()
        assert line.endswith(f"error: argument {flag}: value must be a decimal integer, "
                             f"got {text!r}")

    @pytest.mark.parametrize("command", [MEMORY, SIMULATE], ids=["memory", "simulate"])
    @pytest.mark.parametrize("text, message", [
        ("1_3.5e9", "value must be a plain number, got '1_3.5e9'"),
        (" 13.5e9", "value must be a plain number, got ' 13.5e9'"),
        ("13.5", "'13.5' is not a whole number of bytes"),
        ("inf", "'inf' is not a whole number of bytes"),
        ("nan", "'nan' is not a whole number of bytes"),
        ("lots", "could not convert string to float: 'lots'"),
    ])
    def test_weight_bytes_rejects_a_form_float_would_coerce(self, capsys, command, text,
                                                             message):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--weight-bytes", text])
        assert exc.value.code == 2
        *_, line = capsys.readouterr().err.splitlines()
        assert line.endswith(f"error: argument --weight-bytes: {message}")

    def test_plain_forms_still_parse(self, capsys):
        assert main([*MEMORY, "--b", "16", "--s", "512", "--weight-bytes", "13.5e9"]) == 0
        out = capsys.readouterr().out
        assert "b=16, s=512" in out
        assert "max concurrent seqs of 512 tokens" in out
