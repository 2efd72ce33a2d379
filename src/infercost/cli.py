"""Command-line front end.

Subcommands:
  analyze   per-operation FLOPs / memory traffic / intensity / bound report
  roofline  CSV of (op, intensity, attainable FLOP/s) with the ridge point,
            plus an optional SVG scatter
  fit       least-squares runtime coefficients from a timing CSV
  predict   evaluate saved coefficients at a (b, s) point
  memory    KV-cache footprint and concurrency planning
  workload  synthetic trace generation
  simulate  serving simulation (single run or rate sweep) -> metrics CSV

Human-readable tables print with two decimals; machine CSVs (roofline,
simulate) carry full float precision. The INFERCOST_PAPER_DATA environment
variable overrides where bundled reference data is looked up; no other
environment state is consulted.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

from . import costmodel, estimator, hardware, kvsim, servesim, workload
from .arch import Phase, _parse_int, _parse_number, resolve_model
from .costmodel import Paged, TokenGranular, Vanilla, aggregate
from .hardware import resolve_hardware

PAPER_DATA_ENV = "INFERCOST_PAPER_DATA"


def paper_data_dir() -> Path:
    """Directory holding the bundled reference tables.

    Resolution order: $INFERCOST_PAPER_DATA, then `paper-data/` next to the
    installed package's repository root, then `paper-data/` under the current
    directory.
    """
    env = os.environ.get(PAPER_DATA_ENV)
    if env:
        return Path(env)
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "paper-data"
        if candidate.is_dir():
            return candidate
    return Path.cwd() / "paper-data"


# --------------------------------------------------------------------------
# Report tables


def _render_table(title: str, headers, rows, fmt: str) -> str:
    """A report table as markdown (under a `### title` heading) or as CSV."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    lines = [f"### {title}", "", "| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _f2(x: float) -> str:
    return f"{x:.2f}"


# --------------------------------------------------------------------------
# Shared argument plumbing


# --layout choice -> the layout, built from the flags it reads
_LAYOUTS = {"vanilla": lambda args: Vanilla(reserved_len=args.reserved_len),
            "paged": lambda args: Paged(block_size=args.block_size),
            "token": lambda args: TokenGranular()}


def _op_costs(args):
    """(cfg, hw, ops): the model, hardware and layer op costs analyze and roofline show."""
    cfg = resolve_model(args.model)
    hw = resolve_hardware(args.hardware)
    phase = Phase(args.phase)
    layout = _LAYOUTS[args.layout](args)
    if phase is Phase.PREFILL:
        return cfg, hw, costmodel.prefill_op_costs(cfg, args.b, args.s)
    return cfg, hw, costmodel.decode_op_costs(cfg, args.b, args.s, cache_layout=layout)


def _count(text: str) -> int:
    """argparse type of every integer flag; argparse names the flag in its error."""
    try:
        return _parse_int("value", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _byte_count(text: str) -> int:
    """Whole byte count; accepts scientific notation like 13.5e9."""
    try:
        value = _parse_number("value", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of bytes")
    return int(value)


def _weight_bytes(args, cfg) -> int | None:
    """--weight-bytes, else the model's own weight bytes (None without a vocab_size)."""
    if args.weight_bytes is None and cfg.vocab_size is not None:
        return costmodel.weight_bytes(cfg)
    return args.weight_bytes


def _add_model_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   help="model config JSON path or preset name (llama2-7b, llama2-13b)")


def _add_hardware_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hardware", required=True,
                   help="hardware JSON path or preset name (a800, rtx-4090, rtx-3090)")


def _add_weight_bytes_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight-bytes", type=_byte_count, default=None,
                   help="model weight bytes resident on the device, overriding "
                        "the model's own (scientific notation accepted)")


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", type=_count, default=1, help="batch size")
    p.add_argument("--s", type=_count, default=512,
                   help="sequence length (prefill) or cached length (decode)")


def _add_phase_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phase", choices=[ph.value for ph in Phase], default="prefill")


def _add_layout_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layout", choices=_LAYOUTS, default="paged",
                   help="KV-cache layout")
    p.add_argument("--block-size", type=_count, default=16,
                   help="tokens per block for the paged layout")
    p.add_argument("--reserved-len", type=_count, default=2048,
                   help="per-sequence reservation for the vanilla layout")


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


# --------------------------------------------------------------------------
# Subcommands


def _cost_row(label: str, cost, hw) -> tuple[str, ...]:
    """One analyze row for an OpCost or a ModelCost."""
    return (label, _f2(cost.flops / 1e9), _f2(cost.mops / 1e6),
            _f2(cost.arithmetic_intensity), hardware.classify(cost, hw).value,
            _f2(hardware.lower_bound_time(cost, hw) * 1e3))


def cmd_analyze(args) -> int:
    cfg, hw, ops = _op_costs(args)
    rows = [_cost_row(op.kind.value, op, hw) for op in ops]
    rows.append(_cost_row(f"Total x{cfg.num_layers} layers", aggregate(ops, cfg), hw))
    title = (f"{args.phase} op costs: model={args.model} hw={hw.name} "
             f"b={args.b} s={args.s} (per-layer rows)")
    headers = ("Op", "GFLOPs", "MB moved", "AI (FLOP/B)", "Bound", "Min time (ms)")
    _emit(_render_table(title, headers, rows, args.format), args.out)
    return 0


ROOFLINE_CSV_HEADER = "op,arithmetic_intensity,attainable_flops_per_s"


def roofline_csv(ops, hw) -> str:
    """CSV body for a roofline scatter; a `ridge` row marks the knee."""
    lines = [ROOFLINE_CSV_HEADER]
    if ops:
        lines.append(f"ridge,{hardware.ridge_point(hw)!r},{float(hw.peak_flops_per_s)!r}")
    for op in ops:
        ai = op.arithmetic_intensity
        if math.isinf(ai):
            continue
        lines.append(f"{op.kind.value},{ai!r},{hardware.attainable_flops(ai, hw)!r}")
    return "\n".join(lines) + "\n"


def roofline_svg(ops, hw) -> str:
    """Hand-rolled log-log scatter of intensity vs attainable throughput."""
    width, height, pad = 720, 480, 60.0
    pts = [(op.kind.value, op.arithmetic_intensity,
            hardware.attainable_flops(op.arithmetic_intensity, hw))
           for op in ops if op.arithmetic_intensity > 0
           and not math.isinf(op.arithmetic_intensity)]
    ridge = hardware.ridge_point(hw)
    xs = [ai for _, ai, _ in pts] + [ridge]
    xmin = min(math.log10(min(xs)) - 0.3, -1.0)
    xmax = max(math.log10(max(xs)) + 0.5, math.log10(ridge) + 1.0)
    ymax = math.log10(float(hw.peak_flops_per_s)) + 0.2
    ymin = math.log10(float(hw.bandwidth_bytes_per_s) * 10 ** xmin) - 0.2

    def sx(ai: float) -> float:
        return pad + (math.log10(ai) - xmin) / (xmax - xmin) * (width - 2 * pad)

    def sy(fl: float) -> float:
        return height - pad - (math.log10(fl) - ymin) / (ymax - ymin) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">'
        f'Roofline: {hw.name}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 16:.1f}" text-anchor="middle" '
        f'font-size="12">arithmetic intensity (FLOP/B, log)</text>',
    ]
    # Roofline: bandwidth slope up to the ridge, flat peak beyond.
    x0, x1, x2 = 10 ** xmin, ridge, 10 ** xmax
    peak = float(hw.peak_flops_per_s)
    parts.append(
        f'<polyline fill="none" stroke="black" stroke-width="1.5" points="'
        f'{sx(x0):.1f},{sy(hardware.attainable_flops(x0, hw)):.1f} '
        f'{sx(x1):.1f},{sy(peak):.1f} {sx(x2):.1f},{sy(peak):.1f}"/>')
    parts.append(
        f'<line x1="{sx(ridge):.1f}" y1="{sy(peak):.1f}" x2="{sx(ridge):.1f}" '
        f'y2="{height - pad:.1f}" stroke="gray" stroke-dasharray="4 3"/>')
    parts.append(
        f'<text x="{sx(ridge) + 4:.1f}" y="{height - pad - 6:.1f}" font-size="11" '
        f'fill="gray">ridge {ridge:.1f}</text>')
    for label, ai, fl in pts:
        parts.append(f'<circle cx="{sx(ai):.1f}" cy="{sy(fl):.1f}" r="4" '
                     f'fill="steelblue"/>')
        parts.append(f'<text x="{sx(ai) + 6:.1f}" y="{sy(fl) - 5:.1f}" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_roofline(args) -> int:
    _, hw, ops = _op_costs(args)
    _emit(roofline_csv(ops, hw), args.out)
    if args.svg:
        Path(args.svg).write_text(roofline_svg(ops, hw), encoding="utf-8")
    return 0


def cmd_fit(args) -> int:
    cfg = resolve_model(args.model)
    phase = Phase(args.phase)
    timing = Path(args.timing)
    if not timing.exists() and not timing.is_absolute():
        bundled = paper_data_dir() / timing
        if bundled.exists():
            timing = bundled
    samples = [s for s in estimator.load_timing_samples(timing) if s.phase is phase]
    if not samples:
        raise ValueError(f"no {phase.value} samples in {timing}")
    result = estimator.fit(samples, cfg, phase)
    estimator.save_coefficients(result.coefficients, args.out)
    note = " (rank-deficient design: minimum-norm solution)" if result.condition_warning else ""
    print(f"fit {phase.value}: {len(samples)} samples, "
          f"rms relative error {result.rms_relative_error * 100:.2f}%{note}")
    for name, value in result.coefficients.named().items():
        print(f"  {name} = {value!r}")
    print(f"coefficients written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = resolve_model(args.model)
    coeffs = estimator.load_coefficients(args.coefficients)
    if args.phase is not None and Phase(args.phase) is not coeffs.phase:
        want = len(estimator.coeff_names(Phase(args.phase)))
        have = len(coeffs.values)
        raise ValueError(
            f"coefficients are for {coeffs.phase.value} ({have} terms) but "
            f"--phase {args.phase} expects a {want}-term model")
    ms = estimator.predict_at(coeffs, cfg, args.b, args.s)
    print(f"{coeffs.phase.value} b={args.b} s={args.s}: {ms:.3f} ms")
    return 0


def cmd_memory(args) -> int:
    cfg = resolve_model(args.model)
    hw = resolve_hardware(args.hardware)
    layout = _LAYOUTS[args.layout](args)
    per_token = costmodel.kv_cache_bytes(cfg, 1, 1)
    batch_bytes = costmodel.kv_cache_bytes(cfg, args.b, args.s)
    stats = kvsim.footprint(layout, cfg, [args.s] * args.b)
    rows = [
        ("KV bytes per token", str(per_token)),
        (f"KV bytes live at b={args.b}, s={args.s}", str(batch_bytes)),
        (f"allocated under {args.layout}", str(stats.allocated_bytes)),
        ("wasted (allocated - live)", str(stats.wasted_bytes)),
    ]
    weights = _weight_bytes(args, cfg)
    if weights is not None:
        per_seq = args.per_seq_len if args.per_seq_len is not None else args.s
        limit = kvsim.max_concurrency(layout, cfg, hw, weights, per_seq)
        rows.append((f"max concurrent seqs of {per_seq} tokens on {hw.name}", str(limit)))
    title = f"KV-cache plan: model={args.model} layout={args.layout}"
    _emit(_render_table(title, ("Quantity", "Value"), rows, args.format), args.out)
    return 0


def cmd_workload(args) -> int:
    trace = workload.generate(args.scenario, args.n, seed=args.seed)
    if args.out is None or args.out == "-":
        workload.save_trace(trace, sys.stdout)
    else:
        workload.save_trace(trace, args.out)
        print(f"wrote {len(trace)} requests to {args.out}")
    return 0


# --policy choice -> the policy class and the flag that sets its one field
_POLICIES = {"static": (servesim.Static, "batch_size"),
             "continuous": (servesim.Continuous, "max_seqs"),
             "splitfuse": (servesim.SplitFuse, "token_budget")}


def _build_policy(args) -> servesim.SchedulingPolicy:
    cls, flag = _POLICIES[args.policy]
    return cls(getattr(args, flag))


def _all_trimmed_warning(n_requests: int) -> str:
    """What a rate sweep says when no rate kept a completion after trimming."""
    n = servesim._WARMUP_TRIM
    return (f"warning: sweep metrics trim {n} warmup and {n} drain requests, which "
            f"consumed the whole {n_requests}-request trace; use more requests")


def cmd_simulate(args) -> int:
    cfg = resolve_model(args.model)
    coeffs = servesim.CoefficientPair(
        prefill=estimator.load_coefficients(args.prefill_coeffs),
        decode=estimator.load_coefficients(args.decode_coeffs),
    )
    policy = _build_policy(args)

    capacity = None
    if args.hardware is not None:
        weights = _weight_bytes(args, cfg)
        if weights is None:
            raise ValueError("--hardware needs --weight-bytes for a model without a vocab_size")
        layout = _LAYOUTS[args.layout](args)
        hw = resolve_hardware(args.hardware)
        capacity = servesim.KvCapacity.from_hardware(layout, hw, weights)

    if args.trace is not None:
        trace = workload.load_trace(args.trace)
    else:
        trace = workload.generate(args.scenario, args.n, seed=args.seed)

    label = servesim.describe_policy(policy)
    if args.rates:
        rates = [_parse_number("rates", tok) for tok in args.rates.split(",")]
        swept = servesim.sweep_rates(policy, trace, rates, cfg, coeffs,
                                     capacity=capacity, seed=args.seed,
                                     arrival_process=args.arrival_process)
        rows = [(label, rate, swept[rate]) for rate in rates]
        if all(m.completed == 0 for _, _, m in rows):
            print(_all_trimmed_warning(len(trace)), file=sys.stderr)
    else:
        result = servesim.run(policy, trace, cfg, coeffs, capacity=capacity)
        rows = [(label, 0.0, result.metrics)]
    _emit(servesim.metrics_csv_text(rows), args.out)
    return 0


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infercost",
        description="Analytical cost modeling and serving simulation for "
                    "transformer inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-op FLOPs/MOPs/AI/bound report")
    _add_model_flag(p)
    _add_hardware_flag(p)
    _add_point_flags(p)
    _add_phase_flag(p)
    _add_layout_flags(p)
    _add_format_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("roofline", help="roofline CSV and optional SVG scatter")
    _add_model_flag(p)
    _add_hardware_flag(p)
    _add_point_flags(p)
    _add_phase_flag(p)
    _add_layout_flags(p)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--svg", default=None, help="also write an SVG scatter here")
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("fit", help="fit runtime coefficients from a timing CSV")
    _add_model_flag(p)
    _add_phase_flag(p)
    p.add_argument("--timing", required=True,
                   help="timing CSV (phase,b,s,time_ms); bare filenames are also "
                        "looked up in the bundled reference-data directory")
    p.add_argument("--out", required=True, help="coefficient JSON output path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate saved coefficients at (b, s)")
    _add_model_flag(p)
    _add_point_flags(p)
    p.add_argument("--coefficients", required=True, help="coefficient JSON from `fit`")
    p.add_argument("--phase", choices=[ph.value for ph in Phase], default=None,
                   help="expected phase; errors if the file disagrees")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("memory", help="KV-cache footprint and concurrency plan")
    _add_model_flag(p)
    _add_hardware_flag(p)
    _add_point_flags(p)
    _add_layout_flags(p)
    _add_weight_bytes_flag(p)
    p.add_argument("--per-seq-len", type=_count, default=None,
                   help="per-sequence token reservation for the concurrency bound "
                        "(default: --s)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_memory)

    p = sub.add_parser("workload", help="generate a synthetic request trace")
    p.add_argument("--scenario", required=True,
                   choices=[sc.value for sc in workload.Scenario])
    p.add_argument("--n", type=_count, default=80, help="number of requests")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out", default=None, help="JSONL output path (default: stdout)")
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("simulate", help="serving simulation -> metrics CSV")
    _add_model_flag(p)
    p.add_argument("--prefill-coeffs", required=True, help="coefficient JSON from `fit`")
    p.add_argument("--decode-coeffs", required=True, help="coefficient JSON from `fit`")
    p.add_argument("--policy", required=True, choices=_POLICIES)
    p.add_argument("--batch-size", type=_count, default=8, help="static: batch size")
    p.add_argument("--max-seqs", type=_count, default=None, help="continuous: sequence cap")
    p.add_argument("--token-budget", type=_count, default=512,
                   help="splitfuse: tokens per step")
    p.add_argument("--trace", default=None, help="JSONL trace (overrides --scenario)")
    p.add_argument("--scenario", default=workload.Scenario.SHORT_TO_SHORT.value,
                   choices=[sc.value for sc in workload.Scenario])
    p.add_argument("--n", type=_count, default=80, help="requests when generating a trace")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--rates", default=None,
                   help="comma-separated arrival rates (req/s) for a sweep; "
                        "omit for a single run with the trace's own arrivals")
    p.add_argument("--arrival-process", choices=["poisson", "uniform"], default="poisson")
    p.add_argument("--hardware", default=None,
                   help="hardware preset/path; bounds KV capacity beside the weights")
    _add_weight_bytes_flag(p)
    _add_layout_flags(p)
    p.add_argument("--out", default=None, help="metrics CSV path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
