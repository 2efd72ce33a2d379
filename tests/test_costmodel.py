"""Per-op FLOP/byte counts checked against brute-force enumeration oracles."""

import copy
import dataclasses
import hashlib
import importlib.util
import math
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infercost import (
    ConfigError,
    DECODE_OP_ORDER,
    PREFILL_OP_ORDER,
    ModelConfig,
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
    weight_bytes,
)
from infercost.arch import MODEL_PRESETS
from infercost.costmodel import _TOKEN_OPS_CACHE_SIZE, _token_ops
from infercost.hardware import HARDWARE_PRESETS, classify, lower_bound_time
from infercost.kvsim import cache_step_bytes, footprint, max_concurrency
from oracles import (
    brute_decode_bytes,
    brute_decode_flops,
    brute_prefill_bytes,
    brute_prefill_flops,
)

TINY = ModelConfig(hidden_size=4, intermediate_size=8, num_heads=2, head_dim=2,
                   num_layers=1, bytes_per_scalar=2)
LLAMA7B = ModelConfig(4096, 11008, 32, 128, 32)


def by_kind(costs):
    return {c.kind.value: c for c in costs}


# --- brute-force agreement ---------------------------------------------------

@pytest.mark.parametrize("b,s", [(1, 2), (1, 1), (2, 3), (3, 5)])
def test_prefill_flops_match_brute_force_enumeration(b, s):
    want = brute_prefill_flops(4, 2, 2, 8, b, s)
    got = by_kind(prefill_op_costs(TINY, b, s))
    assert set(got) == set(want)
    for name, flops in want.items():
        assert got[name].flops == flops, name


@pytest.mark.parametrize("b,s_past", [(1, 1), (1, 4), (2, 3), (3, 7)])
def test_decode_flops_match_brute_force_enumeration(b, s_past):
    want = brute_decode_flops(4, 2, 2, 8, b, s_past)
    got = by_kind(decode_op_costs(TINY, b, s_past))
    assert set(got) == set(want)
    for name, flops in want.items():
        assert got[name].flops == flops, name


@pytest.mark.parametrize("b,s", [(1, 2), (2, 3), (3, 5)])
def test_prefill_bytes_match_shape_enumeration(b, s):
    want = brute_prefill_bytes(4, 2, 2, 8, b, s, bytes_per_scalar=2)
    got = by_kind(prefill_op_costs(TINY, b, s))
    for name, mops in want.items():
        assert got[name].mops == mops, name


@pytest.mark.parametrize("b,s_past", [(1, 1), (2, 3), (3, 7)])
@pytest.mark.parametrize("vanilla", [False, True])
def test_decode_bytes_match_shape_enumeration(b, s_past, vanilla):
    layout = Vanilla(reserved_len=64) if vanilla else Paged()
    want = brute_decode_bytes(4, 2, 2, 8, b, s_past, 2, vanilla_reserved=vanilla)
    got = by_kind(decode_op_costs(TINY, b, s_past, cache_layout=layout))
    for name, mops in want.items():
        assert got[name].mops == mops, name


def test_tiny_instance_pinned_values():
    got = by_kind(prefill_op_costs(TINY, 1, 2))
    assert got["QkvProj"].flops == 192
    assert got["Rope"].flops == 48
    assert got["Attention"].flops == 96
    assert got["OutProj"].flops == 64
    assert got["AddNormAttn"].flops == 40
    assert got["GateUpProj"].flops == 256
    assert got["SwishMul"].flops == 32
    assert got["DownProj"].flops == 128
    assert got["AddNormFfn"].flops == 40


# --- ordering and structure --------------------------------------------------

def test_prefill_op_order():
    kinds = [c.kind for c in prefill_op_costs(TINY, 1, 2)]
    assert kinds == list(PREFILL_OP_ORDER)
    assert OpKind.CACHE_UPDATE not in kinds
    assert len(kinds) == 9


def test_decode_op_order_has_cache_update_after_rope():
    kinds = [c.kind for c in decode_op_costs(TINY, 1, 2)]
    assert kinds == list(DECODE_OP_ORDER)
    assert kinds.index(OpKind.CACHE_UPDATE) == kinds.index(OpKind.ROPE) + 1
    assert len(kinds) == 10


def test_invalid_workload_rejected():
    with pytest.raises(ValueError):
        prefill_op_costs(TINY, 0, 2)
    with pytest.raises(ValueError):
        prefill_op_costs(TINY, 1, 0)
    with pytest.raises(ValueError):
        decode_op_costs(TINY, 1, -1)
    with pytest.raises(ValueError, match="b must be >= 1, got 0"):
        decode_op_costs(TINY, 0, 2)
    with pytest.raises(TypeError):
        decode_op_costs(TINY, 1, 2, cache_layout="paged")


def test_opcost_derives_intensity():
    cost = OpCost(OpKind.QKV_PROJ, flops=10, mops=4)
    assert cost.arithmetic_intensity == 2.5
    assert OpCost(OpKind.CACHE_UPDATE, flops=0, mops=4).arithmetic_intensity == 0.0
    assert math.isinf(OpCost(OpKind.QKV_PROJ, flops=5, mops=0).arithmetic_intensity)
    with pytest.raises(ValueError):
        OpCost(OpKind.QKV_PROJ, flops=-1, mops=4)


def test_opcost_intensity_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        OpCost(OpKind.QKV_PROJ, 10, 4, 1e9)
    with pytest.raises(AttributeError):
        OpCost(OpKind.QKV_PROJ, 10, 4).arithmetic_intensity = 1e9


def test_opcost_is_a_frozen_value():
    cost = OpCost(OpKind.ROPE, 6, 8)
    assert cost == OpCost(kind=OpKind.ROPE, flops=6, mops=8) != OpCost(OpKind.ROPE, 6, 9)
    assert hash(cost) == hash(OpCost(OpKind.ROPE, 6, 8))
    assert repr(cost) == "OpCost(kind=<OpKind.ROPE: 'Rope'>, flops=6, mops=8)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cost.flops = 7
    with pytest.raises(ValueError, match="non-negative"):
        OpCost(OpKind.ROPE, 6, -1)


def test_slotted_opcost_keeps_the_dataclass_contract():
    # Cached rows are slotted, with no per-instance dict, yet copy, pickle and
    # replace still build frozen rows through the constructor.
    cost = OpCost(OpKind.DOWN_PROJ, 10**30, 7)
    assert not hasattr(cost, "__dict__")
    for field in ("kind", "flops", "mops"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cost, field, 1)
    with pytest.raises(AttributeError):
        cost.arithmetic_intensity = 1.0
    for clone in (copy.copy(cost), copy.deepcopy(cost), pickle.loads(pickle.dumps(cost)),
                  dataclasses.replace(cost)):
        assert clone == cost and hash(clone) == hash(cost) and repr(clone) == repr(cost)
        assert type(clone) is OpCost and clone.kind is OpKind.DOWN_PROJ
    assert dataclasses.replace(cost, mops=8) == OpCost(OpKind.DOWN_PROJ, 10**30, 8)
    assert dataclasses.astuple(cost) == (OpKind.DOWN_PROJ, 10**30, 7)


def test_replaced_opcost_recomputes_intensity():
    cost = dataclasses.replace(OpCost(OpKind.QKV_PROJ, 10, 4), flops=10**6)
    assert cost.arithmetic_intensity == 250_000.0
    assert dataclasses.replace(cost, mops=0).arithmetic_intensity == math.inf


@pytest.mark.parametrize("flops,mops", [(10, 4), (0, 4), (0, 0), (5, 0)])
def test_model_cost_intensity_follows_opcost_rule(flops, mops):
    total = ModelCost(flops, mops)
    assert total.arithmetic_intensity == OpCost(OpKind.QKV_PROJ, flops, mops).arithmetic_intensity


def test_model_cost_rejects_negative_totals():
    with pytest.raises(ValueError, match="non-negative"):
        ModelCost(-5, 3)
    with pytest.raises(ValueError, match="non-negative"):
        ModelCost(total_flops=5, total_mops=-3)
    with pytest.raises(ValueError, match="non-negative"):
        dataclasses.replace(ModelCost(10, 4), total_flops=-1)


@pytest.mark.parametrize("flops, mops", [(math.nan, 4), (2.5, 4), (True, 4),
                                         (10, math.nan), (10, 4.0), (10, False)])
def test_counts_must_be_integers(flops, mops):
    with pytest.raises(ValueError, match="flops and mops must be non-negative integers"):
        OpCost(OpKind.ROPE, flops, mops)
    with pytest.raises(ValueError, match="must be non-negative integers"):
        ModelCost(flops, mops)
    with pytest.raises(ValueError, match="must be non-negative integers"):
        dataclasses.replace(ModelCost(10, 4), total_flops=flops, total_mops=mops)


def test_model_cost_keeps_the_dataclass_contract():
    total = ModelCost(10, 4)
    assert total == ModelCost(total_flops=10, total_mops=4) != ModelCost(10, 5)
    assert [f.name for f in dataclasses.fields(ModelCost)] == ["total_flops", "total_mops"]
    assert dataclasses.replace(total, total_mops=5) == ModelCost(10, 5)
    assert dataclasses.astuple(total) == (10, 4)
    assert hash(total) == hash((10, 4)) == hash(ModelCost(10, 4))
    assert repr(total) == "ModelCost(total_flops=10, total_mops=4)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        total.total_flops = 11
    with pytest.raises(TypeError):
        ModelCost(10)


# --- scaling properties ------------------------------------------------------

@given(b=st.integers(1, 16), s=st.integers(1, 512))
@settings(max_examples=40, deadline=None)
def test_prefill_flops_linear_in_batch(b, s):
    one = by_kind(prefill_op_costs(LLAMA7B, 1, s))
    many = by_kind(prefill_op_costs(LLAMA7B, b, s))
    for name in one:
        assert many[name].flops == b * one[name].flops


@given(s=st.integers(1, 1024))
@settings(max_examples=40, deadline=None)
def test_prefill_attention_quadratic_vs_linear_ops(s):
    at_s = by_kind(prefill_op_costs(LLAMA7B, 2, s))
    at_2s = by_kind(prefill_op_costs(LLAMA7B, 2, 2 * s))
    assert at_2s["Attention"].flops == 4 * at_s["Attention"].flops
    assert at_2s["QkvProj"].flops == 2 * at_s["QkvProj"].flops
    assert at_2s["DownProj"].flops == 2 * at_s["DownProj"].flops


@given(s_past=st.integers(1, 4096))
@settings(max_examples=40, deadline=None)
def test_decode_only_attention_and_cache_depend_on_history(s_past):
    base = by_kind(decode_op_costs(LLAMA7B, 4, 1, cache_layout=Vanilla(8192)))
    later = by_kind(decode_op_costs(LLAMA7B, 4, s_past, cache_layout=Vanilla(8192)))
    for name in base:
        if name in ("Attention", "CacheUpdate"):
            continue
        assert later[name].flops == base[name].flops
        assert later[name].mops == base[name].mops
    assert later["Attention"].flops == s_past * base["Attention"].flops


@st.composite
def model_configs(draw):
    """A valid ModelConfig: hidden_size = num_heads * head_dim."""
    heads, head_dim = draw(st.integers(1, 64)), draw(st.integers(1, 256))
    return ModelConfig(hidden_size=heads * head_dim,
                       intermediate_size=draw(st.integers(1, 32768)),
                       num_heads=heads, head_dim=head_dim,
                       num_layers=draw(st.integers(1, 96)),
                       bytes_per_scalar=draw(st.sampled_from([1, 2, 4])))


def token_wise(costs):
    return {name: cost for name, cost in by_kind(costs).items()
            if name not in ("Attention", "CacheUpdate")}


@given(cfg=model_configs(), b=st.integers(1, 64), s_past=st.integers(0, 4096),
       layout=st.sampled_from([Paged(16), Vanilla(8192), TokenGranular()]))
@settings(max_examples=60, deadline=None)
def test_decode_token_wise_rows_equal_prefill_of_one_token(cfg, b, s_past, layout):
    # Both phases have t = b here. TINY at the same b checks that decode rows
    # shared between calls belong to the config asked for, not only to b.
    for model in (cfg, TINY):
        decode = decode_op_costs(model, b, s_past, cache_layout=layout)
        prefill = prefill_op_costs(model, b, 1)
        assert set(by_kind(decode)) - set(by_kind(prefill)) == {"CacheUpdate"}
        assert token_wise(decode) == token_wise(prefill)


def test_decode_calls_return_fresh_lists_of_frozen_rows():
    first = decode_op_costs(LLAMA7B, 8, 512)
    want = list(first)
    first.reverse()
    first.pop()
    second = decode_op_costs(LLAMA7B, 8, 512)
    assert second == want and second is not first
    assert token_wise(decode_op_costs(LLAMA7B, 8, 0)) == token_wise(want)
    with pytest.raises(dataclasses.FrozenInstanceError):
        second[0].flops = 0


@given(cfg=model_configs(), x=st.integers(1, 16), y=st.integers(1, 16),
       z=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_prefill_rows_are_shared_per_token_count(cfg, x, y, z):
    # (x*y, z) and (x, y*z) hold the same t = xyz tokens, so both calls return
    # the same token-wise row objects, equal to rows built without the cache;
    # TINY at the same t gets rows of its own.
    t = x * y * z
    first, second = prefill_op_costs(cfg, x * y, z), prefill_op_costs(cfg, x, y * z)
    assert first is not second
    rows = first[:2] + first[3:]
    assert all(a is b for a, b in zip(rows, second[:2] + second[3:]))
    assert tuple(rows) == _token_ops.__wrapped__(cfg, t)
    tiny = prefill_op_costs(TINY, x * y, z)
    assert tuple(tiny[:2] + tiny[3:]) == _token_ops.__wrapped__(TINY, t)
    # Decode at b = t shares the same rows, whatever its history.
    decode = decode_op_costs(cfg, t, z)
    assert all(a is b for a, b in zip(rows, decode[:2] + decode[4:]))
    want = list(first)
    first.clear()
    assert prefill_op_costs(cfg, x * y, z) == want


def test_token_row_cache_holds_one_analytic_grid_pass():
    # The analytic-grid benchmark's points: 1,024 prefill and 10 more decode
    # (model, t) pairs. A second pass over them builds no row.
    def grid_pass():
        for cfg in MODEL_PRESETS.values():
            for b in (1, 2, 4, 8, 16, 32, 64):
                for s in range(32, 4097, 32):
                    prefill_op_costs(cfg, b, s)
                    decode_op_costs(cfg, b, s)
    _token_ops.cache_clear()
    grid_pass()
    assert _token_ops.cache_info().misses == _token_ops.cache_info().currsize == 1034
    grid_pass()
    assert _token_ops.cache_info().misses == 1034
    assert _token_ops.cache_info().maxsize == _TOKEN_OPS_CACHE_SIZE


def test_cache_update_layout_sensitivity():
    paged = by_kind(decode_op_costs(LLAMA7B, 8, 512, cache_layout=Paged()))
    token = by_kind(decode_op_costs(LLAMA7B, 8, 512, cache_layout=TokenGranular()))
    vanilla = by_kind(decode_op_costs(LLAMA7B, 8, 512, cache_layout=Vanilla(2048)))
    assert paged["CacheUpdate"].mops == token["CacheUpdate"].mops
    assert vanilla["CacheUpdate"].mops == 513 * paged["CacheUpdate"].mops
    assert paged["CacheUpdate"].flops == vanilla["CacheUpdate"].flops == 0


# --- aggregation and KV sizing -----------------------------------------------

def test_aggregate_scales_by_layer_count():
    ops = prefill_op_costs(LLAMA7B, 8, 512)
    total = aggregate(ops, LLAMA7B)
    assert total.total_flops == 32 * sum(c.flops for c in ops)
    assert total.total_mops == 32 * sum(c.mops for c in ops)
    assert total.arithmetic_intensity == pytest.approx(
        total.total_flops / total.total_mops)
    assert (total.flops, total.mops) == (total.total_flops, total.total_mops)
    with pytest.raises(ValueError, match="QKV_PROJ"):
        aggregate(ops + [ops[0]], LLAMA7B)
    assert aggregate([], LLAMA7B) == ModelCost(0, 0)


def test_kv_cache_bytes_pinned_values():
    assert kv_cache_bytes(LLAMA7B, 1, 1) == 524288           # 2 * 32 * 4096 * 2
    assert kv_cache_bytes(LLAMA7B, 8, 512) == 2147483648
    assert kv_cache_bytes(LLAMA7B, 0, 512) == 0
    with pytest.raises(ValueError):
        kv_cache_bytes(LLAMA7B, -1, 512)


@given(b=st.integers(0, 32), s=st.integers(0, 4096))
@settings(max_examples=40, deadline=None)
def test_kv_cache_bytes_bilinear(b, s):
    assert kv_cache_bytes(LLAMA7B, b, s) == b * s * kv_cache_bytes(LLAMA7B, 1, 1)


# --- weight bytes ------------------------------------------------------------

def test_weight_bytes_pinned_values():
    # bf16 weights of 6,738,415,616 and 13,015,864,320 parameters.
    assert weight_bytes(MODEL_PRESETS["llama2-7b"]) == 13_476_831_232
    assert weight_bytes(MODEL_PRESETS["llama2-13b"]) == 26_031_728_640


@given(cfg=model_configs(), vocab=st.integers(1, 256000))
@settings(max_examples=60, deadline=None)
def test_weight_bytes_counts_every_weight_once(cfg, vocab):
    # Per layer: Wq, Wk, Wv, Wo (h x h each), gate, up and down (h x h' each)
    # and two norms (h each); then embedding and LM head (V x h each) and the
    # final norm.
    h, hf, l, w = (cfg.hidden_size, cfg.intermediate_size, cfg.num_layers,
                   cfg.bytes_per_scalar)
    want = w * (l * (4 * h * h + 3 * h * hf + 2 * h) + 2 * vocab * h + h)
    assert weight_bytes(dataclasses.replace(cfg, vocab_size=vocab)) == want


def test_weight_bytes_need_a_vocabulary():
    with pytest.raises(ConfigError, match="vocab_size"):
        weight_bytes(LLAMA7B)


def test_benchmark_weight_bytes_are_the_models(monkeypatch):
    # bench/workloads.py writes its weight bytes out by hand; they must stay
    # the models' own.
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))  # workloads imports hostspeed
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as it is
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.WEIGHT_BYTES == {name: weight_bytes(cfg)
                                      for name, cfg in MODEL_PRESETS.items()}


# --- golden digest -----------------------------------------------------------

# sha256 over every (kind, flops, mops, repr(intensity)) row and every set of
# aggregate totals on the grid below. A refactor of the cost model that changes
# no number leaves it unchanged; update it only for a declared change of
# specification.
COST_MODEL_DIGEST = "617a64778417528d38957abc705fa5d36f9486cc1e4eafa010c16cd82f62b8f2"


def _cost_model_rows():
    layouts = {"paged": Paged(16), "vanilla": Vanilla(8192),
               "token": TokenGranular()}
    for cfg in (MODEL_PRESETS["llama2-7b"], MODEL_PRESETS["llama2-13b"], TINY):
        for b in (1, 2, 7, 64):
            for s in (1, 2, 31, 512, 4096):
                phases = [("prefill", prefill_op_costs(cfg, b, s))]
                phases += [(name, decode_op_costs(cfg, b, s, cache_layout=layout))
                           for name, layout in layouts.items()]
                for phase, ops in phases:
                    for op in ops:
                        yield (phase, b, s, op.kind.value, op.flops, op.mops,
                               repr(op.arithmetic_intensity))
                    total = aggregate(ops, cfg)
                    yield (phase, b, s, "total", total.total_flops,
                           total.total_mops, repr(total.arithmetic_intensity))


def test_cost_model_golden_digest():
    digest = hashlib.sha256()
    for row in _cost_model_rows():
        digest.update(repr(row).encode())
    assert digest.hexdigest() == COST_MODEL_DIGEST


# sha256 over the roofline and KV outputs on the same grid: the bound of every
# op and the roofline floor of every aggregate on each hardware preset, and
# each layout's footprint of a ragged batch (so Paged rounds some lengths up),
# per-step cache traffic and concurrency. Same update rule as above.
ROOFLINE_KV_DIGEST = "3186504f7535731d34ae3b84fd70628df29d7aae02c35644868a50ae155f689d"


def _roofline_kv_rows():
    layouts = (Paged(16), Vanilla(8192), TokenGranular())
    for cfg in (MODEL_PRESETS["llama2-7b"], MODEL_PRESETS["llama2-13b"], TINY):
        for b in (1, 2, 7, 64):
            for s in (1, 2, 31, 512, 4096):
                op_lists = [prefill_op_costs(cfg, b, s)]
                op_lists += [decode_op_costs(cfg, b, s, cache_layout=layout)
                             for layout in layouts]
                for name, hw in sorted(HARDWARE_PRESETS.items()):
                    yield (name, b, s,
                           [classify(op, hw).value for ops in op_lists for op in ops],
                           [repr(lower_bound_time(aggregate(ops, cfg), hw))
                            for ops in op_lists])
                for layout in layouts:
                    stats = footprint(layout, cfg, [s + i for i in range(b)])
                    yield (repr(layout), b, s, stats.allocated_bytes, stats.live_bytes,
                           stats.wasted_bytes, cache_step_bytes(layout, cfg, b, s),
                           [max_concurrency(layout, cfg, hw, 10 ** 9, s)
                            for _, hw in sorted(HARDWARE_PRESETS.items())])


def test_roofline_and_kv_golden_digest():
    digest = hashlib.sha256()
    for row in _roofline_kv_rows():
        digest.update(repr(row).encode())
    assert digest.hexdigest() == ROOFLINE_KV_DIGEST
