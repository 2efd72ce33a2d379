"""Cache layout allocation math, per-step traffic, footprints, concurrency."""

import dataclasses
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infercost import CacheLayout, Paged, ReservedOverflowError, TokenGranular, Vanilla
from infercost.arch import ModelConfig
from infercost.costmodel import kv_cache_bytes
from infercost.hardware import HARDWARE_PRESETS, HardwareSpec
from infercost.kvsim import (
    CacheStats,
    allocated_tokens,
    cache_step_bytes,
    footprint,
    max_concurrency,
)
from infercost.servesim import KvCapacity

LLAMA7B = ModelConfig(4096, 11008, 32, 128, 32)
UNIT = ModelConfig(1, 1, 1, 1, 1)  # h=1, one head of dim 1, one layer
A800 = HARDWARE_PRESETS["a800"]

layouts = st.one_of(
    st.builds(Vanilla, reserved_len=st.integers(1, 4096)),
    st.builds(Paged, block_size=st.integers(1, 64)),
    st.just(TokenGranular()),
)


class TestAllocatedTokens:
    def test_vanilla_always_reserved(self):
        layout = Vanilla(reserved_len=2048)
        assert allocated_tokens(layout, 0) == 2048
        assert allocated_tokens(layout, 1) == 2048
        assert allocated_tokens(layout, 2048) == 2048

    def test_vanilla_overflow(self):
        with pytest.raises(ReservedOverflowError, match="exceeds reserved_len=2048"):
            allocated_tokens(Vanilla(reserved_len=2048), 2049)

    def test_paged_rounds_up_to_blocks(self):
        layout = Paged(block_size=16)
        assert allocated_tokens(layout, 0) == 0
        assert allocated_tokens(layout, 1) == 16
        assert allocated_tokens(layout, 16) == 16
        assert allocated_tokens(layout, 17) == 32
        assert allocated_tokens(layout, 511) == 512

    def test_paged_is_exact_past_float_precision(self):
        # 2**53 + 1 has no float; a float ceil rounds it down to 2**53.
        length = 2 ** 53 + 1
        assert allocated_tokens(Paged(16), length) == 2 ** 53 + 16
        stats = footprint(Paged(16), UNIT, [length, 1])
        assert stats.wasted_bytes == 30 * kv_cache_bytes(UNIT, 1, 1)

    def test_token_granular_is_exact(self):
        assert allocated_tokens(TokenGranular(), 0) == 0
        assert allocated_tokens(TokenGranular(), 137) == 137

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            allocated_tokens(TokenGranular(), -1)

    @given(length=st.integers(0, 100_000), block=st.integers(1, 64))
    def test_paged_never_below_token_granular(self, length, block):
        paged = allocated_tokens(Paged(block), length)
        exact = allocated_tokens(TokenGranular(), length)
        assert exact <= paged < exact + block

    @given(length=st.integers(0, 4096))
    def test_block_size_one_equals_token_granular(self, length):
        assert allocated_tokens(Paged(1), length) == allocated_tokens(TokenGranular(), length)


class TestCacheStepBytes:
    def test_unit_config_append_is_eight_bytes(self):
        # One appended token: K and V, one scalar each, read + write, 2 bytes
        # per scalar -> 2 tensors * 2 passes * 2 bytes = 8.
        assert cache_step_bytes(TokenGranular(), UNIT, 1, 0) == 8
        assert cache_step_bytes(Paged(16), UNIT, 1, 99) == 8

    def test_vanilla_scales_with_history(self):
        assert cache_step_bytes(Vanilla(4096), UNIT, 1, 0) == 8
        assert cache_step_bytes(Vanilla(4096), UNIT, 1, 511) == 8 * 512

    def test_vanilla_to_paged_ratio(self):
        for s_past in (1, 511, 2047):
            vanilla = cache_step_bytes(Vanilla(4096), LLAMA7B, 8, s_past)
            paged = cache_step_bytes(Paged(16), LLAMA7B, 8, s_past)
            assert vanilla == paged * (s_past + 1)

    def test_llama7b_paged_step(self):
        # 2 tensors * read+write * 2 B * 4096 * 32 layers * b=8
        assert cache_step_bytes(Paged(16), LLAMA7B, 8, 511) == 2 * 2 * 2 * 4096 * 32 * 8

    def test_vanilla_is_not_priced_past_its_reservation(self):
        # An append at s_past grows a sequence to s_past + 1 tokens, which
        # footprint refuses past reserved_len; the step price refuses it too.
        assert cache_step_bytes(Vanilla(64), LLAMA7B, 1, 63) == 64 * 2 * 2 * 2 * 4096 * 32
        footprint(Vanilla(64), LLAMA7B, [64])
        for s_past in (64, 100):
            with pytest.raises(ReservedOverflowError, match=f"{s_past + 1} tokens"):
                cache_step_bytes(Vanilla(64), LLAMA7B, 1, s_past)
            with pytest.raises(ReservedOverflowError):
                footprint(Vanilla(64), LLAMA7B, [s_past + 1])

    def test_validation(self):
        with pytest.raises(ValueError, match="b must be >= 1"):
            cache_step_bytes(Paged(16), UNIT, 0, 1)
        with pytest.raises(ValueError, match="s_past must be >= 0"):
            cache_step_bytes(Paged(16), UNIT, 1, -1)
        with pytest.raises(TypeError, match="unknown cache layout"):
            cache_step_bytes(None, UNIT, 1, 1)

    @given(b=st.integers(1, 64), s_past=st.integers(0, 8192))
    def test_paged_step_is_history_free(self, b, s_past):
        assert (cache_step_bytes(Paged(16), LLAMA7B, b, s_past)
                == cache_step_bytes(Paged(16), LLAMA7B, b, 0))


class TestFootprint:
    def test_token_granular_has_no_waste(self):
        stats = footprint(TokenGranular(), LLAMA7B, [512, 100, 7])
        per_token = kv_cache_bytes(LLAMA7B, 1, 1)
        assert stats.live_bytes == per_token * 619
        assert stats.wasted_bytes == 0
        assert stats.allocated_bytes == stats.live_bytes

    def test_paged_waste_is_block_remainder(self):
        stats = footprint(Paged(16), LLAMA7B, [17])
        per_token = kv_cache_bytes(LLAMA7B, 1, 1)
        assert stats.allocated_bytes == per_token * 32
        assert stats.wasted_bytes == per_token * 15

    def test_vanilla_waste_is_unfilled_reservation(self):
        stats = footprint(Vanilla(2048), LLAMA7B, [512, 512])
        per_token = kv_cache_bytes(LLAMA7B, 1, 1)
        assert stats.allocated_bytes == per_token * 4096
        assert stats.live_bytes == per_token * 1024
        assert stats.wasted_bytes == per_token * 3072

    def test_vanilla_overflows_at_its_longest_sequence(self):
        with pytest.raises(ReservedOverflowError, match="9 tokens exceeds reserved_len=8"):
            footprint(Vanilla(8), UNIT, [4, 9, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            footprint(Paged(16), LLAMA7B, [])

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            footprint(Paged(16), LLAMA7B, [4, -1])

    @given(layout=layouts, lens=st.lists(st.integers(0, 4096), min_size=1, max_size=8))
    def test_accounting_identity(self, layout, lens):
        try:
            stats = footprint(layout, UNIT, lens)
        except ReservedOverflowError:
            assert isinstance(layout, Vanilla)
            assert max(lens) > layout.reserved_len
            return
        assert stats.allocated_bytes == stats.live_bytes + stats.wasted_bytes
        assert stats.wasted_bytes >= 0
        # The per-layout closed forms equal the per-sequence sum.
        assert stats.allocated_bytes == kv_cache_bytes(UNIT, 1, 1) * sum(
            allocated_tokens(layout, length) for length in lens)

    def test_cache_stats_identity_enforced(self):
        with pytest.raises(ValueError, match="live_bytes \\+ wasted_bytes"):
            CacheStats(allocated_bytes=10, live_bytes=5, wasted_bytes=4)

    def test_cache_stats_keeps_the_dataclass_contract(self):
        stats = CacheStats(10, 6, 4)
        assert stats == CacheStats(allocated_bytes=10, live_bytes=6, wasted_bytes=4)
        assert stats != CacheStats(10, 7, 3)
        assert [f.name for f in dataclasses.fields(CacheStats)] == [
            "allocated_bytes", "live_bytes", "wasted_bytes"]
        assert dataclasses.replace(stats, live_bytes=7, wasted_bytes=3) == CacheStats(10, 7, 3)
        assert hash(stats) == hash((10, 6, 4)) == hash(CacheStats(10, 6, 4))
        assert repr(stats) == "CacheStats(allocated_bytes=10, live_bytes=6, wasted_bytes=4)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.live_bytes = 7
        # replace runs the checks again.
        with pytest.raises(ValueError, match="live_bytes \\+ wasted_bytes"):
            dataclasses.replace(stats, live_bytes=7)
        with pytest.raises(ValueError, match="wasted_bytes must be >= 0"):
            dataclasses.replace(stats, live_bytes=11, wasted_bytes=-1)
        with pytest.raises(ValueError, match="live_bytes must be an integer"):
            dataclasses.replace(stats, live_bytes=6.0)


class TestMaxConcurrency:
    def test_llama7b_on_a800(self):
        # 80 GB card, 13.5 GB of weights, 2048-token sequences at
        # 1 MiB/4 tokens: floor((80e9 - 13.5e9) / (2048 * 524288)).
        got = max_concurrency(Paged(16), LLAMA7B, A800,
                              model_weight_bytes=13_500_000_000, per_seq_len=2048)
        assert got == 61

    def test_layout_changes_the_answer(self):
        kwargs = dict(cfg=LLAMA7B, hw=A800,
                      model_weight_bytes=13_500_000_000, per_seq_len=2049)
        # 2049 tokens round to 2064 under 16-token blocks and to 4096 under a
        # 4096-token reservation.
        token = max_concurrency(TokenGranular(), **kwargs)
        paged = max_concurrency(Paged(16), **kwargs)
        vanilla = max_concurrency(Vanilla(4096), **kwargs)
        assert token >= paged >= vanilla
        assert vanilla == 30

    def test_zero_is_valid(self):
        hw = HardwareSpec("tiny", 10, 1, 1)
        assert max_concurrency(TokenGranular(), UNIT, hw,
                               model_weight_bytes=9, per_seq_len=1) == 0

    def test_weights_must_fit(self):
        with pytest.raises(ValueError, match="do not fit"):
            max_concurrency(Paged(16), LLAMA7B, A800,
                            model_weight_bytes=80 * 10 ** 9, per_seq_len=1)

    def test_length_and_weight_validation(self):
        with pytest.raises(ValueError, match="per_seq_len"):
            max_concurrency(Paged(16), LLAMA7B, A800, 0, 0)
        with pytest.raises(ValueError, match="model_weight_bytes"):
            max_concurrency(Paged(16), LLAMA7B, A800, -1, 1)

    @given(weight=st.integers(0, 79_000_000_000), length=st.integers(1, 16384))
    def test_result_actually_fits(self, weight, length):
        m = max_concurrency(TokenGranular(), LLAMA7B, A800, weight, length)
        per_seq = kv_cache_bytes(LLAMA7B, 1, 1) * length
        assert weight + m * per_seq <= A800.memory_bytes
        assert weight + (m + 1) * per_seq > A800.memory_bytes


# Each call takes a layout; a KvCapacity checks its layout where it is built,
# not at the first reservation.
LAYOUT_CALLS = {
    "allocated_tokens": lambda layout: allocated_tokens(layout, 4),
    "footprint": lambda layout: footprint(layout, UNIT, [4]),
    "cache_step_bytes": lambda layout: cache_step_bytes(layout, UNIT, 1, 1),
    "max_concurrency": lambda layout: max_concurrency(layout, LLAMA7B, A800,
                                                      13_500_000_000, 2048),
    "KvCapacity": lambda layout: KvCapacity(layout, 10**9),
}


@pytest.mark.parametrize("layout", ["paged", None, Paged], ids=["str", "None", "class"])
@pytest.mark.parametrize("call", list(LAYOUT_CALLS.values()), ids=list(LAYOUT_CALLS))
def test_unknown_layout_rejected(call, layout):
    with pytest.raises(TypeError, match="unknown cache layout"):
        call(layout)


@dataclass(frozen=True)
class Doubled(CacheLayout):
    """A layout that no module names: two tokens' worth per token, copied on
    every append."""

    copies = True

    def allocated(self, length):
        return 2 * length

    def total_allocated(self, lengths):
        return 2 * sum(lengths)


def test_a_new_layout_is_one_class():
    layout, per_token = Doubled(), kv_cache_bytes(UNIT, 1, 1)
    assert allocated_tokens(layout, 5) == 10
    assert footprint(layout, UNIT, [3, 4]) == CacheStats(14 * per_token, 7 * per_token,
                                                         7 * per_token)
    assert cache_step_bytes(layout, UNIT, 1, 511) == cache_step_bytes(Vanilla(4096), UNIT,
                                                                      1, 511)
    assert (max_concurrency(layout, LLAMA7B, A800, 13_500_000_000, 1024)
            == max_concurrency(TokenGranular(), LLAMA7B, A800, 13_500_000_000, 2048))
    assert KvCapacity(layout, 10**9).layout is layout


# Each call passes a float or a bool where a token or sequence count belongs.
NON_INTEGER_COUNTS = {
    "allocated_tokens-float": lambda: allocated_tokens(Paged(16), 2.5),
    "allocated_tokens-bool": lambda: allocated_tokens(Paged(16), True),
    "footprint-bool": lambda: footprint(Paged(16), LLAMA7B, [True, 3]),
    "footprint-float": lambda: footprint(TokenGranular(), LLAMA7B, [2.5]),
    "kv_cache_bytes-float-b": lambda: kv_cache_bytes(LLAMA7B, 1.5, True),
    "kv_cache_bytes-bool-s": lambda: kv_cache_bytes(LLAMA7B, 1, True),
    "cache_step_bytes-float-b": lambda: cache_step_bytes(Paged(), LLAMA7B, 1.5, 0),
    "cache_step_bytes-bool-s_past": lambda: cache_step_bytes(Paged(), LLAMA7B, 1, True),
    "kv_cache_bytes-None-b": lambda: kv_cache_bytes(LLAMA7B, None, 1),
    "cache_step_bytes-None-b": lambda: cache_step_bytes(Paged(), LLAMA7B, None, 0),
    "max_concurrency-float": lambda: max_concurrency(
        TokenGranular(), LLAMA7B, A800, 13_000_000_000, per_seq_len=2.5),
    "max_concurrency-bool": lambda: max_concurrency(
        TokenGranular(), LLAMA7B, A800, 13_000_000_000, per_seq_len=True),
    # Byte amounts follow the same rule.
    "max_concurrency-float-weight": lambda: max_concurrency(
        TokenGranular(), LLAMA7B, A800, 13e9, 2048),
    "max_concurrency-bool-weight": lambda: max_concurrency(
        TokenGranular(), LLAMA7B, A800, True, 2048),
    "KvCapacity-float": lambda: KvCapacity(Paged(16), 2.5e9),
    "KvCapacity-bool": lambda: KvCapacity(Paged(16), True),
    "CacheStats-float": lambda: CacheStats(2.5, 1.5, 1.0),
    "CacheStats-bool": lambda: CacheStats(True, True, 0),
}


@pytest.mark.parametrize("call", list(NON_INTEGER_COUNTS.values()),
                         ids=list(NON_INTEGER_COUNTS))
def test_counts_must_be_integers(call):
    with pytest.raises(ValueError, match="must be (an integer|integers), got"):
        call()
