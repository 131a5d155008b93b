"""Bit-level chunk serialization tests (repro.arch.bitcodec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arch import WEIGHT_CHUNK_BITS, WeightChunk, pack_weights
from repro.arch.bitcodec import MAX_SPILL_CHUNKS
from repro.reference import decode_chunk, decode_table, encode_chunk, encode_table, packed_from_chunks


class TestSingleChunk:
    def test_plain_chunk_roundtrip(self, rng):
        chunk = WeightChunk(lanes=tuple(int(v) for v in rng.integers(-7, 8, 16)))
        decoded = decode_chunk(encode_chunk(chunk))
        assert decoded.lanes == chunk.lanes
        assert not decoded.has_single_outlier and not decoded.has_multi_outlier

    def test_word_fits_80_bits(self, rng):
        chunk = WeightChunk(lanes=tuple(int(v) for v in rng.integers(-7, 8, 16)))
        assert 0 <= encode_chunk(chunk) < (1 << WEIGHT_CHUNK_BITS)

    def test_single_outlier_roundtrip(self):
        chunk = WeightChunk(lanes=(0, -3, 0, 5) + (0,) * 12, ol_idx=3, ol_msb=7)
        decoded = decode_chunk(encode_chunk(chunk))
        assert decoded.ol_idx == 3
        assert decoded.ol_msb == 7
        assert decoded.lanes == chunk.lanes

    def test_negative_outlier_with_zero_lsb(self):
        """Level -8: lsb magnitude 0, sign must survive the trip."""
        chunk = WeightChunk(lanes=(0,) * 16, ol_idx=4, ol_msb=-1)
        decoded = decode_chunk(encode_chunk(chunk))
        assert decoded.ol_msb == -1
        assert decoded.ol_idx == 4

    def test_multi_outlier_needs_spill_context(self):
        chunk = WeightChunk(lanes=(0,) * 16, ol_ptr=0)
        with pytest.raises(ValueError, match="spill"):
            encode_chunk(chunk)

    def test_field_range_validation(self):
        with pytest.raises(ValueError):
            encode_chunk(WeightChunk(lanes=(9,) + (0,) * 15))
        with pytest.raises(ValueError):
            encode_chunk(WeightChunk(lanes=(0,) * 16, ol_msb=16))
        with pytest.raises(ValueError):
            decode_chunk(1 << WEIGHT_CHUNK_BITS)

    @given(hnp.arrays(np.int64, 16, elements=st.integers(-7, 7)))
    @settings(max_examples=80, deadline=None)
    def test_plain_roundtrip_property(self, lanes):
        chunk = WeightChunk(lanes=tuple(int(v) for v in lanes))
        assert decode_chunk(encode_chunk(chunk)).lanes == chunk.lanes


class TestTableCodec:
    @given(hnp.arrays(np.int64, (32, 9), elements=st.integers(-127, 127)))
    @settings(max_examples=30, deadline=None)
    def test_full_pipeline_bit_roundtrip(self, levels):
        """levels -> pack -> encode -> decode -> unpack == levels.

        This closes the loop: the integer weights survive a trip through
        the literal 80-bit on-chip representation.
        """
        packed = pack_weights(levels)
        base_words, spill_words = encode_table(packed.base_chunks, packed.spill_chunks)
        bases, spills = decode_table(base_words, spill_words)
        packed = packed_from_chunks(bases, spills, packed.n_groups, packed.reduction, packed.out_channels)
        np.testing.assert_array_equal(packed.unpack(), levels)

    def test_negative_even_outliers_roundtrip(self):
        """Levels like -8/-16 have zero LSB magnitude in multiple lanes."""
        levels = np.zeros((16, 1), dtype=np.int64)
        levels[1, 0] = -8
        levels[9, 0] = -16
        packed = pack_weights(levels)
        base_words, spill_words = encode_table(packed.base_chunks, packed.spill_chunks)
        bases, spills = decode_table(base_words, spill_words)
        packed = packed_from_chunks(bases, spills, packed.n_groups, packed.reduction, packed.out_channels)
        np.testing.assert_array_equal(packed.unpack(), levels)

    def test_spill_limit_enforced(self):
        spills = [WeightChunk(lanes=(0,) * 16, is_spill=True)] * (MAX_SPILL_CHUNKS + 1)
        with pytest.raises(ValueError, match="OLptr space"):
            encode_table([], spills)

    def test_storage_size(self, rng):
        levels = rng.integers(-7, 8, size=(16, 25))
        packed = pack_weights(levels)
        base_words, spill_words = encode_table(packed.base_chunks, packed.spill_chunks)
        assert len(base_words) == 25
        assert spill_words == []
