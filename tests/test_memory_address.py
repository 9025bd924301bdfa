"""Unit tests for address arithmetic and home mapping."""

import pytest

from repro.memory import AddressMap, FirstTouchMapping


class TestAddressMap:
    def test_default_geometry(self):
        amap = AddressMap()
        assert amap.line_size == 32
        assert amap.word_size == 4
        assert amap.words_per_line == 8

    def test_line_of_splits_at_line_boundaries(self):
        amap = AddressMap(line_size=32)
        assert amap.line_of(0) == 0
        assert amap.line_of(31) == 0
        assert amap.line_of(32) == 1
        assert amap.line_of(95) == 2

    def test_word_of_cycles_within_line(self):
        amap = AddressMap(line_size=32, word_size=4)
        assert amap.word_of(0) == 0
        assert amap.word_of(4) == 1
        assert amap.word_of(28) == 7
        assert amap.word_of(32) == 0

    def test_addr_of_is_inverse(self):
        amap = AddressMap()
        for line in (0, 1, 17, 1000):
            for word in range(amap.words_per_line):
                addr = amap.addr_of(line, word)
                assert amap.line_of(addr) == line
                assert amap.word_of(addr) == word

    def test_word_bit_masks(self):
        amap = AddressMap()
        assert amap.word_bit(0) == 1
        assert amap.word_bit(4) == 2
        assert amap.word_bit(28) == 128

    def test_full_line_mask(self):
        assert AddressMap(line_size=32, word_size=4).full_line_mask == 0xFF
        assert AddressMap(line_size=64, word_size=8).full_line_mask == 0xFF

    def test_words_in_mask(self):
        amap = AddressMap()
        assert list(amap.words_in_mask(0b1010_0001)) == [0, 5, 7]
        assert list(amap.words_in_mask(0)) == []

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            AddressMap(line_size=24)
        with pytest.raises(ValueError):
            AddressMap(word_size=3)
        with pytest.raises(ValueError):
            AddressMap(line_size=4, word_size=8)


class TestFirstTouchMapping:
    def test_first_toucher_becomes_home(self):
        mapping = FirstTouchMapping(n_nodes=4, page_size=4096, line_size=32)
        assert mapping.touch(0, node=2) == 2
        assert mapping.home(0) == 2

    def test_whole_page_shares_home(self):
        mapping = FirstTouchMapping(n_nodes=4, page_size=4096, line_size=32)
        mapping.touch(0, node=3)
        # 4096 / 32 = 128 lines per page, all homed at node 3.
        assert mapping.home(127) == 3
        assert mapping.home(128) != 3 or mapping.home(128) == 128 // 128 % 4

    def test_second_touch_does_not_move_page(self):
        mapping = FirstTouchMapping(n_nodes=4)
        mapping.touch(0, node=1)
        assert mapping.touch(5, node=2) == 1

    def test_untouched_page_falls_back_to_interleave(self):
        mapping = FirstTouchMapping(n_nodes=4, page_size=4096, line_size=32)
        # Page p of untouched line homes at p % nodes.
        assert mapping.home(128 * 7) == 7 % 4

    def test_placed_pages_counter(self):
        mapping = FirstTouchMapping(n_nodes=2)
        mapping.touch(0, node=0)
        mapping.touch(4096 // 32, node=1)
        assert mapping.placed_pages == 2

    def test_page_size_must_cover_lines(self):
        with pytest.raises(ValueError):
            FirstTouchMapping(n_nodes=2, page_size=100, line_size=32)
