"""The recursive string family and the assembled recurrent point.

The oracle here rebuilds the point by literal concatenation of family
strings, fully independent of the package's level-wise window build and of
its closed-form symbol lookup.  The two-table lookup that the |n| closed form
replaced is kept as a second, differential reference for both over the whole
supported range.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unpredictable import (DomainError, ResourceError, family, point_symbol,
                           point_window)
from unpredictable.point import MAX_LEVEL, MAX_WINDOW

RIGHT_TOTAL_24 = 23 * 2 ** 24 + 1       # right-side symbols through level 24
LEFT_TOTAL_24 = RIGHT_TOTAL_24 - 1      # left side omits the level-1 string


def _family(r):
    strings = ["0", "1"]
    for _ in range(r - 1):
        strings = [s + b for s in strings for b in "01"]
    return strings


def right_text(levels):
    """Indices 0, 1, 2, ... : odd-position strings of each level in order."""
    parts = []
    for r in range(1, levels + 1):
        fam = _family(r)
        parts.extend(fam[k] for k in range(0, len(fam), 2))
    return "".join(parts)


def left_text(levels):
    """Indices -N..-1 in reading order: even-position strings, deepest
    level leftmost, descending within each level."""
    parts = []
    for r in range(levels, 1, -1):
        fam = _family(r)
        parts.extend(fam[k] for k in range(len(fam) - 1, 0, -2))
    return "".join(parts)


def as_string(window):
    return "".join(str(int(v)) for v in window.symbols)


class TestFamily:
    def test_level_one(self):
        assert family(1) == ("0", "1")

    def test_level_two(self):
        assert family(2) == ("00", "01", "10", "11")

    def test_level_three_matches_binary_counting(self):
        assert family(3) == tuple(f"{k:03b}" for k in range(8))

    @pytest.mark.parametrize("r", [4, 7, 10])
    def test_children_extend_parents(self, r):
        parents = family(r - 1)
        children = family(r)
        for k, parent in enumerate(parents):
            assert children[2 * k] == parent + "0"
            assert children[2 * k + 1] == parent + "1"

    def test_level_must_be_positive(self):
        with pytest.raises(DomainError):
            family(0)

    def test_level_cap(self):
        with pytest.raises(ResourceError):
            family(25)

    def test_allocation_limit(self):
        # level r holds r * 2**r symbols: level 16 is exactly MAX_WINDOW
        assert 16 << 16 == MAX_WINDOW
        assert len(family(16)) == 1 << 16
        with pytest.raises(ResourceError, match="symbols"):
            family(17)
        # the level cap is checked first, before r << r is formed
        with pytest.raises(ResourceError, match=f"maximum {MAX_LEVEL}"):
            family(10 ** 9)


class TestPointSymbols:
    def test_origin_holds_the_zero_string(self):
        assert point_symbol(0) == 0

    def test_first_right_symbols(self):
        # 0 . 00 . 10 laid end to end
        assert [point_symbol(i) for i in range(5)] == [0, 0, 0, 1, 0]

    def test_first_left_symbols(self):
        # reading leftward: 01 then 11
        assert [point_symbol(i) for i in (-1, -2, -3, -4)] == [1, 0, 1, 1]

    def test_window_prefix_frozen(self):
        assert as_string(point_window(0, 17)) == "00010000010100110"

    def test_window_reads_the_module_picture(self):
        # ... 111 101 011 001 11 01 . 0 00 10 000 010 100 110 ...
        assert as_string(point_window(-16, 33)) == \
            "1111010110011101" + "00010000010100110"

    def test_window_keeps_uint8_positions(self):
        w = point_window(-40, 80)
        assert w._positions.dtype == np.uint8
        assert np.array_equal(w._positions, w.symbols)

    def test_window_allocates_its_positions_only(self):
        # 1 byte a symbol of uint8 positions, and for one side of 2**19
        # symbols a level's bit matrix (32 bits per string of r >= 17
        # symbols, under 2 bytes a symbol) with its ravelled copy (1 byte):
        # under 3 bytes a symbol, where float64 values alone took 8
        tracemalloc.start()
        try:
            w = point_window(-(1 << 19), 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) == MAX_WINDOW
        assert peak < 3 * MAX_WINDOW

    def test_window_matches_symbolwise_lookup(self):
        w = point_window(-40, 80)
        assert [int(v) for v in w.symbols] == \
            [point_symbol(i) for i in range(-40, 40)]

    def test_right_side_equals_concatenation_oracle(self):
        text = right_text(8)
        assert as_string(point_window(0, len(text))) == text

    def test_left_side_equals_concatenation_oracle(self):
        text = left_text(8)
        assert as_string(point_window(-len(text), len(text))) == text

    def test_boundary_of_supported_range(self):
        # rightmost stored string is number 2**24 - 2, which ends in 0;
        # leftmost is number 2**24 - 1, all ones
        assert point_symbol(RIGHT_TOTAL_24 - 1) == 0
        assert point_symbol(-LEFT_TOTAL_24) == 1

    def test_right_resource_limit(self):
        with pytest.raises(ResourceError):
            point_symbol(RIGHT_TOTAL_24)

    def test_left_resource_limit(self):
        with pytest.raises(ResourceError):
            point_symbol(-(LEFT_TOTAL_24 + 1))

    def test_window_length_cap(self):
        with pytest.raises(ResourceError):
            point_window(0, 2 ** 20 + 1)

    def test_window_length_positive(self):
        with pytest.raises(DomainError):
            point_window(0, 0)


WHOLE_NUMBER_ARGUMENTS = {
    "index": point_symbol,
    "first_index": lambda x: point_window(x, 8),
    "length": lambda x: point_window(-4, x),
    "level": family,
}


@pytest.mark.parametrize("bad", [2.5, 10.7, math.nan, math.inf, "3", True])
@pytest.mark.parametrize("name", list(WHOLE_NUMBER_ARGUMENTS))
def test_whole_number_arguments_are_exact(name, bad):
    # 10.7 used to be read as 10, and True as 1
    call = WHOLE_NUMBER_ARGUMENTS[name]
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        call(bad)
    assert call(np.int64(3)) == call(3)


class TestEmbeddedPatterns:
    def test_every_odd_family_string_recurs_on_the_right(self):
        text = as_string(point_window(0, len(right_text(12))))
        for r in range(1, 13):
            fam = _family(r)
            for k in range(0, len(fam), 2):
                assert fam[k] in text

    def test_every_even_family_string_recurs_on_the_left(self):
        n = len(left_text(12))
        text = as_string(point_window(-n, n))
        for r in range(2, 13):
            fam = _family(r)
            for k in range(1, len(fam), 2):
                assert fam[k] in text

    def test_all_short_patterns_appear(self):
        # any pattern of length <= 8 occurs within the first few levels
        text = as_string(point_window(0, len(right_text(9))))
        for width in range(1, 9):
            seen = {text[i:i + width] for i in range(len(text) - width + 1)}
            assert len(seen) == 2 ** width


def _right_cum(r: int) -> int:
    # symbols at indices 0..R-1 after laying down levels 1..r on the right
    return (r - 1) * (1 << r) + 1 if r >= 1 else 0


def _left_cum(r: int) -> int:
    # symbols at indices -L..-1 after laying down levels 2..r on the left
    return _right_cum(r) - 1 if r >= 2 else 0


_RIGHT_CUM = np.array([_right_cum(r) for r in range(MAX_LEVEL + 1)],
                      dtype=np.int64)
_LEFT_CUM = np.array([_left_cum(r) for r in range(MAX_LEVEL + 1)],
                     dtype=np.int64)


def _symbols_at(indices: np.ndarray) -> np.ndarray:
    """The two-table lookup the |n| closed form replaced, kept verbatim."""
    out = np.empty(indices.shape, dtype=np.int64)

    pos = indices >= 0
    n = indices[pos]
    if n.size:
        r = np.searchsorted(_RIGHT_CUM, n, side="right")
        if r.size and int(r.max()) > MAX_LEVEL:
            raise ResourceError(
                f"index {int(n.max())} lies beyond level {MAX_LEVEL}")
        m = n - _RIGHT_CUM[r - 1]
        q, c = np.divmod(m, r)
        # string number 2q (0-based) of level r, digit c from the left
        out[pos] = (2 * q >> (r - 1 - c)) & 1

    d = -indices[~pos]
    if d.size:
        r = np.searchsorted(_LEFT_CUM, d, side="left")
        if r.size and int(r.max()) > MAX_LEVEL:
            raise ResourceError(
                f"index {-int(d.max())} lies beyond level {MAX_LEVEL}")
        m = d - 1 - _LEFT_CUM[r - 1]
        q, c = np.divmod(m, r)
        # string number 2q + 1 of level r, digit c from the right
        out[~pos] = (2 * q + 1 >> c) & 1

    return out


def assert_window_matches_two_tables(first, length):
    """point_window and the two-table lookup agree on the symbols, or raise
    the same ResourceError."""
    indices = first + np.arange(length, dtype=np.int64)
    try:
        want = _symbols_at(indices)
    except ResourceError as exc:
        with pytest.raises(ResourceError) as got:
            point_window(first, length)
        assert str(got.value) == str(exc)
        return
    w = point_window(first, length)
    assert w.symbols.dtype == np.float64
    assert np.array_equal(w.symbols, want)


class TestTwoTableReference:
    @pytest.mark.parametrize("first", range(-2 ** 21, 2 ** 21, MAX_WINDOW))
    def test_every_index_near_the_origin(self, first):
        assert_window_matches_two_tables(first, MAX_WINDOW)

    @pytest.mark.parametrize("first, length", [
        (RIGHT_TOTAL_24 - MAX_WINDOW, MAX_WINDOW),
        (RIGHT_TOTAL_24 - 1, 1),
        (RIGHT_TOTAL_24 - 7, 8),           # one past the right end
        (RIGHT_TOTAL_24, 1),
        (-LEFT_TOTAL_24, MAX_WINDOW),
        (-LEFT_TOTAL_24, 1),
        (-LEFT_TOTAL_24 - 1, 8),           # one past the left end
        (-LEFT_TOTAL_24 - 8, 8),
        (-3, 7),                           # straddles the origin
    ])
    def test_windows_at_both_ends(self, first, length):
        assert_window_matches_two_tables(first, length)

    def test_random_indices(self):
        rng = np.random.default_rng(20191028)
        indices = rng.integers(-LEFT_TOTAL_24, RIGHT_TOTAL_24, 10 ** 5)
        want = _symbols_at(indices)
        assert [point_symbol(i) for i in indices.tolist()] == want.tolist()


#: Both sides of every level boundary, the origin and both ends of level 24.
LEVEL_EDGES = sorted({s * _right_cum(r) for r in range(MAX_LEVEL + 1)
                      for s in (1, -1)})


@st.composite
def windows_near_edges(draw, lengths):
    """(first, length) whose window ends at, starts at or straddles an edge."""
    length = draw(lengths)
    edge = draw(st.sampled_from(LEVEL_EDGES))
    return edge - draw(st.integers(-2, length + 2)), length


class TestLevelWiseBuild:
    @given(windows_near_edges(st.integers(1, 5000)))
    @settings(max_examples=300, deadline=None)
    def test_short_windows_match_two_tables(self, window):
        assert_window_matches_two_tables(*window)

    @given(windows_near_edges(st.sampled_from(
        [MAX_WINDOW // 3, MAX_WINDOW - 1, MAX_WINDOW])))
    @settings(max_examples=8, deadline=None)
    def test_long_windows_match_two_tables(self, window):
        assert_window_matches_two_tables(*window)


class TestLevelLimitOnExactIntegers:
    @pytest.mark.parametrize("index", [-2 ** 63, 2 ** 63, -2 ** 64,
                                       99999999999999999999])
    def test_far_indices_raise(self, index):
        with pytest.raises(ResourceError, match=f"index {index} lies beyond"):
            point_symbol(index)
        with pytest.raises(ResourceError, match=f"index {index} lies beyond"):
            point_window(index, 1)

    def test_window_names_its_last_index(self):
        with pytest.raises(ResourceError,
                           match=f"index {2 ** 63 + 4} lies beyond"):
            point_window(2 ** 63, 5)
