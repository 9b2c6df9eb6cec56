"""Alphabets, windows, the truncated metric, and the shift map."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unpredictable import (BINARY, Alphabet, CoverageError, DomainError,
                           SequenceWindow, format_sequence, metric_distance,
                           parse_sequence, point_window, shift)


def window(first, values, alphabet=BINARY):
    return SequenceWindow(alphabet, first, np.asarray(values, dtype=float))


def exact_distance(a, b, K):
    """Fraction-arithmetic oracle for the truncated metric."""
    total = Fraction(0)
    for k in range(-K, K + 1):
        diff = abs(Fraction(a.value_at(k)) - Fraction(b.value_at(k)))
        total += diff / Fraction(2) ** abs(k)
    return total


class TestAlphabet:
    def test_needs_two_symbols(self):
        with pytest.raises(DomainError):
            Alphabet((1.0,))

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Alphabet((0.0, 1.0, 0.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Alphabet((0.0, float("inf")))

    def test_binary_constants(self):
        assert BINARY.diameter == 1.0
        assert BINARY.epsilon0 == 1.0

    def test_gap_is_smallest_pairwise(self):
        a = Alphabet((0.0, 0.25, 1.0))
        assert a.diameter == 1.0
        assert a.epsilon0 == 0.25


class TestSequenceWindow:
    def test_symbols_must_be_members(self):
        with pytest.raises(DomainError):
            window(0, [0.0, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            window(0, [])

    def test_index_accounting(self):
        w = window(-2, [1, 0, 1, 1, 0])
        assert w.last_index == 2
        assert w.covers(-2, 2)
        assert not w.covers(-3, 0)
        assert w.value_at(-2) == 1.0
        assert w.value_at(2) == 0.0
        assert list(w.segment(-1, 1)) == [0.0, 1.0, 1.0]

    def test_segment_coverage_error(self):
        w = window(0, [0, 1])
        with pytest.raises(CoverageError):
            w.segment(0, 2)

    def test_segment_bounds_out_of_order(self):
        w = window(0, [0, 1, 1])
        with pytest.raises(DomainError, match="out of order"):
            w.segment(2, 1)

    def test_value_at_outside(self):
        w = window(0, [0, 1])
        with pytest.raises(CoverageError):
            w.value_at(-1)

    def test_from_indices_and_back(self):
        a = Alphabet((0.25, -3.5))
        w = SequenceWindow.from_indices(a, -1, [1, 0, 1])
        assert list(w.symbols) == [-3.5, 0.25, -3.5]
        assert list(w.to_indices()) == [1, 0, 1]

    def test_from_indices_rejects_out_of_range(self):
        # and index arrays that are empty or not 1-d
        for indices, message in (
                ([0, 2], "symbol index out of range for the alphabet"),
                ([], "symbols must be a non-empty 1-d array"),
                ([[0, 1]], "symbols must be a non-empty 1-d array")):
            with pytest.raises(DomainError, match=f"^{message}$"):
                SequenceWindow.from_indices(BINARY, 0, indices)

    @pytest.mark.parametrize("indices", [
        [0.5, 1], [0.0, 1.0], np.array([0.0, 1.0]), [2 ** 70], [0, 2 ** 70],
        [-1, 2 ** 63], [True, False]])
    def test_from_indices_rejects_non_integer_indices(self, indices):
        # indices are never truncated, wrapped or overflowed into range
        with pytest.raises(DomainError,
                           match=r"^symbol indices must be integers$"):
            SequenceWindow.from_indices(BINARY, 0, indices)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_from_indices_accepts_any_integer_dtype(self, dtype):
        w = SequenceWindow.from_indices(BINARY, 0, np.array([1, 0], dtype))
        assert list(w.symbols) == [1.0, 0.0]

    def test_to_indices_accepts_negative_zero(self):
        # -0.0 == 0.0, so either sign is a member of an alphabet holding
        # the other, and both map to its position
        for zero, other in ((0.0, -0.0), (-0.0, 0.0)):
            a = Alphabet((3.0, zero, -1.0))
            w = SequenceWindow(a, 0, np.array([other, 3.0, zero, -1.0]))
            assert w.to_indices().tolist() == [1, 0, 1, 2]
            assert np.array_equal(w.to_indices(), dict_to_indices(w))

    def test_symbols_are_read_only(self):
        w = window(0, [0, 1])
        with pytest.raises(ValueError):
            w.symbols[0] = 1.0

    def test_equality(self):
        assert window(0, [0, 1]) == window(0, [0, 1])
        assert window(0, [0, 1]) != window(1, [0, 1])
        assert window(0, [0, 1]) != window(0, [1, 1])


class TestMetric:
    def test_identical_windows(self):
        w = window(-10, [0, 1] * 11)
        value, tail = metric_distance(w, w, 10)
        assert value == 0.0
        assert tail == 2.0 ** -9

    def test_single_origin_difference(self):
        a = window(-3, [0] * 7)
        b = window(-3, [0, 0, 0, 1, 0, 0, 0])
        value, _ = metric_distance(a, b, 3)
        assert value == 1.0

    def test_geometric_block(self):
        # ones on [0, 8] against zeros: sum of 2**-k for k = 0..8
        a = window(-8, [0] * 8 + [1] * 9)
        b = window(-8, [0] * 17)
        value, tail = metric_distance(a, b, 8)
        assert value == 1.99609375
        assert value == float(exact_distance(a, b, 8))
        assert tail == 2.0 ** -7

    def test_weight_decays_with_distance_from_origin(self):
        base = window(-6, [0] * 13)
        near = window(-6, [0] * 6 + [1] + [0] * 6)
        far = window(-6, [0] * 12 + [1])
        assert metric_distance(near, base, 6).value == 1.0
        assert metric_distance(far, base, 6).value == 2.0 ** -6

    def test_alphabet_mismatch(self):
        a = window(-1, [0, 1, 0])
        b = SequenceWindow(Alphabet((0.0, 2.0)), -1, np.array([0.0, 2.0, 0.0]))
        with pytest.raises(DomainError):
            metric_distance(a, b, 1)

    def test_coverage_error(self):
        a = window(-1, [0, 1, 0])
        with pytest.raises(CoverageError):
            metric_distance(a, a, 2)

    def test_half_width_must_be_positive(self):
        a = window(-1, [0, 1, 0])
        with pytest.raises(DomainError):
            metric_distance(a, a, 0)


WHOLE_NUMBER_ARGUMENTS = {
    "half_width": lambda x: metric_distance(
        window(-4, [0, 1] * 5), window(-4, [1, 1] * 5), x),
    "times": lambda x: shift(window(0, [0, 1, 1]), x),
    "first_index": lambda x: window(x, [0, 1, 1]),
}


@pytest.mark.parametrize("bad", [2.5, 1.9, math.nan, math.inf, "3", True])
@pytest.mark.parametrize("name", list(WHOLE_NUMBER_ARGUMENTS))
def test_whole_number_arguments_are_exact(name, bad):
    # shift(w, 1.9) used to move the origin once, and shift(w, True) too
    call = WHOLE_NUMBER_ARGUMENTS[name]
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        call(bad)
    assert call(np.int64(3)) == call(3)


class TestShift:
    def test_moves_origin_right(self):
        w = window(-1, [1, 0, 1])
        s = shift(w)
        assert s.first_index == -2
        # the new value at index k is the old value at k + 1
        assert s.value_at(-1) == w.value_at(0)
        assert s.value_at(0) == w.value_at(1)

    def test_symbols_unchanged(self):
        w = window(3, [0, 1, 1, 0])
        assert np.array_equal(shift(w).symbols, w.symbols)

    def test_repeated(self):
        w = window(0, [0, 1, 1])
        assert shift(w, times=5).first_index == -5
        assert shift(shift(w)).first_index == shift(w, times=2).first_index

    def test_needs_two_symbols(self):
        with pytest.raises(DomainError):
            shift(window(0, [1]))

    def test_times_positive(self):
        with pytest.raises(DomainError):
            shift(window(0, [1, 0]), times=0)

    def test_shares_read_only_symbols(self):
        # the window keeps positions only; its symbols are built from them
        w = window(-3, [0, 1, 1, 0, 1])
        s = shift(w, 2)
        assert np.shares_memory(s._positions, w._positions)
        assert not s._positions.flags.writeable
        with pytest.raises(ValueError):
            s._positions[0] = 1
        with pytest.raises(ValueError):
            s.symbols[0] = 1.0
        assert w.first_index == -3
        assert s == window(-5, [0, 1, 1, 0, 1])

    def test_does_not_check_membership_again(self):
        w = window(0, [0, 1] * 64)
        with mock.patch.object(np, "isin", side_effect=AssertionError), \
                mock.patch.object(np, "searchsorted",
                                  side_effect=AssertionError):
            s = shift(shift(w, 7))
        assert s.first_index == -8


# -- property tests ----------------------------------------------------------

def binary_windows(min_half_width, max_extra=8):
    """Windows guaranteed to cover [-min_half_width, min_half_width]."""
    def build(draw):
        extra = draw(st.integers(0, max_extra))
        n = 2 * (min_half_width + extra) + 1
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        return window(-(min_half_width + extra), bits)
    return st.composite(build)()


@given(a=binary_windows(6), b=binary_windows(6))
@settings(max_examples=150, deadline=None)
def test_metric_symmetry_is_bitwise(a, b):
    assert metric_distance(a, b, 6).value == metric_distance(b, a, 6).value


@given(a=binary_windows(6), b=binary_windows(6))
@settings(max_examples=150, deadline=None)
def test_metric_matches_fraction_oracle(a, b):
    value, _ = metric_distance(a, b, 6)
    assert value == float(exact_distance(a, b, 6))


@given(a=binary_windows(5), b=binary_windows(5))
@settings(max_examples=150, deadline=None)
def test_metric_separates_points(a, b):
    value, _ = metric_distance(a, b, 5)
    same = all(a.value_at(k) == b.value_at(k) for k in range(-5, 6))
    assert (value == 0.0) == same


@given(a=binary_windows(4), b=binary_windows(4), c=binary_windows(4))
@settings(max_examples=150, deadline=None)
def test_metric_triangle_inequality(a, b, c):
    ab = metric_distance(a, b, 4).value
    bc = metric_distance(b, c, 4).value
    ac = metric_distance(a, c, 4).value
    assert ac <= ab + bc + 1e-12


@given(a=binary_windows(9), b=binary_windows(9))
@settings(max_examples=150, deadline=None)
def test_shift_expansiveness_bound(a, b):
    # shifting can at most double the distance seen one index further out
    shifted = metric_distance(shift(a), shift(b), 8).value
    wider = metric_distance(a, b, 9).value
    assert shifted <= 2.0 * wider + 1e-12


@given(a=binary_windows(10), b=binary_windows(10))
@settings(max_examples=100, deadline=None)
def test_tail_bound_covers_hidden_terms(a, b):
    # indices beyond the truncation contribute no more than the tail bound
    K = 4
    value, tail = metric_distance(a, b, K)
    lo = max(a.first_index, b.first_index)
    hi = min(a.last_index, b.last_index)
    full = Fraction(0)
    for k in range(lo, hi + 1):
        diff = abs(Fraction(a.value_at(k)) - Fraction(b.value_at(k)))
        full += diff / Fraction(2) ** abs(k)
    assert value <= float(full) + 1e-12
    assert float(full) <= value + tail + 1e-12


# -- differential tests against the replaced per-symbol loop -----------------

def dict_to_indices(w):
    """Reference for to_indices: a dict lookup per symbol."""
    lookup = {v: i for i, v in enumerate(w.alphabet.values)}
    return np.fromiter((lookup[v] for v in w.symbols.tolist()),
                       dtype=np.int64, count=len(w))


@pytest.mark.parametrize("values", [
    (0.0, 1.0), (1.0, 0.0), (-0.0, -2.5), (3.0, -1.5, 0.0),
    (-2.0, -7.0, 0.25, -0.0), (5.0, -5.0, 1e-300, -1e300, 0.125)])
def test_to_indices_matches_the_dict_loop(values, rng):
    a = Alphabet(values)
    idx = rng.integers(0, len(a), 4096)
    w = SequenceWindow.from_indices(a, -7, idx)
    got = w.to_indices()
    assert got.dtype == np.int64
    assert np.array_equal(got, dict_to_indices(w))
    assert np.array_equal(got, idx)


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=5,
                       unique=True),
       picks=st.lists(st.integers(0, 4), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_to_indices_matches_the_dict_loop_on_any_alphabet(values, picks):
    a = Alphabet(tuple(values))
    w = SequenceWindow.from_indices(a, 0, [i % len(a) for i in picks])
    assert np.array_equal(w.to_indices(), dict_to_indices(w))


# -- positions kept by the window ----------------------------------------------

THREE = Alphabet((3.0, -0.0, -1.0))


@pytest.mark.parametrize("build, positions", [
    (lambda: SequenceWindow.from_indices(THREE, -2, [2, 0, 1, 1]),
     [2, 0, 1, 1]),
    (lambda: parse_sequence(b"alphabet: 3.0,-0.0,-1.0\nfirst_index: 4\n"
                            b"1,2,0\n"), [1, 2, 0]),
    (lambda: shift(SequenceWindow.from_indices(THREE, 0, [0, 2, 1]), 3),
     [0, 2, 1]),
    (lambda: point_window(-5, 10), [1, 1, 1, 0, 1, 0, 0, 0, 1, 0]),
    (lambda: SequenceWindow(THREE, 0, np.array([0.0, 3.0, -0.0, -1.0])),
     [1, 0, 1, 2]),
])
def test_positions_travel_with_the_window(build, positions):
    w = build()
    got = w.to_indices()
    assert got.dtype == np.int64
    assert got.tolist() == positions
    text = format_sequence(w)
    got[:] = 0
    assert w.to_indices().tolist() == positions
    assert format_sequence(w) == text


def test_from_indices_allocates_its_positions_once():
    # one compact copy of the uint8 positions, 1 byte a symbol, and no
    # float64 values (8 bytes a symbol)
    n = 1 << 20
    idx = np.arange(n, dtype=np.uint8) % 2
    tracemalloc.start()
    try:
        w = SequenceWindow.from_indices(BINARY, 0, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == n
    assert not np.shares_memory(w._positions, idx)
    assert peak < 1.1 * n
