"""Seeded realizations: reproducibility, marginals, validation."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unpredictable
from unpredictable import (BINARY, MAX_WINDOW, Alphabet, BernoulliSpec,
                           DomainError, ResourceError, SequenceWindow,
                           bernoulli, realize)

FAIR = (0.5, 0.5)

# Pinned output of the documented generator for seed 42.  The draw rule is
# part of the file-format contract, so these bytes must never change.
SEED42_PREFIX = [1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0]


def test_realization_starts_at_index_zero():
    w = realize(BernoulliSpec(BINARY, FAIR, 1, 17))
    assert w.first_index == 0
    assert len(w) == 17


def test_values_come_from_the_alphabet():
    a = Alphabet((-2.0, 0.25, 9.0))
    w = realize(BernoulliSpec(a, (0.1, 0.6, 0.3), 3, 500))
    assert set(np.unique(w.symbols)) <= set(a.values)


def test_seed_42_prefix_is_pinned():
    w = realize(BernoulliSpec(BINARY, FAIR, 42, 20))
    assert [int(v) for v in w.symbols] == SEED42_PREFIX


def test_same_spec_same_bits():
    spec = BernoulliSpec(BINARY, FAIR, 987654321, 4096)
    assert np.array_equal(realize(spec).symbols, realize(spec).symbols)


def test_longer_run_extends_shorter_one():
    short = realize(BernoulliSpec(BINARY, FAIR, 11, 100))
    long = realize(BernoulliSpec(BINARY, FAIR, 11, 200))
    assert np.array_equal(long.symbols[:100], short.symbols)


def test_different_seeds_differ():
    a = realize(BernoulliSpec(BINARY, FAIR, 1, 64))
    b = realize(BernoulliSpec(BINARY, FAIR, 2, 64))
    assert not np.array_equal(a.symbols, b.symbols)


def test_degenerate_distribution_is_constant():
    w = realize(BernoulliSpec(BINARY, (1.0, 0.0), 123, 50))
    assert np.all(w.symbols == 0.0)
    w = realize(BernoulliSpec(BINARY, (0.0, 1.0), 123, 50))
    assert np.all(w.symbols == 1.0)


def test_fair_coin_frequency():
    w = realize(BernoulliSpec(BINARY, FAIR, 42, 100000))
    freq = float(w.symbols.mean())
    assert abs(freq - 0.5) < 0.01
    assert freq == 0.50066  # pinned for this seed


def test_three_symbol_frequencies():
    a = Alphabet((0.0, 0.5, 1.0))
    w = realize(BernoulliSpec(a, (0.2, 0.3, 0.5), 7, 100000))
    for value, p in zip(a.values, (0.2, 0.3, 0.5)):
        freq = float(np.mean(w.symbols == value))
        assert abs(freq - p) < 0.01


def test_no_short_period():
    for seed in (0, 1, 2):
        s = realize(BernoulliSpec(BINARY, FAIR, seed, 10000)).symbols
        for p in range(1, 65):
            assert not np.array_equal(s[p:], s[:-p])


@pytest.mark.parametrize("probs", [
    (0.5, 0.6),            # sums past 1
    (0.25, 0.25),          # sums short of 1
    (-0.1, 1.1),           # outside [0, 1]
    (1.0,),                # wrong arity
])
def test_bad_probabilities(probs):
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, probs, 0, 10)


def test_sum_tolerance_is_tight():
    BernoulliSpec(BINARY, (0.5, 0.5 + 9e-13), 0, 10)
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, (0.5, 0.5 + 2e-12), 0, 10)


def test_seed_range():
    BernoulliSpec(BINARY, FAIR, 2 ** 64 - 1, 1)
    assert BernoulliSpec(BINARY, FAIR, np.uint64(2 ** 64 - 1), 1).seed == (
        2 ** 64 - 1)
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, FAIR, 2 ** 64, 1)
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, FAIR, -1, 1)
    # only integers: no NaN, no inf, no silent truncation, no strings, and
    # no bool read as 0 or 1
    for seed in (float("nan"), float("inf"), 1.5, 7.0, "7", True):
        with pytest.raises(DomainError):
            BernoulliSpec(BINARY, FAIR, seed, 1)


def test_length_positive():
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, FAIR, 0, 0)
    for length in (float("nan"), float("inf"), 2.7, 2.0, "2", True):
        with pytest.raises(DomainError):
            BernoulliSpec(BINARY, FAIR, 0, length)


def test_length_is_capped_at_max_window():
    assert BernoulliSpec(BINARY, FAIR, 0, MAX_WINDOW).length == MAX_WINDOW
    for n in (MAX_WINDOW + 1, 2 ** 70):
        with pytest.raises(ResourceError):
            BernoulliSpec(BINARY, FAIR, 0, n)


@given(seed=st.integers(0, 2 ** 64 - 1), length=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_realize_is_a_pure_function(seed, length):
    spec = BernoulliSpec(BINARY, FAIR, seed, length)
    assert realize(spec) == realize(spec)


def _realize_reference(spec):
    """The per-draw stdlib loop the blocked getrandbits route replaced."""
    rng = random.Random(spec.seed)
    cuts = list(accumulate(spec.probabilities[:-1]))
    idx = np.fromiter(
        (bisect_right(cuts, rng.random()) for _ in range(spec.length)),
        dtype=np.int64, count=spec.length)
    return SequenceWindow.from_indices(spec.alphabet, 0, idx)


SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 12345)


def signed_alphabet(size):
    return Alphabet(tuple(-2.5 + 0.75 * k for k in range(size))[::-1])


@pytest.mark.parametrize("probs", [
    FAIR, (0.3, 0.7), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5 - 1e-13),
    (0.2, 0.3, 0.5), (0.0, 0.4, 0.6), (0.3, 0.0, 0.7), (0.45, 0.55, 0.0),
    (0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.0, 0.5), (0.1, 0.2, 0.3, 0.4 - 1e-13),
    (0.1, 0.15, 0.2, 0.25, 0.3), (0.0, 0.1, 0.0, 0.4, 0.5),
    (0.2, 0.2, 0.2, 0.2, 0.2 - 1e-13),
])
def test_realize_equals_the_stdlib_loop(probs):
    a = signed_alphabet(len(probs))
    for seed in SEEDS:
        spec = BernoulliSpec(a, probs, seed, 3000)
        assert realize(spec) == _realize_reference(spec)


@pytest.mark.parametrize("block", [1, 3, 64, bernoulli._BLOCK])
def test_realize_blocks_equal_the_stdlib_loop(block):
    a = signed_alphabet(3)
    lengths = [n for n in (1, block - 1, block, block + 1, 3 * block + 7)
               if n >= 1]
    for n in lengths:
        for seed in SEEDS:
            spec = BernoulliSpec(a, (0.25, 0.0, 0.75), seed, n)
            want = _realize_reference(spec)
            with mock.patch.object(bernoulli, "_BLOCK", block):
                assert realize(spec) == want


def test_realize_resolves_each_variate_to_the_last_bit():
    # a cut on, or one ulp either side of, a variate the stream draws tells
    # apart any rebuilt variate that is off in its lowest bit
    for seed in SEEDS:
        rng = random.Random(seed)
        for v in [rng.random() for _ in range(40)]:
            for cut in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0)):
                spec = BernoulliSpec(BINARY, (cut, 1.0 - cut), seed, 40)
                assert realize(spec) == _realize_reference(spec)


@st.composite
def probability_vectors(draw):
    weights = draw(st.lists(st.integers(0, 12), min_size=2, max_size=5)
                   .filter(any))
    return tuple(w / sum(weights) for w in weights)


@given(seed=st.integers(0, 2 ** 64 - 1), length=st.integers(1, 400),
       probs=probability_vectors(), block=st.sampled_from([1, 3, 64, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_realize_equals_the_stdlib_loop_for_any_spec(seed, length, probs,
                                                      block):
    spec = BernoulliSpec(signed_alphabet(len(probs)), probs, seed, length)
    with mock.patch.object(bernoulli, "_BLOCK", block):
        assert realize(spec) == _realize_reference(spec)


def test_realize_draws_straight_into_compact_positions():
    # 1 byte a symbol kept, plus per block of 2**16 draws under 40 bytes a
    # draw of temporaries: the 64-bit random integer and its bytes, the
    # float64 variates and the intp searchsorted result.  An int64 index
    # array would add 8 bytes a symbol.
    n = 10 ** 6
    spec = BernoulliSpec(Alphabet((-1.0, 0.0, 1.0)), (0.3, 0.3, 0.4), 0, n)
    tracemalloc.start()
    try:
        w = realize(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == n
    assert peak < n + 40 * bernoulli._BLOCK


def test_draws_and_file_reads_never_import_numpy_random():
    # numpy.random adds about 6 MB of resident memory and import time to
    # every CLI step; the package must draw and parse without it
    code = ("import sys\n"
            "from unpredictable import (BINARY, BernoulliSpec,"
            " format_sequence, parse_sequence, realize)\n"
            "w = realize(BernoulliSpec(BINARY, (0.5, 0.5), 0, 1000))\n"
            "assert parse_sequence(format_sequence(w)) == w\n"
            "print('numpy.random' in sys.modules)\n")
    src = Path(unpredictable.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout == "False\n"
