"""Seeded realizations: reproducibility, marginals, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unpredictable import (BINARY, MAX_WINDOW, Alphabet, BernoulliSpec,
                           DomainError, ResourceError, realize)

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
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, FAIR, 2 ** 64, 1)
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, FAIR, -1, 1)


def test_length_positive():
    with pytest.raises(DomainError):
        BernoulliSpec(BINARY, FAIR, 0, 0)


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
