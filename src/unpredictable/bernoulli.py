"""Seedable realizations of independent symbol draws.

Draws use the Mersenne Twister behind :class:`random.Random`, whose
``random()`` output stream for a given seed is stable across interpreter
versions by documented guarantee.  Each draw maps a uniform variate through
the inverse of the cumulative symbol distribution, so a spec (alphabet,
probabilities, seed, length) always produces the same window, on any machine.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, ResourceError
from .point import MAX_WINDOW
from .symbolspace import Alphabet, SequenceWindow

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class BernoulliSpec:
    """Parameters of one reproducible realization.

    Attributes:
        alphabet: symbol values to draw from.
        probabilities: one weight per symbol, summing to 1.
        seed: generator seed, a 64-bit unsigned integer.
        length: number of symbols to draw, at most ``MAX_WINDOW``.
    """

    alphabet: Alphabet
    probabilities: tuple[float, ...]
    seed: int
    length: int

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if len(probs) != len(self.alphabet):
            raise DomainError("need exactly one probability per symbol")
        if any(not (0.0 <= p <= 1.0) or not math.isfinite(p) for p in probs):
            raise DomainError("probabilities must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > _SUM_TOL:
            raise DomainError("probabilities must sum to 1")
        if not 0 <= int(self.seed) < 1 << 64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if int(self.length) < 1:
            raise DomainError("length must be a positive integer")
        if int(self.length) > MAX_WINDOW:
            raise ResourceError(f"length {self.length} exceeds {MAX_WINDOW}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "length", int(self.length))


def realize(spec: BernoulliSpec) -> SequenceWindow:
    """Draw the realization described by ``spec`` as a window at index 0.

    The i-th symbol is the alphabet entry whose cumulative probability
    interval contains the i-th ``random()`` variate.
    """
    rng = random.Random(spec.seed)
    cuts = list(accumulate(spec.probabilities[:-1]))
    idx = np.fromiter(
        (bisect_right(cuts, rng.random()) for _ in range(spec.length)),
        dtype=np.int64, count=spec.length)
    return SequenceWindow.from_indices(spec.alphabet, 0, idx)
