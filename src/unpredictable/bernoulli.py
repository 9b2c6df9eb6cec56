"""Seedable realizations of independent symbol draws.

Draws use the Mersenne Twister behind :class:`random.Random`, whose
``random()`` output stream for a given seed is stable across interpreter
versions by documented guarantee.  Each draw maps a uniform variate through
the inverse of the cumulative symbol distribution, so a spec (alphabet,
probabilities, seed, length) always produces the same window, on any machine.

``getrandbits`` emits the generator's 32-bit words least significant first,
the order in which ``random()`` takes them two at a time, so variates rebuilt
from its bits equal ``bisect_right(cuts, rng.random())`` draw for draw; the
tests keep that stdlib loop as the reference.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, ResourceError
from .point import MAX_WINDOW
from .symbolspace import Alphabet, SequenceWindow

_SUM_TOL = 1e-12

#: Draws taken from the generator per ``getrandbits`` call in ``realize``.
_BLOCK = 1 << 16


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
        try:
            seed, length = map(operator.index, (self.seed, self.length))
        except TypeError:
            raise DomainError("seed and length must be integers") from None
        if not 0 <= seed < 1 << 64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if length < 1:
            raise DomainError("length must be a positive integer")
        if length > MAX_WINDOW:
            raise ResourceError(f"length {length} exceeds {MAX_WINDOW}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "length", length)


def realize(spec: BernoulliSpec) -> SequenceWindow:
    """Draw the realization described by ``spec`` as a window at index 0.

    The i-th symbol is the alphabet entry whose cumulative probability
    interval contains the i-th ``random()`` variate, rebuilt exactly in
    blocks from ``getrandbits``: words a, b give ((a>>5)*2**26 + (b>>6))/2**53.
    """
    rng = random.Random(spec.seed)
    cuts = np.array(list(accumulate(spec.probabilities[:-1])))
    idx = np.empty(spec.length, dtype=np.int64)
    for lo in range(0, spec.length, _BLOCK):
        k = min(_BLOCK, spec.length - lo)
        bits = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        words = np.frombuffer(bits, "<u4")
        u = (words[0::2] >> 5) * 67108864.0
        u += words[1::2] >> 6
        u *= 1.0 / (1 << 53)
        idx[lo:lo + k] = np.searchsorted(cuts, u, side="right")
    return SequenceWindow.from_indices(spec.alphabet, 0, idx)
