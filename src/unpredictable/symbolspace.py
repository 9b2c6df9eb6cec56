"""Finite windows of bi-infinite symbol sequences.

A sequence lives on the integer line and takes values in a finite alphabet of
real numbers.  Only a finite window of it is ever materialized: a first index
together with a contiguous run of symbol values.  Two windows that share an
alphabet can be compared with the weighted metric

    d(I, J) = sum over k of |i_k - j_k| / 2**|k|,

truncated to indices |k| <= K, and the remainder of the full series is
controlled by an explicit tail bound.  The shift map moves the origin one
place to the right: the sequence itself is untouched, only its indexing
changes, so shifting a window decrements ``first_index``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoverageError, DomainError


@dataclass(frozen=True)
class Alphabet:
    """Ordered, distinct real symbol values.

    Attributes:
        values: the symbol values, at least two, all distinct.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise DomainError("alphabet needs at least two symbols")
        if len(set(vals)) != len(vals):
            raise DomainError("alphabet values must be distinct")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("alphabet values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def diameter(self) -> float:
        """Largest absolute difference between two symbol values."""
        return max(self.values) - min(self.values)

    @property
    def epsilon0(self) -> float:
        """Smallest nonzero gap between two symbol values."""
        ordered = sorted(self.values)
        return min(b - a for a, b in zip(ordered, ordered[1:]))

    def index_of(self, value: float) -> int:
        """Position of ``value`` in the alphabet (exact match)."""
        try:
            return self.values.index(float(value))
        except ValueError:
            raise DomainError(f"{value!r} is not an alphabet symbol") from None


#: The two-symbol alphabet {0, 1} used by the binary constructions.
BINARY = Alphabet((0.0, 1.0))


@dataclass(frozen=True, eq=False)
class SequenceWindow:
    """A contiguous, finite view of a bi-infinite symbol sequence.

    ``symbols[j]`` is the sequence value at integer index ``first_index + j``.
    Every stored value must be a member of ``alphabet``.
    """

    alphabet: Alphabet
    first_index: int
    symbols: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.symbols, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("symbols must be a non-empty 1-d array")
        if not np.isin(arr, np.asarray(self.alphabet.values)).all():
            raise DomainError("window contains a value outside the alphabet")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "first_index", int(self.first_index))

    @classmethod
    def from_indices(cls, alphabet: Alphabet, first_index: int,
                     indices) -> "SequenceWindow":
        """Build a window from alphabet positions instead of raw values."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise DomainError("symbol indices must be 64-bit integers")
        if idx.size and (idx.min() < 0 or idx.max() >= len(alphabet)):
            raise DomainError("symbol index out of range for the alphabet")
        values = np.asarray(alphabet.values)[idx]
        return cls(alphabet, first_index, values)

    def __len__(self) -> int:
        return int(self.symbols.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceWindow):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and self.first_index == other.first_index
                and np.array_equal(self.symbols, other.symbols))

    @property
    def last_index(self) -> int:
        return self.first_index + len(self) - 1

    def covers(self, lo: int, hi: int) -> bool:
        """True when every index in [lo, hi] is stored."""
        return self.first_index <= lo and hi <= self.last_index

    def value_at(self, index: int) -> float:
        return float(self.segment(index, index)[0])

    def segment(self, lo: int, hi: int) -> np.ndarray:
        """Values at indices lo..hi inclusive."""
        if lo > hi:
            raise DomainError("segment bounds out of order")
        if not self.covers(lo, hi):
            raise CoverageError(f"window [{self.first_index}, {self.last_index}] "
                                f"does not cover [{lo}, {hi}]")
        off = lo - self.first_index
        return self.symbols[off:off + (hi - lo + 1)]

    def to_indices(self) -> np.ndarray:
        """Alphabet positions of the stored values (all are members)."""
        order = np.argsort(self.alphabet.values)
        return order[np.searchsorted(self.alphabet.values, self.symbols,
                                     sorter=order)]


class MetricResult(NamedTuple):
    value: float
    tail_bound: float


def metric_distance(first: SequenceWindow, second: SequenceWindow,
                    half_width: int) -> MetricResult:
    """Truncated sequence-space distance between two windows.

    Sums ``|i_k - j_k| / 2**|k|`` over ``|k| <= half_width`` and reports,
    alongside the value, a bound on everything the truncation discarded:
    the omitted indices contribute at most ``diameter * 2**(1 - half_width)``
    regardless of the actual sequences.

    Raises:
        DomainError: the windows use different alphabets, or half_width < 1.
        CoverageError: either window does not cover [-half_width, half_width].
    """
    if first.alphabet != second.alphabet:
        raise DomainError("windows use different alphabets")
    K = int(half_width)
    if K < 1:
        raise DomainError("half_width must be a positive integer")
    a = first.segment(-K, K)
    b = second.segment(-K, K)
    weights = 0.5 ** np.abs(np.arange(-K, K + 1))
    value = float(np.sum(np.abs(a - b) * weights))
    tail = first.alphabet.diameter * 2.0 ** (1 - K)
    return MetricResult(value, tail)


def shift(window: SequenceWindow, times: int = 1) -> SequenceWindow:
    """Apply the shift map: the value seen at index k becomes the old value
    at index k + 1, so the window keeps its symbols and moves its origin.
    The result shares the input's read-only symbols: a shift costs O(1).

    Raises:
        DomainError: the window has fewer than two symbols, or times < 1.
    """
    if len(window) < 2:
        raise DomainError("shift needs a window of length at least 2")
    t = int(times)
    if t < 1:
        raise DomainError("times must be a positive integer")
    moved = copy.copy(window)
    object.__setattr__(moved, "first_index", window.first_index - t)
    return moved
