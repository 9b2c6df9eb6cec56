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

A window keeps only the alphabet positions of its values, 1 byte a symbol
(not 9, with float values beside them), and gathers values per slice.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CoverageError, DomainError


def _whole(name: str, value) -> int:
    try:    # a bool is refused, not read as 0 or 1
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {value!r}") from None


def _positive(name: str, value) -> int:
    """``value`` read exactly by :func:`_whole`, refused below 1."""
    n = _whole(name, value)
    if n < 1:
        raise DomainError(f"{name} must be a positive integer")
    return n


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


#: The two-symbol alphabet {0, 1} used by the binary constructions.
BINARY = Alphabet((0.0, 1.0))


@dataclass(frozen=True, eq=False, init=False)
class SequenceWindow:
    """A contiguous, finite view of a bi-infinite symbol sequence.

    ``symbols[j]`` is the sequence value at integer index ``first_index + j``.
    Every value must be a member of ``alphabet``.  The window keeps only each
    value's alphabet position, read-only and in the smallest unsigned dtype
    that holds them; a shift shares them.
    """

    alphabet: Alphabet
    first_index: int
    _positions: np.ndarray = field(repr=False)

    def __init__(self, alphabet: Alphabet, first_index: int, symbols) -> None:
        arr = np.asarray(symbols, dtype=np.float64)
        values = np.asarray(alphabet.values)
        order = np.argsort(values)
        at = np.searchsorted(values, arr, sorter=order)
        codes = order[np.minimum(at, len(values) - 1)]
        if not (values[codes] == arr).all():    # NaN is never equal
            raise DomainError("window contains a value outside the alphabet")
        self._fill(alphabet, first_index, codes)

    @classmethod
    def from_indices(cls, alphabet: Alphabet, first_index: int,
                     indices) -> "SequenceWindow":
        """Build a window from alphabet positions instead of raw values: it
        keeps a compact copy, so the caller's array stays its own."""
        return cls._adopt(alphabet, first_index, np.asarray(indices), True)

    @classmethod
    def _adopt(cls, alphabet: Alphabet, first_index: int,
               positions: np.ndarray, copy: bool = False) -> "SequenceWindow":
        """The window of fresh ``positions``, taken over if compact."""
        return object.__new__(cls)._fill(alphabet, first_index, positions, copy)

    def _fill(self, alphabet: Alphabet, first_index: int,
              positions: np.ndarray, copy: bool = False) -> "SequenceWindow":
        """Check the positions and keep them read-only in the compact dtype."""
        if positions.ndim != 1 or positions.size < 1:
            raise DomainError("symbols must be a non-empty 1-d array")
        if positions.dtype.kind not in "iu":
            raise DomainError("symbol indices must be integers")
        if positions.min() < 0 or positions.max() >= len(alphabet):
            raise DomainError("symbol index out of range for the alphabet")
        kept = positions.astype(np.min_scalar_type(len(alphabet) - 1),
                                copy=copy)
        kept.setflags(write=False)
        for name, value in (("alphabet", alphabet),
                            ("first_index", _whole("first_index", first_index)),
                            ("_positions", kept)):
            object.__setattr__(self, name, value)
        return self

    def __len__(self) -> int:
        return int(self._positions.size)

    def __eq__(self, other: object) -> bool:
        # alphabet values are distinct: equal positions are equal values
        if not isinstance(other, SequenceWindow):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and self.first_index == other.first_index
                and np.array_equal(self._positions, other._positions))

    @property
    def symbols(self) -> np.ndarray:
        """Every value of the window, built afresh as a read-only array."""
        return self.segment(self.first_index, self.last_index)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self) - 1

    def covers(self, lo: int, hi: int) -> bool:
        """True when every index in [lo, hi] is stored."""
        return self.first_index <= lo and hi <= self.last_index

    def value_at(self, index: int) -> float:
        return float(self.segment(index, index)[0])

    def segment(self, lo: int, hi: int) -> np.ndarray:
        """Values at indices lo..hi inclusive, as a fresh read-only array."""
        if lo > hi:
            raise DomainError("segment bounds out of order")
        if not self.covers(lo, hi):
            raise CoverageError(f"window [{self.first_index}, {self.last_index}] "
                                f"does not cover [{lo}, {hi}]")
        off = lo - self.first_index
        out = np.asarray(self.alphabet.values)[
            self._positions[off:off + (hi - lo + 1)]]
        out.setflags(write=False)
        return out

    def to_indices(self) -> np.ndarray:
        """Alphabet positions of the stored values, as a fresh int64 array."""
        return self._positions.astype(np.int64)


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
    K = _positive("half_width", half_width)
    a = first.segment(-K, K)
    b = second.segment(-K, K)
    weights = 0.5 ** np.abs(np.arange(-K, K + 1))
    value = float(np.sum(np.abs(a - b) * weights))
    tail = first.alphabet.diameter * 2.0 ** (1 - K)
    return MetricResult(value, tail)


def shift(window: SequenceWindow, times: int = 1) -> SequenceWindow:
    """Apply the shift map: the value seen at index k becomes the old value
    at index k + 1, so the window keeps its symbols and moves its origin.
    The result shares the input's read-only positions: a shift costs O(1).

    Raises:
        DomainError: the window has fewer than two symbols, or times < 1.
    """
    if len(window) < 2:
        raise DomainError("shift needs a window of length at least 2")
    t = _positive("times", times)
    moved = copy.copy(window)
    object.__setattr__(moved, "first_index", window.first_index - t)
    return moved
