"""The recursively assembled binary point with dense shift returns.

The construction starts from a family of finite binary strings.  Level 1 is
``0`` and ``1``.  Each string of level r spawns two children at level r + 1,
first with ``0`` appended, then with ``1`` appended:

    level 1:  0, 1
    level 2:  00, 01, 10, 11
    level 3:  000, 001, 010, 011, 100, 101, 110, 111

so the k-th string of level r (1-based) is k - 1 written as r binary digits.

A single bi-infinite 0/1 sequence is assembled from this family.  Going right
from the origin, the odd-position strings of each level are laid down in
order; going left, the even-position strings of each level appear in reverse
level order, each string keeping its normal reading direction.  Index 0 holds
the level-1 string ``0``; the level-1 string ``1`` is not placed on the left
side, so the left half starts with the level-2 strings:

    ... 110 100 010 000 11 01 . 0 00 10 001 011 101 111 ...
                                ^ index 0

Every finite pattern of the family recurs in both directions, which is what
makes the sequence return arbitrarily close to itself under shifts.  Symbol
lookup does not build the concatenation: a ``searchsorted`` over the at most
``MAX_LEVEL`` + 1 cumulative level offsets finds the level block, and the
position within it identifies the string number and digit directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .symbolspace import BINARY, SequenceWindow

#: Deepest family level symbol lookup will walk to.
MAX_LEVEL = 24

#: Largest window length point_window will materialize.
MAX_WINDOW = 1 << 20


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


@dataclass(frozen=True)
class StringFamily:
    """All binary strings of one level, in construction order."""

    level: int
    strings: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.strings) != 1 << self.level:
            raise DomainError("string count does not match the level")


def family(level: int, max_level: int = MAX_LEVEL) -> StringFamily:
    """Generate one level of the string family by the append recursion.

    Raises:
        DomainError: level < 1.
        ResourceError: level exceeds ``max_level``.
    """
    r = int(level)
    if r < 1:
        raise DomainError("level must be a positive integer")
    if r > max_level:
        raise ResourceError(f"level {r} exceeds the maximum {max_level}")
    strings = ("0", "1")
    for _ in range(r - 1):
        strings = tuple(s + bit for s in strings for bit in "01")
    return StringFamily(r, strings)


def _symbols_at(indices: np.ndarray) -> np.ndarray:
    """0/1 value of the assembled point at each integer index."""
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


def point_symbol(index: int) -> int:
    """Symbol (0 or 1) of the assembled point at one integer index.

    Raises:
        ResourceError: the index lies beyond the deepest supported level.
    """
    return int(_symbols_at(np.array([int(index)], dtype=np.int64))[0])


def point_window(first_index: int, length: int) -> SequenceWindow:
    """A window of the assembled point over the {0, 1} alphabet.

    Raises:
        DomainError: length < 1.
        ResourceError: length exceeds ``MAX_WINDOW`` or an index lies beyond
            the deepest supported level.
    """
    n = int(length)
    if n < 1:
        raise DomainError("length must be a positive integer")
    if n > MAX_WINDOW:
        raise ResourceError(f"window length {n} exceeds {MAX_WINDOW}")
    indices = int(first_index) + np.arange(n, dtype=np.int64)
    values = _symbols_at(indices).astype(np.float64)
    return SequenceWindow(BINARY, int(first_index), values)
