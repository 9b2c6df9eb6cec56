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
makes the sequence return arbitrarily close to itself under shifts.

Leaving out ``1`` on the left makes the two sides symmetric in |n|: level 1
holds only index 0, so for n >= 1 index -n lies at the same offset into the
same level as index n, and levels 1..r hold every |n| < (r - 1) * 2**r + 1.
Symbol lookup does not build the concatenation: a ``searchsorted`` of |n|
over these ``MAX_LEVEL`` + 1 cumulative offsets finds the level r, and the
offset into it gives the string number q and digit c.  Index n >= 0 reads
digit c of string 2q (0-based) from the left; index -n reads digit c of
string 2q + 1 from the right.  The level limit is checked on the exact
integer indices before any int64 arithmetic, so no index can wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .symbolspace import BINARY, SequenceWindow, _whole

#: Deepest family level symbol lookup will walk to.
MAX_LEVEL = 24

#: Most symbols point_window or family will materialize.
MAX_WINDOW = 1 << 20

#: Levels 1..r hold the indices with |n| < _CUM[r], on either side.
_CUM = np.array([0] + [(r - 1) * (1 << r) + 1 for r in range(1, MAX_LEVEL + 1)],
                dtype=np.int64)


@dataclass(frozen=True)
class StringFamily:
    """All binary strings of one level, in construction order."""

    level: int
    strings: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.strings) != 1 << self.level:
            raise DomainError("string count does not match the level")


def family(level: int) -> StringFamily:
    """Generate one level of the string family by the append recursion.

    Raises:
        DomainError: level is not an integer, or level < 1.
        ResourceError: level exceeds ``MAX_LEVEL``, or its r * 2**r symbols
            exceed ``MAX_WINDOW``, as for a window (so r <= 16).
    """
    r = _whole("level", level)
    if r < 1:
        raise DomainError("level must be a positive integer")
    if r > MAX_LEVEL:
        raise ResourceError(f"level {r} exceeds the maximum {MAX_LEVEL}")
    if r << r > MAX_WINDOW:
        raise ResourceError(f"level {r} needs {r << r} > {MAX_WINDOW} symbols")
    strings = ("0", "1")
    for _ in range(r - 1):
        strings = tuple(s + bit for s in strings for bit in "01")
    return StringFamily(r, strings)


def _symbols(first: int, n: int) -> np.ndarray:
    """Symbols of the assembled point at indices first..first + n - 1, as
    int64 bits, which are their positions in ``BINARY``."""
    last, limit = first + n - 1, int(_CUM[MAX_LEVEL])
    if last >= limit or -first >= limit:
        index = last if last >= limit else first
        raise ResourceError(f"index {index} lies beyond level {MAX_LEVEL}")
    split = min(max(-first, 0), n)  # the negative indices lead the range
    mag = np.abs(first + np.arange(n, dtype=np.int64))
    r = np.searchsorted(_CUM, mag, side="right")
    q, c = np.divmod(mag - _CUM[r - 1], r)
    out = np.empty(n, np.int64)
    # left of the origin: string 2q + 1 of level r, digit c from the right
    out[:split] = (2 * q[:split] + 1 >> c[:split]) & 1
    # origin and right: string 2q, digit c from the left
    out[split:] = (2 * q[split:] >> (r[split:] - 1 - c[split:])) & 1
    return out


def point_symbol(index: int) -> int:
    """Symbol (0 or 1) of the assembled point at one integer index.

    Raises:
        DomainError: index is not an integer.
        ResourceError: the index lies beyond the deepest supported level.
    """
    return int(_symbols(_whole("index", index), 1)[0])


def point_window(first_index: int, length: int) -> SequenceWindow:
    """A window of the assembled point over the {0, 1} alphabet.

    Raises:
        DomainError: an argument is not an integer, or length < 1.
        ResourceError: length exceeds ``MAX_WINDOW`` or an index lies beyond
            the deepest supported level.
    """
    n = _whole("length", length)
    if n < 1:
        raise DomainError("length must be a positive integer")
    if n > MAX_WINDOW:
        raise ResourceError(f"window length {n} exceeds {MAX_WINDOW}")
    first = _whole("first_index", first_index)
    return SequenceWindow.from_indices(BINARY, first, _symbols(first, n))
