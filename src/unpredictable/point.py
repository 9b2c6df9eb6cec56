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

    ... 111 101 011 001 11 01 . 0 00 10 000 010 100 110 ...
                                ^ index 0

Every finite pattern of the family recurs in both directions, which is what
makes the sequence return arbitrarily close to itself under shifts.

Leaving out ``1`` on the left makes the two sides symmetric in |n|: level 1
holds only index 0, so for n >= 1 index -n lies at the same offset into the
same level as index n, and levels 1..r hold every |n| < (r - 1) * 2**r + 1.
A window is built a level at a time: on the right, level r is strings 2q
(0-based) written MSB first for consecutive q; on the left, in |n| order, it
is strings 2q + 1 written LSB first, then reversed.  ``point_symbol`` finds
the level r of |n| over the ``MAX_LEVEL`` + 1 cumulative offsets and reads
one digit.  The level limit is checked on the exact integers first.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .symbolspace import BINARY, SequenceWindow, _whole

#: Deepest family level symbol lookup will walk to.
MAX_LEVEL = 24

#: Most symbols point_window or family will materialize.
MAX_WINDOW = 1 << 20

#: Levels 1..r hold the indices with |n| < _CUM[r], on either side.
_CUM = (0, *((r - 1) * (1 << r) + 1 for r in range(1, MAX_LEVEL + 1)))


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


def _check(first: int, last: int) -> None:
    """Refuse indices beyond level ``MAX_LEVEL``, on the exact integers."""
    limit = _CUM[MAX_LEVEL]
    if last >= limit or -first >= limit:
        index = last if last >= limit else first
        raise ResourceError(f"index {index} lies beyond level {MAX_LEVEL}")


def _side(out: np.ndarray, m: int, odd: int) -> None:
    """Write the bits at |n| = m, m + 1, ... of one side into ``out``: level
    r holds strings 2q + odd, MSB first if odd = 0 and LSB first if odd = 1."""
    while out.size:
        r = bisect.bisect_right(_CUM, m)
        o, take = m - _CUM[r - 1], min(out.size, _CUM[r] - m)
        q = np.arange(o // r, (o + take - 1) // r + 1, dtype=np.uint32)
        bits = np.unpackbits((2 * q + odd).astype(">u4").view(np.uint8)
                             .reshape(-1, 4), axis=1)[:, 32 - r:]
        out[:take] = (bits[:, ::-1] if odd else bits).ravel()[o % r:][:take]
        out, m = out[take:], m + take


def point_symbol(index: int) -> int:
    """Symbol (0 or 1) of the assembled point at one integer index.

    Raises:
        DomainError: index is not an integer.
        ResourceError: the index lies beyond the deepest supported level.
    """
    n = _whole("index", index)
    _check(n, n)
    r = bisect.bisect_right(_CUM, abs(n))
    q, c = divmod(abs(n) - _CUM[r - 1], r)
    # left: string 2q + 1, digit c from the right; right: 2q, c from the left
    return (2 * q + 1 >> c if n < 0 else 2 * q >> r - 1 - c) & 1


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
    _check(first, first + n - 1)
    bits = np.empty(n, np.uint8)    # the symbols are their BINARY positions
    split = min(max(-first, 0), n)  # the negative indices lead the range
    _side(bits[:split][::-1], 1 - first - split, 1)
    _side(bits[split:], first + split, 0)
    return SequenceWindow.from_indices(BINARY, first, bits)
