"""Plain-text file formats for windows, trajectories, and reports.

A sequence file is three lines: the alphabet values, the first index, and
the symbols as comma-separated alphabet positions.  Storing positions rather
than values keeps round-trips exact for any real alphabet.  Sequence files
are bytes in and out: the writer streams the window's positions a block at
a time, and the reader views single digits in place.  Trajectories go to
CSV with a ``t,value`` header; reports go to JSON with keys in a fixed
order.  Text is UTF-8, and all writers emit LF newlines, so output is
byte-stable across platforms and locales.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DomainError
from .filtering import Trajectory
from .symbolspace import Alphabet, SequenceWindow, _whole


#: Rows per numpy call in the writers; ``np.take`` casts each block to intp.
_BLOCK = 1 << 14


def _sequence_blocks(window: SequenceWindow):
    """The sequence file's bytes in pieces: the two header lines, then the
    index line one block of symbols at a time."""
    yield (f"alphabet: {','.join(repr(v) for v in window.alphabet.values)}\n"
           f"first_index: {window.first_index}\n").encode("ascii")
    # row i of the table is "i," padded with zero bytes to the widest name
    names = np.array([f"{i}," for i in range(len(window.alphabet))], "S")
    table = names.view(np.uint8).reshape(len(names), -1)
    for lo in range(0, len(window), _BLOCK):
        rows = np.take(table, window._positions[lo:lo + _BLOCK], axis=0)
        text = rows[rows != 0]
        if lo + _BLOCK >= len(window):
            text[-1] = ord("\n")    # the last name ends the line
        yield text.tobytes()


def format_sequence(window: SequenceWindow) -> bytes:
    return b"".join(_sequence_blocks(window))


def parse_sequence(data: bytes) -> SequenceWindow:
    """A window from a sequence file's bytes: an index line of single digits
    is read in place, undecoded; any other is read exactly as int() reads
    it.  Raises UnicodeDecodeError on bytes that are not UTF-8 text."""
    cut = data.find(b"\n", data.find(b"\n") + 1) + 1    # after line two
    size = len(data) - data.endswith(b"\n") - cut if cut else 0
    raw = np.frombuffer(data, np.uint8, max(size, 0), cut)
    commas, indices = raw[1::2], raw[0::2] - 48    # non-digits wrap past 9
    # "d,d,...,d": min and max need no temporary array, and "," is 44
    single = (raw.size % 2 and indices.max() <= 9
              and commas.min(initial=44) == 44 == commas.max(initial=44))
    # that line holds no line break, so the head alone counts the lines
    lines = (data[:cut].decode("utf-8").splitlines() + [""] if single
             else data.decode("utf-8").splitlines())
    if len(lines) != 3:
        raise DomainError("sequence file must have exactly three lines")
    head, idx_head, body = lines
    if not head.startswith("alphabet:"):
        raise DomainError("first line must start with 'alphabet:'")
    if not idx_head.startswith("first_index:"):
        raise DomainError("second line must start with 'first_index:'")
    try:
        values = tuple(float(v) for v in head[len("alphabet:"):].split(","))
        first_index = int(idx_head[len("first_index:"):].strip())
        if not single:
            indices = np.array(body.split(","), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"malformed sequence file: {exc}") from None
    return SequenceWindow._adopt(Alphabet(values), first_index, indices)


def _read(path, parse):
    """``parse`` of the file's bytes; text not in UTF-8 is a DomainError."""
    try:
        return parse(Path(path).read_bytes())
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def write_sequence(path, window: SequenceWindow) -> None:
    """Stream the sequence file to ``path`` block by block."""
    with open(path, "wb") as out:
        out.writelines(_sequence_blocks(window))


def read_sequence(path) -> SequenceWindow:
    return _read(path, parse_sequence)


def _csv_digits(digits: int) -> int:
    d = _whole("digits", digits)
    if not 1 <= d <= 17:
        raise DomainError("digits must lie in 1..17")
    return d


def _csv_blocks(traj: Trajectory, d: int):
    """The CSV text in pieces: the header, then one string per block of rows,
    each formatted by a single %-operation over the block's floats."""
    yield "t,value\n"
    row = f"%.{d}g,%.{d}g\n"
    for lo in range(0, len(traj), _BLOCK):
        pairs = np.column_stack((traj.times[lo:lo + _BLOCK],
                                 traj.values[lo:lo + _BLOCK]))
        yield (row * len(pairs)) % tuple(pairs.ravel().tolist())


def format_trajectory_csv(traj: Trajectory, digits: int = 17) -> str:
    return "".join(_csv_blocks(traj, _csv_digits(digits)))


def parse_trajectory_csv(text: str) -> Trajectory:
    lines = text.splitlines()
    if not lines or lines[0] != "t,value":
        raise DomainError("trajectory CSV must start with a 't,value' header")
    try:
        pairs = [tuple(map(float, line.split(","))) for line in lines[1:]]
    except ValueError as exc:
        raise DomainError(f"malformed trajectory CSV: {exc}") from None
    if not pairs or any(len(p) != 2 for p in pairs):
        raise DomainError("each CSV row must hold exactly t and value")
    arr = np.asarray(pairs, dtype=np.float64)
    return Trajectory(arr[:, 0], arr[:, 1])


def write_trajectory_csv(path, traj: Trajectory, digits: int = 17) -> None:
    """Stream the CSV to ``path`` block by block, never holding it whole."""
    d = _csv_digits(digits)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for block in _csv_blocks(traj, d):
            out.write(block)


def read_trajectory_csv(path) -> Trajectory:
    return _read(path, lambda data: parse_trajectory_csv(data.decode("utf-8")))


def format_json_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_json_report(path, report: dict) -> None:
    Path(path).write_text(format_json_report(report), encoding="utf-8",
                          newline="\n")
