"""Plain-text file formats for windows, trajectories, and reports.

A sequence file is three lines: the alphabet values, the first index, and
the symbols as comma-separated alphabet positions.  Storing positions rather
than values keeps round-trips exact for any real alphabet.  Trajectories go
to CSV with a ``t,value`` header; reports go to JSON with keys in a fixed
order.  Files are read and written as UTF-8, and all writers emit LF
newlines, so output is byte-stable across platforms and locales.
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


def format_sequence(window: SequenceWindow) -> str:
    alphabet = ",".join(repr(v) for v in window.alphabet.values)
    # row i of the table is "i," padded with zero bytes to the widest name
    names = np.array([f"{i}," for i in range(len(window.alphabet))], "S")
    table = names.view(np.uint8).reshape(len(names), -1)
    text = np.empty((len(window), table.shape[1]), np.uint8)
    for lo in range(0, len(window), _BLOCK):
        np.take(table, window._positions[lo:lo + _BLOCK], axis=0,
                out=text[lo:lo + _BLOCK])
    indices = text[text != 0][:-1].tobytes().decode("ascii")
    return (f"alphabet: {alphabet}\n"
            f"first_index: {window.first_index}\n"
            f"{indices}\n")


def parse_sequence(text: str) -> SequenceWindow:
    lines = text.splitlines()
    if len(lines) != 3:
        raise DomainError("sequence file must have exactly three lines")
    head, idx_head, body = lines
    if not head.startswith("alphabet:"):
        raise DomainError("first line must start with 'alphabet:'")
    if not idx_head.startswith("first_index:"):
        raise DomainError("second line must start with 'first_index:'")
    indices = None
    if body.isascii() and len(body) % 2:    # single digits: "d,d,...,d"
        raw = np.frombuffer(body.encode("ascii"), np.uint8)
        digits = raw[0::2] - 48
        if (digits < 10).all() and (raw[1::2] == 44).all():
            indices = digits
    try:
        values = tuple(float(v) for v in head[len("alphabet:"):].split(","))
        first_index = int(idx_head[len("first_index:"):].strip())
        if indices is None:
            indices = np.array(body.split(","), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"malformed sequence file: {exc}") from None
    return SequenceWindow.from_indices(Alphabet(values), first_index, indices)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def write_sequence(path, window: SequenceWindow) -> None:
    Path(path).write_text(format_sequence(window), encoding="utf-8",
                          newline="\n")


def read_sequence(path) -> SequenceWindow:
    return parse_sequence(_read_text(path))


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
    return parse_trajectory_csv(_read_text(path))


def format_json_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_json_report(path, report: dict) -> None:
    Path(path).write_text(format_json_report(report), encoding="utf-8",
                          newline="\n")
