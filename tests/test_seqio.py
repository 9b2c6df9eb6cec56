"""Round-trips and validation for the three file formats."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unpredictable import (BINARY, Alphabet, DomainError, SequenceWindow,
                           Trajectory, format_json_report, format_sequence,
                           format_trajectory_csv, parse_sequence,
                           parse_trajectory_csv, point_window, read_sequence,
                           read_trajectory_csv, seqio, write_json_report,
                           write_sequence, write_trajectory_csv)


def test_sequence_text_layout():
    w = SequenceWindow(BINARY, -2, np.array([1.0, 0.0, 0.0, 1.0]))
    assert format_sequence(w) == (b"alphabet: 0.0,1.0\n"
                                  b"first_index: -2\n"
                                  b"1,0,0,1\n")


def test_sequence_round_trip_binary():
    w = SequenceWindow(BINARY, -5, np.array([0.0, 1.0] * 6))
    assert parse_sequence(format_sequence(w)) == w


def test_sequence_round_trip_awkward_alphabet():
    # values that do not survive naive decimal printing must still round-trip
    a = Alphabet((0.1, -1.0 / 3.0, 7e-20))
    w = SequenceWindow.from_indices(a, 3, [2, 0, 1, 1, 0])
    back = parse_sequence(format_sequence(w))
    assert back == w
    assert back.alphabet.values == a.values


def _format_sequence_reference(window):
    """The str(i)-per-symbol writer the name table replaced."""
    alphabet = ",".join(repr(v) for v in window.alphabet.values)
    indices = ",".join(str(i) for i in window.to_indices().tolist())
    return (f"alphabet: {alphabet}\n"
            f"first_index: {window.first_index}\n"
            f"{indices}\n").encode("ascii")


@pytest.mark.parametrize("size", [2, 3, 12, 101])
def test_sequence_text_matches_the_per_symbol_writer(size):
    # negative values, and names of two digits once size > 10, three at 101
    a = Alphabet(tuple(-2.5 + 0.75 * k for k in range(size)))
    idx = np.random.default_rng(size).integers(0, size, 5000)
    idx[:size] = np.arange(size)
    for first in (-2600, 0, 17):
        w = SequenceWindow.from_indices(a, first, idx)
        assert format_sequence(w) == _format_sequence_reference(w)


def test_sequence_text_across_take_blocks():
    # the writer looks positions up in blocks of 2**14; names of two digits
    a = Alphabet(tuple(float(k) for k in range(12)))
    idx = np.random.default_rng(7).integers(0, 12, 3 * (1 << 14) + 5)
    w = SequenceWindow.from_indices(a, -40000, idx)
    assert format_sequence(w) == _format_sequence_reference(w)


def test_sequence_writer_makes_no_int64_index_copy():
    # 2 bytes of text a symbol, a few times over; an int64 copy of the
    # positions alone would take 8
    w = SequenceWindow.from_indices(BINARY, 0, np.arange(1 << 20) % 2)
    tracemalloc.start()
    try:
        text = format_sequence(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith(b"0,1,0,1\n")
    assert peak < 8 << 20


@pytest.mark.parametrize("n", [1, seqio._BLOCK - 1, seqio._BLOCK,
                               2 * seqio._BLOCK, 2 * seqio._BLOCK + 1])
def test_streamed_file_equals_the_formatted_bytes(tmp_path, n):
    # the last block, full or not, ends the index line
    a = Alphabet(tuple(float(k) for k in range(12)))
    w = SequenceWindow.from_indices(
        a, -3, np.random.default_rng(n).integers(0, 12, n))
    p = tmp_path / "w.seq"
    write_sequence(p, w)
    assert p.read_bytes() == format_sequence(w) == _format_sequence_reference(w)


@pytest.fixture(scope="module")
def point_file(tmp_path_factory):
    """The 2**20-symbol point window and its 2.1 MB sequence file."""
    w = point_window(-(1 << 19), 1 << 20)
    p = tmp_path_factory.mktemp("seq") / "point.seq"
    write_sequence(p, w)
    return w, p


def test_sequence_file_is_written_a_block_at_a_time(point_file, tmp_path):
    # a block of 2**14 symbols costs under 16 bytes a symbol (the intp take
    # indices, the name rows, their mask, the line and its bytes): 256 KiB,
    # where the 2 bytes a symbol of the whole line would take 2 MiB
    w, _ = point_file
    p = tmp_path / "w.seq"
    tracemalloc.start()
    try:
        write_sequence(p, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.read_bytes() == format_sequence(w)
    assert peak < 16 * seqio._BLOCK


def test_sequence_file_is_read_in_place(point_file):
    # the file's 2 bytes a symbol and 1 byte a symbol of kept positions; the
    # comma and digit checks take no temporary array.  The text reader held
    # the text three times over beside 9 bytes a symbol of window.
    w, p = point_file
    tracemalloc.start()
    try:
        back = read_sequence(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == w
    assert peak < 3.2 * len(w)


def test_sequence_file_round_trip(tmp_path):
    p = tmp_path / "w.seq"
    w = SequenceWindow.from_indices(BINARY, 0, [0, 1, 1, 0, 1])
    write_sequence(p, w)
    assert read_sequence(p) == w
    # writing what was read reproduces the bytes
    text = p.read_text()
    write_sequence(p, read_sequence(p))
    assert p.read_text() == text


@pytest.mark.parametrize("read, text", [
    (read_sequence, b"alphabet: 0.0,1.0\nfirst_index: 0\n0,\xe9\n"),
    (read_trajectory_csv, b"t,value\n0,1\n\xe9,2\n"),
], ids=["sequence", "trajectory"])
def test_undecodable_files_are_domain_errors(tmp_path, read, text):
    # the locale's decoder used to end in an uncaught UnicodeDecodeError
    p = tmp_path / "bad.txt"
    p.write_bytes(text)
    message = f"^{re.escape(str(p))} is not UTF-8 text"
    with pytest.raises(DomainError, match=message):
        read(p)


@pytest.mark.parametrize("text", [
    b"",
    b"alphabet: 0.0,1.0\nfirst_index: 0\n",
    b"alphabet: 0.0,1.0\nfirst_index: 0\n0,1\nextra\n",
    b"first_index: 0\nalphabet: 0.0,1.0\n0,1\n",
    b"alphabet: 0.0,1.0\nfirst: 0\n0,1\n",
    b"alphabet: 0.0,1.0\nfirst_index: zero\n0,1\n",
    b"alphabet: 0.0,1.0\nfirst_index: 0\n0,x\n",
    b"alphabet: 0.0\nfirst_index: 0\n0,0\n",
    b"alphabet: 0.0,1.0\nfirst_index: 0\n0,2\n",
])
def test_malformed_sequence_files(text):
    with pytest.raises(DomainError):
        parse_sequence(text)


def _parse_sequence_reference(text):
    """The text reader the byte reader replaced: splitlines, then int()."""
    lines = text.splitlines()
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
        indices = np.array(body.split(","), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"malformed sequence file: {exc}") from None
    return SequenceWindow.from_indices(Alphabet(values), first_index, indices)


def _sequence_outcome(parse, data):
    try:
        return parse(data)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("text", [
    "alphabet: 0.0,1.0\nfirst_index: 4\n0,1,1",
    "alphabet: 0.0,1.0\r\nfirst_index: 4\r\n0,1,1\r\n",
    "alphabet: 0.0,1.0\rfirst_index: 4\n0,1,1\n",
    "alphabet: 0.0,1.0\x0bfirst_index: 4\n0,1,1\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\x0b\n0,1,1\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\u2028\n0,1,1\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\n\n0,1,1\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\n0,1,1\n\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\n0,1,1\r",
    "alphabet: 0.0,1.0\nfirst_index: 4\n0,1,1\x1c",
    "alphabet: 0.0,1.0\nfirst_index: 4\n\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\n0",
    "alphabet: 0.0,1.0\nfirst_index: 4\n/,0",
    "alphabet: 0.0,1.0\nfirst_index: 4\n0,1,:\n",
    "alphabet: 0.0,1.0\nfirst_index: 4\n0.1,1\n",
    "alphabet: \u00e9\nfirst_index: 4\n0,1\n",
    "\nalphabet: 0.0,1.0\nfirst_index: 4\n0,1\n",
    "alphabet: 0.0,1.0\n\nfirst_index: 4\n0,1\n",
])
def test_sequence_bytes_parse_like_the_text_reader(text):
    # line breaks other than LF, a missing or doubled last newline, and
    # bytes just outside the digits and the comma
    assert _sequence_outcome(parse_sequence, text.encode("utf-8")) == (
        _sequence_outcome(_parse_sequence_reference, text))


def int_parse_indices(body):
    """Reference for the index line: int() per element."""
    return [int(s) for s in body.split(",")]


def sequence_text(body):
    return f"alphabet: 0.0,1.0\nfirst_index: 4\n{body}\n".encode("utf-8")


@pytest.mark.parametrize("body", [
    "0,1,1", " 1, 0 ,1 ", "+1,0", "0_0,1", "0_0_1,0,1", "\t1,0 ",
    "00001,0", "-0,+0", "\u0661,0", "\uff11,\u0660",
    # break the single-digit layout late, so the int() path must take over
    "0,1 ", "0,\u0661"])
def test_index_line_parses_like_int(body):
    w = parse_sequence(sequence_text(body))
    assert w.first_index == 4
    assert w.to_indices().tolist() == int_parse_indices(body)


@pytest.mark.parametrize("body", [
    "", " ", "0,", ",1", "0,,1", "0,x", "1.0", "1e0", "0x1", "0b1", "1 0",
    "1__0", "_1", "1_", "--1", "+-1", "- 1", "1-", "nan", "inf",
    "0,1,", ",0,1", "0;1"])
def test_malformed_index_line_reports_what_int_reports(body):
    with pytest.raises(ValueError) as ref:
        int_parse_indices(body)
    with pytest.raises(DomainError) as got:
        parse_sequence(sequence_text(body))
    assert str(got.value) == f"malformed sequence file: {ref.value}"


@pytest.mark.parametrize("body", [
    "0,99999999999999999999", "9223372036854775807",
    "0,9223372036854775808", "-9223372036854775809", "1," + "9" * 400,
    "0,2"])
def test_index_beyond_the_alphabet_or_64_bits(body):
    with pytest.raises(DomainError):
        parse_sequence(sequence_text(body))


@given(size=st.integers(2, 12), first=st.integers(-10 ** 6, 10 ** 6),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_written_index_lines_parse_like_int(size, first, data):
    # up to 10 symbols the line is single digits; 11 and 12 write two
    a = Alphabet(tuple(-2.5 + 0.75 * k for k in range(size)))
    idx = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                             max_size=300))
    text = format_sequence(SequenceWindow.from_indices(a, first, idx))
    want = SequenceWindow.from_indices(
        a, first, int_parse_indices(text.decode("ascii").splitlines()[2]))
    assert parse_sequence(text) == want
    assert want.to_indices().tolist() == idx


def test_trajectory_csv_header_and_shape():
    tr = Trajectory(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.25, 0.125]))
    text = format_trajectory_csv(tr)
    lines = text.splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 4


def test_trajectory_round_trip_is_exact_at_17_digits():
    t = 0.01 * np.arange(500)
    v = np.exp(-t) * np.sin(3.0 * t + 0.1)
    tr = Trajectory(t, v)
    back = parse_trajectory_csv(format_trajectory_csv(tr, digits=17))
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.values, tr.values)


def test_trajectory_fewer_digits_are_lossy_but_parse(tmp_path):
    t = 0.01 * np.arange(50)
    tr = Trajectory(t, np.exp(-t))
    p = tmp_path / "tr.csv"
    write_trajectory_csv(p, tr, digits=6)
    back = read_trajectory_csv(p)
    assert np.max(np.abs(back.values - tr.values)) < 1e-5


def test_trajectory_digits_validation():
    tr = Trajectory(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    for bad in (0, 18, -3):
        with pytest.raises(DomainError):
            format_trajectory_csv(tr, digits=bad)
    # 2.5 used to write 2 digits, 17.9 to write 17 and True to write 1
    for bad in (2.5, 17.9, "3", True):
        with pytest.raises(DomainError, match="digits must be an integer"):
            format_trajectory_csv(tr, digits=bad)
    assert format_trajectory_csv(tr, np.int64(3)) == (
        format_trajectory_csv(tr, 3))


def test_bad_digits_leave_no_file(tmp_path):
    tr = Trajectory(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    p = tmp_path / "tr.csv"
    with pytest.raises(DomainError):
        write_trajectory_csv(p, tr, digits=0)
    assert not p.exists()


def _format_trajectory_csv_reference(traj, digits=17):
    """The one-f-string-per-row writer the blocked formatter replaced."""
    d = int(digits)
    if not 1 <= d <= 17:
        raise DomainError("digits must lie in 1..17")
    rows = "".join(f"{t:.{d}g},{v:.{d}g}\n"
                   for t, v in zip(traj.times.tolist(), traj.values.tolist()))
    return "t,value\n" + rows


def _awkward_trajectories(rows):
    """Four trajectories holding 2*rows floats between them: time grids of
    subnormals, negatives through zero, integers and values near 1e300, and
    values mixing those with signed zeros, 1e-300 scales and random bits."""
    rng = np.random.default_rng(5)
    n = rows // 4
    bits = rng.integers(0, 1 << 63, size=n, dtype=np.int64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 1.5)
    pool = [
        rng.integers(1, 1 << 52, size=n, dtype=np.int64).view(np.float64),
        -rng.integers(1, 1 << 52, size=n, dtype=np.int64).view(np.float64),
        np.resize([0.0, -0.0], n),
        rng.integers(-10 ** 6, 10 ** 6, size=n).astype(np.float64),
        rng.integers(-2 ** 53, 2 ** 53, size=n).astype(np.float64),
        rng.uniform(-2.0, 2.0, size=n) * 1e300,
        rng.uniform(-2.0, 2.0, size=n) * 1e-300,
        rng.standard_normal(n),
        bits,
    ]
    values = rng.permutation(np.concatenate(pool))[:4 * n].reshape(4, n)
    k = np.arange(n, dtype=np.float64)
    grids = (5e-324 * k, -0.37 * n / 2 + 0.37 * k, 3.0 * k - n,
             -1e300 + 1e294 * k)
    return [Trajectory(t, v) for t, v in zip(grids, values)]


@pytest.mark.parametrize("digits", [1, 9, 17])
def test_csv_matches_the_per_row_writer(digits):
    trajectories = _awkward_trajectories(500_000)
    assert sum(2 * len(tr) for tr in trajectories) >= 10 ** 6
    for tr in trajectories:
        assert (format_trajectory_csv(tr, digits)
                == _format_trajectory_csv_reference(tr, digits))


def test_csv_file_matches_the_per_row_writer_across_blocks(tmp_path):
    t = 0.01 * np.arange(70_001)
    tr = Trajectory(t, np.sin(t) - 0.5)
    p = tmp_path / "tr.csv"
    write_trajectory_csv(p, tr, digits=17)
    assert p.read_bytes() == _format_trajectory_csv_reference(tr).encode()


@pytest.mark.parametrize("text", [
    "",
    "time,value\n0,1\n",
    "t,value\n",
    "t,value\n0\n",
    "t,value\n0,1,2\n",
    "t,value\n0,abc\n",
    "t,value\nnan,1\nnan,2\n",
    "t,value\n0,1\n1,inf\n",
])
def test_malformed_trajectory_files(text):
    with pytest.raises(DomainError):
        parse_trajectory_csv(text)


def test_json_report_bytes_are_stable(tmp_path):
    report = {"verdict": "consistent", "witnesses": [{"zeta": 34}],
              "parameters": {"count": 3}}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_json_report(a, report)
    write_json_report(b, report)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text()) == report


def test_json_report_preserves_key_order():
    text = format_json_report({"verdict": "x", "epsilon0_requested": 1.0,
                               "witnesses": []})
    assert text.index("verdict") < text.index("epsilon0_requested") \
        < text.index("witnesses")
