"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from unpredictable import (BINARY, BernoulliSpec, FilterConfig, StepSignal,
                           SequenceWindow, chi_exact, chi_quadrature, family,
                           find_function_witnesses, find_sequence_witnesses,
                           metric_distance, point_window, read_sequence,
                           read_trajectory_csv, realize, separation_constants,
                           shift)
from unpredictable.cli import main


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_pipeline_bounded(tmp_path):
    """Seeded draw piped through the filter stays inside [0, 1] on [0, 100]."""
    seq = tmp_path / "drive.seq"
    csv = tmp_path / "chi.csv"
    start = time.perf_counter()
    ok = main(["bernoulli", "--seed", "42", "--length", "1000",
               "--out", str(seq)]) == 0
    ok = ok and main(["filter", "--in", str(seq), "--mu", "0.1",
                      "--phi0", "0.5", "--t-end", "100", "--dt", "0.01",
                      "--out", str(csv)]) == 0
    elapsed = time.perf_counter() - start
    tr = read_trajectory_csv(csv)
    ok = ok and len(tr) == 10001
    ok = ok and float(tr.times[0]) == 0.0 and float(tr.times[-1]) == 100.0
    ok = ok and float(tr.values.min()) >= 0.0
    ok = ok and float(tr.values.max()) <= 1.0
    ok = ok and elapsed < 1.0
    report(1, "pipeline output bounded in [0, 1] over [0, 100]", ok,
           f"elapsed {elapsed:.2f}s, range [{tr.values.min():.4f}, "
           f"{tr.values.max():.4f}]")


def test_criterion_2_transient_bound():
    """Runs from phi0 = 0 and phi0 = 1 differ by e^-t, vanishing by t = 50."""
    w = realize(BernoulliSpec(BINARY, (0.5, 0.5), 42, 1000))
    s = StepSignal(w, 0.1)
    cfg = FilterConfig(decay=1.0, step=0.1, sample_dt=0.01)
    lo = chi_exact(s, cfg, 0.0, 100.0, 0.0)
    hi = chi_exact(s, cfg, 0.0, 100.0, 1.0)
    gap = hi.values - lo.values
    # the initial gap is exactly 1, so "relative" and absolute coincide
    worst = float(np.max(np.abs(gap - np.exp(-lo.times))))
    at_50 = abs(float(gap[int(np.argmin(np.abs(lo.times - 50.0)))]))
    ok = worst <= 1e-12 and at_50 < 1e-17
    report(2, "initial-value gap decays exactly like e^-t", ok,
           f"max |gap - e^-t| = {worst:.2e}, |gap(50)| = {at_50:.2e}")


def test_criterion_3_oracle_equivalence():
    """Recurrence and tail quadrature agree across 100 seeds."""
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for seed in range(100):
        w = realize(BernoulliSpec(BINARY, (0.5, 0.5), seed, 600))
        s = StepSignal(w, 0.1)
        cfg = FilterConfig(decay=1.0, step=0.1, sample_dt=0.1)
        t = 55.0
        tr = chi_exact(s, cfg, t - 40.0, t, 0.0)
        q = chi_quadrature(s, cfg, t, 40.0)
        diff = abs(float(tr.values[-1]) - q.value)
        worst = max(worst, diff)
        ok = ok and diff <= q.truncation_bound + 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(3, "chi_exact matches chi_quadrature within truncation + 1e-10",
           ok, f"100 seeds, worst diff {worst:.2e}, elapsed {elapsed:.2f}s")


def test_criterion_4_construction_fidelity():
    """Level-2 strings and the 17-symbol prefix match a literal oracle."""
    ok = family(2).strings == ("00", "01", "10", "11")
    # hand-rolled concatenation: level-1 and the odd strings of levels 2, 3
    oracle = "0" + "00" + "10" + "000" + "010" + "100" + "110"
    window_text = "".join(
        str(int(v)) for v in point_window(0, 17).symbols)
    ok = ok and window_text == oracle == "00010000010100110"
    report(4, "family(2) and point_window(0, 17) match hand concatenation",
           ok, f"prefix {window_text}")


def test_criterion_5_witness_search(point_64k):
    """Witnesses on the i* window; periodic and constant controls refused."""
    start = time.perf_counter()
    result = find_sequence_witnesses(point_64k, 4, 0.0, 1.0, 3)
    periodic = find_sequence_witnesses(
        SequenceWindow(BINARY, -32, np.tile([0.0, 1.0], 64)), 4, 0.0, 1.0, 3)
    constant = find_sequence_witnesses(
        SequenceWindow(BINARY, -32, np.zeros(128)), 4, 0.0, 1.0, 3)
    elapsed = time.perf_counter() - start
    ok = (result.verdict == "consistent" and len(result.witnesses) >= 3
          and periodic.verdict == "inconsistent"
          and constant.verdict == "inconsistent"
          and elapsed < 30.0)
    zetas = [w.zeta for w in result.witnesses]
    report(5, "sequence witnesses found on i*, controls inconsistent", ok,
           f"zetas {zetas}, elapsed {elapsed:.2f}s")


def test_criterion_6_separation_constants(point_64k):
    """Constants are exact; the filtered i* run reports its separation."""
    c = separation_constants(1.0)
    ok = c.lower_bound == 1.0 / 24.0
    ok = ok and abs(c.kappa_i - math.log(1.5) / 2.0) <= 1e-15
    ok = ok and abs(c.kappa_ii - (-math.log(11.0 / 12.0) / 2.0)) <= 1e-15

    sigma = c.kappa_ii / 2.0
    dt = 1.0 / math.ceil(8.0 / sigma)    # mu = 1 in whole steps, <= sigma/8
    signal = StepSignal(point_64k, 1.0)
    cfg = FilterConfig(decay=1.0, step=1.0, sample_dt=dt)
    tr = chi_exact(signal, cfg, -8.0, 3030.0, 0.5)
    result = find_function_witnesses(tr, [3018.0], (0.0, 4.0), sigma,
                                     tolerance=5e-3, epsilon0=c.lower_bound)
    doc = asdict(result)
    achieved = doc["separation_achieved"]
    ok = ok and doc["epsilon0_requested"] == c.lower_bound
    ok = ok and doc["separation_predicted_lower_bound"] is None
    ok = ok and achieved >= 0.0
    # the epsilon0/24 level is the expected outcome, reported not asserted
    above = achieved >= 1.0 / 24.0
    report(6, "separation constants exact, achieved separation reported",
           ok, f"achieved {achieved:.4f} vs predicted {1.0 / 24.0:.4f} "
               f"({'above' if above else 'below'} prediction)")


def test_criterion_7_metric_and_shift_properties():
    """Metric axioms and shift expansiveness over 1000 random pairs."""
    rng = np.random.default_rng(1234)
    K = 16
    ok = True
    for _ in range(1000):
        a = SequenceWindow(BINARY, -(K + 1),
                           rng.integers(0, 2, 2 * K + 3).astype(float))
        b = SequenceWindow(BINARY, -(K + 1),
                           rng.integers(0, 2, 2 * K + 3).astype(float))
        c = SequenceWindow(BINARY, -(K + 1),
                           rng.integers(0, 2, 2 * K + 3).astype(float))
        ab = metric_distance(a, b, K).value
        ba = metric_distance(b, a, K).value
        ac = metric_distance(a, c, K).value
        cb = metric_distance(c, b, K).value
        ok = ok and ab >= 0.0 and ab == ba
        ok = ok and metric_distance(a, a, K).value == 0.0
        same = np.array_equal(a.segment(-K, K), b.segment(-K, K))
        ok = ok and ((ab == 0.0) == same)
        ok = ok and ab <= ac + cb + 1e-12
        shifted = metric_distance(shift(a), shift(b), K).value
        wider = metric_distance(a, b, K + 1).value
        ok = ok and shifted <= 2.0 * wider + 1e-12
        if not ok:
            break
    report(7, "metric axioms and expansiveness bound on 1000 pairs", ok,
           "K = 16, slack 1e-12")


def test_criterion_8_reproducibility(tmp_path):
    """Every command is byte-deterministic; every format round-trips."""
    ok = True
    pairs = []

    def twice(name, *argv_tail):
        nonlocal ok
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = main(list(argv_tail) + ["--out", str(out)])
            ok = ok and code == 0
            outs.append(out)
        pairs.append((name, outs[0].read_bytes() == outs[1].read_bytes()))

    seq = tmp_path / "in.seq"
    main(["point", "--first", "-4096", "--length", "8192", "--out", str(seq)])

    twice("point", "point", "--first", "-50", "--length", "120")
    twice("bernoulli", "bernoulli", "--seed", "99", "--length", "300")
    twice("shift", "shift", "--in", str(seq), "--times", "2")
    twice("metric", "metric", "--a", str(seq), "--b", str(seq),
          "--half-width", "12")
    drive = tmp_path / "drive.seq"
    main(["bernoulli", "--seed", "5", "--length", "300", "--out", str(drive)])
    twice("filter", "filter", "--in", str(drive), "--t-end", "25")
    twice("verify-seq", "verify-seq", "--in", str(seq), "--half-width", "4",
          "--epsilon0", "1", "--count", "2")
    twice("verify-fn", "verify-fn", "--in", str(seq), "--mu", "1",
          "--shifts", "34", "--integer-shifts", "--beta", "2",
          "--burn-in", "6", "--tolerance", "0.05")
    ok = ok and all(same for _, same in pairs)

    # format round-trips: sequence bytes, 17-digit CSV, JSON reports
    w = read_sequence(seq)
    round_seq = tmp_path / "round.seq"
    main(["shift", "--in", str(seq), "--times", "1", "--out",
          str(round_seq)])
    reread = read_sequence(round_seq)
    ok = ok and reread.first_index == w.first_index - 1
    ok = ok and np.array_equal(reread.symbols, w.symbols)

    csv_path = tmp_path / "filter-a"
    tr = read_trajectory_csv(csv_path)
    from unpredictable import format_trajectory_csv
    ok = ok and format_trajectory_csv(tr) == csv_path.read_text()

    json_path = tmp_path / "verify-seq-a"
    data = json.loads(json_path.read_text())
    ok = ok and json.dumps(data, indent=2) + "\n" == json_path.read_text()

    failed = [name for name, same in pairs if not same]
    report(8, "CLI byte-determinism and exact format round-trips", ok,
           "all commands stable" if not failed else f"unstable: {failed}")
