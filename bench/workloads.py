"""The four benchmark pipelines, their seeded inputs and their output checks.

Each workload is a short chain of ``unpredictable`` CLI invocations that
writes its files into a scratch directory.  The benchmark only chooses the
flags; every input is generated by the pipeline itself from the workload
seed.  The checks read the files back with their own parsers and compare
them with independent references, so they never rely on output bytes:

    drive-filter      the drive against a stdlib re-draw, every CSV row
                      against the one-step filter recurrence from the row
                      before, seeded rows against ``chi_quadrature``
    point-verify-seq  seeded window symbols and every witness against
                      ``point_symbol``
    point-verify-fn   every function witness re-derived with
                      ``chi_quadrature`` on its sigma-grid
    drive-compare     both drives against stdlib re-draws, the shifted
                      files against the drives, the metric against the
                      library recomputed on the re-drawn windows
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable

import numpy as np

from unpredictable import (BINARY, Alphabet, FilterConfig, SequenceWindow,
                           StepSignal, chi_quadrature, metric_distance,
                           point_symbol, point_window)

#: Tail length used for every quadrature cross-check.
QUAD_TAIL = 40.0

#: Slack for floating-point rounding on top of each analytic error bound.
ROUNDING = 1e-12


@dataclass(frozen=True)
class Step:
    """One CLI invocation, with the files it reads and writes."""

    argv: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]


@dataclass
class CheckResult:
    """Problems found in a pipeline's outputs, plus numbers the trace uses."""

    problems: list[str] = field(default_factory=list)
    quad_residual_max: float = 0.0
    quad_bound: float = 0.0

    def require(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Pipeline:
    workdir: Path
    steps: tuple[Step, ...]
    check: Callable[[], CheckResult]

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(f for step in self.steps for f in step.writes)


def _window_offset(seed: int) -> int:
    """Seeded shift of an i* window start, below 2**10 so that index 0 and
    the first returning shifts stay covered."""
    return random.Random(seed).randrange(1 << 10)


def _reference_draw(seed: int, probs: tuple[float, ...], n: int) -> np.ndarray:
    """Alphabet positions of a Bernoulli drive, drawn with the stdlib
    generator by inverse CDF, as ``bernoulli.realize`` documents."""
    rng = random.Random(seed)
    cuts = list(accumulate(probs[:-1]))
    return np.array([bisect_right(cuts, rng.random()) for _ in range(n)],
                    dtype=np.int64)


def read_sequence_file(path: Path):
    """Parse a sequence file without the package: (alphabet, first, indices).

    Only single-digit alphabet positions are supported, which covers every
    alphabet the workloads use.
    """
    head, first, body, tail = path.read_text().split("\n")
    if (tail or not head.startswith("alphabet: ")
            or not first.startswith("first_index: ")):
        raise ValueError(f"{path.name}: not a sequence file")
    alphabet = tuple(float(v) for v in head[len("alphabet: "):].split(","))
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    if raw.size % 2 != 1 or np.any(raw[1::2] != ord(",")):
        raise ValueError(f"{path.name}: symbols are not single digits")
    indices = raw[0::2].astype(np.int64) - ord("0")
    if np.any(indices < 0) or np.any(indices >= len(alphabet)):
        raise ValueError(f"{path.name}: symbol outside the alphabet")
    return alphabet, int(first[len("first_index: "):]), indices


def read_csv_file(path: Path):
    """Parse a ``t,value`` CSV without the package: (times, values)."""
    text = path.read_text()
    header = "t,value\n"
    if not text.startswith(header) or not text.endswith("\n"):
        raise ValueError(f"{path.name}: not a trajectory CSV")
    cells = text[len(header):-1].replace("\n", ",").split(",")
    data = np.array(cells, dtype=np.float64)
    if data.size % 2:
        raise ValueError(f"{path.name}: ragged rows")
    return data[0::2], data[1::2]


def _check_drive(res: CheckResult, path: Path, alphabet, first: int,
                 expected: np.ndarray) -> None:
    got_alphabet, got_first, got = read_sequence_file(path)
    res.require(got_alphabet == tuple(alphabet),
                f"{path.name}: alphabet {got_alphabet}")
    res.require(got_first == first, f"{path.name}: first index {got_first}")
    res.require(np.array_equal(got, expected),
                f"{path.name}: symbols differ from the reference draw")


def _check_point_file(res: CheckResult, path: Path, first: int, length: int,
                      seed: int, samples: int) -> None:
    alphabet, got_first, got = read_sequence_file(path)
    res.require(alphabet == (0.0, 1.0), f"{path.name}: alphabet {alphabet}")
    res.require(got_first == first and got.size == length,
                f"{path.name}: covers {got_first} + {got.size}")
    if got.size != length:
        return
    rng = random.Random(seed)
    for j in sorted(rng.randrange(length) for _ in range(samples)):
        if got[j] != point_symbol(first + j):
            res.problems.append(f"{path.name}: symbol at {first + j} differs "
                                "from point_symbol")
            return


# --------------------------------------------------------------- drive-filter

_TERNARY = (-1.0, 0.0, 1.0)
_TERNARY_P = (0.25, 0.5, 0.25)


def drive_filter(seed: int, workdir: Path, small: bool = False) -> Pipeline:
    n = 2_000 if small else 100_000
    mu, dt, decay, phi0 = 0.1, 0.01, 1.0, 0.0
    t_end = n // 10     # the drive covers [0, n * mu] exactly
    drive, csv = workdir / "drive.seq", workdir / "chi.csv"
    steps = (
        Step(("bernoulli", "--seed", str(seed), "--length", str(n),
              "--alphabet=" + ",".join(str(int(v)) for v in _TERNARY),
              "--p", ",".join(str(p) for p in _TERNARY_P),
              "--out", str(drive)), (), (drive.name,)),
        Step(("filter", "--in", str(drive), "--mu", str(mu), "--dt", str(dt),
              "--t-end", str(t_end), "--phi0", str(phi0),
              "--out", str(csv)), (drive.name,), (csv.name,)),
    )

    def check() -> CheckResult:
        res = CheckResult()
        symbols = _reference_draw(seed, _TERNARY_P, n)
        _check_drive(res, drive, _TERNARY, 0, symbols)
        t, x = read_csv_file(csv)
        rows = int(math.floor(t_end / dt + 1e-9)) + 1
        res.require(t.size == rows, f"chi.csv: {t.size} rows, want {rows}")
        if t.size != rows:
            return res
        res.require(np.allclose(t, dt * np.arange(rows), rtol=ROUNDING,
                                atol=ROUNDING), "chi.csv: sample times")
        pi = np.asarray(_TERNARY)[symbols]
        lo = min(_TERNARY) / decay
        hi = max(_TERNARY) / decay
        res.require(bool(np.all((x >= lo) & (x <= hi))),
                    f"chi.csv: value outside the band [{lo}, {hi}]")
        res.require(x[0] == phi0, "chi.csv: first value is not phi0")
        worst = float(np.max(_recurrence_residual(t, x, pi, mu, decay)))
        res.require(worst <= ROUNDING,
                    f"chi.csv: row off the filter recurrence by {worst:.3g}")
        # seeded absolute anchors, each by an independent tail integral
        signal = StepSignal(SequenceWindow(Alphabet(_TERNARY), 0, pi), mu)
        config = FilterConfig(decay=decay, step=mu, sample_dt=dt)
        first_row = int(math.ceil(QUAD_TAIL / dt))
        rng = random.Random(seed)
        for i in sorted(rng.randrange(first_row, rows) for _ in range(64)):
            q = chi_quadrature(signal, config, float(t[i]), QUAD_TAIL)
            err = abs(float(x[i]) - q.value)
            bound = q.truncation_bound + ROUNDING
            res.quad_residual_max = max(res.quad_residual_max, err)
            res.quad_bound = max(res.quad_bound, bound)
            res.require(err <= bound, f"chi.csv: row {i} off the quadrature "
                                      f"by {err:.3g} > {bound:.3g}")
        return res

    return Pipeline(workdir, steps, check)


def _recurrence_residual(t, x, pi, mu, decay):
    """|x[i+1] - prediction from x[i]| with the exact per-piece solution,
    crossing at most one breakpoint per sample gap."""
    k = np.floor(t[:-1] / mu).astype(np.int64)
    k += (k + 1) * mu <= t[:-1]
    k -= k * mu > t[:-1]
    b = (k + 1) * mu
    nxt = np.minimum(k + 1, pi.size - 1)
    cross = b < t[1:]
    stop = np.where(cross, b, t[1:])
    e1 = np.exp(-decay * (stop - t[:-1]))
    mid = x[:-1] * e1 + pi[k] / decay * (1.0 - e1)
    e2 = np.exp(-decay * np.where(cross, t[1:] - b, 0.0))
    pred = mid * e2 + pi[nxt] / decay * (1.0 - e2)
    return np.abs(x[1:] - pred)


# ----------------------------------------------------------- point-verify-seq

def point_verify_seq(seed: int, workdir: Path,
                     small: bool = False) -> Pipeline:
    half = (1 << 13) if small else (1 << 19)
    count = 10 if small else 500
    first = -half - _window_offset(seed)
    length = 2 * half
    L, eps0 = 4, 1.0
    seq, out = workdir / "point.seq", workdir / "witnesses.json"
    steps = (
        Step(("point", "--first", str(first), "--length", str(length),
              "--out", str(seq)), (), (seq.name,)),
        Step(("verify-seq", "--in", str(seq), "--half-width", str(L),
              "--epsilon0", str(int(eps0)), "--count", str(count),
              "--out", str(out)), (seq.name,), (out.name,)),
    )

    def check() -> CheckResult:
        res = CheckResult()
        _check_point_file(res, seq, first, length, seed, 512)
        report = json.loads(out.read_text())
        res.require(report["verdict"] == "consistent",
                    f"witnesses.json: verdict {report['verdict']}")
        res.require(len(report["witnesses"]) == count,
                    f"witnesses.json: {len(report['witnesses'])} witnesses")
        _check_sequence_witnesses(res, report["witnesses"], L, eps0,
                                  first, first + length - 1)
        seps = [w["separation"] for w in report["witnesses"]]
        res.require(report["epsilon0_achieved"] == min(seps, default=0.0),
                    "witnesses.json: epsilon0_achieved")
        return res

    return Pipeline(workdir, steps, check)


def _check_sequence_witnesses(res: CheckResult, witnesses, L: int,
                              eps0: float, first: int, last: int) -> None:
    """Re-check each witness with ``point_symbol``: the [-L, L] match, the
    separation at eta, strictly increasing zeta and eta, and that eta is the
    smallest separating index after the previous witness's."""
    centre = [point_symbol(k) for k in range(-L, L + 1)]
    prev_zeta, prev_eta = 0, 0
    for n, w in enumerate(witnesses):
        zeta, eta = w["zeta"], w["eta"]
        tag = f"witness {n} (zeta={zeta}, eta={eta})"
        res.require(zeta > prev_zeta and eta > prev_eta,
                    f"{tag}: zeta and eta not strictly increasing")
        res.require(w["window"] == [-L, L] and w["max_window_error"] == 0.0,
                    f"{tag}: window record")
        res.require([point_symbol(k + zeta) for k in range(-L, L + 1)]
                    == centre, f"{tag}: [-L, L] does not match")
        res.require(max(1, first) <= eta and eta + zeta <= last,
                    f"{tag}: eta outside the data")
        sep = abs(point_symbol(eta + zeta) - point_symbol(eta))
        res.require(sep >= eps0 and sep == w["separation"],
                    f"{tag}: separation {sep}")
        for j in range(max(prev_eta + 1, 1, first), eta):
            if abs(point_symbol(j + zeta) - point_symbol(j)) >= eps0:
                res.problems.append(f"{tag}: index {j} separates earlier")
                break
        prev_zeta, prev_eta = zeta, eta


# ------------------------------------------------------------ point-verify-fn

def point_verify_fn(seed: int, workdir: Path,
                    small: bool = False) -> Pipeline:
    half = (1 << 12) if small else (1 << 15)
    shifts = 2 if small else 30
    first = -half - _window_offset(seed)
    length = 2 * half
    mu = 1.0
    seq, out = workdir / "point.seq", workdir / "fn.json"
    steps = (
        Step(("point", "--first", str(first), "--length", str(length),
              "--out", str(seq)), (), (seq.name,)),
        Step(("verify-fn", "--in", str(seq), "--mu", str(int(mu)),
              "--auto-shifts", str(shifts), "--out", str(out)),
             (seq.name,), (out.name,)),
    )

    def check() -> CheckResult:
        res = CheckResult()
        _check_point_file(res, seq, first, length, seed, 256)
        report = json.loads(out.read_text())
        p = report["parameters"]
        res.require(report["verdict"] == "consistent",
                    f"fn.json: verdict {report['verdict']}")
        res.require(report["witnesses"], "fn.json: no witnesses")
        res.require(len(p["t_shift_candidates"]) == shifts,
                    f"fn.json: {len(p['t_shift_candidates'])} candidates")
        centre = [point_symbol(k) for k in range(-4, 5)]
        for s in p["t_shift_candidates"]:
            z = int(s / p["mu"])
            res.require(z * p["mu"] == s and [point_symbol(k + z)
                                              for k in range(-4, 5)] == centre,
                        f"fn.json: candidate {s} is not a returning shift")
        _check_function_witnesses(res, report, point_window(first, length))
        return res

    return Pipeline(workdir, steps, check)


def _check_function_witnesses(res: CheckResult, report: dict,
                              window: SequenceWindow) -> None:
    """Re-derive each witness's interval separation with ``chi_quadrature``
    on its sigma-grid.

    The library samples a trajectory started at -burn_in from phi0 and
    interpolates it linearly, so its separations may differ from the exact
    ones by twice (burn-in transient + interpolation error + truncation);
    the re-derived minimum must agree within that and reach epsilon0.
    """
    p = report["parameters"]
    lam, dt, sigma = p["decay"], p["sample_dt"], p["sigma"]
    signal = StepSignal(window, p["mu"])
    config = FilterConfig(decay=lam, step=p["mu"], sample_dt=dt)
    sup_pi = signal.sup_abs
    sup_h = max(abs(p["phi0"]), sup_pi / lam)
    interp = (sup_pi + lam * sup_h) * dt / 2.0
    transient = (abs(p["phi0"]) + sup_pi / lam) * math.exp(
        -lam * (p["compact"][0] + p["burn_in"]))
    trunc = sup_pi * math.exp(-lam * QUAD_TAIL) / lam
    budget = 2.0 * (transient + interp + trunc) + ROUNDING
    res.quad_bound = budget
    eps0 = report["epsilon0_requested"]
    win = int(round(2.0 * sigma / dt)) + 1
    prev_u = -math.inf
    for n, w in enumerate(report["witnesses"]):
        T, u = w["t_shift"], w["u_center"]
        tag = f"function witness {n} (T={T})"
        res.require(T in p["t_shift_candidates"], f"{tag}: unknown shift")
        res.require(u > prev_u, f"{tag}: centres not strictly increasing")
        res.require(w["sigma"] == sigma, f"{tag}: sigma")
        res.require(w["max_compact_error"] <= p["tolerance"],
                    f"{tag}: compact error above the tolerance")
        res.require(w["min_separation_on_interval"] >= eps0,
                    f"{tag}: reported separation below epsilon0")
        seps = [abs(chi_quadrature(signal, config, t + T, QUAD_TAIL).value
                    - chi_quadrature(signal, config, t, QUAD_TAIL).value)
                for t in (u - sigma + dt * np.arange(win)).tolist()]
        exact = min(seps)
        err = abs(exact - w["min_separation_on_interval"])
        res.quad_residual_max = max(res.quad_residual_max, err)
        res.require(err <= budget, f"{tag}: separation {exact:.6g} re-derived,"
                                   f" off by {err:.3g} > {budget:.3g}")
        res.require(exact >= eps0, f"{tag}: re-derived separation {exact:.6g}"
                                   f" below epsilon0 {eps0:.6g}")
        prev_u = u


# -------------------------------------------------------------- drive-compare

def drive_compare(seed: int, workdir: Path, small: bool = False) -> Pipeline:
    n = 10_000 if small else 1_000_000
    times, K = 16, 16
    a, b = workdir / "a.seq", workdir / "b.seq"
    sa, sb = workdir / "a_shifted.seq", workdir / "b_shifted.seq"
    out = workdir / "metric.json"
    steps = (
        Step(("bernoulli", "--seed", str(seed), "--length", str(n),
              "--out", str(a)), (), (a.name,)),
        Step(("bernoulli", "--seed", str(seed + 1), "--length", str(n),
              "--out", str(b)), (), (b.name,)),
        Step(("shift", "--in", str(a), "--times", str(times), "--out",
              str(sa)), (a.name,), (sa.name,)),
        Step(("shift", "--in", str(b), "--times", str(times), "--out",
              str(sb)), (b.name,), (sb.name,)),
        Step(("metric", "--a", str(sa), "--b", str(sb), "--half-width",
              str(K), "--out", str(out)), (sa.name, sb.name), (out.name,)),
    )

    def check() -> CheckResult:
        res = CheckResult()
        alphabet = BINARY.values
        ref = [_reference_draw(s, (0.5, 0.5), n) for s in (seed, seed + 1)]
        for path, shifted, expected in ((a, sa, ref[0]), (b, sb, ref[1])):
            _check_drive(res, path, alphabet, 0, expected)
            _check_drive(res, shifted, alphabet, -times, expected)
        windows = [SequenceWindow.from_indices(BINARY, -times, r)
                   for r in ref]
        want = metric_distance(windows[0], windows[1], K)
        got = json.loads(out.read_text())
        res.require(got == {"value": want.value,
                            "tail_bound": want.tail_bound},
                    f"metric.json: {got}, library gives {tuple(want)}")
        # binary terms are powers of two, so the sum is exact in any order
        exact = math.fsum(abs(int(x) - int(y)) * 2.0 ** -abs(k) for k, x, y
                          in zip(range(-K, K + 1), *(r[times - K:times + K + 1]
                                                     for r in ref)))
        res.require(got["value"] == exact,
                    f"metric.json: value {got['value']}, exact sum {exact}")
        return res

    return Pipeline(workdir, steps, check)


#: Workload name -> pipeline builder (seed, workdir, small).
WORKLOADS = {
    "drive-filter": drive_filter,
    "point-verify-seq": point_verify_seq,
    "point-verify-fn": point_verify_fn,
    "drive-compare": drive_compare,
}
