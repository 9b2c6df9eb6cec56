"""Empirical witnesses for shift recurrence with persistent separation.

A sequence is considered here through two lenses at once.  It should return
near itself under some shifts: windows [-L, L] and [-L + z, L + z] agree
within a tolerance.  And each such returning shift z should still be told
apart from the identity somewhere: an index e with |v(e + z) - v(e)| at
least epsilon0.  A (z, e) pair is a witness.  Growing lists of witnesses
with strictly increasing z and e are the finite-data shadow of the defining
limit properties, so the verdicts speak only about the supplied data:

    consistent    the requested number of witnesses was found
    inconsistent  the data itself rules the property out (an exactly
                  periodic sequence, or a trajectory with a returning
                  shift that is a period of all its samples)
    inconclusive  the data ran out before either of the above

The function-level search plays the same game with a sampled trajectory:
shifts must reproduce it on a compact interval within a tolerance, and
separation must persist on a whole subinterval of half-width sigma rather
than at a single point.  It reads samples by index, never between them,
and skips the centres whose bounds rule them out.
Every reported witness carries the numbers needed to re-check it from the
raw data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import CoverageError, DomainError, ResolutionError
from .filtering import (_BLOCK, _EDGE_TOL, FilterConfig, StepSignal,
                        Trajectory, _Lattice, separation_constants)
from .symbolspace import SequenceWindow, metric_distance, shift

_VERDICTS = ("consistent", "inconsistent", "inconclusive")

#: Samples per centre unit of the function scan, the grain of its skip rule.
_UNIT = 1 << 12


class _Verdict:
    """The check shared by the verdict records: a known verdict string."""

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise DomainError(f"verdict must be one of {_VERDICTS}")


@dataclass(frozen=True)
class SequenceWitness:
    """One returning shift together with its separating index."""

    zeta: int
    eta: int
    window: tuple[int, int]
    max_window_error: float
    separation: float


@dataclass(frozen=True)
class SequenceVerdict(_Verdict):
    witnesses: tuple[SequenceWitness, ...]
    epsilon0_achieved: float
    verdict: str


@dataclass(frozen=True)
class FunctionWitness:
    """One returning time shift with its separating interval."""

    t_shift: float
    u_center: float
    sigma: float
    max_compact_error: float
    min_separation_on_interval: float


@dataclass(frozen=True)
class FunctionVerdict(_Verdict):
    witnesses: tuple[FunctionWitness, ...]
    separation_achieved: float
    verdict: str


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and positive")


def _base_checks(seq: SequenceWindow, half_width: int) -> int:
    L = int(half_width)
    if L < 1:
        raise DomainError("half_width must be a positive integer")
    if not seq.covers(-L, L) or seq.last_index < L + 1:
        raise CoverageError(
            "window must cover [-L, L] plus at least one shifted copy")
    return L


def qualifying_shifts(seq: SequenceWindow, half_width: int,
                      tolerance: float) -> np.ndarray:
    """All shifts z >= 1 whose window [-L + z, L + z] matches [-L, L]
    within ``tolerance``, in increasing order.

    Raises:
        CoverageError: the window cannot hold [-L, L] and one shifted copy.
    """
    L = _base_checks(seq, half_width)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError("tolerance must be finite and nonnegative")
    v = seq.symbols
    base = seq.segment(-L, L)
    width = 2 * L + 1
    # window for shift z starts at array offset z - L - first_index >= 1
    off0 = 1 - L - seq.first_index
    windows = np.lib.stride_tricks.sliding_window_view(v, width)[off0:]
    hits: list[np.ndarray] = []
    for lo in range(0, windows.shape[0], _BLOCK):
        block = windows[lo:lo + _BLOCK]
        err = np.max(np.abs(block - base), axis=1)
        hits.append(np.flatnonzero(err <= tolerance) + lo)
    pos = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    return pos + 1


def find_sequence_witnesses(seq: SequenceWindow, window_half_width: int,
                            tolerance: float, epsilon0: float,
                            count: int) -> SequenceVerdict:
    """Search for ``count`` witnesses with strictly increasing z and e.

    Shifts are scanned in increasing order; for each qualifying shift the
    smallest separating index larger than the previous witness's index is
    taken, scanning forward from there in blocks of ``_BLOCK`` indices.  If
    none follows and the sequence is exactly z-periodic over the covered
    range, the verdict is ``inconsistent``.  ``epsilon0_achieved`` is the
    smallest separation the reported witnesses sustain, or 0 when there are
    none.

    Raises:
        DomainError: a parameter is out of range.
        CoverageError: the window cannot hold [-L, L] and one shifted copy.
    """
    L = _base_checks(seq, window_half_width)
    _check_positive("epsilon0", epsilon0)
    if int(count) < 1:
        raise DomainError("count must be a positive integer")

    v = seq.symbols
    base = seq.segment(-L, L)
    witnesses: list[SequenceWitness] = []
    start = 1 - seq.first_index    # array offset of the smallest eta allowed
    verdict = "inconclusive"

    for zeta in qualifying_shifts(seq, L, tolerance).tolist():
        n = len(v) - zeta    # offsets below n have a partner zeta later
        # the first separating eta after the previous one, a block at a time
        for lo in range(start, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            gaps = np.abs(v[lo + zeta:hi + zeta] - v[lo:hi])
            hit = np.flatnonzero(gaps >= epsilon0)
            if hit.size:
                break
        else:
            # a separating index before start would make the arrays differ
            if np.array_equal(v[zeta:], v[:n]):
                verdict = "inconsistent"
                break
            continue
        i = lo + int(hit[0])
        err = float(np.max(np.abs(seq.segment(-L + zeta, L + zeta) - base)))
        witnesses.append(SequenceWitness(
            zeta=int(zeta), eta=i + seq.first_index, window=(-L, L),
            max_window_error=err, separation=float(gaps[hit[0]])))
        start = i + 1
        if len(witnesses) == count:
            verdict = "consistent"
            break

    achieved = min((w.separation for w in witnesses), default=0.0)
    return SequenceVerdict(tuple(witnesses), achieved, verdict)


def orbit_return_distances(seq: SequenceWindow, half_width: int,
                           max_shift: int) -> list[tuple[int, float]]:
    """Truncated distance between the sequence and each of its shifts.

    For every shift s in 1..max_shift, the :func:`metric_distance` of the
    window shifted s times from itself: |v(k + s) - v(k)| / 2**|k| summed
    over |k| <= half_width.  Useful as a recurrence diagnostic: dips mark
    shifts under which the window nearly returns to itself.

    Raises:
        CoverageError: indices [-K - max_shift, K + max_shift] are missing.
    """
    K = int(half_width)
    S = int(max_shift)
    if K < 1 or S < 1:
        raise DomainError("half_width and max_shift must be positive")
    if not seq.covers(-K, K + S):
        raise CoverageError(
            f"window must cover [{-K}, {K + S}] for this diagnostic")
    return [(s, metric_distance(shift(seq, s), seq, K).value)
            for s in range(1, S + 1)]


def _snap(q: float) -> float:
    """q, or the whole number within _EDGE_TOL of it (relative to q)."""
    k = round(q)
    return float(k) if abs(q - k) <= _EDGE_TOL * max(1.0, abs(q)) else q


def _sliding_min(x: np.ndarray, win: int) -> np.ndarray:
    """min(x[i:i + win]) for every full window, by doubling the width."""
    width = 1
    while 2 * width <= win:
        x = np.minimum(x[:-width], x[width:])
        width *= 2
    if width < win:
        # two overlapping windows of the power-of-two width cover win
        x = np.minimum(x[:width - win], x[win - width:])
    return x


def _is_period(h, s: int, tolerance: float) -> bool:
    """Whether |v[j + s] - v[j]| <= tolerance for every pair of samples."""
    v, n = h.values, len(h) - s
    return all(float(np.max(np.abs(v[lo + s:lo + s + _BLOCK]
                                   - v[lo:min(lo + _BLOCK, n)]))) <= tolerance
               for lo in range(0, n, _BLOCK))


def _search_args(compact, shifts, sigma, tolerance, epsilon0, dt):
    """Check the function search's arguments against a sample spacing dt
    before any work; return the compact bounds, the sorted shifts and each
    shift as a whole number of samples."""
    alpha, beta = float(compact[0]), float(compact[1])
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"compact bounds must be finite: [{alpha}, {beta}]")
    if not alpha < beta:
        raise DomainError("compact interval bounds out of order")
    shifts = sorted(float(s) for s in shifts)
    if not shifts:
        raise DomainError("need at least one shift candidate")
    if not all(0 < s < math.inf for s in shifts):
        raise DomainError("shift candidates must be finite and positive")
    _check_positive("sigma", sigma)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError("tolerance must be finite and nonnegative")
    _check_positive("epsilon0", epsilon0)
    if dt > sigma / 8.0 * (1.0 + _EDGE_TOL):
        raise ResolutionError(f"sample spacing {dt!r} exceeds sigma / 8")
    for s in shifts:
        if not (s / dt > 0.5 and _snap(s / dt).is_integer()):
            raise DomainError(f"shift {s!r} is not a whole number of "
                              f"samples of spacing {dt!r}")
    return alpha, beta, shifts, [round(s / dt) for s in shifts]


def find_function_witnesses(h: Trajectory,
                            t_shift_candidates: Sequence[float],
                            compact: tuple[float, float],
                            sigma: float,
                            tolerance: float,
                            epsilon0: float) -> FunctionVerdict:
    """Search a sampled trajectory for returning shifts that separate.

    Each shift T must be a whole number s of samples.  T qualifies when
    |h(t + T) - h(t)| is at most ``tolerance`` on the smallest run of
    samples that covers the compact [a, b].  For each qualifying shift the
    search takes the center u whose samples covering [u - sigma, u + sigma]
    have the largest smallest gap, 0 if the gap changes sign there: the
    first such center later than the previous witness's.  Centres are
    visited in units of ``_UNIT`` samples, the unit with the largest bound
    on |gap| first, and the scan stops when no unit left can reach the best
    window found; so memory is bounded by the unit size.  A gap of
    ``epsilon0`` or more makes a witness.  Both checks are exact on a
    lattice that holds every breakpoint of a filtered step signal, as
    :func:`verify_filtered` samples it: between neighbouring samples the
    gap c + C*exp(-lambda*t) is monotone, so its extremes are samples.

    ``separation_achieved`` is the best interval separation seen across
    qualifying shifts even when it falls short of ``epsilon0``.  Without a
    witness the verdict is ``inconsistent`` only if a qualifying shift is
    a period of every pair of samples within ``tolerance``.

    Raises:
        ResolutionError: the sample spacing exceeds sigma / 8.
        CoverageError: the trajectory cannot hold [a, b + max shift].
        DomainError: a parameter is out of range, or a shift is not a
            whole number of samples.
    """
    return _scan(h, t_shift_candidates, compact, sigma, tolerance, epsilon0)


def _scan(h, t_shift_candidates, compact, sigma, tolerance,
          epsilon0) -> FunctionVerdict:
    """:func:`find_function_witnesses` over a Trajectory or a
    ``filtering._Lattice``, which reads the same but evaluates on demand."""
    v, t0, dt = h.values, h.t_start, h.sample_dt
    alpha, beta, shifts, steps = _search_args(
        compact, t_shift_candidates, sigma, tolerance, epsilon0, dt)
    slack = _EDGE_TOL * dt
    if alpha < t0 - slack or beta + shifts[-1] > h.t_end + slack:
        raise CoverageError(
            f"trajectory [{t0}, {h.t_end}] cannot hold "
            f"[{alpha}, {beta + shifts[-1]}]")
    a0 = math.floor(_snap((alpha - t0) / dt))
    b0 = math.ceil(_snap((beta - t0) / dt))
    m = math.ceil(_snap(2.0 * sigma / dt))    # sample gaps a window spans
    lows, highs = h.bounds(_UNIT)

    witnesses: list[FunctionWitness] = []
    best_overall = 0.0
    periodic = False
    start = a0    # centres grow with the index; none before start is allowed

    for shift, s in zip(shifts, steps):
        last = len(h) - 1 - s - m    # the last window that has a partner
        if last < a0:
            continue
        compact_err = float(np.max(np.abs(v[a0 + s:b0 + s + 1]
                                          - v[a0:b0 + 1])))
        if compact_err > tolerance:
            continue
        # |gap| at the first sample of a window bounds its smallest gap; a
        # unit's partners lie in the unit s // _UNIT on and the one after it
        u = np.arange(start // _UNIT, last // _UNIT + 1 if start <= last
                      else start // _UNIT)
        p = u + s // _UNIT
        q = np.minimum(p + 1, highs.size - 1)
        top = np.maximum(np.maximum(highs[p], highs[q]) - lows[u],
                         highs[u] - np.minimum(lows[p], lows[q]))
        # first maximum over allowed windows of the smallest gap on them;
        # a gap that changes sign between two samples passes through 0
        sep, best = -1.0, -1
        for i in np.argsort(-top, kind="stable").tolist():
            if top[i] < sep:
                break
            lo = max(start, int(u[i]) * _UNIT)
            hi = min(last + 1, int(u[i] + 1) * _UNIT)
            g = v[lo + s:hi + s + m] - v[lo:hi + m]
            a = np.abs(g)
            gaps = np.minimum(a[:-1], a[1:])
            gaps[np.signbit(g[:-1]) != np.signbit(g[1:])] = 0.0
            mins = _sliding_min(gaps, m)
            j = int(np.argmax(mins))
            if mins[j] > sep or (mins[j] == sep and lo + j < best):
                sep, best = float(mins[j]), lo + j
        best_overall = max(best_overall, sep)
        if sep >= epsilon0:
            witnesses.append(FunctionWitness(
                t_shift=shift, u_center=float(h.times[best]) + sigma,
                sigma=sigma, max_compact_error=compact_err,
                min_separation_on_interval=sep))
            start = best + 1
        elif not (witnesses or periodic):
            periodic = _is_period(h, s, tolerance)

    verdict = ("consistent" if witnesses else
               "inconsistent" if periodic else "inconclusive")
    return FunctionVerdict(tuple(witnesses), best_overall, verdict)


def sequence_report(seq: SequenceWindow, result: SequenceVerdict, *,
                    window_half_width: int, tolerance: float,
                    epsilon0: float, count: int) -> dict:
    """JSON-ready summary of a sequence verification run."""
    return {
        "verdict": result.verdict,
        "epsilon0_requested": epsilon0,
        "epsilon0_achieved": result.epsilon0_achieved,
        "witnesses": [asdict(w) for w in result.witnesses],
        "data_coverage": {"first_index": seq.first_index,
                          "last_index": seq.last_index},
        "parameters": {"window_half_width": int(window_half_width),
                       "tolerance": tolerance,
                       "count": int(count)},
    }


def function_report(result: FunctionVerdict, *, epsilon0_requested: float,
                    predicted_lower_bound: float,
                    domain: tuple[float, float],
                    parameters: dict) -> dict:
    """JSON-ready summary of a function verification run."""
    return {
        "verdict": result.verdict,
        "epsilon0_requested": epsilon0_requested,
        "separation_achieved": result.separation_achieved,
        "separation_predicted_lower_bound": predicted_lower_bound,
        "witnesses": [asdict(w) for w in result.witnesses],
        "data_coverage": {"t_min": domain[0], "t_max": domain[1]},
        "parameters": parameters,
    }


def verify_filtered(seq: SequenceWindow, *, mu: float, decay: float,
                    phi0: float, burn_in: float, compact: tuple[float, float],
                    sigma: float | None = None,
                    tolerance: float | None = None,
                    epsilon0: float | None = None,
                    shifts: Sequence[float] | None = None,
                    half_width: int, auto_shifts: int) -> dict:
    """Filter ``seq`` and return the :func:`function_report` of its search:
    the library form of ``unpredictable verify-fn``, one keyword per flag.

    ``None`` derives sigma = min(kappa_i, kappa_ii)/2, epsilon0 = alphabet
    epsilon0/24, shifts = zeta*mu of ``auto_shifts`` sequence witnesses at
    ``half_width``, and tolerance = A*e^(-decay*burn_in) plus, for derived
    shifts, A*e^(-decay*half_width*mu), A = 2 sup|pi|/decay.  The filter is
    sampled every dt = mu/ceil(8*mu/sigma) on [-dt*ceil(burn_in/dt),
    compact[1] + max shift + 4*sigma], a lattice that holds every breakpoint.
    The span is never built: the search evaluates the samples it reads on
    demand from the filter's value at every breakpoint, bitwise as
    :func:`chi_exact` would, and skips units of centres by those values.
    """
    eps_alpha = seq.alphabet.epsilon0
    constants = separation_constants(eps_alpha)
    if sigma is None:
        sigma = min(constants.kappa_i, constants.kappa_ii) / 2.0
    _check_positive("sigma", sigma)
    if not math.isfinite(burn_in):
        raise DomainError("burn_in must be finite")
    signal = StepSignal(seq, mu)
    # past 2**62 samples a piece, dt > sigma / 8 and _search_args refuses it
    dt = mu / math.ceil(min(8.0 * mu / sigma, 2.0 ** 62))
    config = FilterConfig(decay=decay, step=mu, sample_dt=dt)
    if epsilon0 is None:
        epsilon0 = constants.lower_bound
    auto = shifts is None
    if auto:
        coarse = find_sequence_witnesses(seq, half_width, 0.0,
                                         eps_alpha, auto_shifts)
        if not coarse.witnesses:
            raise DomainError("no qualifying integer shifts found to test")
        shifts = [w.zeta * mu for w in coarse.witnesses]
    if tolerance is None:
        amp = 2.0 * signal.sup_abs / decay
        tolerance = amp * math.exp(-decay * burn_in)
        if auto:
            tolerance += amp * math.exp(-decay * half_width * mu)
    # fail before the integration, not after it
    _, beta, ordered, _ = _search_args(compact, shifts, sigma, tolerance,
                                       epsilon0, dt)
    t_lo = -dt * math.ceil(_snap(burn_in / dt))
    lattice = _Lattice(signal, config, t_lo,
                       beta + ordered[-1] + 4.0 * sigma, phi0)
    result = _scan(lattice, shifts, compact, sigma, tolerance, epsilon0)
    return function_report(
        result, epsilon0_requested=epsilon0,
        predicted_lower_bound=constants.lower_bound,
        domain=(lattice.t_start, lattice.t_end),
        parameters={"mu": mu, "decay": decay, "phi0": phi0,
                    "burn_in": burn_in, "compact": list(compact),
                    "sigma": sigma, "sample_dt": dt, "tolerance": tolerance,
                    "t_shift_candidates": list(shifts)})
