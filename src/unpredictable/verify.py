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
                  periodic sequence, or a function whose returning shifts
                  never separate anywhere on the sampled range)
    inconclusive  the data ran out before either of the above

The function-level search plays the same game with a sampled function of
time: shifts must reproduce the function on a compact interval within a
tolerance, and separation must persist on a whole subinterval of half-width
sigma rather than at a single point.  Every reported witness carries the
numbers needed to re-check it from the raw data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CoverageError, DomainError, ResolutionError, ResourceError
from .filtering import (_BLOCK, _EDGE_TOL, MAX_SAMPLES, FilterConfig,
                        StepSignal, Trajectory, chi_exact,
                        separation_constants)
from .symbolspace import SequenceWindow, metric_distance, shift

_VERDICTS = ("consistent", "inconsistent", "inconclusive")


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


def _as_evaluator(h, domain):
    if isinstance(h, Trajectory):
        return h.at, (h.t_start, h.t_end)
    if domain is None:
        raise DomainError("a callable needs an explicit domain=(lo, hi)")
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"domain [{lo}, {hi}] must be finite and in order")

    def finite(t: np.ndarray) -> np.ndarray:
        out = np.asarray(h(t), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise DomainError("the function returned a non-finite value")
        return out

    return finite, (lo, hi)


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


def _search_args(compact, shifts, sigma, tolerance, epsilon0, sample_dt):
    """Check the function search's arguments before any work; return the
    compact bounds, sorted shifts, grid spacing and compact grid size."""
    alpha, beta = float(compact[0]), float(compact[1])
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"compact bounds must be finite: [{alpha}, {beta}]")
    if not alpha < beta:
        raise DomainError("compact interval bounds out of order")
    shifts = sorted(float(s) for s in shifts)
    if not shifts:
        raise DomainError("need at least one shift candidate")
    if shifts[0] <= 0:
        raise DomainError("shift candidates must be positive")
    _check_positive("sigma", sigma)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError("tolerance must be finite and nonnegative")
    _check_positive("epsilon0", epsilon0)
    dt = sigma / 8.0 if sample_dt is None else float(sample_dt)
    _check_positive("sample_dt", dt)
    if dt > sigma / 8.0 * (1.0 + _EDGE_TOL):
        raise ResolutionError("sample_dt must be at most sigma / 8")
    steps = (beta - alpha) / dt + _EDGE_TOL
    if steps >= MAX_SAMPLES - 1:
        raise ResourceError(f"the compact grid needs {MAX_SAMPLES}+ points")
    return alpha, beta, shifts, dt, int(steps) + 1


def find_function_witnesses(h: Trajectory | Callable,
                            t_shift_candidates: Sequence[float],
                            compact: tuple[float, float],
                            sigma: float,
                            tolerance: float,
                            epsilon0: float,
                            sample_dt: float | None = None,
                            domain: tuple[float, float] | None = None,
                            ) -> FunctionVerdict:
    """Search sampled function data for returning shifts that separate.

    A candidate shift T qualifies when sup over the compact [a, b] of
    |h(t + T) - h(t)| is at most ``tolerance``, estimated on a grid of
    spacing ``sample_dt``.  For each qualifying shift the search looks for a
    center u with min over [u - sigma, u + sigma] of |h(t + T) - h(t)| at
    least ``epsilon0``, taking the best center later than the previous
    witness's (the first on ties), in blocks of ``_BLOCK`` centers from there
    on, so memory is bounded by the block size, not by the domain.  ``h``
    may be a :class:`Trajectory` or a vectorized callable with an explicit
    ``domain``.

    ``separation_achieved`` is the best interval separation seen across
    qualifying shifts even when it falls short of ``epsilon0``.

    Raises:
        ResolutionError: sample_dt exceeds sigma / 8.
        ResourceError: the compact grid needs ``MAX_SAMPLES`` points or more.
        CoverageError: the domain cannot hold [a, b + max shift].
        DomainError: a parameter is out of range, or the callable returns
            NaN or inf.
    """
    func, (d_lo, d_hi) = _as_evaluator(h, domain)
    alpha, beta, shifts, dt, n_compact = _search_args(
        compact, t_shift_candidates, sigma, tolerance, epsilon0, sample_dt)
    if alpha < d_lo - _EDGE_TOL * dt or beta + shifts[-1] > d_hi + _EDGE_TOL * dt:
        raise CoverageError(
            f"domain [{d_lo}, {d_hi}] cannot hold "
            f"[{alpha}, {beta + shifts[-1]}]")

    win = int(round(2.0 * sigma / dt)) + 1
    compact_grid = alpha + dt * np.arange(n_compact)
    h_compact = func(compact_grid)

    witnesses: list[FunctionWitness] = []
    best_overall = 0.0
    any_qualifying = False
    last_u = -np.inf
    start = 0    # centres grow with the index; none before start is > last_u

    for shift in shifts:
        usable = int(np.floor((d_hi - shift - alpha) / dt + _EDGE_TOL)) + 1
        if usable < max(n_compact, win):
            continue
        compact_err = float(np.max(np.abs(func(compact_grid + shift)
                                          - h_compact)))
        if compact_err > tolerance:
            continue
        any_qualifying = True
        # first maximum over allowed centres of the sliding minimum of
        # |h(t + shift) - h(t)| over 2*sigma windows, a block at a time
        sep, best, u = -np.inf, -1, last_u
        for lo in range(start, usable - win + 1, _BLOCK):
            grid = alpha + dt * np.arange(lo, min(lo + _BLOCK + win - 1,
                                                  usable))
            mins = _sliding_min(np.abs(func(grid + shift) - func(grid)), win)
            centers = grid[:mins.size] + sigma
            idx = np.flatnonzero(centers > last_u)
            i = idx[int(np.argmax(mins[idx]))] if idx.size else -1
            if i >= 0 and mins[i] > sep:
                sep, best, u = float(mins[i]), lo + int(i), float(centers[i])
        if best < 0:
            continue
        best_overall = max(best_overall, sep)
        if sep >= epsilon0:
            witnesses.append(FunctionWitness(
                t_shift=shift, u_center=u, sigma=sigma,
                max_compact_error=compact_err,
                min_separation_on_interval=sep))
            last_u, start = u, best + 1

    if witnesses:
        verdict = "consistent"
    elif any_qualifying:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
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
                    sigma: float | None = None, sample_dt: float | None = None,
                    tolerance: float | None = None,
                    epsilon0: float | None = None,
                    shifts: Sequence[float] | None = None,
                    half_width: int, auto_shifts: int) -> dict:
    """Filter ``seq`` and return the :func:`function_report` of its search:
    the library form of ``unpredictable verify-fn``, one keyword per flag.

    ``None`` derives sigma = min(kappa_i, kappa_ii)/2, sample_dt = sigma/8,
    epsilon0 = alphabet epsilon0/24, shifts = zeta*mu of ``auto_shifts``
    sequence witnesses at ``half_width``, and tolerance = A*e^(-decay*burn_in)
    plus, for derived shifts, A*e^(-decay*half_width*mu), A = 2 sup|pi|/decay.
    The filter spans [-burn_in, compact[1] + max shift + 4*sigma].
    """
    eps_alpha = seq.alphabet.epsilon0
    constants = separation_constants(eps_alpha)
    if sigma is None:
        sigma = min(constants.kappa_i, constants.kappa_ii) / 2.0
    _check_positive("sigma", sigma)
    dt = sample_dt if sample_dt is not None else sigma / 8.0
    if epsilon0 is None:
        epsilon0 = constants.lower_bound
    config = FilterConfig(decay=decay, step=mu, sample_dt=dt)
    auto = shifts is None
    if auto:
        coarse = find_sequence_witnesses(seq, half_width, 0.0,
                                         eps_alpha, auto_shifts)
        if not coarse.witnesses:
            raise DomainError("no qualifying integer shifts found to test")
        shifts = [w.zeta * mu for w in coarse.witnesses]
    signal = StepSignal(seq, mu)
    if tolerance is None:
        amp = 2.0 * signal.sup_abs / decay
        tolerance = amp * math.exp(-decay * burn_in)
        if auto:
            tolerance += amp * math.exp(-decay * half_width * mu)
    # fail before the integration, not after it
    _, beta, ordered, _, _ = _search_args(compact, shifts, sigma, tolerance,
                                          epsilon0, dt)
    t_hi = beta + ordered[-1] + 4.0 * sigma
    traj = chi_exact(signal, config, -burn_in, t_hi, phi0)
    result = find_function_witnesses(traj, shifts, compact, sigma,
                                     tolerance, epsilon0, sample_dt=dt)
    return function_report(
        result, epsilon0_requested=epsilon0,
        predicted_lower_bound=constants.lower_bound,
        domain=(traj.t_start, traj.t_end),
        parameters={"mu": mu, "decay": decay, "phi0": phi0,
                    "burn_in": burn_in, "compact": list(compact),
                    "sigma": sigma, "sample_dt": dt, "tolerance": tolerance,
                    "t_shift_candidates": list(shifts)})
