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

The sequence search qualifies shifts and looks for separating indices in
blocks that double from a small first size, so it stops reading the window
once its answer is decided.
The function-level search plays the same game with a sampled trajectory:
shifts must reproduce it on a compact interval within a tolerance, and
separation must persist on a whole subinterval of half-width sigma rather
than at a single point.  It reads samples by index, never between them,
and takes the first separating centre with the same forward scan.
Every reported witness carries the numbers needed to re-check it from the
raw data.  Each search returns its report: ``dataclasses.asdict`` of the
verdict record is the JSON that ``verify-seq`` or ``verify-fn`` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import CoverageError, DomainError, ResolutionError
from .filtering import (_BLOCK, _EDGE_TOL, FilterConfig, StepSignal,
                        Trajectory, _Lattice, separation_constants)
from .symbolspace import (SequenceWindow, _positive, _whole, metric_distance,
                          shift)

_VERDICTS = ("consistent", "inconsistent", "inconclusive")

#: First block of the shift scan and of each forward scan (etas or
#: centres), in windows and in indices; later blocks double up to ``_BLOCK``.
_SHIFTS0, _ETAS0 = 1 << 10, 64


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
    window: list[int]
    max_window_error: float
    separation: float


@dataclass(frozen=True)
class SequenceVerdict(_Verdict):
    """The ``verify-seq`` report: fields in the order of its JSON keys,
    lists and dicts as JSON reads them back."""

    verdict: str
    epsilon0_requested: float
    epsilon0_achieved: float
    witnesses: list[SequenceWitness]
    data_coverage: dict
    parameters: dict


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
    """The ``verify-fn`` report.  ``separation_achieved`` is the largest
    separation the scan read: a witness's own, or for a shift without one
    its best allowed center's.  A bare search cannot know the predicted
    lower bound and leaves it ``None``."""

    verdict: str
    epsilon0_requested: float
    separation_achieved: float
    separation_predicted_lower_bound: float | None
    witnesses: list[FunctionWitness]
    data_coverage: dict
    parameters: dict


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and positive")


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError("tolerance must be finite and nonnegative")


def _base_checks(seq: SequenceWindow, half_width: int,
                 name: str = "half_width") -> int:
    L = _positive(name, half_width)
    if not seq.covers(-L, L) or seq.last_index < L + 1:
        raise CoverageError(
            "window must cover [-L, L] plus at least one shifted copy")
    return L


def _blocks(lo: int, hi: int, size: int):
    """Ranges [a, b) that cover [lo, hi), ``size`` long, doubling to _BLOCK."""
    while lo < hi:
        size = min(size, _BLOCK)
        yield lo, min(lo + size, hi)
        lo, size = lo + size, 2 * size


def _first_reaching(score, lo: int, hi: int, epsilon0: float):
    """The first index in [lo, hi) whose ``score(a, b)``, read over blocks
    [a, b) doubling from ``_ETAS0``, reaches epsilon0, and that score; or
    -1 and the best score below it (-inf for an empty range)."""
    best = -math.inf
    for a, b in _blocks(lo, hi, _ETAS0):
        x = score(a, b)
        hit = np.flatnonzero(x >= epsilon0)
        if hit.size:
            return a + int(hit[0]), float(x[hit[0]])
        best = max(best, float(np.max(x)))
    return -1, best


def _is_period(v, n: int, s: int, tolerance: float) -> bool:
    """Whether |v[j + s] - v[j]| <= tolerance for every j in [0, n)."""
    return all(float(np.max(np.abs(v[a + s:b + s] - v[a:b]))) <= tolerance
               for a, b in _blocks(0, n, _BLOCK))


def _shift_blocks(seq: SequenceWindow, L: int, tolerance: float):
    """The shifts of :func:`qualifying_shifts`, one array per block of
    windows, read only as far as the consumer asks."""
    v, base = seq.symbols, seq.segment(-L, L)
    # window for shift z starts at array offset off0 + z - 1 >= 1
    off0 = 1 - L - seq.first_index
    for lo, hi in _blocks(off0, len(v) - 2 * L, _SHIFTS0):
        err = np.abs(v[lo:hi] - base[0])
        for k in range(1, 2 * L + 1):
            err = np.maximum(err, np.abs(v[lo + k:hi + k] - base[k]))
        yield np.flatnonzero(err <= tolerance) + (lo - off0 + 1)


def qualifying_shifts(seq: SequenceWindow, half_width: int,
                      tolerance: float) -> np.ndarray:
    """All shifts z >= 1 whose window [-L + z, L + z] matches [-L, L]
    within ``tolerance``, in increasing order: the blocks that
    :func:`find_sequence_witnesses` reads on demand, all of them.

    Raises:
        CoverageError: the window cannot hold [-L, L] and one shifted copy.
    """
    L = _base_checks(seq, half_width)
    _check_tolerance(tolerance)
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *_shift_blocks(seq, L, tolerance)])


def find_sequence_witnesses(seq: SequenceWindow, window_half_width: int,
                            tolerance: float, epsilon0: float,
                            count: int) -> SequenceVerdict:
    """Search for ``count`` witnesses with strictly increasing z and e.

    Shifts are qualified in increasing order as they are taken, in blocks
    of windows doubling from ``_SHIFTS0`` to ``_BLOCK``; for each one the
    smallest separating index above the previous witness's is taken,
    scanning forward in blocks doubling from ``_ETAS0`` indices.  If none
    follows and the sequence is exactly z-periodic over the covered range,
    the verdict is ``inconsistent``.  ``epsilon0_achieved`` is the smallest
    separation the reported witnesses sustain, or 0 when there are none.

    Raises:
        DomainError: a parameter is out of range.
        CoverageError: the window cannot hold [-L, L] and one shifted copy.
    """
    L = _base_checks(seq, window_half_width, "window_half_width")
    _check_positive("epsilon0", epsilon0)
    count = _positive("count", count)
    _check_tolerance(tolerance)

    v = seq.symbols
    base = seq.segment(-L, L)
    witnesses: list[SequenceWitness] = []
    start = 1 - seq.first_index    # array offset of the smallest eta allowed
    verdict = "inconclusive"

    shifts = (z for b in _shift_blocks(seq, L, tolerance) for z in b.tolist())
    for zeta in shifts:
        n = len(v) - zeta    # offsets below n have a partner zeta later
        i, sep = _first_reaching(    # the first separating eta from start
            lambda a, b: np.abs(v[a + zeta:b + zeta] - v[a:b]),
            start, n, epsilon0)
        if i < 0:
            # a separating index before start would make the arrays differ
            if _is_period(v, n, zeta, 0.0):
                verdict = "inconsistent"
                break
            continue
        err = float(np.max(np.abs(seq.segment(-L + zeta, L + zeta) - base)))
        witnesses.append(SequenceWitness(
            zeta=int(zeta), eta=i + seq.first_index, window=[-L, L],
            max_window_error=err, separation=sep))
        start = i + 1
        if len(witnesses) == count:
            verdict = "consistent"
            break

    return SequenceVerdict(
        verdict, epsilon0, min((w.separation for w in witnesses), default=0.0),
        witnesses,
        {"first_index": seq.first_index, "last_index": seq.last_index},
        {"window_half_width": L, "tolerance": tolerance, "count": count})


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
    K, S = _whole("half_width", half_width), _whole("max_shift", max_shift)
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
    _check_tolerance(tolerance)
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
    samples that covers the compact [a, b].  A center u separates by the
    smallest gap on the samples covering [u - sigma, u + sigma], 0 if the
    gap changes sign there.  For each qualifying shift the search scans the
    centers after the previous witness's forward, in blocks doubling from
    ``_ETAS0``, and takes the first that separates by ``epsilon0`` or more
    as a witness.  Both checks are exact on a
    lattice that holds every breakpoint of a filtered step signal, as
    :func:`verify_filtered` samples it: between neighbouring samples the
    gap c + C*exp(-lambda*t) is monotone, so its extremes are samples.

    ``separation_achieved`` is the largest separation among the centers
    read, whatever the block size: a shift's scan ends at its witness, so
    it contributes the witness's separation, or without one its best
    allowed center's.  Without a witness the verdict is ``inconsistent``
    only if a qualifying shift is a period of every pair of samples within
    ``tolerance``.

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

    witnesses: list[FunctionWitness] = []
    best_overall = 0.0
    periodic = False
    start = a0    # centres grow with the index; none before start is allowed

    def window_minima(lo: int, hi: int) -> np.ndarray:
        # smallest gap under shift s per window; a sign change counts as 0
        g = v[lo + s:hi + s + m] - v[lo:hi + m]
        a = np.abs(g)
        gaps = np.minimum(a[:-1], a[1:])
        gaps[np.signbit(g[:-1]) != np.signbit(g[1:])] = 0.0
        return _sliding_min(gaps, m)

    for shift, s in zip(shifts, steps):
        last = len(h) - 1 - s - m    # the last window that has a partner
        if last < a0:
            continue
        compact_err = float(np.max(np.abs(v[a0 + s:b0 + s + 1]
                                          - v[a0:b0 + 1])))
        if compact_err > tolerance:
            continue
        i, sep = _first_reaching(window_minima, start, last + 1, epsilon0)
        best_overall = max(best_overall, sep)
        if i >= 0:
            witnesses.append(FunctionWitness(
                t_shift=shift, u_center=float(h.times[i]) + sigma,
                sigma=sigma, max_compact_error=compact_err,
                min_separation_on_interval=sep))
            start = i + 1
        elif not (witnesses or periodic):
            periodic = _is_period(v, len(h) - s, s, tolerance)

    verdict = ("consistent" if witnesses else
               "inconsistent" if periodic else "inconclusive")
    return FunctionVerdict(
        verdict, epsilon0, best_overall, None, witnesses,
        {"t_min": t0, "t_max": h.t_end},
        {"compact": [alpha, beta], "sigma": sigma, "sample_dt": dt,
         "tolerance": tolerance,
         "t_shift_candidates": [float(s) for s in t_shift_candidates]})


def verify_filtered(seq: SequenceWindow, *, mu: float, decay: float,
                    phi0: float, burn_in: float, compact: tuple[float, float],
                    sigma: float | None = None,
                    tolerance: float | None = None,
                    epsilon0: float | None = None,
                    shifts: Sequence[float] | None = None,
                    half_width: int, auto_shifts: int) -> FunctionVerdict:
    """Filter ``seq`` and return the :class:`FunctionVerdict` of its search,
    with the predicted lower bound and the filter's parameters added: the
    library form of ``unpredictable verify-fn``, one keyword per flag.

    ``None`` derives sigma = min(kappa_i, kappa_ii)/2, epsilon0 = alphabet
    epsilon0/24, shifts = zeta*mu of ``auto_shifts`` sequence witnesses at
    ``half_width``, and tolerance = A*e^(-decay*burn_in) plus, for derived
    shifts, A*e^(-decay*half_width*mu), A = 2 sup|pi|/decay.  The filter is
    sampled every dt = mu/ceil(8*mu/sigma) on [-dt*ceil(burn_in/dt),
    compact[1] + max shift + 4*sigma], a lattice that holds every breakpoint.
    The span is never built: the search evaluates the samples it reads on
    demand from the filter's value at every breakpoint, bitwise as
    :func:`chi_exact` would, and stops reading at each shift's witness.
    """
    eps_alpha = seq.alphabet.epsilon0
    constants = separation_constants(eps_alpha)
    if sigma is None:
        sigma = min(constants.kappa_i, constants.kappa_ii) / 2.0
    _check_positive("sigma", sigma)
    if not (math.isfinite(burn_in) and burn_in >= 0):
        raise DomainError("burn_in must be finite and nonnegative")
    if not math.isfinite(phi0):
        raise DomainError("phi0 must be finite")
    signal = StepSignal(seq, mu)
    # past 2**62 samples a piece, dt > sigma / 8 and _search_args refuses it
    dt = mu / math.ceil(min(8.0 * mu / sigma, 2.0 ** 62))
    config = FilterConfig(decay=decay, step=mu, sample_dt=dt)
    if epsilon0 is None:
        epsilon0 = constants.lower_bound
    auto = shifts is None
    if auto:
        _positive("half_width", half_width)
        _positive("auto_shifts", auto_shifts)
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
    # dt, not the lattice's (t_end - t_start) / (n - 1), which may differ
    # in the last bit
    return replace(
        result, separation_predicted_lower_bound=constants.lower_bound,
        parameters={"mu": mu, "decay": decay, "phi0": phi0,
                    "burn_in": burn_in, **result.parameters, "sample_dt": dt})
