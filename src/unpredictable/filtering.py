"""Exponential filtering of piecewise-constant signals.

A symbol window drives a step signal pi(t) that holds the symbol value at
index k on the interval [origin + k*mu, origin + (k+1)*mu).  Convolving it
with a decaying exponential kernel gives

    chi(t) = integral from -infinity to t of exp(-lambda*(t - s)) * pi(s) ds,

which is also the solution of x' = -lambda*x + pi(t) once transients die out.
Because pi is constant on each piece, chi obeys an exact recurrence: from a
known value at time a, for t in the same piece with symbol value v,

    chi(t) = chi(a) * exp(-lambda*(t - a)) + (v/lambda) * (1 - exp(-lambda*(t - a))).

The filter uses it twice.  A scalar chain steps the recurrence from
breakpoint to breakpoint and keeps chi at the start of every piece; it
stays on ``math.exp`` one piece at a time, because ``np.exp`` differs from
it in the last bit on a few percent of arguments and a vectorized or
prefix-scan chain would change the output bytes.  Samples are then
evaluated on demand, any run of them in one vectorized block:
``searchsorted`` of the breakpoints into the sample times assigns each
sample its piece, and one ``np.exp`` applies the same closed form from
that piece's start, so sample bytes hold per host only: numpy's AVX512
and AVX2 ``exp`` kernels differ in the last bit on a few percent of
arguments.  :func:`chi_exact` evaluates every sample of a span; the
function-level witness search reads a span without building it, only as
far as its answer needs.
Nothing is discretized, so the only error is floating-point rounding,
roughly one unit in the last place per piece crossed.  Two trajectories of
the same signal started from different values therefore contract toward
each other exactly like exp(-lambda*t), and the output is trapped in the
band [min(pi)/lambda, max(pi)/lambda] once started inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoverageError, DomainError, ResourceError
from .symbolspace import SequenceWindow

#: Relative slack used when classifying times against piece breakpoints.
_EDGE_TOL = 1e-9

#: Allowed relative jitter in trajectory sample spacing.
_UNIFORM_TOL = 1e-12

#: Largest number of samples chi_exact will allocate.
MAX_SAMPLES = 1 << 25

#: Samples per block of the spacing check and of the witness scans.
_BLOCK = 1 << 16

#: Samples chi_exact evaluates per block and pieces ``_chain`` steps per
#: list: the bounds on their temporaries and lists of floats.
_RUN, _PIECES = 1 << 14, 1 << 12


@dataclass(frozen=True)
class StepSignal:
    """Piecewise-constant signal generated by a symbol window.

    The symbol at sequence index k is held on
    [origin + k*step, origin + (k+1)*step).
    """

    sequence: SequenceWindow
    step: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0):
            raise DomainError("step must be a positive real")
        if not math.isfinite(self.origin):
            raise DomainError("origin must be finite")

    @property
    def t_min(self) -> float:
        return self.origin + self.sequence.first_index * self.step

    @property
    def t_max(self) -> float:
        return self.origin + (self.sequence.last_index + 1) * self.step

    @property
    def sup_abs(self) -> float:
        """Largest |pi(t)| attained: the largest |value| that occurs."""
        positions = self.sequence._positions
        return max(abs(v) for i, v in enumerate(self.sequence.alphabet.values)
                   if (positions == i).any())

    def value_at(self, t: float) -> float:
        """pi(t) for a time inside the covered range."""
        return self.sequence.value_at(_piece_index(self.origin, self.step, t))


@dataclass(frozen=True)
class FilterConfig:
    """Kernel and sampling parameters for the filter.

    Attributes:
        decay: kernel rate lambda, per unit time.
        step: piece length mu of the driving signal.
        sample_dt: spacing of trajectory samples, at most ``step``.
    """

    decay: float = 1.0
    step: float = 0.1
    sample_dt: float = 0.01

    def __post_init__(self) -> None:
        for name in ("decay", "step", "sample_dt"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive real")
        if self.sample_dt > self.step:
            raise DomainError("sample_dt must not exceed step")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled scalar function of time.

    ``times`` and ``values`` are read-only views of a private copy of the
    samples; :meth:`at` interpolates that copy itself (``np.interp`` copies
    read-only inputs on every call), so a query costs O(len(q)) memory.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self._adopt(np.array(self.times, dtype=np.float64),
                    np.array(self.values, dtype=np.float64))

    @classmethod
    def _owning(cls, times: np.ndarray, values: np.ndarray) -> "Trajectory":
        """Trajectory that takes over arrays no one else references."""
        self = object.__new__(cls)
        self._adopt(times, values)
        return self

    def _adopt(self, t: np.ndarray, v: np.ndarray) -> None:
        if t.ndim != 1 or t.size < 1 or t.shape != v.shape:
            raise DomainError("times and values must be 1-d arrays "
                              "of equal, nonzero length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("times and values must be finite")
        if t.size > 1:
            lo, hi = math.inf, -math.inf
            for i in range(0, t.size - 1, _BLOCK):
                gaps = np.diff(t[i:i + _BLOCK + 1])
                lo, hi = min(lo, float(gaps.min())), max(hi, float(gaps.max()))
            if lo <= 0:
                raise DomainError("times must be strictly increasing")
            scale = max(1.0, abs(float(t[0])), abs(float(t[-1])))
            if hi - lo > _UNIFORM_TOL * scale:
                raise DomainError("sample spacing must be uniform")
        for name, arr in (("times", t), ("values", v)):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, "_" + name, arr)
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def sample_dt(self) -> float:
        if len(self) < 2:
            raise DomainError("spacing is undefined for a single sample")
        return (self.t_end - self.t_start) / (len(self) - 1)

    def at(self, t) -> np.ndarray:
        """Values at the requested times, linearly interpolated.

        Raises:
            DomainError: a requested time is NaN.
            CoverageError: a requested time lies outside the sampled span.
        """
        q = np.asarray(t, dtype=np.float64)
        if np.isnan(q).any():
            raise DomainError("time must not be NaN")
        slack = _EDGE_TOL * (self.sample_dt if len(self) > 1 else 1.0)
        if np.any(q < self.t_start - slack) or np.any(q > self.t_end + slack):
            raise CoverageError("requested time outside the sampled span")
        # beyond either end np.interp returns that end's value
        return np.interp(q, self._times, self._values)


class QuadratureResult(NamedTuple):
    value: float
    truncation_bound: float


class SeparationConstants(NamedTuple):
    kappa_i: float
    kappa_ii: float
    lower_bound: float


def _piece_index(origin: float, mu: float, t: float) -> int:
    """Index k with breakpoint(k) <= t < breakpoint(k+1), using the same
    breakpoint arithmetic everywhere so classification is reproducible."""
    q = (t - origin) / mu
    if math.isnan(q):
        raise DomainError("time must not be NaN")
    if abs(q) >= 2.0 ** 53:  # consecutive breakpoints stop being distinct
        raise CoverageError(f"time {t!r} lies beyond piece 2**53")
    k = int(math.floor(q))
    while origin + (k + 1) * mu <= t:
        k += 1
    while origin + k * mu > t:
        k -= 1
    return k


def _check_pair(signal: StepSignal, config: FilterConfig) -> None:
    if config.step != signal.step:
        raise DomainError("config.step must equal the signal step")


def _chain(signal: StepSignal, lam: float, k: int, t_ref: float,
           chi: float, k_end: int) -> np.ndarray:
    """chi at the start of pieces k..k_end, stepped one breakpoint at a time
    from the value chi at time t_ref in piece k, ``_PIECES`` at a time."""
    chis = np.full(k_end - k + 1, chi)
    for lo in range(k, k_end, _PIECES):
        hi, out = min(lo + _PIECES, k_end), []
        breaks = signal.origin + np.arange(lo + 1, hi + 1) * signal.step
        for b, v in zip(breaks.tolist(),
                        signal.sequence.segment(lo, hi - 1).tolist()):
            e = math.exp(-lam * (b - t_ref))
            chi, t_ref = chi * e + (v / lam) * (1.0 - e), b
            out.append(chi)
        chis[lo + 1 - k:hi + 1 - k] = out
    return chis


class _OnDemand:
    """Read-only indexing whose entries are computed when asked for."""

    def __init__(self, get) -> None:
        self.get = get

    def __getitem__(self, key):
        return self.get(key)


class _Lattice:
    """chi at t_start + dt*j, j = 0..n, read like a Trajectory but evaluated
    on demand from chi at the start of every piece, bitwise as
    :func:`chi_exact` evaluates it: a sample's value depends only on its
    piece's start, its symbol and its time."""

    sample_dt = Trajectory.sample_dt

    def __init__(self, signal: StepSignal, config: FilterConfig,
                 t_start: float, t_end: float, chi_start: float) -> None:
        _check_pair(signal, config)
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise DomainError("time bounds must be finite")
        if not math.isfinite(chi_start):
            raise DomainError("chi_start must be finite")
        if t_end <= t_start:
            raise DomainError("t_end must exceed t_start")
        lam, mu, dt = config.decay, signal.step, config.sample_dt
        steps = (t_end - t_start) / dt + _EDGE_TOL
        if steps >= MAX_SAMPLES:
            raise ResourceError(f"sampling [{t_start!r}, {t_end!r}] every "
                                f"{dt!r} needs more than {MAX_SAMPLES} samples")
        n = int(math.floor(steps))
        first_p = signal.sequence.first_index
        last_p = signal.sequence.last_index
        k = _piece_index(signal.origin, mu, t_start)
        inside = first_p <= k <= last_p
        # the start piece and the last sample decide coverage; a sample at
        # the end of coverage needs no piece value
        k_out, t_out = ((last_p + 1, signal.origin + (last_p + 1) * mu)
                        if inside else (k, t_start))
        if t_start + dt * n > t_out + _EDGE_TOL * mu:
            raise CoverageError(
                f"signal does not cover piece {k_out} needed near t={t_out!r}")
        self.signal, self.lam, self.dt, self.k0 = signal, lam, dt, k
        self.t_start, self.t_end, self.t_out = t_start, t_start + dt * n, t_out
        self._n = n + 1
        self.times = _OnDemand(lambda j: t_start + dt * j)
        k_end = (min(_piece_index(signal.origin, mu, self.t_end), last_p) + 1
                 if inside else k)
        self.chis = _chain(signal, lam, k, t_start, float(chi_start), k_end)

    def __len__(self) -> int:
        return self._n

    @property
    def values(self) -> _OnDemand:
        return _OnDemand(self._run)    # held by self, it would make a cycle

    def _run(self, run: slice) -> np.ndarray:
        """Samples of a slice: a sample on a breakpoint opens the later
        piece, and one past the end of coverage holds the value there."""
        t = self.t_start + self.dt * np.arange(*run.indices(len(self)))
        out = np.full(t.size, self.chis[-1])
        c = int(np.searchsorted(t, self.t_out))
        if c:
            origin, mu, lam, t = (self.signal.origin, self.signal.step,
                                  self.lam, t[:c])
            k = _piece_index(origin, mu, float(t[0]))
            k_hi = _piece_index(origin, mu, float(t[-1]))
            breaks = origin + np.arange(k + 1, k_hi + 1) * mu
            refs = np.concatenate((
                [self.t_start if k == self.k0 else origin + k * mu], breaks))
            counts = np.diff(np.searchsorted(t, breaks), prepend=0, append=c)
            decay = np.exp(-lam * (t - np.repeat(refs, counts)))
            chis = self.chis[k - self.k0:k_hi + 1 - self.k0]
            scaled = self.signal.sequence.segment(k, k_hi) / lam
            out[:c] = (np.repeat(chis, counts) * decay
                       + np.repeat(scaled, counts) * (1.0 - decay))
        return out


def chi_exact(signal: StepSignal, config: FilterConfig, t_start: float,
              t_end: float, chi_start: float) -> Trajectory:
    """Integrate x' = -lambda*x + pi(t) over [t_start, t_end] from chi_start.

    Samples are taken every ``config.sample_dt`` starting at ``t_start``; the
    last sample is the largest grid point not beyond ``t_end``.  A scalar
    ``math.exp`` chain carries chi across every breakpoint, so the
    per-piece recurrence rounds exactly as a piece-by-piece walk would; the
    samples are then evaluated in fixed-size blocks from their pieces'
    starts.  No discretization error is introduced at any spacing.

    Raises:
        DomainError: t_end <= t_start, a bound or chi_start is not finite,
            or config and signal disagree on step.
        ResourceError: more than ``MAX_SAMPLES`` samples are requested.
        CoverageError: some sampled time needs a piece outside the window,
            beyond a slack of ``_EDGE_TOL * step`` after its last breakpoint;
            decided from the start piece and the last sample time, before
            any sample is allocated.
    """
    lattice = _Lattice(signal, config, t_start, t_end, chi_start)
    times = t_start + config.sample_dt * np.arange(len(lattice))
    values = np.empty(times.size)
    for lo in range(0, times.size, _RUN):
        values[lo:lo + _RUN] = lattice.values[lo:lo + _RUN]
    return Trajectory._owning(times, values)


def chi_quadrature(signal: StepSignal, config: FilterConfig, t: float,
                   tail_T: float) -> QuadratureResult:
    """Evaluate chi(t) by integrating over the finite tail [t - tail_T, t].

    Each piece contributes its closed-form integral, accumulated
    independently of the recurrence so the two paths cross-check each other.
    The discarded history before t - tail_T is bounded by
    sup|pi| * exp(-lambda*tail_T) / lambda, reported alongside the value.

    Raises:
        DomainError: tail_T <= 0 or config and signal disagree on step.
        CoverageError: [t - tail_T, t] is not covered by the signal.
    """
    _check_pair(signal, config)
    if not (math.isfinite(tail_T) and tail_T > 0):
        raise DomainError("tail_T must be a positive real")
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    lam = config.decay
    mu = signal.step
    lo = t - tail_T
    tol = _EDGE_TOL * mu
    first_p = signal.sequence.first_index
    last_p = signal.sequence.last_index

    k_lo = _piece_index(signal.origin, mu, lo)
    k_hi = _piece_index(signal.origin, mu, t)
    # zero-length end pieces caused by breakpoint rounding are dropped
    if k_lo == first_p - 1 and lo >= signal.origin + first_p * mu - tol:
        k_lo = first_p
    if k_hi == last_p + 1 and t <= signal.origin + (last_p + 1) * mu + tol:
        k_hi = last_p
    if k_lo < first_p or k_hi > last_p:
        raise CoverageError(
            f"signal covers pieces [{first_p}, {last_p}], "
            f"quadrature needs [{k_lo}, {k_hi}]")

    ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    lows = np.maximum(signal.origin + ks * mu, lo)
    highs = np.minimum(signal.origin + (ks + 1) * mu, t)
    highs = np.maximum(highs, lows)
    v = signal.sequence.segment(k_lo, k_hi)
    value = float(np.sum(
        v * (np.exp(-lam * (t - highs)) - np.exp(-lam * (t - lows)))) / lam)
    bound = signal.sup_abs * math.exp(-lam * tail_T) / lam
    return QuadratureResult(value, bound)


def separation_constants(epsilon0: float) -> SeparationConstants:
    """Constants controlling how symbol separation survives the filter.

    For a driving signal whose symbols differ by at least ``epsilon0`` at
    some index, the filtered outputs stay at least ``epsilon0 / 24`` apart
    somewhere on an interval of half-width ``kappa_ii / 2`` around a point
    of that piece, where

        kappa_i  = ln(3/2) / 2          (decay floor: exp(-2*kappa_i) = 2/3)
        kappa_ii = -ln(1 - epsilon0/12) / 2
                                        (growth cap: 1 - exp(-2*kappa_ii)
                                         = epsilon0 / 12)

    and the interval half-width that matters is min(kappa_i, kappa_ii).
    Requires 0 < epsilon0 <= 12 * (1 - exp(-2)) so the logarithm is defined
    and the cap stays below the decay floor's scale.
    """
    e0 = float(epsilon0)
    limit = 12.0 * (1.0 - math.exp(-2.0))
    if not (math.isfinite(e0) and 0.0 < e0 <= limit):
        raise DomainError(f"epsilon0 must lie in (0, {limit}]")
    kappa_i = math.log(1.5) / 2.0
    kappa_ii = -math.log1p(-e0 / 12.0) / 2.0
    return SeparationConstants(kappa_i, kappa_ii, e0 / 24.0)
