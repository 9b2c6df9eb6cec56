"""Step signals, the exact filter recurrence, quadrature, and constants."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unpredictable import (BINARY, MAX_SAMPLES, Alphabet, BernoulliSpec,
                           CoverageError, DomainError, FilterConfig,
                           ResourceError, SequenceWindow, StepSignal,
                           Trajectory, chi_exact, chi_quadrature, filtering,
                           realize, separation_constants)
from unpredictable.filtering import (_EDGE_TOL, _Lattice, _check_pair,
                                    _piece_index)


def binary_window(first, bits):
    return SequenceWindow(BINARY, first, np.asarray(bits, dtype=float))


def make_signal(bits, mu=0.1, first=0):
    return StepSignal(binary_window(first, bits), mu)


def config_for(signal, dt=0.01, decay=1.0):
    return FilterConfig(decay=decay, step=signal.step, sample_dt=dt)


class TestStepSignal:
    def test_piece_lookup(self):
        s = make_signal([1, 0, 1])
        assert s.value_at(0.0) == 1.0
        assert s.value_at(0.05) == 1.0
        assert s.value_at(0.1) == 0.0   # right-open pieces
        assert s.value_at(0.25) == 1.0

    def test_time_span(self):
        s = StepSignal(binary_window(-3, [0, 1, 0, 1, 0]), 0.5)
        assert s.t_min == -1.5
        assert s.t_max == 1.0

    def test_sup_abs(self):
        w = SequenceWindow(Alphabet((-2.0, 1.0)), 0, np.array([-2.0, 1.0, 1.0]))
        assert StepSignal(w, 1.0).sup_abs == 2.0

    def test_step_must_be_positive(self):
        with pytest.raises(DomainError):
            make_signal([0, 1], mu=0.0)

    def test_nan_time_is_a_domain_error(self):
        with pytest.raises(DomainError):
            make_signal([0, 1]).value_at(float("nan"))

    @pytest.mark.parametrize("origin", [math.nan, math.inf])
    def test_origin_must_be_finite(self, origin):
        with pytest.raises(DomainError, match="origin"):
            StepSignal(binary_window(0, [0, 1]), 0.1, origin)


def run_isolated(source):
    """Run ``source`` in a fresh interpreter with a timeout, so that a call
    which never returns fails the test instead of hanging the suite."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("call", [
    "chi_quadrature(sig, cfg, 1e300, 1.0)",
    "chi_quadrature(sig, cfg, 1.0, 1e300)",
    "sig.value_at(1e300)",
    "sig.value_at(-1e300)",
    "sig.value_at(float('inf'))",
])
def test_times_beyond_2_53_pieces_raise_coverage_error(call):
    # past 2**53 pieces, stepping k one piece at a time never reaches t
    proc = run_isolated(f"""
        import numpy as np
        from unpredictable import (BINARY, CoverageError, FilterConfig,
                                   SequenceWindow, StepSignal)
        from unpredictable.filtering import chi_quadrature
        sig = StepSignal(SequenceWindow(BINARY, 0, np.ones(4)), 1.0)
        cfg = FilterConfig(step=1.0, sample_dt=0.5)
        try:
            {call}
        except CoverageError as exc:
            print("CoverageError:", exc)
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CoverageError:")


def test_piece_index_limit():
    assert _piece_index(0.0, 1.0, 2.0 ** 53 - 1) == 2 ** 53 - 1
    assert _piece_index(0.0, 1.0, 1 - 2.0 ** 53) == 1 - 2 ** 53
    for t in (2.0 ** 53, -2.0 ** 53, math.inf):
        with pytest.raises(CoverageError):
            _piece_index(0.0, 1.0, t)


class TestTrajectory:
    def test_rejects_nonuniform_spacing(self):
        with pytest.raises(DomainError):
            Trajectory(np.array([0.0, 1.0, 2.5]), np.zeros(3))

    def test_rejects_decreasing_times(self):
        with pytest.raises(DomainError):
            Trajectory(np.array([0.0, -1.0]), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            Trajectory(np.array([0.0, 1.0]), np.zeros(3))

    def test_interpolation(self):
        tr = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]))
        assert tr.at(0.5) == 1.0
        assert np.array_equal(tr.at([0.0, 2.0]), [0.0, 4.0])

    def test_interpolation_outside_span(self):
        tr = Trajectory(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(CoverageError):
            tr.at(1.5)

    @pytest.mark.parametrize("q", [math.nan, [0.5, math.nan, 1.5]],
                             ids=["scalar", "array"])
    def test_at_rejects_nan_times(self, q):
        # NaN fails both bound comparisons, so the coverage check misses it
        tr = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]))
        with pytest.raises(DomainError, match="time must not be NaN"):
            tr.at(q)

    def test_owns_read_only_samples(self):
        t, v = np.arange(5.0), np.arange(5.0) ** 2
        tr = Trajectory(t, v)
        t[:] = v[:] = -1.0
        assert np.array_equal(tr.times, np.arange(5.0))
        assert np.array_equal(tr.values, np.arange(5.0) ** 2)
        # chi_exact hands its own arrays over without a copy
        s = make_signal([1, 0, 1])
        filtered = chi_exact(s, config_for(s), 0.0, 0.3, 0.0)
        for arr in (tr.times, tr.values, filtered.times, filtered.values):
            with pytest.raises(ValueError):
                arr[0] = 7.0

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_spacing_is_checked_across_blocks(self, block):
        # a bad gap in any position, including on a block boundary
        with mock.patch.object(filtering, "_BLOCK", block):
            for j in range(1, 7):
                t = np.arange(7.0)
                t[j:] += 0.5
                with pytest.raises(DomainError, match="uniform"):
                    Trajectory(t, np.zeros(7))
                t[j:] -= 2.0
                with pytest.raises(DomainError, match="increasing"):
                    Trajectory(t, np.zeros(7))

    def test_at_allocates_only_per_query(self):
        # np.interp copies read-only sample arrays on every call; at must
        # not, so 65536 queries stay far below one 32 MB sample array
        n = 1 << 22
        t = 0.25 * np.arange(n)
        v = np.sin(t)
        tr = Trajectory(t, v)
        q = np.linspace(1.0, t[-1] - 1.0, 1 << 16)
        tracemalloc.start()
        try:
            got = tr.at(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert np.array_equal(got, np.interp(q, t, v))

    def test_at_holds_the_end_values_within_the_slack(self):
        t = 0.25 * np.arange(1 << 12) - 3.0
        tr = Trajectory(t, np.sin(t))
        slack = _EDGE_TOL * tr.sample_dt
        q = np.concatenate([
            [tr.t_start - slack / 2, tr.t_start, tr.t_end,
             tr.t_end + slack / 2],
            np.random.default_rng(5).uniform(tr.t_start, tr.t_end, 1 << 16)])
        clipped = np.interp(np.clip(q, tr.t_start, tr.t_end), t, np.sin(t))
        assert np.array_equal(tr.at(q), clipped)


class TestChiExact:
    def test_steady_state_is_exact(self):
        s = make_signal([1] * 30)
        tr = chi_exact(s, config_for(s), 0.0, 2.5, 1.0)
        assert np.all(tr.values == 1.0)

    def test_steady_state_other_decay(self):
        s = make_signal([1] * 30)
        tr = chi_exact(s, config_for(s, decay=2.0), 0.0, 2.5, 0.5)
        assert np.all(tr.values == 0.5)

    def test_single_piece_charging(self):
        s = make_signal([1] * 2)
        tr = chi_exact(s, config_for(s), 0.0, 0.1, 0.0)
        # value after one full piece of unit drive
        assert abs(tr.values[-1] - (-math.expm1(-0.1))) < 2e-16
        assert abs(tr.values[-1] - 0.09516258196404048) < 1e-16

    def test_two_piece_crossing(self):
        s = make_signal([1, 0, 0])
        tr = chi_exact(s, config_for(s), 0.0, 0.2, 0.0)
        expected = -math.expm1(-0.1) * math.exp(-0.1)
        assert abs(tr.values[-1] - expected) < 1e-15

    def test_grid_independence_at_shared_times(self):
        s = make_signal([1, 0, 1, 1, 0, 1, 0, 0, 1, 1])
        coarse = chi_exact(s, config_for(s, dt=0.01), 0.0, 0.9, 0.25)
        # dt scaled by an exact power of two keeps the grids nested bitwise
        fine = chi_exact(s, config_for(s, dt=0.0025), 0.0, 0.9, 0.25)
        shared, ci, fi = np.intersect1d(coarse.times, fine.times,
                                        return_indices=True)
        assert shared.size > 50
        assert np.array_equal(coarse.values[ci], fine.values[fi])

    def test_last_sample_may_touch_the_right_edge(self):
        s = make_signal([1, 1])
        tr = chi_exact(s, config_for(s), 0.0, 0.2, 0.0)
        assert tr.times[-1] == pytest.approx(0.2)

    def test_coverage_error_past_signal(self):
        s = make_signal([1, 1])
        with pytest.raises(CoverageError):
            chi_exact(s, config_for(s), 0.0, 0.3, 0.0)

    def test_coverage_error_before_signal(self):
        s = make_signal([1, 1])
        with pytest.raises(CoverageError):
            chi_exact(s, config_for(s), -0.1, 0.2, 0.0)

    def test_time_order_required(self):
        s = make_signal([1, 1])
        with pytest.raises(DomainError):
            chi_exact(s, config_for(s), 0.1, 0.1, 0.0)

    def test_step_mismatch_rejected(self):
        s = make_signal([1, 1])
        bad = FilterConfig(decay=1.0, step=0.2, sample_dt=0.01)
        with pytest.raises(DomainError):
            chi_exact(s, bad, 0.0, 0.1, 0.0)

    def test_semigroup_restart(self):
        w = realize(BernoulliSpec(BINARY, (0.5, 0.5), 77, 400))
        s = StepSignal(w, 0.1)
        cfg = config_for(s)
        full = chi_exact(s, cfg, 0.0, 30.0, 0.5)
        mid = 15.0
        mid_i = int(np.argmin(np.abs(full.times - mid)))
        resumed = chi_exact(s, cfg, float(full.times[mid_i]), 30.0,
                            float(full.values[mid_i]))
        tail = full.values[mid_i:]
        assert np.max(np.abs(resumed.values - tail)) < 1e-12

    def test_bounded_by_alphabet_band(self):
        for seed in range(5):
            w = realize(BernoulliSpec(BINARY, (0.5, 0.5), seed, 1200))
            s = StepSignal(w, 0.1)
            tr = chi_exact(s, config_for(s), 0.0, 100.0, 0.5)
            assert float(tr.values.min()) >= 0.0
            assert float(tr.values.max()) <= 1.0


class TestSolveOde:
    def test_homogeneous_decay(self):
        s = make_signal([0] * 120)
        tr = chi_exact(s, config_for(s), 0.0, 10.0, 0.5)
        expected = 0.5 * np.exp(-tr.times)
        rel = np.abs(tr.values - expected) / expected
        assert float(rel.max()) < 1e-12

    def test_transient_forgets_initial_value(self):
        w = realize(BernoulliSpec(BINARY, (0.5, 0.5), 42, 1000))
        s = StepSignal(w, 0.1)
        lo = chi_exact(s, config_for(s), 0.0, 100.0, 0.0)
        hi = chi_exact(s, config_for(s), 0.0, 100.0, 1.0)
        gap = hi.values - lo.values
        # the gap itself decays exactly like exp(-t), within rounding
        assert float(np.max(np.abs(gap - np.exp(-lo.times)))) < 1e-12
        at_50 = int(np.argmin(np.abs(lo.times - 50.0)))
        assert abs(float(gap[at_50])) < 1e-17


class TestChiQuadrature:
    def test_zero_signal(self):
        s = make_signal([0] * 500)
        value, bound = chi_quadrature(s, config_for(s), 45.0, 40.0)
        assert value == 0.0
        assert bound == 0.0

    def test_constant_drive_charges_to_one(self):
        s = make_signal([1] * 500)
        value, bound = chi_quadrature(s, config_for(s), 45.0, 40.0)
        assert abs(value - (1.0 - math.exp(-40.0))) < 1e-12
        assert bound == math.exp(-40.0)

    def test_agrees_with_recurrence(self):
        for seed in range(20):
            w = realize(BernoulliSpec(BINARY, (0.5, 0.5), seed, 600))
            s = StepSignal(w, 0.1)
            cfg = config_for(s, dt=0.1)
            t = 55.0
            tr = chi_exact(s, cfg, t - 40.0, t, 0.0)
            q = chi_quadrature(s, cfg, t, 40.0)
            assert abs(float(tr.values[-1]) - q.value) \
                <= q.truncation_bound + 1e-10

    def test_tail_must_be_positive(self):
        s = make_signal([1] * 10)
        with pytest.raises(DomainError):
            chi_quadrature(s, config_for(s), 0.5, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_time_must_be_finite(self, t):
        s = make_signal([1] * 10)
        with pytest.raises(DomainError, match="finite"):
            chi_quadrature(s, config_for(s), t, 0.5)

    def test_tail_starting_within_the_edge_slack_is_covered(self):
        # [t - T, t] starts 1e-12 before the window, inside _EDGE_TOL * mu
        s = StepSignal(binary_window(0, [1] * 10), 1.0)
        cfg = FilterConfig(step=1.0, sample_dt=0.5)
        q = chi_quadrature(s, cfg, 1.0, 1.0 + 1e-12)
        assert q.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-11)
        with pytest.raises(CoverageError):
            chi_quadrature(s, cfg, 1.0, 1.0 + 1e-8)

    def test_coverage(self):
        s = make_signal([1] * 10)
        with pytest.raises(CoverageError):
            chi_quadrature(s, config_for(s), 0.9, 2.0)


class TestFilterConfig:
    def test_defaults(self):
        cfg = FilterConfig()
        assert cfg.decay == 1.0
        assert cfg.sample_dt <= cfg.step

    def test_sample_dt_cannot_exceed_step(self):
        with pytest.raises(DomainError):
            FilterConfig(step=0.1, sample_dt=0.2)

    @pytest.mark.parametrize("field,value", [
        ("decay", 0.0), ("decay", -1.0), ("step", -0.1),
        ("sample_dt", 0.0),
    ])
    def test_positivity(self, field, value):
        kwargs = {"step": 1.0, "sample_dt": 0.5}
        kwargs[field] = value
        with pytest.raises(DomainError):
            FilterConfig(**kwargs)


class TestSeparationConstants:
    def test_values_for_unit_gap(self):
        c = separation_constants(1.0)
        assert c.lower_bound == 1.0 / 24.0
        assert abs(c.kappa_i - math.log(1.5) / 2.0) < 1e-15
        assert abs(c.kappa_ii - (-math.log(11.0 / 12.0) / 2.0)) < 1e-15

    def test_pinned_floats(self):
        c = separation_constants(1.0)
        assert abs(c.kappa_i - 0.2027325540540822) < 1e-15
        assert abs(c.kappa_ii - 0.043505688494814905) < 1e-15

    def test_domain_edges(self):
        limit = 12.0 * (1.0 - math.exp(-2.0))
        separation_constants(limit)          # the boundary itself is allowed
        for bad in (0.0, -1.0, limit + 1e-9, float("nan")):
            with pytest.raises(DomainError):
                separation_constants(bad)

    def test_scaling_with_epsilon0(self):
        small = separation_constants(0.1)
        large = separation_constants(2.0)
        assert small.kappa_i == large.kappa_i
        assert small.kappa_ii < large.kappa_ii
        assert small.lower_bound == pytest.approx(0.1 / 24.0)


# -- property tests ----------------------------------------------------------

@given(bits=st.lists(st.integers(0, 1), min_size=20, max_size=60),
       start=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_output_stays_in_band(bits, start):
    s = make_signal(bits, mu=0.5)
    cfg = FilterConfig(decay=1.0, step=0.5, sample_dt=0.05)
    tr = chi_exact(s, cfg, 0.0, len(bits) * 0.5 - 0.1, start)
    assert float(tr.values.min()) >= 0.0
    assert float(tr.values.max()) <= 1.0


@given(bits=st.lists(st.integers(0, 1), min_size=460, max_size=500),
       seed_t=st.floats(41.0, 45.0))
@settings(max_examples=30, deadline=None)
def test_quadrature_matches_recurrence_everywhere(bits, seed_t):
    s = make_signal(bits, mu=0.1)
    cfg = config_for(s, dt=0.1)
    tr = chi_exact(s, cfg, seed_t - 40.0, seed_t, 0.0)
    q = chi_quadrature(s, cfg, float(tr.times[-1]), 40.0)
    assert abs(float(tr.values[-1]) - q.value) <= q.truncation_bound + 1e-10


@st.composite
def quadrature_cases(draw):
    """A signal over 2-5 symbols, negative ones too, from a negative first
    index; a start inside the window with a start value in the band
    [-sup|pi|/lambda, sup|pi|/lambda]; sample picks and a tail fraction."""
    values = draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=2,
                           max_size=5, unique=True))
    symbols = draw(st.lists(st.sampled_from(values), min_size=1,
                            max_size=120))
    first = draw(st.integers(-300, -1))
    mu = draw(st.floats(0.01, 3.0))
    window = SequenceWindow(Alphabet(tuple(values)), first, np.array(symbols))
    signal = StepSignal(window, mu, draw(st.floats(-50.0, 50.0)))
    lam = draw(st.floats(0.05, 20.0))
    cfg = FilterConfig(decay=lam, step=mu, sample_dt=mu / draw(
        st.sampled_from([1.0, 2.0, 3.0, 7.0, 16.5])))
    piece = draw(st.integers(first, window.last_index))
    frac = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999))
    t_start = signal.origin + piece * mu + frac * mu
    chi_start = signal.sup_abs / lam * draw(st.floats(-1.0, 1.0))
    picks = draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=8))
    return (signal, cfg, t_start, chi_start, picks,
            draw(st.just(1.0) | st.floats(0.05, 1.0)))


@given(case=quadrature_cases())
@settings(max_examples=300, deadline=None)
def test_recurrence_matches_quadrature_within_its_bound(case):
    signal, cfg, t_start, chi_start, picks, tail_frac = case
    tr = chi_exact(signal, cfg, t_start, signal.t_max, chi_start)
    sup, eps = signal.sup_abs, np.finfo(float).eps
    k_start = _piece_index(signal.origin, signal.step, t_start)
    # the last sample sits at the end of coverage; the first has no tail
    for j in {len(tr) - 1, *(p % len(tr) for p in picks)}:
        t = float(tr.times[j])
        if t <= t_start:
            continue
        # the tail lies inside [t_start, t], so what it leaves out, the
        # history from chi_start on, is at most sup|pi| e^(-lambda T)/lambda
        q = chi_quadrature(signal, cfg, t, tail_frac * (t - t_start))
        # both paths round at most 8 times per piece crossed (plus the
        # sample itself), each by eps of a term within sup|pi|/lambda, and
        # read chi, whose slope is at most 2 sup|pi|, at times rounded by
        # eps |t|; a subnormal result rounds by an absolute 2**-1074 instead,
        # at each of those 16 steps per piece, and the quadrature divides
        # its sum by lambda; within its edge slack past the end of coverage
        # chi_exact holds the last value, which the quadrature lets decay
        pieces = _piece_index(signal.origin, signal.step, t) - k_start + 2
        rounding = eps * sup * (16 * pieces / cfg.decay + 2 * abs(t))
        subnormal = 2.0 ** -1074 * 16 * pieces * max(1.0, 1.0 / cfg.decay)
        edge = sup * max(0.0, t - signal.t_max)
        assert abs(float(tr.values[j]) - q.value) \
            <= q.truncation_bound + rounding + subnormal + edge


# -- the per-piece loop as a differential reference --------------------------

def _chi_exact_reference(signal, config, t_start, t_end, chi_start):
    """The piece-by-piece integrator that chi_exact replaced, kept verbatim
    (apart from the helper imports) to pin the blocked version to it."""
    _check_pair(signal, config)
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise DomainError("time bounds must be finite")
    if t_end <= t_start:
        raise DomainError("t_end must exceed t_start")
    lam = config.decay
    mu = signal.step
    dt = config.sample_dt
    n = int(math.floor((t_end - t_start) / dt + _EDGE_TOL))
    times = t_start + dt * np.arange(n + 1)
    values = np.empty(n + 1)
    tol = _EDGE_TOL * mu
    first_p = signal.sequence.first_index
    last_p = signal.sequence.last_index

    k = _piece_index(signal.origin, mu, t_start)
    t_ref = t_start
    chi = float(chi_start)
    i = 0
    total = n + 1
    while i < total:
        if not first_p <= k <= last_p:
            # a sample exactly at the reference time needs no piece value
            if np.any(times[i:] > t_ref + tol):
                raise CoverageError(
                    f"signal does not cover piece {k} needed near t={t_ref!r}")
            values[i:] = chi
            break
        v = signal.sequence.value_at(k)
        b_next = signal.origin + (k + 1) * mu
        j = int(np.searchsorted(times, b_next, side="left"))
        if j > i:
            decay = np.exp(-lam * (times[i:j] - t_ref))
            values[i:j] = chi * decay + (v / lam) * (1.0 - decay)
            i = j
        if i < total:
            e = math.exp(-lam * (b_next - t_ref))
            chi = chi * e + (v / lam) * (1.0 - e)
            t_ref = b_next
            k += 1
    return Trajectory(times, values)


def assert_same_outcome(signal, cfg, t_start, t_end, chi_start):
    """chi_exact and the reference give bit-identical samples, or the same
    error with the same message."""
    try:
        want = _chi_exact_reference(signal, cfg, t_start, t_end, chi_start)
    except CoverageError as exc:
        with pytest.raises(CoverageError) as got:
            chi_exact(signal, cfg, t_start, t_end, chi_start)
        assert str(got.value) == str(exc)
        return None
    got = chi_exact(signal, cfg, t_start, t_end, chi_start)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.values, want.values)
    return got


@st.composite
def filter_cases(draw):
    values = draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=2,
                           max_size=5, unique=True))
    alphabet = Alphabet(tuple(values))
    symbols = draw(st.lists(st.sampled_from(values), min_size=1,
                            max_size=120))
    first = draw(st.integers(-300, 300))
    mu = draw(st.floats(0.01, 3.0))
    signal = StepSignal(SequenceWindow(alphabet, first, np.array(symbols)),
                        mu, draw(st.floats(-50.0, 50.0)))
    cfg = FilterConfig(decay=draw(st.floats(0.05, 20.0)), step=mu,
                       sample_dt=mu / draw(st.sampled_from(
                           [1.0, 2.0, 3.0, 7.0, 10.0, 16.5, 37.0])))
    # start on a breakpoint or inside a piece, from one piece before the
    # window to its end
    piece = draw(st.integers(first - 1, signal.sequence.last_index))
    frac = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999))
    t_start = signal.origin + piece * mu + frac * mu
    # end at the exact end of coverage, inside it, or past it
    t_end = draw(st.sampled_from([signal.t_max, signal.t_max + 0.5 * mu])
                 | st.floats(t_start + 1e-3, signal.t_max + mu))
    if t_end <= t_start:
        t_end = signal.t_max + mu
    return signal, cfg, t_start, t_end, draw(st.floats(-5.0, 5.0))


@given(case=filter_cases(), block=st.sampled_from([1, 3, 64, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_chi_exact_is_bitwise_the_piece_loop(case, block):
    with mock.patch.multiple(filtering, _RUN=block, _PIECES=block):
        assert_same_outcome(*case)


def test_chi_exact_bitwise_over_many_blocks():
    alphabet = Alphabet((-1.0, 0.0, 1.0))
    w = realize(BernoulliSpec(alphabet, (0.25, 0.5, 0.25), 3, 20000))
    for mu, dt, lam, t_start in ((0.1, 0.01, 1.0, 0.0),
                                 (1.0, 1.0 / 370.0, 0.7, 12.5),
                                 (0.37, 0.37 / 8.0, 2.5, 0.37 * 5)):
        s = StepSignal(w, mu)
        cfg = FilterConfig(decay=lam, step=mu, sample_dt=dt)
        tr = assert_same_outcome(s, cfg, t_start, s.t_max, 0.5)
        assert len(tr) > 2 * filtering._RUN
        assert s.sequence.last_index > 2 * filtering._PIECES


@pytest.mark.parametrize("t_start, t_end", [
    (-0.1, 0.5),     # the first sample needs a piece before the window
    (0.0, 0.75),     # the samples run out of the window halfway
    (0.0, 1.01),     # only the last sample lies past the window
])
def test_chi_exact_coverage_errors_match_the_piece_loop(t_start, t_end):
    s = make_signal([1, 0, 1, 1, 0])
    with pytest.raises(CoverageError):
        chi_exact(s, config_for(s), t_start, t_end, 0.0)
    assert_same_outcome(s, config_for(s), t_start, t_end, 0.0)


def test_chi_exact_allocates_its_samples_once():
    # times and values, plus block temporaries: no copy of either array
    s = make_signal([1, 0, 0, 1] * 8192, mu=1.0)
    cfg = FilterConfig(decay=1.0, step=1.0, sample_dt=1.0 / 64.0)
    tracemalloc.start()
    try:
        tr = chi_exact(s, cfg, 0.0, s.t_max, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) > 1 << 21
    assert peak < 2.5 * 8 * len(tr)


def test_chi_exact_coverage_error_raises_before_allocating():
    # 2e7 samples would take 320 MB; the signal covers only 100 time units
    s = make_signal([1, 0] * 500)
    cfg = FilterConfig(decay=1.0, step=0.1, sample_dt=0.001)
    tracemalloc.start()
    try:
        with pytest.raises(CoverageError, match="piece 1000 needed near"):
            chi_exact(s, cfg, 0.0, 20000.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("t_start, t_end", [
    (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
])
def test_chi_exact_time_bounds_must_be_finite(t_start, t_end):
    s = make_signal([1, 0, 1])
    with pytest.raises(DomainError, match="finite"):
        chi_exact(s, config_for(s), t_start, t_end, 0.0)


def test_chi_exact_sample_limit_raises_before_allocating():
    s = make_signal([1] * 1000)
    cfg = FilterConfig(decay=1.0, step=0.1, sample_dt=1e-9)
    with pytest.raises(ResourceError):
        chi_exact(s, cfg, 0.0, 100.0, 0.0)
    assert MAX_SAMPLES == filtering.MAX_SAMPLES


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0], [0.0, math.inf]),
    ([0.0, 1.0], [math.nan, 0.0]),
    ([math.nan, math.nan], [1.0, 2.0]),
    ([0.0, math.inf], [1.0, 2.0]),
])
def test_trajectory_rejects_non_finite_samples(times, values):
    with pytest.raises(DomainError):
        Trajectory(np.array(times), np.array(values))


# -- the lattice read on demand ----------------------------------------------

@given(case=filter_cases(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_lattice_slices_are_bitwise_chi_exact(case, data):
    signal, cfg, t_start, t_end, chi_start = case
    try:
        want = chi_exact(signal, cfg, t_start, t_end, chi_start).values
    except CoverageError as exc:
        with pytest.raises(CoverageError, match=str(exc)):
            _Lattice(signal, cfg, t_start, t_end, chi_start)
        return
    lattice = _Lattice(signal, cfg, t_start, t_end, chi_start)
    assert len(lattice) == want.size
    for _ in range(4):
        lo = data.draw(st.integers(0, want.size - 1))
        hi = data.draw(st.integers(lo + 1, want.size))
        assert np.array_equal(lattice.values[lo:hi], want[lo:hi])


@st.composite
def magnitude_cases(draw):
    """A signal over 2-5 symbols, negative ones too, at unit, subnormal or
    large magnitude, a start between breakpoints, any start value, and an
    end at or inside the end of coverage."""
    scale = draw(st.sampled_from([1.0, 1e-310, 2.0 ** -1060, 1e-300, 1e280]))
    base = draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=5,
                         unique=True))
    values = tuple(v * scale for v in base)
    assume(len(set(values)) == len(values))
    symbols = draw(st.lists(st.sampled_from(values), min_size=1,
                            max_size=80))
    mu = draw(st.floats(0.01, 3.0))
    signal = StepSignal(SequenceWindow(Alphabet(values), draw(
        st.integers(-100, 100)), np.array(symbols)), mu,
        draw(st.floats(-50.0, 50.0)))
    lam = draw(st.floats(0.05, 20.0))
    cfg = FilterConfig(decay=lam, step=mu, sample_dt=mu / draw(
        st.sampled_from([1.0, 2.0, 3.0, 7.0, 16.5])))
    piece = draw(st.integers(signal.sequence.first_index,
                             signal.sequence.last_index))
    t_start = signal.origin + (piece + draw(st.floats(0.0, 0.999))) * mu
    t_end = t_start + (signal.t_max - t_start) * draw(
        st.sampled_from([1.0]) | st.floats(0.01, 1.0))
    chi_start = signal.sup_abs / lam * draw(st.floats(-2.0, 2.0))
    return signal, cfg, t_start, t_end, chi_start


def assert_within_chain_bounds(signal, cfg, t_start, t_end, chi_start):
    """Every sample lies between the chain values at its piece's two ends,
    widened by the lattice's slack, and inside the bound of every run."""
    lattice = _Lattice(signal, cfg, t_start, t_end, chi_start)
    tr = chi_exact(signal, cfg, t_start, t_end, chi_start)
    chis, last = lattice.chis, lattice.chis.size - 1
    for t, v in zip(tr.times.tolist(), tr.values.tolist()):
        p = min(_piece_index(signal.origin, signal.step, t) - lattice.k0, last)
        ends = chis[p], chis[min(p + 1, last)]
        assert min(ends) - lattice.slack <= v <= max(ends) + lattice.slack
    for unit in (1, 3, 64):
        lows, highs = lattice.bounds(unit)
        runs = np.arange(tr.values.size) // unit
        assert np.all(lows[runs] <= tr.values)
        assert np.all(tr.values <= highs[runs])
    return tr


@given(case=magnitude_cases())
@settings(max_examples=200, deadline=None)
def test_samples_lie_within_their_pieces_chain_range(case):
    assert_within_chain_bounds(*case)


def test_chain_range_holds_past_the_end_of_coverage():
    # the last sample lies within _EDGE_TOL * mu past the end of coverage
    # at t = 10, where chi_exact holds the value at t = 10
    s = StepSignal(SequenceWindow(Alphabet((-1.0, 0.0, 2.0)), 0,
                                  np.array([2.0, -1.0, 0.0, 2.0, -1.0] * 2)),
                   1.0)
    cfg = FilterConfig(decay=0.7, step=1.0, sample_dt=0.25)
    tr = assert_within_chain_bounds(s, cfg, 1e-10, 10.0 + 2e-10, 0.3)
    assert tr.times[-2] < s.t_max < tr.t_end
    held = _Lattice(s, cfg, 1e-10, 10.0 + 2e-10, 0.3).chis[-1]
    assert tr.values[-1] == held != tr.values[-2]
