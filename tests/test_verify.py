"""Witness searches on sequences and on filtered trajectories."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unpredictable import (BINARY, Alphabet, BernoulliSpec, CoverageError,
                           DomainError, FilterConfig, ResolutionError,
                           ResourceError, SequenceWindow, StepSignal,
                           Trajectory, chi_exact,
                           find_function_witnesses, find_sequence_witnesses,
                           metric_distance, orbit_return_distances,
                           point_window, qualifying_shifts, realize,
                           separation_constants, shift, verify,
                           verify_filtered)
from unpredictable.filtering import _EDGE_TOL
from unpredictable.verify import (FunctionVerdict, FunctionWitness,
                                  SequenceVerdict, SequenceWitness,
                                  _base_checks, _sliding_min)


def binary_window(first, bits):
    return SequenceWindow(BINARY, first, np.asarray(bits, dtype=float))


class TestSequenceSearch:
    def test_constant_sequence_is_inconsistent(self):
        w = binary_window(-8, [1] * 64)
        result = find_sequence_witnesses(w, 4, 0.0, 1.0, 3)
        assert result.verdict == "inconsistent"
        assert result.witnesses == ()
        assert result.epsilon0_achieved == 0.0

    def test_alternating_sequence_is_inconsistent(self):
        w = binary_window(-8, [0, 1] * 32)
        result = find_sequence_witnesses(w, 4, 0.0, 1.0, 3)
        assert result.verdict == "inconsistent"

    def test_period_four_is_inconsistent(self):
        w = binary_window(-8, [0, 0, 1, 1] * 16)
        result = find_sequence_witnesses(w, 3, 0.0, 1.0, 2)
        assert result.verdict == "inconsistent"

    def test_point_window_yields_witnesses(self, point_64k):
        result = find_sequence_witnesses(point_64k, 4, 0.0, 1.0, 3)
        assert result.verdict == "consistent"
        assert len(result.witnesses) == 3
        assert result.epsilon0_achieved >= 1.0

    def test_point_window_first_shift_is_pinned(self, point_64k):
        result = find_sequence_witnesses(point_64k, 4, 0.0, 1.0, 1)
        assert result.witnesses[0].zeta == 34

    def test_witnesses_are_strictly_increasing(self, point_64k):
        result = find_sequence_witnesses(point_64k, 4, 0.0, 1.0, 5)
        zetas = [w.zeta for w in result.witnesses]
        etas = [w.eta for w in result.witnesses]
        assert zetas == sorted(set(zetas))
        assert etas == sorted(set(etas))

    def test_witnesses_revalidate_from_raw_data(self, point_64k):
        L = 4
        result = find_sequence_witnesses(point_64k, L, 0.0, 1.0, 5)
        assert result.witnesses
        for w in result.witnesses:
            base = point_64k.segment(-L, L)
            moved = point_64k.segment(-L + w.zeta, L + w.zeta)
            assert float(np.max(np.abs(moved - base))) == w.max_window_error
            assert w.max_window_error <= 0.0
            gap = abs(point_64k.value_at(w.eta + w.zeta)
                      - point_64k.value_at(w.eta))
            assert gap == w.separation
            assert gap >= 1.0

    def test_random_draws_rarely_qualify(self):
        # a pinned fair-coin draw has no 21-symbol repeat in 2048 samples
        w = realize(BernoulliSpec(BINARY, (0.5, 0.5), 2024, 2048))
        recentered = SequenceWindow(BINARY, -1024, w.symbols)
        result = find_sequence_witnesses(recentered, 10, 0.0, 1.0, 1)
        assert result.verdict == "inconclusive"
        assert result.witnesses == ()

    def test_coverage_requirements(self):
        w = binary_window(0, [0, 1] * 8)
        with pytest.raises(CoverageError):
            find_sequence_witnesses(w, 4, 0.0, 1.0, 1)

    def test_parameter_validation(self, point_64k):
        with pytest.raises(DomainError):
            find_sequence_witnesses(point_64k, 4, -0.1, 1.0, 1)
        with pytest.raises(DomainError):
            find_sequence_witnesses(point_64k, 4, 0.0, 0.0, 1)
        with pytest.raises(DomainError):
            find_sequence_witnesses(point_64k, 4, 0.0, 1.0, 0)
        with pytest.raises(DomainError):
            find_sequence_witnesses(point_64k, 0, 0.0, 1.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters(self, point_64k, bad):
        # a NaN tolerance used to reject every shift, an inf one to pass all
        with pytest.raises(DomainError):
            qualifying_shifts(point_64k, 4, bad)
        with pytest.raises(DomainError):
            find_sequence_witnesses(point_64k, 4, bad, 1.0, 1)
        with pytest.raises(DomainError):
            find_sequence_witnesses(point_64k, 4, 0.0, bad, 1)


class TestQualifyingShifts:
    def test_matches_manual_scan(self):
        w = point_window(-64, 160)
        L = 2
        fast = qualifying_shifts(w, L, 0.0).tolist()
        slow = []
        base = w.segment(-L, L)
        for z in range(1, w.last_index - L + 1):
            if np.array_equal(w.segment(-L + z, L + z), base):
                slow.append(z)
        assert fast == slow

    def test_monotone_in_tolerance(self, point_64k):
        tight = set(qualifying_shifts(point_64k, 4, 0.0).tolist())
        loose = set(qualifying_shifts(point_64k, 4, 0.5).tolist())
        assert tight <= loose

    def test_lowering_epsilon0_keeps_witness_pairs_valid(self, point_64k):
        # any witness found at the strict level stays a witness at a laxer one
        strict = find_sequence_witnesses(point_64k, 4, 0.0, 1.0, 4)
        for w in strict.witnesses:
            gap = abs(point_64k.value_at(w.eta + w.zeta)
                      - point_64k.value_at(w.eta))
            assert gap >= 0.5


class TestOrbitReturns:
    @pytest.mark.parametrize("half_width, max_shift", [
        (0, 4), (4, 0), (-1, 4), (4, -3),
    ])
    def test_arguments_must_be_positive(self, half_width, max_shift):
        w = binary_window(-40, [1] * 100)
        with pytest.raises(DomainError, match="positive"):
            orbit_return_distances(w, half_width, max_shift)

    def test_constant_returns_exactly(self):
        w = binary_window(-40, [1] * 100)
        for _, d in orbit_return_distances(w, 8, 16):
            assert d == 0.0

    def test_alternating_pattern(self):
        w = binary_window(-40, [0, 1] * 50)
        K = 16
        dists = dict(orbit_return_distances(w, K, 8))
        full = float(sum(Fraction(1, 2 ** abs(k)) for k in range(-K, K + 1)))
        for s in (2, 4, 6, 8):
            assert dists[s] == 0.0
        for s in (1, 3, 5, 7):
            assert dists[s] == full

    def test_certified_distance_improves_with_half_width(self, point_64k):
        # truncated value + tail bound can only tighten as K grows
        budget = 1 << 12
        best = []
        for K in (2, 4, 8, 16):
            tail = BINARY.diameter * 2.0 ** (1 - K)
            dists = orbit_return_distances(point_64k, K, budget)
            best.append(min(d for _, d in dists) + tail)
        assert all(a >= b - 1e-12 for a, b in zip(best, best[1:]))
        assert best[-1] < 0.05

    def test_coverage_check(self):
        w = binary_window(-4, [0, 1] * 8)
        with pytest.raises(CoverageError):
            orbit_return_distances(w, 4, 100)

    @pytest.mark.parametrize("K", [2, 4, 8, 16])
    def test_full_window_matches_the_restricted_window(self, point_64k, K):
        # reference: shift only the part of the window the distances read
        S = 1 << 12
        part = SequenceWindow(point_64k.alphabet, -K,
                              point_64k.segment(-K, K + S))
        old = [(s, metric_distance(shift(part, s), part, K).value.hex())
               for s in range(1, S + 1)]
        with mock.patch.object(np, "isin", side_effect=AssertionError):
            new = orbit_return_distances(point_64k, K, S)
        assert [(s, d.hex()) for s, d in new] == old


def flat_trajectory(value=0.0, n=4001, dt=0.01):
    t = dt * np.arange(n)
    return Trajectory(t, np.full(n, value))


@pytest.fixture(scope="module")
def filtered_point(point_64k):
    """Filter the i* signal (mu = 1) and verify its pinned L=6 return
    shift 3018: the shared basis for the function-level tests."""
    signal = StepSignal(point_64k, 1.0)
    constants = separation_constants(1.0)
    sigma = constants.kappa_ii / 2.0
    dt = sigma / 8.0
    cfg = FilterConfig(decay=1.0, step=1.0, sample_dt=dt)
    tr = chi_exact(signal, cfg, -8.0, 3030.0, 0.5)
    result = find_function_witnesses(tr, [3018.0], (0.0, 4.0), sigma,
                                     tolerance=5e-3,
                                     epsilon0=constants.lower_bound,
                                     sample_dt=dt)
    return tr, result, constants


class TestFunctionSearch:
    @pytest.mark.parametrize("compact", [(4.0, 0.0), (1.0, 1.0)])
    def test_compact_bounds_out_of_order(self, compact):
        with pytest.raises(DomainError, match="compact"):
            find_function_witnesses(flat_trajectory(), [5.0], compact,
                                    sigma=0.5, tolerance=1e-9, epsilon0=0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_compact_bounds(self, side, bad):
        # named before the order check, not as a huge grid or bad order
        compact = [0.0, 4.0]
        compact[side] = bad
        with pytest.raises(DomainError, match="compact bounds must be finite"):
            find_function_witnesses(flat_trajectory(), [1.0], tuple(compact),
                                    sigma=0.5, tolerance=1.0, epsilon0=0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_domain_bounds(self, side, bad):
        domain = [0.0, 40.0]
        domain[side] = bad
        with pytest.raises(DomainError, match="must be finite"):
            find_function_witnesses(math.sin, [5.0], (0.0, 4.0), sigma=0.5,
                                    tolerance=1e-9, epsilon0=0.1,
                                    sample_dt=0.01, domain=tuple(domain))

    @pytest.mark.parametrize("domain", [(40.0, 0.0), (3.0, 3.0)])
    def test_domain_bounds_out_of_order(self, domain):
        with pytest.raises(DomainError, match="domain"):
            find_function_witnesses(math.sin, [5.0], (0.0, 4.0), sigma=0.5,
                                    tolerance=1e-9, epsilon0=0.1,
                                    sample_dt=0.01, domain=domain)

    def test_zero_function_is_inconsistent(self):
        tr = flat_trajectory()
        result = find_function_witnesses(tr, [5.0, 10.0], (0.0, 4.0),
                                         sigma=0.5, tolerance=1e-9,
                                         epsilon0=0.1)
        assert result.verdict == "inconsistent"
        assert result.separation_achieved == 0.0
        assert result.witnesses == ()

    def test_periodic_function_is_inconsistent(self):
        t = 0.002 * np.arange(20001)    # [0, 40]
        tr = Trajectory(t, np.sin(t))
        result = find_function_witnesses(tr, [2.0 * math.pi], (0.0, 4.0),
                                         sigma=0.01, tolerance=1e-6,
                                         epsilon0=0.05)
        assert result.verdict == "inconsistent"
        assert result.separation_achieved < 1e-6

    def test_nonreturning_shift_is_inconclusive(self):
        t = 0.002 * np.arange(20001)
        tr = Trajectory(t, np.sin(t))
        result = find_function_witnesses(tr, [1.0], (0.0, 4.0),
                                         sigma=0.01, tolerance=1e-6,
                                         epsilon0=0.05)
        assert result.verdict == "inconclusive"

    def test_filtered_point_produces_a_witness(self, filtered_point):
        tr, result, constants = filtered_point
        assert result.verdict == "consistent"
        w = result.witnesses[0]
        assert w.t_shift == 3018.0
        assert w.min_separation_on_interval >= constants.lower_bound
        assert w.max_compact_error <= 5e-3
        assert result.separation_achieved == w.min_separation_on_interval

    def test_function_witness_revalidates(self, filtered_point):
        tr, result, _ = filtered_point
        w = result.witnesses[0]
        probe = np.linspace(w.u_center - w.sigma, w.u_center + w.sigma, 33)
        gap = np.abs(tr.at(probe + w.t_shift) - tr.at(probe))
        assert float(gap.min()) >= w.min_separation_on_interval - 1e-9

    def test_callable_input_needs_domain(self):
        with pytest.raises(DomainError):
            find_function_witnesses(np.sin, [1.0], (0.0, 4.0),
                                    sigma=0.1, tolerance=1.0, epsilon0=0.1)

    def test_callable_input_with_domain(self):
        result = find_function_witnesses(
            np.sin, [2.0 * math.pi], (0.0, 4.0), sigma=0.05,
            tolerance=1e-9, epsilon0=0.01, domain=(0.0, 40.0))
        assert result.verdict == "inconsistent"

    def test_resolution_guard(self):
        tr = flat_trajectory()
        with pytest.raises(ResolutionError):
            find_function_witnesses(tr, [1.0], (0.0, 4.0), sigma=0.5,
                                    tolerance=1.0, epsilon0=0.1,
                                    sample_dt=0.2)

    @pytest.mark.parametrize("sample_dt", [0.0, -0.01, math.nan])
    def test_sample_dt_must_be_positive(self, sample_dt):
        # these used to raise ZeroDivisionError, a CoverageError and a bare
        # ValueError
        with pytest.raises(DomainError, match="sample_dt must be finite"):
            find_function_witnesses(flat_trajectory(), [1.0], (0.0, 4.0),
                                    sigma=0.5, tolerance=1.0, epsilon0=0.1,
                                    sample_dt=sample_dt)

    def test_domain_must_hold_compact_plus_shift(self):
        tr = flat_trajectory(n=1001)    # [0, 10]
        with pytest.raises(CoverageError):
            find_function_witnesses(tr, [8.0], (0.0, 4.0), sigma=0.5,
                                    tolerance=1.0, epsilon0=0.1)

    def test_shift_candidates_must_be_positive(self):
        tr = flat_trajectory()
        with pytest.raises(DomainError):
            find_function_witnesses(tr, [-1.0, 2.0], (0.0, 4.0), sigma=0.5,
                                    tolerance=1.0, epsilon0=0.1)
        with pytest.raises(DomainError):
            find_function_witnesses(tr, [], (0.0, 4.0), sigma=0.5,
                                    tolerance=1.0, epsilon0=0.1)

    def test_compact_grid_is_capped(self):
        # 4 / (1e-9 / 8) = 3.2e10 compact points used to end in a raw
        # MemoryError from numpy
        with pytest.raises(ResourceError, match="compact grid"):
            find_function_witnesses(flat_trajectory(), [1.0], (0.0, 4.0),
                                    sigma=1e-9, tolerance=1.0, epsilon0=0.1)
        # (0, 4) every 0.01 is 401 points: refused at a cap of 401 only
        args = (flat_trajectory(), [1.0], (0.0, 4.0), 0.08, 1.0, 0.1)
        with mock.patch.object(verify, "MAX_SAMPLES", 401):
            with pytest.raises(ResourceError):
                find_function_witnesses(*args)
        with mock.patch.object(verify, "MAX_SAMPLES", 402):
            find_function_witnesses(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["sigma", "tolerance", "epsilon0"])
    def test_non_finite_parameters(self, name, bad):
        params = {"sigma": 0.5, "tolerance": 1.0, "epsilon0": 0.1, name: bad}
        with pytest.raises(DomainError):
            find_function_witnesses(flat_trajectory(), [1.0], (0.0, 4.0),
                                    **params)

    @pytest.mark.parametrize("h", [
        lambda t: np.full_like(t, np.nan),
        lambda t: np.full_like(t, np.inf),
        # NaN only past the compact, where the centre scan first looks
        lambda t: np.where(t > 10.0, np.nan, np.sin(t)),
    ])
    def test_non_finite_callable_values(self, h):
        # NaN > tolerance is false, so a NaN compact error used to qualify
        # the shift and give a false "inconsistent"
        with pytest.raises(DomainError):
            find_function_witnesses(h, [2.0 * math.pi], (0.0, 4.0),
                                    sigma=0.05, tolerance=1e-9,
                                    epsilon0=0.01, domain=(0.0, 40.0))


#: verify-fn's flag defaults, except a shorter burn-in and compact
FLAGS = dict(mu=1.0, decay=1.0, phi0=0.5, burn_in=6.0, compact=(0.0, 2.0),
             half_width=4, auto_shifts=3)


class TestVerifyFiltered:
    def test_derived_defaults(self):
        seq = point_window(-4096, 8192)
        c = separation_constants(1.0)
        sigma = min(c.kappa_i, c.kappa_ii) / 2.0
        fixed = verify_filtered(seq, shifts=[34.0], **FLAGS)
        auto = verify_filtered(seq, **FLAGS)
        assert fixed["epsilon0_requested"] == c.lower_bound
        assert fixed["parameters"]["sigma"] == sigma
        assert fixed["parameters"]["sample_dt"] == sigma / 8.0
        # amp = 2 sup|pi| / lambda: burn-in transient, plus the history
        # beyond the matched half-width when the shifts are derived
        burn = 2.0 * math.exp(-6.0)
        assert fixed["parameters"]["tolerance"] == pytest.approx(burn)
        assert auto["parameters"]["tolerance"] == pytest.approx(
            burn + 2.0 * math.exp(-4.0))
        zetas = [w.zeta for w in find_sequence_witnesses(
            seq, 4, 0.0, 1.0, 3).witnesses]
        assert auto["parameters"]["t_shift_candidates"] == zetas
        assert auto["data_coverage"]["t_min"] == -6.0
        assert auto["data_coverage"]["t_max"] == pytest.approx(
            2.0 + zetas[-1] + 4.0 * sigma, abs=sigma / 8.0)

    def test_empty_shift_list_is_a_domain_error(self):
        with pytest.raises(DomainError):
            verify_filtered(point_window(-64, 256), shifts=[], **FLAGS)

    def test_no_qualifying_integer_shift_is_a_domain_error(self):
        # a constant window returns under every shift but never separates
        with pytest.raises(DomainError, match="no qualifying integer shifts"):
            verify_filtered(binary_window(-64, [1] * 256), **FLAGS)

    @pytest.mark.parametrize("params", [
        {"tolerance": math.nan},
        {"epsilon0": math.inf},
        {"sigma": math.inf, "sample_dt": 0.001},
        {"sigma": 0.01, "sample_dt": 0.01},     # coarser than sigma / 8
    ])
    def test_parameters_are_checked_before_filtering(self, params):
        with mock.patch.object(verify, "chi_exact",
                               side_effect=AssertionError("integrated")):
            with pytest.raises((DomainError, ResolutionError)):
                verify_filtered(point_window(-64, 256), shifts=[34.0],
                                **params, **FLAGS)

    @pytest.mark.parametrize("params", [
        {"compact": (2.0, 0.0), "shifts": [34.0]},
        {"shifts": []},
        {"shifts": [-5.0]},
        {"sigma": 1e-9, "shifts": [34.0]},      # a compact grid of 1.6e10
    ])
    def test_compact_and_shifts_are_checked_before_filtering(self, params):
        with mock.patch.object(verify, "chi_exact",
                               side_effect=AssertionError("integrated")):
            with pytest.raises((DomainError, ResourceError)):
                verify_filtered(point_window(-64, 256),
                                **{**FLAGS, **params})


# -- the dense scan as a differential reference ------------------------------

def _find_function_witnesses_reference(h, t_shift_candidates, compact, sigma,
                                       tolerance, epsilon0, sample_dt=None,
                                       domain=None):
    """The whole-range search that the blocked scan replaced, kept verbatim
    (apart from inlining the old evaluator) to pin the blocked one to it."""
    if isinstance(h, Trajectory):
        func, (d_lo, d_hi) = h.at, (h.t_start, h.t_end)
    else:
        if domain is None:
            raise DomainError("a callable needs an explicit domain=(lo, hi)")
        func, (d_lo, d_hi) = h, (float(domain[0]), float(domain[1]))
        if not d_lo < d_hi:
            raise DomainError("domain bounds out of order")
    alpha, beta = float(compact[0]), float(compact[1])
    if not alpha < beta:
        raise DomainError("compact interval bounds out of order")
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError("sigma must be finite and positive")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError("tolerance must be finite and nonnegative")
    if not (math.isfinite(epsilon0) and epsilon0 > 0):
        raise DomainError("epsilon0 must be finite and positive")
    shifts = sorted(float(s) for s in t_shift_candidates)
    if not shifts:
        raise DomainError("need at least one shift candidate")
    if shifts[0] <= 0:
        raise DomainError("shift candidates must be positive")
    dt = sigma / 8.0 if sample_dt is None else float(sample_dt)
    if dt > sigma / 8.0 * (1.0 + _EDGE_TOL):
        raise ResolutionError("sample_dt must be at most sigma / 8")
    if alpha < d_lo - _EDGE_TOL * dt or beta + shifts[-1] > d_hi + _EDGE_TOL * dt:
        raise CoverageError(
            f"domain [{d_lo}, {d_hi}] cannot hold "
            f"[{alpha}, {beta + shifts[-1]}]")

    # one master grid, reused for every shift
    m = int(np.floor((d_hi - alpha) / dt + _EDGE_TOL))
    grid = alpha + dt * np.arange(m + 1)
    h_grid = np.asarray(func(grid), dtype=np.float64)
    n_compact = int(np.floor((beta - alpha) / dt + _EDGE_TOL)) + 1
    win = int(round(2.0 * sigma / dt)) + 1

    witnesses = []
    best_overall = 0.0
    any_qualifying = False
    last_u = -np.inf

    for shift in shifts:
        usable = int(np.floor((d_hi - shift - alpha) / dt + _EDGE_TOL)) + 1
        if usable < max(n_compact, win):
            continue
        h_shifted = np.asarray(func(grid[:usable] + shift), dtype=np.float64)
        diff = np.abs(h_shifted - h_grid[:usable])
        compact_err = float(np.max(diff[:n_compact]))
        if compact_err > tolerance:
            continue
        any_qualifying = True
        # sliding minimum of |h(t + shift) - h(t)| over 2*sigma windows
        n_win = usable - win + 1
        mins = diff[:n_win].copy()
        for j in range(1, win):
            np.minimum(mins, diff[j:j + n_win], out=mins)
        centers = grid[:n_win] + sigma
        allowed = centers > last_u
        if not np.any(allowed):
            continue
        idx = np.flatnonzero(allowed)
        best = idx[int(np.argmax(mins[idx]))]
        best_overall = max(best_overall, float(mins[best]))
        if mins[best] >= epsilon0:
            witnesses.append(FunctionWitness(
                t_shift=shift, u_center=float(centers[best]), sigma=sigma,
                max_compact_error=compact_err,
                min_separation_on_interval=float(mins[best])))
            last_u = float(centers[best])

    if witnesses:
        verdict = "consistent"
    elif any_qualifying:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return FunctionVerdict(tuple(witnesses), best_overall, verdict)


def _outcome(search, h, shifts, compact, sigma, tolerance, epsilon0,
             sample_dt, domain):
    try:
        return search(h, shifts, compact, sigma, tolerance, epsilon0,
                      sample_dt=sample_dt, domain=domain)
    except (CoverageError, DomainError, ResolutionError) as exc:
        return type(exc)


@st.composite
def search_cases(draw):
    """A uniform trajectory (or its interpolant as a callable) and a search
    whose grid, window and shifts are drawn in units of the search spacing;
    quantized values make plateaus, so the first-maximum rule is tested."""
    dt = draw(st.floats(0.01, 1.0))
    win = draw(st.integers(17, 41))
    sigma = (win - 1) * dt / 2.0
    n_grid = draw(st.integers(win, 320))
    traj_dt = dt * draw(st.sampled_from([0.5, 1.0, 1.7, 3.0]))
    t0 = draw(st.floats(-20.0, 20.0))
    n = int(n_grid * dt / traj_dt) + 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(0, draw(st.integers(1, 4)), n) * 0.5
    else:
        values = rng.uniform(-1.0, 1.0, n)
    if draw(st.booleans()):
        # a fading envelope puts each best centre early, so that later
        # shifts still find allowed centres and witnesses chain up
        values = values * np.exp(-4.0 * np.arange(n) / n)
    tr = Trajectory(t0 + traj_dt * np.arange(n), values)
    alpha = t0 + dt * draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 5.0))
    beta = alpha + dt * draw(st.floats(0.5, 20.0))
    room = max((tr.t_end - beta) / dt, 1.0)
    # mostly shifts that leave room for a window, some that need more data
    shifts = draw(st.lists(st.floats(0.2, max(room - win, 0.5))
                           | st.floats(0.2, room * 1.05),
                           min_size=1, max_size=5, unique=True))
    h, domain = tr, None
    if draw(st.booleans()):
        times, vals = tr.times.copy(), tr.values.copy()
        h = lambda t: np.interp(t, times, vals)  # noqa: E731
        domain = (tr.t_start, tr.t_end - dt * draw(st.floats(0.0, 3.0)))
    return (h, [s * dt for s in shifts], (alpha, beta), sigma,
            draw(st.sampled_from([0.0, 0.05, 0.5, 1e9, 1e9, 1e9])),
            draw(st.sampled_from([1e-6, 1e-6, 0.05, 0.3, 1.0])),
            draw(st.sampled_from([dt, None])) if win == 17 else dt, domain)


@given(case=search_cases(), block=st.sampled_from([1, 3, 64, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_blocked_search_equals_the_dense_scan(case, block):
    want = _outcome(_find_function_witnesses_reference, *case)
    with mock.patch.object(verify, "_BLOCK", block):
        got = _outcome(find_function_witnesses, *case)
    assert got == want


def test_blocked_search_equals_the_dense_scan_on_the_point(filtered_point):
    tr, result, constants = filtered_point
    # the first L=4 return shifts; 2206, 2610 and 3018 qualify at this
    # tolerance, 2610 must look past u = 161 where 2206 found its witness,
    # and 3018 has no centre left after 2610's at u = 333
    args = (tr, [34.0, 1314.0, 2206.0, 2610.0, 3018.0], (0.0, 4.0),
            constants.kappa_ii / 2.0, 0.01, constants.lower_bound)
    want = _find_function_witnesses_reference(*args)
    assert [w.t_shift for w in want.witnesses] == [2206.0, 2610.0]
    for block in (97, 1 << 16):
        with mock.patch.object(verify, "_BLOCK", block):
            assert find_function_witnesses(*args) == want


@given(x=st.lists(st.integers(0, 3), min_size=1, max_size=200),
       win=st.integers(1, 45))
@settings(max_examples=200, deadline=None)
def test_sliding_min_is_the_windowed_min(x, win):
    x = np.array(x, dtype=float)
    win = min(win, x.size)
    want = [x[i:i + win].min() for i in range(x.size - win + 1)]
    assert _sliding_min(x, win).tolist() == want


# -- the dense eta scan as a differential reference --------------------------

def _find_sequence_witnesses_reference(seq, window_half_width, tolerance,
                                       epsilon0, count):
    """The per-shift whole-window eta scan that the forward scan replaced,
    kept verbatim to pin the forward one to it."""
    L = _base_checks(seq, window_half_width)
    if not (math.isfinite(epsilon0) and epsilon0 > 0):
        raise DomainError("epsilon0 must be finite and positive")
    if int(count) < 1:
        raise DomainError("count must be a positive integer")

    v = seq.symbols
    first = seq.first_index
    last = seq.last_index
    base = seq.segment(-L, L)
    witnesses: list[SequenceWitness] = []
    last_eta = 0
    verdict = "inconclusive"

    for zeta in qualifying_shifts(seq, L, tolerance).tolist():
        eta_lo = max(1, first)
        eta_hi = last - zeta
        if eta_lo > eta_hi:
            continue
        gaps = np.abs(v[eta_lo + zeta - first:eta_hi + zeta - first + 1]
                      - v[eta_lo - first:eta_hi - first + 1])
        cand = np.flatnonzero(gaps >= epsilon0)
        if cand.size == 0:
            if np.array_equal(v[zeta:], v[:len(v) - zeta]):
                verdict = "inconsistent"
                break
            continue
        etas = cand + eta_lo
        pos = int(np.searchsorted(etas, last_eta + 1))
        if pos == len(etas):
            continue
        eta = int(etas[pos])
        err = float(np.max(np.abs(seq.segment(-L + zeta, L + zeta) - base)))
        witnesses.append(SequenceWitness(
            zeta=int(zeta), eta=eta, window=(-L, L),
            max_window_error=err, separation=float(gaps[cand[pos]])))
        last_eta = eta
        if len(witnesses) == count:
            verdict = "consistent"
            break

    achieved = min((w.separation for w in witnesses), default=0.0)
    return SequenceVerdict(tuple(witnesses), achieved, verdict)


def _sequence_outcome(search, *case):
    try:
        return search(*case)
    except (CoverageError, DomainError) as exc:
        return type(exc), str(exc)


ALPHABETS = (BINARY, Alphabet((-1.0, 0.0, 1.0)),
             Alphabet((-0.75, 0.3, 1.6, 2.05)))


@st.composite
def sequence_cases(draw):
    """An exactly periodic window, the same with one symbol flipped, or a
    random one, mostly covering [-L, L], and a search over it."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    values = np.asarray(alphabet.values)
    L = draw(st.integers(1, 4))
    # before = -1, or one symbol less than 2L + 2 + before, leaves no room
    before = draw(st.integers(-1, 40))
    n = 2 * L + 2 + before + draw(st.integers(-1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["periodic", "flipped", "random"]))
    if kind == "random":
        symbols = values[rng.integers(0, values.size, n)]
    else:
        period = draw(st.integers(1, 12))
        symbols = np.resize(values[rng.integers(0, values.size, period)], n)
        if kind == "flipped":
            j = draw(st.integers(0, n - 1))
            other = alphabet.values.index(symbols[j]) + draw(
                st.integers(1, values.size - 1))
            symbols[j] = values[other % values.size]
    seq = SequenceWindow(alphabet, -L - before, symbols)
    return (seq, L, draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
            draw(st.sampled_from([1e-9, alphabet.epsilon0, 0.5, 1.0, 2.0])),
            draw(st.integers(1, 8)))


@given(case=sequence_cases(), block=st.sampled_from([1, 3, 64, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_forward_eta_scan_equals_the_dense_scan(case, block):
    want = _sequence_outcome(_find_sequence_witnesses_reference, *case)
    with mock.patch.object(verify, "_BLOCK", block):
        got = _sequence_outcome(find_sequence_witnesses, *case)
    assert got == want


def test_forward_eta_scan_equals_the_dense_scan_on_the_point():
    seq = point_window(-(1 << 19), 1 << 20)
    want = _find_sequence_witnesses_reference(seq, 4, 0.0, 1.0, 500)
    assert want.verdict == "consistent"
    assert find_sequence_witnesses(seq, 4, 0.0, 1.0, 500) == want
