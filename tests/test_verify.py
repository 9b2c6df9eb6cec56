"""Witness searches on sequences and on filtered trajectories."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unpredictable import (BINARY, Alphabet, BernoulliSpec, CoverageError,
                           DomainError, FilterConfig, ResolutionError,
                           ResourceError, SequenceWindow, StepSignal,
                           Trajectory, chi_exact, filtering,
                           find_function_witnesses, find_sequence_witnesses,
                           metric_distance, orbit_return_distances,
                           point_window, qualifying_shifts, realize,
                           separation_constants, shift, verify,
                           verify_filtered)
from unpredictable.filtering import _Lattice
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
        assert result.witnesses == []
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
        assert result.witnesses == []

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

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3", True])
    @pytest.mark.parametrize("name", ["window_half_width", "count"])
    def test_whole_number_arguments_are_exact(self, point_64k, name, bad):
        # count=2.5 used to pass the check and then scan the whole window;
        # count=True asked for one witness
        args = dict(window_half_width=4, tolerance=0.0, epsilon0=1.0, count=3)
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            find_sequence_witnesses(point_64k, **{**args, name: bad})
        want = find_sequence_witnesses(point_64k, **args)
        assert find_sequence_witnesses(
            point_64k, **{**args, name: np.int64(args[name])}) == want

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

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3"])
    def test_half_width_is_a_whole_number(self, point_64k, bad):
        with pytest.raises(DomainError, match="half_width must be an integer"):
            qualifying_shifts(point_64k, bad, 0.0)
        assert qualifying_shifts(point_64k, np.int64(4), 0.0).tolist() == (
            qualifying_shifts(point_64k, 4, 0.0).tolist())

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

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3"])
    @pytest.mark.parametrize("name", ["half_width", "max_shift"])
    def test_arguments_must_be_whole_numbers(self, name, bad):
        w = binary_window(-40, [1] * 100)
        args = dict(half_width=4, max_shift=8)
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            orbit_return_distances(w, **{**args, name: bad})
        assert orbit_return_distances(
            w, **{**args, name: np.int64(args[name])}) == (
                orbit_return_distances(w, **args))

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


def lattice_dt(mu, sigma):
    """The spacing verify_filtered samples at: mu over whole steps."""
    return mu / math.ceil(8.0 * mu / sigma)


@pytest.fixture(scope="module")
def filtered_point(point_64k):
    """Filter the i* signal (mu = 1) and verify its pinned L=6 return
    shift 3018: the shared basis for the function-level tests."""
    signal = StepSignal(point_64k, 1.0)
    constants = separation_constants(1.0)
    sigma = constants.kappa_ii / 2.0
    cfg = FilterConfig(decay=1.0, step=1.0, sample_dt=lattice_dt(1.0, sigma))
    tr = chi_exact(signal, cfg, -8.0, 3030.0, 0.5)
    result = find_function_witnesses(tr, [3018.0], (0.0, 4.0), sigma,
                                     tolerance=5e-3,
                                     epsilon0=constants.lower_bound)
    return tr, result, constants


def sine_trajectory(t_end, step=0.0):
    """sin t on a lattice that holds 2*pi, plus ``step`` after t = 30."""
    t = (2.0 * math.pi / 8192) * np.arange(int(t_end * 8192 / (2 * math.pi)))
    return Trajectory(t, np.sin(t) + np.where(t > 30.0, step, 0.0))


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

    def test_zero_function_is_inconsistent(self):
        tr = flat_trajectory()
        result = find_function_witnesses(tr, [5.0, 10.0], (0.0, 4.0),
                                         sigma=0.5, tolerance=1e-9,
                                         epsilon0=0.1)
        assert result.verdict == "inconsistent"
        assert result.separation_achieved == 0.0
        assert result.witnesses == []

    def test_periodic_function_is_inconsistent(self):
        tr = sine_trajectory(40.0)
        result = find_function_witnesses(tr, [2.0 * math.pi], (0.0, 4.0),
                                         sigma=0.01, tolerance=1e-6,
                                         epsilon0=0.05)
        assert result.verdict == "inconsistent"
        assert result.separation_achieved < 1e-6

    def test_a_period_broken_below_epsilon0_is_inconclusive(self):
        # 2*pi returns on the compact and never separates by 0.05, but the
        # 0.02 step at t = 30 shows it is no period of the data
        tr = sine_trajectory(60.0, step=0.02)
        result = find_function_witnesses(tr, [2.0 * math.pi], (0.0, 4.0),
                                         sigma=0.05, tolerance=1e-6,
                                         epsilon0=0.05)
        assert result.verdict == "inconclusive"
        assert result.witnesses == []
        assert 0.0 < result.separation_achieved <= 0.02

    def test_nonreturning_shift_is_inconclusive(self):
        tr = sine_trajectory(40.0)
        result = find_function_witnesses(tr, [math.pi / 2.0], (0.0, 4.0),
                                         sigma=0.01, tolerance=1e-6,
                                         epsilon0=0.05)
        assert result.verdict == "inconclusive"

    def test_a_gap_that_changes_sign_is_no_separation(self):
        # |h(t + 1) - h(t)| is 1 at every sample, but its sign flips between
        # neighbours, so the gap passes through 0 in every window
        t = 0.125 * np.arange(400)
        tr = Trajectory(t, np.resize([0.5, 0.5, -0.5, -0.5], t.size))
        result = find_function_witnesses(tr, [0.25], (0.0, 4.0), sigma=1.0,
                                         tolerance=1.0, epsilon0=0.5)
        assert result.separation_achieved == 0.0
        assert result.witnesses == []

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

    def test_resolution_guard(self):
        tr = flat_trajectory(n=201, dt=0.2)
        with pytest.raises(ResolutionError):
            find_function_witnesses(tr, [1.0], (0.0, 4.0), sigma=0.5,
                                    tolerance=1.0, epsilon0=0.1)

    @pytest.mark.parametrize("shift", [0.015, 1.005, 0.004, 1e-12])
    def test_shift_must_be_whole_samples(self, shift):
        with pytest.raises(DomainError, match=f"shift {shift!r} is not"):
            find_function_witnesses(flat_trajectory(), [1.0, shift],
                                    (0.0, 4.0), sigma=0.5, tolerance=1.0,
                                    epsilon0=0.1)

    def test_shifts_stay_whole_far_from_the_origin(self):
        # at t = 1e6 the first gap reads 0.0010000000475, which would put
        # the shift 100 at 99999.995 samples; the mean spacing is exact
        tr = flat_trajectory(n=200001, dt=0.001)
        tr = Trajectory(tr.times + 1e6, tr.values)
        result = find_function_witnesses(tr, [100.0], (1e6, 1e6 + 4.0),
                                         sigma=0.01, tolerance=1.0,
                                         epsilon0=0.1)
        assert result.verdict == "inconsistent"

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
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite and positive"):
                find_function_witnesses(tr, [1.0, bad], (0.0, 4.0),
                                        sigma=0.5, tolerance=1.0,
                                        epsilon0=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["sigma", "tolerance", "epsilon0"])
    def test_non_finite_parameters(self, name, bad):
        params = {"sigma": 0.5, "tolerance": 1.0, "epsilon0": 0.1, name: bad}
        with pytest.raises(DomainError):
            find_function_witnesses(flat_trajectory(), [1.0], (0.0, 4.0),
                                    **params)


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
        assert fixed.epsilon0_requested == c.lower_bound
        assert fixed.parameters["sigma"] == sigma
        assert fixed.parameters["sample_dt"] == 1.0 / 368
        assert 1.0 / 368 <= sigma / 8.0 < 1.0 / 367
        # amp = 2 sup|pi| / lambda: burn-in transient, plus the history
        # beyond the matched half-width when the shifts are derived
        burn = 2.0 * math.exp(-6.0)
        assert fixed.parameters["tolerance"] == pytest.approx(burn)
        assert auto.parameters["tolerance"] == pytest.approx(
            burn + 2.0 * math.exp(-4.0))
        zetas = [w.zeta for w in find_sequence_witnesses(
            seq, 4, 0.0, 1.0, 3).witnesses]
        assert auto.parameters["t_shift_candidates"] == zetas
        assert auto.data_coverage["t_min"] == -6.0
        assert auto.data_coverage["t_max"] == pytest.approx(
            2.0 + zetas[-1] + 4.0 * sigma, abs=sigma / 8.0)

    @pytest.mark.parametrize("mu, burn_in, t_min", [
        (1.0, 6.0, -6.0), (0.5, 6.1001, -6.1025), (0.3, 1.0001, -1.0025),
        (1.0, 0.0, 0.0)])
    def test_the_lattice_holds_every_breakpoint(self, mu, burn_in, t_min):
        sigma = 0.02
        dt = lattice_dt(mu, sigma)
        report = verify_filtered(point_window(-64, 512), mu=mu, decay=1.0,
                                 phi0=0.5, burn_in=burn_in,
                                 compact=(3.0 * mu, 6.0 * mu), sigma=sigma,
                                 shifts=[34.0 * mu], half_width=4,
                                 auto_shifts=1)
        assert report.parameters["sample_dt"] == dt <= sigma / 8.0
        start = report.data_coverage["t_min"]
        assert start == pytest.approx(t_min, abs=1e-12)
        assert start <= -burn_in + 1e-12
        assert mu / dt == pytest.approx(round(mu / dt), abs=1e-9)
        assert -start / dt == pytest.approx(round(-start / dt), abs=1e-9)

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
        {"sigma": math.inf},
        {"burn_in": math.nan, "tolerance": 1e-3},
        {"mu": 1e300, "sigma": 1e-10},    # 8e310 samples a piece
    ])
    def test_parameters_are_checked_before_filtering(self, params):
        with mock.patch.object(filtering, "_chain",
                               side_effect=AssertionError("integrated")):
            with pytest.raises((DomainError, ResolutionError)):
                verify_filtered(point_window(-64, 256), shifts=[34.0],
                                **{**FLAGS, **params})

    @pytest.mark.parametrize("params", [
        {"burn_in": -1000.0},    # e^(-decay * burn_in) overflowed
        {"burn_in": -2.0},       # a derived tolerance above 2 sup|pi| / decay
        {"burn_in": -2.0, "tolerance": 1e-3, "shifts": [34.0]},
        {"burn_in": -math.inf, "tolerance": 1e-3},
    ])
    def test_a_negative_burn_in_is_a_domain_error(self, params):
        with mock.patch.object(filtering, "_chain",
                               side_effect=AssertionError("integrated")):
            with pytest.raises(DomainError, match="burn_in must be finite "
                                                  "and nonnegative"):
                verify_filtered(point_window(-64, 256),
                                **{**FLAGS, **params})

    @pytest.mark.parametrize("phi0", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_phi0_is_a_domain_error(self, phi0):
        with pytest.raises(DomainError, match="phi0 must be finite"):
            verify_filtered(point_window(-64, 256),
                            **{**FLAGS, "phi0": phi0})

    @pytest.mark.parametrize("params", [
        {"compact": (2.0, 0.0), "shifts": [34.0]},
        {"shifts": []},
        {"shifts": [-5.0]},
        {"sigma": 1e-9, "shifts": [34.0]},      # a span of 3.6e11 samples
        {"shifts": [34.001]},                   # 12512.368 samples of 1/368
    ])
    def test_compact_and_shifts_are_checked_before_filtering(self, params):
        with mock.patch.object(filtering, "_chain",
                               side_effect=AssertionError("integrated")):
            with pytest.raises((DomainError, ResourceError)):
                verify_filtered(point_window(-64, 256),
                                **{**FLAGS, **params})


def test_compact_error_is_the_breakpoint_sup(point_64k):
    # the gap is monotone between breakpoints, so its sup over [0, 4] is its
    # largest value at the breakpoints 0..4, read here from a dt = mu run
    report = verify_filtered(point_64k, mu=1.0, decay=1.0, phi0=0.5,
                             burn_in=8.0, compact=(0.0, 4.0), half_width=4,
                             auto_shifts=30)
    p, span = report.parameters, report.data_coverage
    shifts = p["t_shift_candidates"]
    assert len(shifts) == 30
    signal = StepSignal(point_64k, 1.0)
    chain = chi_exact(signal, FilterConfig(decay=1.0, step=1.0,
                                           sample_dt=1.0),
                      -8.0, 4.0 + shifts[-1], 0.5).values
    lattice = chi_exact(signal, FilterConfig(decay=1.0, step=1.0,
                                             sample_dt=p["sample_dt"]),
                        span["t_min"], span["t_max"], 0.5)
    reported = {w.t_shift: w.max_compact_error for w in report.witnesses}
    assert len(reported) == 29
    for T in shifts:
        k = 8 + int(T)
        want = float(np.max(np.abs(chain[k:k + 5] - chain[8:13])))
        # at tolerance 1 every shift qualifies, and some window separates
        w, = find_function_witnesses(lattice, [T], (0.0, 4.0), p["sigma"],
                                     1.0, 1e-300).witnesses
        assert w.max_compact_error == pytest.approx(want, rel=0, abs=4e-16)
        assert reported.get(T, want) == w.max_compact_error


def _compact_error(tr, T, compact):
    """max |h(t + T) - h(t)| over the samples of the compact, by index."""
    dt = tr.sample_dt
    lo = round((compact[0] - tr.t_start) / dt)
    hi = round((compact[1] - tr.t_start) / dt)
    s = round(T / dt)
    v = tr.values
    return float(np.max(np.abs(v[lo + s:hi + s + 1] - v[lo:hi + 1])))


@given(seed=st.integers(0, 2**32 - 1), mu=st.sampled_from([0.25, 0.3, 1.0]),
       decay=st.floats(0.2, 3.0), per_piece=st.integers(1, 6),
       zeta=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_the_lattice_sup_is_never_below_a_finer_lattice(seed, mu, decay,
                                                        per_piece, zeta):
    rng = np.random.default_rng(seed)
    seq = SequenceWindow(Alphabet((-1.0, 0.0, 1.0)), -20,
                         rng.choice([-1.0, 0.0, 1.0], 80))
    signal = StepSignal(seq, mu)
    compact = (0.0, 3.0 * mu)
    T = zeta * mu
    phi0 = float(rng.uniform(-1.0, 1.0))
    sups = []
    for dt in (mu / per_piece, mu / (10 * per_piece)):
        tr = chi_exact(signal, FilterConfig(decay=decay, step=mu,
                                            sample_dt=dt),
                       -5.0 * mu, compact[1] + T, phi0)
        sups.append(_compact_error(tr, T, compact))
    coarse, fine = sups
    assert coarse >= fine - 1e-12


# -- the dense scan as a differential reference ------------------------------

def _find_function_witnesses_reference(h, t_shift_candidates, compact, sigma,
                                       tolerance, epsilon0):
    """Every window minimum of a shift at once, then the first that reaches
    epsilon0 after the previous witness's centre, reading the samples by
    index, to pin the blocked forward scan to it.  Only for exactly
    representable (dyadic) times, shifts and compact bounds."""
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
    t, v = h.times, h.values
    dt = t[1] - t[0]
    if dt > sigma / 8.0:
        raise ResolutionError("sample spacing exceeds sigma / 8")
    if any(s % dt for s in shifts):
        raise DomainError("shift is not a whole number of samples")
    if alpha < t[0] or beta + shifts[-1] > t[-1]:
        raise CoverageError("trajectory cannot hold the compact and shifts")

    a0 = int(np.flatnonzero(t <= alpha)[-1])
    b0 = int(np.flatnonzero(t >= beta)[0])
    m = math.ceil(2.0 * sigma / dt)

    witnesses = []
    best_overall = 0.0
    periodic = False
    last_u = -np.inf

    for shift in shifts:
        s = int(shift / dt)
        g = v[s:] - v[:v.size - s]
        n_win = g.size - m - a0      # windows from a0 with a partner
        if n_win < 1:
            continue
        compact_err = float(np.max(np.abs(g[a0:b0 + 1])))
        if compact_err > tolerance:
            continue
        # the window minimum of |g|, 0 where the window holds both signs
        lo = g[a0:a0 + n_win].copy()
        hi = lo.copy()
        for j in range(1, m + 1):
            np.minimum(lo, g[a0 + j:a0 + j + n_win], out=lo)
            np.maximum(hi, g[a0 + j:a0 + j + n_win], out=hi)
        mins = np.where(lo > 0, lo, np.where(hi < 0, -hi, 0.0))
        centers = t[a0:a0 + n_win] + sigma
        allowed = np.flatnonzero(centers > last_u)
        if not allowed.size:
            continue
        hits = allowed[mins[allowed] >= epsilon0]
        if hits.size:
            first = hits[0]
            best_overall = max(best_overall, float(mins[first]))
            witnesses.append(FunctionWitness(
                t_shift=shift, u_center=float(centers[first]), sigma=sigma,
                max_compact_error=compact_err,
                min_separation_on_interval=float(mins[first])))
            last_u = float(centers[first])
        else:
            best_overall = max(best_overall, float(np.max(mins[allowed])))
            if not witnesses:
                periodic = periodic or float(np.max(np.abs(g))) <= tolerance

    if witnesses:
        verdict = "consistent"
    elif periodic:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return FunctionVerdict(
        verdict=verdict, epsilon0_requested=epsilon0,
        separation_achieved=best_overall,
        separation_predicted_lower_bound=None, witnesses=witnesses,
        data_coverage={"t_min": float(t[0]), "t_max": float(t[-1])},
        parameters={"compact": [alpha, beta], "sigma": sigma,
                    "sample_dt": float(dt), "tolerance": tolerance,
                    "t_shift_candidates": [float(s)
                                           for s in t_shift_candidates]})


def _outcome(search, *case):
    try:
        return search(*case)
    except (CoverageError, DomainError, ResolutionError) as exc:
        return type(exc)


@st.composite
def search_cases(draw):
    """A trajectory on a dyadic lattice and a search whose compact, window
    and shifts are drawn in units of its spacing, so every time involved
    is exact; random walks give windows that separate, quantized walks
    make plateaus, so ties at epsilon0 are tested, and periodic values test
    the inconsistent verdict."""
    dt = 2.0 ** -draw(st.integers(0, 6))
    m = draw(st.integers(16, 40))
    sigma = m * dt / 2.0 - draw(st.sampled_from([0.0, dt / 4]))
    n = draw(st.integers(m + 1, 320))
    t0 = dt * draw(st.integers(-200, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "levels", "uniform", "periodic"]))
    # a random walk keeps the sign of its gaps over long runs
    walk = np.cumsum(rng.uniform(-1.0, 1.0, n)) * 0.3
    if kind == "walk":
        values = walk
    elif kind == "levels":
        values = np.round(walk * 2.0) * 0.5
    elif kind == "uniform":
        values = rng.uniform(-1.0, 1.0, n)
    else:
        values = np.resize(rng.uniform(-1.0, 1.0, draw(st.integers(1, 9))),
                           n)
    if draw(st.booleans()):
        # a fading envelope puts the separating centres early, so that
        # some shifts find none after the previous witness's and read
        # every allowed window
        values = values * np.exp(-4.0 * np.arange(n) / n)
    tr = Trajectory(t0 + dt * np.arange(n), values)
    a0 = draw(st.integers(0, 40))
    alpha = t0 + dt * (a0 + draw(st.sampled_from([0.0, 0.5])))
    beta = alpha + dt * draw(st.sampled_from([0.5, 1.0, 3.0, 12.0, 20.0]))
    room = max(n - a0 - 21, 2)
    # mostly shifts that leave room for a window, some that need more data
    shifts = draw(st.lists(st.integers(1, max(room - m, 1))
                           | st.integers(1, room + 25),
                           min_size=1, max_size=5, unique=True))
    if draw(st.integers(1, 10)) == 10:
        shifts.append(draw(st.sampled_from([0.5, 1.25])))   # off the lattice
    return (tr, [s * dt for s in shifts], (alpha, beta), sigma,
            draw(st.sampled_from([0.0, 0.05, 0.5, 1e9, 1e9, 1e9])),
            draw(st.sampled_from([1e-6, 1e-6, 0.05, 0.3, 1.0])))


@given(case=search_cases(), block=st.sampled_from([1, 3, 64, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_blocked_search_equals_the_dense_scan(case, block):
    want = _outcome(_find_function_witnesses_reference, *case)
    with mock.patch.multiple(verify, _ETAS0=block, _BLOCK=block):
        got = _outcome(find_function_witnesses, *case)
    assert got == want


def test_blocked_search_equals_the_dense_scan_on_the_point(point_64k):
    # the filtered i* signal on the dyadic lattice of spacing 2**-9
    tr = chi_exact(StepSignal(point_64k, 1.0),
                   FilterConfig(decay=1.0, step=1.0, sample_dt=2.0 ** -9),
                   -8.0, 3030.0, 0.5)
    constants = separation_constants(1.0)
    # the first L=4 return shifts; 2206, 2610 and 3018 qualify at this
    # tolerance, 2610 must take a centre past 2206's at u = 5.065, and
    # 3018 one past 2610's at u = 5.067
    args = (tr, [34.0, 1314.0, 2206.0, 2610.0, 3018.0], (0.0, 4.0),
            constants.kappa_ii / 2.0, 0.01, constants.lower_bound)
    want = _find_function_witnesses_reference(*args)
    assert [w.t_shift for w in want.witnesses] == [2206.0, 2610.0, 3018.0]
    for etas0, block in ((1, 1), (3, 3), (64, 64), (64, 97),
                         (verify._ETAS0, verify._BLOCK), (1 << 16, 1 << 16)):
        with mock.patch.multiple(verify, _ETAS0=etas0, _BLOCK=block):
            assert find_function_witnesses(*args) == want


@st.composite
def extended_cases(draw):
    """A random walk on a dyadic lattice, a search over it, and samples to
    add at its end: random ones, or a ramp on which every shift separates,
    so that a shift without a witness before may take one there."""
    dt = 2.0 ** -draw(st.integers(0, 4))
    m = draw(st.integers(16, 24))
    n = draw(st.integers(3 * m, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tr = Trajectory(dt * np.arange(n),
                    np.cumsum(rng.uniform(-1.0, 1.0, n)) * 0.3)
    shifts = draw(st.lists(st.integers(1, n - m - 2), min_size=1, max_size=4,
                           unique=True))
    k = draw(st.integers(1, 80))
    extra = (tr.values[-1] + np.cumsum(rng.uniform(0.1, 0.5, k))
             if draw(st.booleans()) else rng.uniform(-3.0, 3.0, k))
    search = ([s * dt for s in shifts], (0.0, dt), m * dt / 2.0, 1e9,
              draw(st.sampled_from([1e-3, 0.05, 0.3])))
    return tr, search, extra


@given(case=extended_cases())
@settings(max_examples=200, deadline=None)
def test_added_data_keeps_a_consistent_verdict(case):
    tr, search, extra = case
    want = find_function_witnesses(tr, *search)
    assume(want.verdict == "consistent")
    n, dt, sigma = len(tr), tr.sample_dt, search[2]
    longer = Trajectory(dt * np.arange(n + extra.size),
                        np.concatenate((tr.values, extra)))
    got = find_function_witnesses(longer, *search)
    assert got.verdict == "consistent"
    first = got.witnesses[0]
    if first != want.witnesses[0]:
        # only a shift taken before, on a window that reads added samples
        assert first.t_shift < want.witnesses[0].t_shift
        j = round((first.u_center - sigma) / dt)
        assert j + round(first.t_shift / dt) + math.ceil(2 * sigma / dt) >= n


def test_added_data_keeps_every_witness(point_64k):
    # the report's span ends at compact[1] + max shift + 4 sigma; the same
    # search over the whole coverage keeps its 29 witnesses and adds one
    report = verify_filtered(point_64k, mu=1.0, decay=1.0, phi0=0.5,
                             burn_in=8.0, compact=(0.0, 4.0), half_width=4,
                             auto_shifts=30)
    p, span = report.parameters, report.data_coverage
    signal = StepSignal(point_64k, 1.0)
    cfg = FilterConfig(decay=1.0, step=1.0, sample_dt=p["sample_dt"])
    search = (p["t_shift_candidates"], (0.0, 4.0), p["sigma"],
              p["tolerance"], report.epsilon0_requested)
    short, whole = (
        verify._scan(_Lattice(signal, cfg, span["t_min"], t_end, 0.5),
                     *search)
        for t_end in (span["t_max"], signal.t_max))
    assert short.witnesses == report.witnesses
    assert short.verdict == report.verdict == whole.verdict == "consistent"
    assert len(short.witnesses) == 29 and len(whole.witnesses) == 30
    assert whole.witnesses[:29] == short.witnesses


@st.composite
def lattice_cases(draw):
    """A filtered step signal over 2-5 symbols on a dyadic lattice, read on
    demand and as chi_exact's trajectory, and a search over it whose
    compact, window and shifts are drawn in units of the spacing."""
    values = draw(st.lists(st.floats(-4.0, 4.0, width=16), min_size=2,
                           max_size=5, unique=True))
    first = draw(st.integers(-40, 0))
    symbols = draw(st.lists(st.sampled_from(values), min_size=24,
                            max_size=160))
    mu = 2.0 ** -draw(st.integers(0, 2))
    dt = mu * 2.0 ** -draw(st.integers(0, 4))
    signal = StepSignal(SequenceWindow(Alphabet(tuple(values)), first,
                                       np.array(symbols)), mu)
    cfg = FilterConfig(decay=draw(st.floats(0.05, 4.0)), step=mu,
                       sample_dt=dt)
    t_start = first * mu + dt * draw(st.integers(0, 8))
    n = round((signal.t_max - t_start) / dt) + 1 - draw(st.integers(0, 8))
    assume(n > 40)
    t_end = t_start + dt * (n - 1)
    lattice = _Lattice(signal, cfg, t_start, t_end, draw(st.floats(-2, 2)))
    m = draw(st.integers(16, 40))
    sigma = m * dt / 2.0 - draw(st.sampled_from([0.0, dt / 4]))
    a0 = draw(st.integers(0, 20))
    alpha = t_start + dt * (a0 + draw(st.sampled_from([0.0, 0.5])))
    beta = alpha + dt * draw(st.sampled_from([0.5, 1.0, 3.0, 12.0]))
    room = max(n - a0 - 13 - m, 1)
    shifts = draw(st.lists(st.integers(1, room) | st.integers(1, n),
                           min_size=1, max_size=5, unique=True))
    search = ([s * dt for s in shifts], (alpha, beta), sigma,
              draw(st.sampled_from([0.0, 0.05, 0.5, 1e9, 1e9])),
              draw(st.sampled_from([1e-6, 0.05, 0.3, 1.0])))
    return lattice, chi_exact(signal, cfg, t_start, t_end,
                              lattice.chis[0]), search


@given(case=lattice_cases(), block=st.sampled_from([1, 3, 64, 1 << 16]))
@settings(max_examples=200, deadline=None)
def test_lattice_search_equals_the_dense_scan(case, block):
    lattice, trajectory, search = case
    want = _outcome(_find_function_witnesses_reference, trajectory, *search)
    with mock.patch.multiple(verify, _ETAS0=block, _BLOCK=block):
        assert _outcome(verify._scan, lattice, *search) == want
        assert _outcome(find_function_witnesses, trajectory, *search) == want


def _verify_filtered_reference(seq, report):
    """The composition verify_filtered replaced: chi_exact over the whole
    span, then the dense search, on the parameters the report derived."""
    p = report.parameters
    dt = p["sample_dt"]
    shifts = p["t_shift_candidates"]
    tr = chi_exact(StepSignal(seq, p["mu"]),
                   FilterConfig(decay=p["decay"], step=p["mu"], sample_dt=dt),
                   -dt * math.ceil(p["burn_in"] / dt),
                   p["compact"][1] + max(shifts) + 4.0 * p["sigma"], p["phi0"])
    result = _find_function_witnesses_reference(
        tr, shifts, tuple(p["compact"]), p["sigma"], p["tolerance"],
        report.epsilon0_requested)
    return tr, result


@st.composite
def filtered_cases(draw, short=False):
    """An i* window with derived shifts; a Bernoulli drive over 2-5 symbols
    with explicit shifts that all qualify; or a periodic drive whose
    shifts are periods, which nothing separates.  sigma = 1/32 keeps the
    lattice dyadic at every mu.  ``short`` draws about 300 symbols of i*,
    or drives of 128 symbols shifted by at most 40 pieces, for blocks of
    one sample, which evaluate the lattice once per sample."""
    mu = draw(st.sampled_from([0.25, 0.5, 1.0]))
    kind = draw(st.sampled_from(["point", "bernoulli", "periodic"]))
    flags = dict(mu=mu, decay=draw(st.sampled_from([0.5, 1.0, 2.0])),
                 phi0=draw(st.floats(-1.0, 1.0)),
                 burn_in=draw(st.sampled_from([2.0, 6.0, 8.0])),
                 compact=(0.0, 2.0 * mu), sigma=1.0 / 32, half_width=4,
                 auto_shifts=draw(st.integers(1, 3)))
    if kind == "point":
        before = draw(st.integers(64, 100 if short else 600))
        after = st.integers(200, 250) if short else st.integers(512, 2048)
        return point_window(-before, before + draw(after)), flags
    # symbols, largest shift, most periods in a shift
    n, most, periods = (128, 40, 6) if short else (600, 500, 80)
    if kind == "bernoulli":
        k = draw(st.integers(2, 5))
        alphabet = Alphabet(tuple(float(v) for v in range(-1, k - 1)))
        drive = realize(BernoulliSpec(alphabet, (1.0 / k,) * k,
                                      draw(st.integers(0, 2**32 - 1)), n))
        seq = SequenceWindow(alphabet, -64, drive.symbols)
        epsilon0 = draw(st.sampled_from([1e-3, 0.05]))
        ks = draw(st.lists(st.integers(1, most), min_size=1, max_size=4))
    else:
        period = draw(st.integers(1, 6))
        pattern = draw(st.lists(st.sampled_from([0.0, 1.0]),
                                min_size=period, max_size=period))
        seq = SequenceWindow(BINARY, -64, np.resize(pattern, n))
        epsilon0 = 2.0
        ks = [period * j for j in draw(st.lists(st.integers(1, periods),
                                                min_size=1, max_size=4))]
    return seq, {**flags, "shifts": [z * mu for z in ks], "tolerance": 10.0,
                 "epsilon0": epsilon0}


@st.composite
def sized_filtered_cases(draw):
    """A block size for the scans and a case that is short at size 1."""
    block = draw(st.sampled_from([1, 3, 64, 1 << 16]))
    return draw(filtered_cases(short=block == 1)), block


@given(sized=sized_filtered_cases())
@settings(max_examples=60, deadline=None)
def test_verify_filtered_equals_chi_exact_and_the_dense_scan(sized):
    (seq, flags), block = sized
    with mock.patch.multiple(verify, _ETAS0=block, _BLOCK=block):
        report = verify_filtered(seq, **flags)
    tr, want = _verify_filtered_reference(seq, report)
    assert report.data_coverage == {"t_min": tr.t_start, "t_max": tr.t_end}
    assert report.data_coverage == want.data_coverage
    assert report.verdict == want.verdict
    assert report.separation_achieved == want.separation_achieved
    assert report.witnesses == want.witnesses
    if "shifts" in flags and flags["epsilon0"] == 2.0:
        assert report.verdict == "inconsistent"


def test_verify_fn_memory_is_bounded_by_the_unit():
    # the filtered span of this run holds 5.6e6 samples: 90 MB as arrays
    code = ("import resource\n"
            "from unpredictable import point_window, verify_filtered\n"
            "seq = point_window(-(1 << 15), 1 << 16)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "report = verify_filtered(seq, mu=1.0, decay=1.0, phi0=0.5,\n"
            "    burn_in=8.0, compact=(0.0, 4.0), half_width=4,\n"
            "    auto_shifts=30)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(report.verdict, (after - before) * 1024)\n")
    src = Path(verify.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    verdict, growth = out.stdout.split()
    assert verdict == "consistent"
    assert int(growth) < 40 << 20


@given(x=st.lists(st.integers(0, 3), min_size=1, max_size=200),
       win=st.integers(1, 45))
@settings(max_examples=200, deadline=None)
def test_sliding_min_is_the_windowed_min(x, win):
    x = np.array(x, dtype=float)
    win = min(win, x.size)
    want = [x[i:i + win].min() for i in range(x.size - win + 1)]
    assert _sliding_min(x, win).tolist() == want


# -- the dense eta scan as a differential reference --------------------------

def _qualifying_shifts_reference(seq, half_width, tolerance):
    """The whole-window shift scan that the on-demand blocks replaced, kept
    verbatim so the reference below shares no scan with the search."""
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
    for lo in range(0, windows.shape[0], 1 << 16):
        block = windows[lo:lo + (1 << 16)]
        err = np.max(np.abs(block - base), axis=1)
        hits.append(np.flatnonzero(err <= tolerance) + lo)
    pos = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    return pos + 1


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

    for zeta in _qualifying_shifts_reference(seq, L, tolerance).tolist():
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
            zeta=int(zeta), eta=eta, window=[-L, L],
            max_window_error=err, separation=float(gaps[cand[pos]])))
        last_eta = eta
        if len(witnesses) == count:
            verdict = "consistent"
            break

    achieved = min((w.separation for w in witnesses), default=0.0)
    return SequenceVerdict(
        verdict=verdict, epsilon0_requested=epsilon0,
        epsilon0_achieved=achieved, witnesses=witnesses,
        data_coverage={"first_index": first, "last_index": last},
        parameters={"window_half_width": L, "tolerance": tolerance,
                    "count": int(count)})


def _sequence_outcome(search, *case):
    try:
        return search(*case)
    except (CoverageError, DomainError) as exc:
        return type(exc), str(exc)


ALPHABETS = (BINARY, Alphabet((-1.0, 0.0, 1.0)),
             Alphabet((-0.75, 0.3, 1.6, 2.05)))


@st.composite
def sequence_cases(draw, short=False):
    """An exactly periodic window, the same with one symbol flipped, or a
    random one, mostly covering [-L, L], and a search over it.  A late flip
    puts the first separating index, and a late copy of a flip at index 0
    the first qualifying shift, past several doubled blocks.  ``short``
    keeps the late cases under about 300 symbols, for blocks of one index,
    which cross a block edge at every index anyway."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    values = np.asarray(alphabet.values)
    L = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["periodic", "flipped", "random",
                                 "late flip", "late copy"]))
    late = kind.startswith("late")
    # before = -1, or one symbol less than 2L + 2 + before, leaves no room
    before = draw(st.integers(-1, 40))
    reach = 100 if short else 300    # the least offset of a late copy
    extra = st.integers(200, 250) if short else st.integers(600, 1500)
    n = 2 * L + 2 + before + draw(extra if late else st.integers(-1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def flip(j):
        other = alphabet.values.index(symbols[j]) + draw(
            st.integers(1, values.size - 1))
        symbols[j] = values[other % values.size]

    if kind == "random":
        symbols = values[rng.integers(0, values.size, n)]
    else:
        period = draw(st.integers(1, 12))
        symbols = np.resize(values[rng.integers(0, values.size, period)], n)
        if kind == "flipped":
            flip(draw(st.integers(0, n - 1)))
        elif kind == "late flip":
            flip(draw(st.integers(n // 2, n - 1)))
        elif kind == "late copy":
            zero = L + before    # array offset of index 0
            copy = zero + period * draw(st.integers(reach // period,
                                                    (n - zero - L) // period))
            assume(copy + L < n)
            flip(zero)
            symbols[copy] = symbols[zero]
    seq = SequenceWindow(alphabet, -L - before, symbols)
    return (seq, L, draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
            draw(st.sampled_from([1e-9, alphabet.epsilon0, 0.5, 1.0, 2.0])),
            draw(st.integers(1, 8)))


@st.composite
def sized_sequence_cases(draw):
    """Block sizes for the shift scan, the eta scan and the cap, and a case
    that is short when any of them is 1."""
    sizes = draw(st.tuples(*[st.sampled_from([1, 3, 64, 1 << 16])] * 3))
    return draw(sequence_cases(short=1 in sizes)), sizes


@given(sized=sized_sequence_cases())
@settings(max_examples=400, deadline=None)
def test_forward_eta_scan_equals_the_dense_scan(sized):
    case, sizes = sized
    want = _sequence_outcome(_find_sequence_witnesses_reference, *case)
    shifts0, etas0, block = sizes
    with mock.patch.multiple(verify, _SHIFTS0=shifts0, _ETAS0=etas0,
                             _BLOCK=block):
        got = _sequence_outcome(find_sequence_witnesses, *case)
        shifts = _sequence_outcome(qualifying_shifts, *case[:3])
    assert got == want
    want_shifts = _sequence_outcome(_qualifying_shifts_reference, *case[:3])
    if isinstance(want_shifts, np.ndarray):
        assert shifts.dtype == want_shifts.dtype
        assert shifts.tolist() == want_shifts.tolist()
    else:
        assert shifts == want_shifts


def test_forward_eta_scan_equals_the_dense_scan_on_the_point():
    seq = point_window(-(1 << 19), 1 << 20)
    want = _find_sequence_witnesses_reference(seq, 4, 0.0, 1.0, 500)
    assert want.verdict == "consistent"
    assert find_sequence_witnesses(seq, 4, 0.0, 1.0, 500) == want


def test_the_search_reads_the_windows_its_answer_needs():
    # the benchmark's window: the 500th witness is at a quarter of it
    seq = point_window(-(1 << 19), 1 << 20)
    read = []
    blocks = verify._blocks

    def recording(lo, hi, size):
        for a, b in blocks(lo, hi, size):
            if size == verify._SHIFTS0:
                read.append(b - lo)
            yield a, b

    with mock.patch.object(verify, "_blocks", recording):
        result = find_sequence_witnesses(seq, 4, 0.0, 1.0, 500)
    assert result.verdict == "consistent"
    last = result.witnesses[-1].zeta
    assert last <= read[-1] < 2 * last < len(seq) // 2
