"""Witness searches on sequences and on filtered trajectories."""

import math
from fractions import Fraction

import numpy as np
import pytest

from unpredictable import (BINARY, BernoulliSpec, CoverageError, DomainError,
                           FilterConfig, ResolutionError, SequenceWindow,
                           StepSignal, Trajectory, chi_exact,
                           find_function_witnesses, find_sequence_witnesses,
                           orbit_return_distances, point_window,
                           qualifying_shifts, realize, separation_constants,
                           verify_filtered)


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
