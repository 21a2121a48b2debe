"""Sharp-restart synthesis: pmf under reset, mean detection time, reset survival."""

import numpy as np
import pytest

from qreset import (
    LatticeSpec,
    ModelKind,
    NeverDetectedError,
    build_hamiltonian,
    measured_evolution,
    mfdt,
    nh_survival_series,
    propagator,
    reset_survival,
)

from conftest import build_reset_heff, mfdt_direct, restart_pmf, series_from_pmf


TWO_SITE = LatticeSpec(L=2, detector_index=2, initial_index=1)


def geometric_series(q_step, n):
    """Detection series for a memoryless single-step detector."""
    p = (1.0 - q_step) ** np.arange(n) * q_step
    return series_from_pmf(1.0, p)


class TestRestartPmf:
    def test_window_equal_to_horizon_is_identity(self):
        base = measured_evolution(TWO_SITE, 0.4, 12, bulk_guard=False)
        restarted = restart_pmf(base, 12, 12)
        assert np.max(np.abs(restarted - base.p)) < 1e-15

    def test_certain_first_step_collapses_to_delta(self):
        base = measured_evolution(TWO_SITE, np.pi / 2, 6, bulk_guard=False)
        restarted = restart_pmf(base, 1, 6)
        assert abs(restarted[0] - 1.0) < 1e-12
        assert np.max(np.abs(restarted[1:])) < 1e-12

    def test_single_step_window_is_geometric(self):
        base = series_from_pmf(1.0, np.array([0.3, 0.0, 0.0, 0.0, 0.0]))
        restarted = restart_pmf(base, 1, 5)
        expected = 0.7 ** np.arange(5) * 0.3
        assert np.max(np.abs(restarted - expected)) < 1e-14

    def test_window_beyond_base_rejected(self):
        base = measured_evolution(TWO_SITE, 0.4, 5, bulk_guard=False)
        with pytest.raises(ValueError):
            restart_pmf(base, 6, 5)
        with pytest.raises(ValueError):
            restart_pmf(base, 0, 5)

    def test_mass_bookkeeping_under_reset(self):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        base = measured_evolution(spec, 0.7, 35, bulk_guard=False)
        r = 7
        for k in range(1, 6):
            pmf = restart_pmf(base, r, k * r)
            q = base.P[r - 1]
            assert abs(np.sum(pmf) + q**k - 1.0) <= 1e-12


class TestMeanDetectionTime:
    def test_certain_first_step(self):
        base = measured_evolution(TWO_SITE, np.pi / 2, 4, bulk_guard=False)
        assert abs(mfdt(base, 1) - np.pi / 2) < 1e-12

    def test_geometric_detector(self):
        tau = 1.0
        base = geometric_series(0.25, 40)
        # Memoryless chain: restart is invisible, mean stays tau / q.
        for r in (1, 3, 5):
            assert abs(mfdt(base, r) - tau / 0.25) < 1e-12

    def test_undetectable_window_raises(self):
        base = series_from_pmf(1.0, np.array([0.0, 0.0]))
        with pytest.raises(NeverDetectedError):
            mfdt(base, 2)

    def test_direct_summation_halving_case(self):
        base = series_from_pmf(1.0, np.array([0.5]))
        # q = 1/2 each window, window length 1: mean = sum k / 2^k = 2.
        assert abs(mfdt_direct(base, 1, 1.0, k_windows=60) - 2.0) < 1e-12

    def test_direct_matches_closed_form_midsize(self):
        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        base = measured_evolution(spec, 0.5, 60, bulk_guard=False)
        closed = mfdt(base, 10)
        direct = mfdt_direct(base, 10, 0.5, k_windows=400)
        assert abs(direct - closed) / closed < 1e-10


class TestResetSurvival:
    def test_first_window_matches_base(self):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        base = measured_evolution(spec, 0.7, 30, bulk_guard=False)
        traj = reset_survival(base, 6, 30)
        assert np.max(np.abs(traj[:6] - base.P[:6])) < 1e-15

    def test_window_boundaries_are_powers_of_q(self):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        base = measured_evolution(spec, 0.7, 40, bulk_guard=False)
        r = 8
        traj = reset_survival(base, r, 40)
        q = base.P[r - 1]
        for k in (1, 2, 3, 4, 5):
            assert abs(traj[k * r - 1] - q**k) < 1e-12

    def test_window_factorization_identity(self):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        base = measured_evolution(spec, 0.7, 40, bulk_guard=False)
        r = 7
        traj = reset_survival(base, r, 35)
        q = base.P[r - 1]
        rng = np.random.default_rng(3)
        for n in rng.integers(1, 36, size=12):
            windows, offset = divmod(n - 1, r)
            expected = base.P[offset] * q**windows
            assert abs(traj[n - 1] - expected) < 1e-14

    def test_restart_forces_detection(self):
        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        base = measured_evolution(spec, 0.5, 20, bulk_guard=False)
        r = 20
        q = base.P[r - 1]
        alpha = -np.log(q)
        k = int(np.ceil(3 * np.log(10) / alpha))
        traj = reset_survival(base, r, k * r)
        assert traj[-1] < 1e-3

    def test_geometric_base_gives_pure_exponential(self):
        base = geometric_series(0.2, 30)
        traj = reset_survival(base, 5, 30)
        expected = 0.8 ** np.arange(1, 31)
        assert np.max(np.abs(traj - expected)) < 1e-12

    def test_horizon_beyond_synthesis_rejected(self):
        base = geometric_series(0.2, 10)
        with pytest.raises(ValueError):
            reset_survival(base, 3, 0)


class TestEffectiveTheoryUnderRestart:
    @pytest.mark.parametrize("t_r", [2.5, 5.0, 10.0])
    def test_model2_base_decays_at_its_own_rate(self, t_r):
        # Self-consistency: the restarted trajectory built FROM the
        # strong-absorber series must decay at exp(-alpha) per window,
        # where alpha is that same series' own window survival.
        spec = LatticeSpec(L=500, detector_index=260, initial_index=250)
        tau = 0.25
        r = int(round(t_r / tau))
        base = nh_survival_series(spec, ModelKind.MODEL2, tau, r)
        q = base.P[r - 1]
        alpha = -np.log(q)
        k_max = 8
        traj = reset_survival(base, r, k_max * r)
        boundary = traj[r - 1 :: r]
        expected = np.exp(-alpha * np.arange(1, k_max + 1))
        assert np.max(np.abs(boundary / expected - 1.0)) < 0.05


class TestResetGenerator:
    def test_zero_rate_or_zero_windows_is_identity(self):
        h = build_hamiltonian(TWO_SITE, ModelKind.MODEL2, 0.5)
        assert np.array_equal(build_reset_heff(h, 0.0, 4, 2.0), h.astype(np.complex128))
        assert np.array_equal(build_reset_heff(h, 0.3, 0, 2.0), h.astype(np.complex128))

    def test_invalid_args(self):
        h = build_hamiltonian(TWO_SITE, ModelKind.MODEL2, 0.5)
        with pytest.raises(ValueError):
            build_reset_heff(h, 0.3, 2, 0.0)
        with pytest.raises(ValueError):
            build_reset_heff(h, 0.3, 2, -1.0)
        with pytest.raises(ValueError):
            build_reset_heff(np.zeros((2, 3)), 0.3, 2, 1.0)

    def test_uniform_damping_factorizes(self):
        # Adding -i R alpha / (2 t) on the diagonal multiplies the
        # t-propagator by exp(-alpha R / 2), i.e. survival by exp(-alpha R).
        spec = LatticeSpec(L=6, detector_index=4, initial_index=3)
        h = build_hamiltonian(spec, ModelKind.MODEL2, 0.5)
        t, alpha, windows = 1.7, 0.3, 3
        bare = propagator(h, t, hermitian=False)
        damped = propagator(build_reset_heff(h, alpha, windows, t), t, hermitian=False)
        assert np.max(np.abs(damped - bare * np.exp(-alpha * windows / 2))) <= 1e-10

