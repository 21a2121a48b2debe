"""Decay-weight extraction, restart-time optimization, and curve comparison."""

import numpy as np
import pytest

from qreset import (
    InstantAbsorptionError,
    LatticeSpec,
    ModelKind,
    alpha,
    build_hamiltonian,
    cli,
    dynamics,
    measured_evolution,
    mfdt,
    nh_survival_series,
    optimal_tr_nh,
    reset_pdet,
    reset_survival,
    survival_prediction,
)

from conftest import fit_exponential, first_minimizer, initial_state, optimal_tr_exact, taylor_expm


TWO_SITE = LatticeSpec(L=2, detector_index=2, initial_index=1)
# At tau = 1 the absorption rate matches the hopping, so nothing is
# Zeno-protected and the window survival underflows to zero once the
# window stretches to a few hundred hopping times.
ABSORBING_TAU = 1.0
ABSORBING_R = 500


def model2_series(spec: LatticeSpec, tau: float, n_max: int):
    """The strong absorber's stepped series, without the bulk guard."""
    return nh_survival_series(spec, ModelKind.MODEL2, tau, n_max, bulk_guard=False)


class TestAlpha:
    def test_front_not_yet_arrived_means_no_decay(self):
        # Ballistic front needs t ~ distance / 2; at t_r = 4 tau = 1 the
        # detector 10 sites away has seen essentially nothing.
        spec = LatticeSpec(L=500, detector_index=260, initial_index=250)
        assert alpha(model2_series(spec, 0.25, 4), 4) < 1e-8

    def test_against_taylor_oracle(self):
        res = alpha(model2_series(TWO_SITE, 1.0, 1), 1)
        u = taylor_expm(build_hamiltonian(TWO_SITE, ModelKind.MODEL2, 1.0), 1.0)
        phi = u @ initial_state(TWO_SITE)
        expected = -np.log(np.vdot(phi, phi).real)
        assert abs(res - expected) < 1e-9

    def test_multi_step_window_against_taylor_oracle(self):
        # r = 4 at tau = 0.5 is read off the fourth step of the series.
        res = alpha(model2_series(TWO_SITE, 0.5, 4), 4)
        u = taylor_expm(build_hamiltonian(TWO_SITE, ModelKind.MODEL2, 0.5), 2.0)
        phi = u @ initial_state(TWO_SITE)
        expected = -np.log(np.vdot(phi, phi).real)
        assert abs(res - expected) < 1e-9

    @pytest.mark.parametrize("tau, r", [(0.3, 1), (0.5, 4), (1.2, 7)])
    def test_exact_two_site_closed_form(self, tau, r):
        # The detector takes sin(tau) of the amplitude each step and leaves
        # cos(tau) at the start, so P_r = cos(tau)^(2r).
        base = measured_evolution(TWO_SITE, tau, r, bulk_guard=False)
        expected = -2 * r * np.log(abs(np.cos(tau)))
        assert alpha(base, r) == pytest.approx(expected, rel=1e-12)

    def test_rejects_period_outside_the_series(self):
        base = model2_series(TWO_SITE, 0.5, 3)
        for r in (0, 4):
            with pytest.raises(ValueError, match=f"restart period.*r={r}"):
                alpha(base, r)

    def test_total_absorption_raises(self):
        with pytest.raises(InstantAbsorptionError):
            alpha(model2_series(TWO_SITE, ABSORBING_TAU, ABSORBING_R), ABSORBING_R)


class TestConvergenceOrder:
    """The two descriptions approach the exact dynamics at different orders in tau.

    At the operating point (L = 500, detector 260, start 250) the relative
    error of the window decay weight, ``alpha_model / alpha_exact - 1``
    with ``alpha_exact = -log1p(-Pdet_r)`` of the projected run, halves
    with tau for ``model2`` (first order) and quarters for ``model1``
    (second order: its bridge is the small-tau effective generator).
    Measured: ratios 3.89 (t_r = 5) and 3.91 (t_r = 10) at the finest
    halving for model1, 1.95 and 2.07 for model2, every error negative.
    """

    SPEC = LatticeSpec(L=500, detector_index=260, initial_index=250)
    TAUS = (0.125, 0.0625, 0.03125)

    def errors(self, kind: ModelKind, t_r: float) -> np.ndarray:
        errors = []
        for tau in self.TAUS:
            r = int(round(t_r / tau))
            exact = measured_evolution(self.SPEC, tau, r)
            alpha_exact = -np.log1p(-exact.Pdet[r - 1])
            errors.append(alpha(nh_survival_series(self.SPEC, kind, tau, r), r) / alpha_exact - 1.0)
        return np.array(errors)

    @pytest.mark.parametrize("t_r", [5.0, 10.0])
    @pytest.mark.parametrize(
        "kind,bounds", [(ModelKind.MODEL1, (3.6, 4.4)), (ModelKind.MODEL2, (1.8, 2.3))]
    )
    def test_error_ratio_at_the_finest_halving(self, kind, bounds, t_r):
        errors = self.errors(kind, t_r)
        assert np.all(np.sign(errors) == np.sign(errors[0])) and errors[0] != 0
        assert bounds[0] <= errors[-2] / errors[-1] <= bounds[1]


class TestSurvivalPrediction:
    def test_exponential_values(self):
        times = np.array([1.0, 2.0, 4.0])
        pred = survival_prediction(0.5, 2.0, times)
        assert np.allclose(pred, np.exp(-0.5 * times / 2.0), atol=1e-15)

    def test_rejects_bad_window_time(self):
        with pytest.raises(ValueError):
            survival_prediction(0.5, 0.0, np.array([1.0]))


class TestOptimalTrDissipative:
    def test_single_point_grid(self):
        objective = optimal_tr_nh(model2_series(TWO_SITE, 0.5, 3), [3])
        assert first_minimizer(objective, [3], 0.5) == 1.5
        assert objective.shape == (1,)

    def test_objective_is_decay_per_unit_time(self):
        r_grid = [1, 2, 4]
        base = model2_series(TWO_SITE, 0.5, 4)
        objective = optimal_tr_nh(base, r_grid)
        for i, r in enumerate(r_grid):
            a = alpha(base, r)
            assert objective[i] == pytest.approx(-a / (0.5 * r), rel=1e-12)
        # Same argmin whether phrased as max alpha/t_r or min t_r/alpha.
        assert np.argmin(objective) == np.argmin(
            [0.5 * r / alpha(base, r) for r in r_grid]
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimal_tr_nh(model2_series(TWO_SITE, 0.5, 1), [])

    def test_all_points_absorbing_raises(self):
        base = model2_series(TWO_SITE, ABSORBING_TAU, ABSORBING_R)
        with pytest.raises(InstantAbsorptionError):
            optimal_tr_nh(base, [ABSORBING_R])

    def test_absorbing_points_are_skipped_not_fatal(self):
        base = model2_series(TWO_SITE, ABSORBING_TAU, ABSORBING_R)
        objective = optimal_tr_nh(base, [1, ABSORBING_R])
        assert first_minimizer(objective, [1, ABSORBING_R], ABSORBING_TAU) == 1.0
        assert np.isnan(objective[1])

    def test_period_below_one_rejected(self):
        with pytest.raises(ValueError):
            optimal_tr_nh(model2_series(TWO_SITE, 0.5, 2), [2, 0])


class TestOptimalTrExact:
    def test_flat_objective_breaks_tie_at_smallest(self):
        # Quarter-period two-site chain detects at the first try for any
        # restart period, so every candidate has the same mean time tau.
        tau = np.pi / 2
        objective = optimal_tr_exact(measured_evolution(TWO_SITE, tau, 3, bulk_guard=False), [1, 2, 3])
        assert np.allclose(objective, tau, atol=1e-12)
        assert first_minimizer(objective, [1, 2, 3], tau) == pytest.approx(tau)

    def test_matches_direct_mean_scan(self):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        tau = 0.5
        r_grid = list(range(1, 31))
        base = measured_evolution(spec, tau, 30, bulk_guard=False)
        objective = optimal_tr_exact(base, r_grid)
        means = np.array([mfdt(base, r) for r in r_grid])
        assert np.allclose(objective, means, rtol=1e-12)
        assert first_minimizer(objective, r_grid, tau) == pytest.approx(r_grid[int(np.argmin(means))] * tau)

    def test_empty_and_invalid_grids(self):
        base = measured_evolution(TWO_SITE, 0.5, 2, bulk_guard=False)
        with pytest.raises(ValueError):
            optimal_tr_exact(base, [])
        with pytest.raises(ValueError):
            optimal_tr_exact(base, [0, 2])


class TestStatisticsRunNoEngine:
    def test_every_statistic_reads_a_prebuilt_series(self, monkeypatch):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        exact = measured_evolution(spec, 0.5, 12, bulk_guard=False)
        model2 = model2_series(spec, 0.5, 12)

        def no_engine(*args, **kwargs):
            raise AssertionError("a statistic ran an engine")

        monkeypatch.setattr(dynamics, "_band_series", no_engine)
        assert alpha(model2, 4) > 0
        assert first_minimizer(optimal_tr_nh(model2, [2, 4, 6]), [2, 4, 6], 0.5) in (1.0, 2.0, 3.0)
        assert mfdt(exact, 4) > 0
        assert reset_survival(exact, 4, 12).shape == (12,)
        exact_curve, model2_curve = reset_pdet(exact, 4, 12), reset_pdet(model2, 4, 12)
        assert exact_curve.shape == model2_curve.shape == (12,)


class TestDeltaPR:
    """The ``delta-pr`` recipe's window gap, on the restarted curves it is handed."""

    @staticmethod
    def window_gaps(monkeypatch, tmp_path, exact_curve, model_curve):
        # The recipe restarts the exact series first, then model1's and model2's.
        curves = iter((exact_curve, model_curve, model_curve))
        monkeypatch.setattr(cli, "reset_pdet", lambda base, r, n: next(curves))
        # r = 8 measurements a window, 40 in all: R_max = 5 windows.
        config = cli.RunConfig(tau=0.25, L=40, model="all", t_r=2.0, n_max=40)
        (artifact,) = cli._build_delta_pr(config, tmp_path, "")
        rows = np.asarray(artifact.rows)
        assert rows[:, 0].tolist() == [1, 2, 3, 4, 5]
        assert np.array_equal(rows[:, 1], rows[:, 2])
        return rows[:, 1]

    def test_identical_curves_give_zero(self, monkeypatch, tmp_path):
        curve = np.linspace(0.0, 0.9, 40)
        delta = self.window_gaps(monkeypatch, tmp_path, curve, curve)
        assert delta.shape == (5,)
        assert np.max(delta) == 0.0

    def test_constant_offset_is_recovered(self, monkeypatch, tmp_path):
        curve = np.linspace(0.0, 0.9, 40)
        delta = self.window_gaps(monkeypatch, tmp_path, curve, curve + 0.003)
        assert np.allclose(delta, 0.003, atol=1e-15)


class TestFitExponential:
    def test_recovers_exact_timescale(self):
        times = np.linspace(0.5, 30.0, 60)
        traj = np.exp(-times / 3.0)
        fit = fit_exponential(traj, times, (1.0, 25.0))
        assert fit.T_s_fit == pytest.approx(3.0, abs=1e-10)
        assert fit.residual < 1e-12

    def test_tolerates_multiplicative_noise(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0.5, 30.0, 120)
        traj = np.exp(-times / 3.0) * (1.0 + 0.01 * rng.standard_normal(times.size))
        fit = fit_exponential(traj, times, (1.0, 25.0))
        assert abs(fit.T_s_fit - 3.0) / 3.0 < 0.03

    def test_rejects_degenerate_inputs(self):
        times = np.linspace(0.0, 10.0, 20)
        with pytest.raises(ValueError):
            fit_exponential(np.exp(-times) - 0.5, times, (0.0, 10.0))  # nonpositive
        with pytest.raises(ValueError):
            fit_exponential(np.exp(-times), times, (9.0, 10.0))  # too few samples
        with pytest.raises(ValueError):
            fit_exponential(np.exp(+times / 5.0), times, (0.0, 10.0))  # growing
        with pytest.raises(ValueError):
            fit_exponential(np.exp(-times), times, (10.0, 0.0))  # empty window
        with pytest.raises(ValueError):
            fit_exponential(np.exp(-times), times[:-1], (0.0, 10.0))  # shape
