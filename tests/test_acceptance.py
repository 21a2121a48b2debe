"""Acceptance gate: one test and one printed verdict line per criterion.

Criterion 5 checks the survival timescale claim: the dissipative
``t_r / alpha`` predicts the exponential fitted to the exact restarted
survival.  Each description is held to 5% in the regime the README
gives it.  Bond surgery (model1) is held at every window.  The strong
absorber (model2) is held only on windows that run to at least twice
the ballistic arrival time at the detector: before the front arrives it
mostly reflects, so on the windows that end by arrival the test instead
requires its documented under-absorption (predicted timescale too long,
error shrinking as the window grows).  The fit itself is held to 1% of
``t_r / alpha`` of the same exact series, so a failure shows whether the
fit or a model moved.  The verdict line carries the signed errors of
both models at every window.
"""

import math

import numpy as np
import pytest

from qreset import (
    LatticeSpec,
    ModelKind,
    alpha,
    build_hamiltonian,
    measured_evolution,
    mfdt,
    nh_survival_series,
    optimal_tr_nh,
    propagator,
    renewal_amplitudes,
    reset_pdet,
    reset_survival,
)
from qreset.dynamics import FRONT_SPEED

from conftest import (
    build_reset_heff,
    dense_step,
    fit_exponential,
    first_minimizer,
    initial_state,
    mfdt_direct,
    optimal_tr_exact,
    record_acceptance,
    restart_pmf,
)


OPERATING_POINT = LatticeSpec(L=500, detector_index=260, initial_index=250)
OPERATING_TAU = 0.25
SEED = 20260821
# Restart periods of the optimum scans, t_r = 0.25 .. 15.
R_GRID = range(1, 61)


def report(criterion: int, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    record_acceptance(line)
    return line


def random_instance(rng, l_max=24):
    L = 2 * int(rng.integers(2, l_max // 2 + 1))
    s, init = rng.choice(L, size=2, replace=False) + 1
    tau = float(rng.uniform(0.1, 1.5))
    return LatticeSpec(L=L, detector_index=int(s), initial_index=int(init)), tau


@pytest.fixture(scope="module")
def nh_scan():
    """Window decay objective over the full restart-period grid, per model."""
    return {
        kind: optimal_tr_nh(
            nh_survival_series(OPERATING_POINT, kind, OPERATING_TAU, max(R_GRID), bulk_guard=False),
            R_GRID,
        )
        for kind in (ModelKind.MODEL1, ModelKind.MODEL2)
    }


class TestAcceptance:
    def test_1_renewal_oracle_equivalence(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(50):
            spec, tau = random_instance(rng)
            base = measured_evolution(spec, tau, 100, bulk_guard=False)
            ren = renewal_amplitudes(spec, tau, 100)
            worst = max(worst, float(np.max(np.abs(np.abs(ren.amplitudes) ** 2 - base.p))))
        ok = worst <= 1e-10
        report(1, ok, f"recursion vs projected dynamics, 50 instances, max gap {worst:.3e} (tol 1e-10)")
        assert ok

    def test_2_two_site_closed_forms(self):
        spec = LatticeSpec(L=2, detector_index=2, initial_index=1)
        worst = 0.0
        for tau in (0.3, np.pi / 4, np.pi / 2):
            base = measured_evolution(spec, tau, 2, bulk_guard=False)
            ren = renewal_amplitudes(spec, tau, 2)
            gaps = [
                abs(base.p[0] - np.sin(tau) ** 2),
                abs(base.p[1] - np.sin(tau) ** 2 * np.cos(tau) ** 2),
                abs(ren.amplitudes[0] - (-1j * np.sin(tau))),
                abs(ren.amplitudes[1] - (-1j * np.sin(tau) * np.cos(tau))),
            ]
            worst = max(worst, float(max(gaps)))
        ok = worst <= 1e-12
        report(2, ok, f"two-site analytic sequences, max gap {worst:.3e} (tol 1e-12)")
        assert ok

    def test_3_mean_detection_time_two_forms(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        count = 0
        while count < 50:
            spec, tau = random_instance(rng)
            r = int(rng.integers(1, 41))
            base = measured_evolution(spec, tau, r, bulk_guard=False)
            if base.Pdet[r - 1] < 0.05:
                continue
            count += 1
            closed = mfdt(base, r)
            direct = mfdt_direct(base, r, tau, k_windows=50)
            worst = max(worst, abs(direct - closed) / closed)
        ok = worst <= 1e-10
        report(3, ok, f"closed form vs truncated sum with tail, 50 instances, max rel gap {worst:.3e} (tol 1e-10)")
        assert ok

    def test_4_optimal_restart_time_containment(self, nh_scan):
        exact = optimal_tr_exact(measured_evolution(OPERATING_POINT, OPERATING_TAU, max(R_GRID)), R_GRID)
        stars = {"exact": first_minimizer(exact, R_GRID, OPERATING_TAU)}
        for kind, objective in nh_scan.items():
            stars[kind.value] = first_minimizer(objective, R_GRID, OPERATING_TAU)
        ok = all(6.0 <= t <= 7.0 for t in stars.values())
        detail = ", ".join(f"{name} t*={t:g}" for name, t in stars.items())
        report(4, ok, f"{detail}; required interval [6.0, 7.0]")
        assert ok

    def test_5_survival_timescale_prediction(self, nh_scan):
        arrival = abs(OPERATING_POINT.detector_index - OPERATING_POINT.initial_index) / FRONT_SPEED
        parts = []
        ok = True
        fit_gap = 0.0
        under = []
        for t_r in (2.5, 5.0, 10.0):
            r = int(round(t_r / OPERATING_TAU))
            idx = R_GRID.index(r)
            n = int(round(20 * t_r / OPERATING_TAU))
            base = measured_evolution(OPERATING_POINT, OPERATING_TAU, r)
            traj = reset_survival(base, r, n)
            times = OPERATING_TAU * np.arange(1, n + 1)
            fit = fit_exponential(traj, times, (2 * t_r, 20 * t_r))
            exact_ts = t_r / -math.log(base.P[r - 1])
            fit_gap = max(fit_gap, abs(fit.T_s_fit - exact_ts) / exact_ts)
            signed = {}
            for kind, scan in nh_scan.items():
                a = -scan[idx] * t_r
                predicted = t_r / a
                signed[kind] = (predicted - fit.T_s_fit) / predicted
            m1_ok = abs(signed[ModelKind.MODEL1]) <= 0.05
            m2 = signed[ModelKind.MODEL2]
            if t_r >= 2 * arrival:
                m2_ok = abs(m2) <= 0.05
                m2_note = ""
            else:
                m2_ok = m2 > 0 and all(m2 < earlier for earlier in under)
                under.append(m2)
                m2_note = " under-absorbing"
            ok = ok and m1_ok and m2_ok
            window = f"t_r={t_r:g}" + (" (ends by arrival)" if t_r <= arrival else "")
            parts.append(
                f"{window} model1 {signed[ModelKind.MODEL1]:+.1%} {'ok' if m1_ok else 'FAIL'}, "
                f"model2 {m2:+.1%}{m2_note} {'ok' if m2_ok else 'FAIL'}"
            )
        fit_ok = fit_gap <= 0.01
        ok = ok and fit_ok
        report(
            5,
            ok,
            f"fitted vs predicted survival timescale, signed (pred-fit)/pred, front arrives t={arrival:g}: "
            + "; ".join(parts)
            + f" (tol 5%); exact fit vs t_r/alpha max gap {fit_gap:.2%} {'ok' if fit_ok else 'FAIL'} (tol 1%)",
        )
        assert ok

    def test_6_model_ranking_per_window(self):
        t_r = 20.0
        taus = (0.25, 0.5, 1.0)
        ok = True
        margins = []
        for tau in taus:
            r = int(round(t_r / tau))
            n = 10 * r
            exact_base = measured_evolution(OPERATING_POINT, tau, r)
            exact_curve = reset_pdet(exact_base, r, n)
            deltas = {}
            for kind in (ModelKind.MODEL1, ModelKind.MODEL2):
                nh_base = nh_survival_series(OPERATING_POINT, kind, tau, r)
                curve = reset_pdet(nh_base, r, n)
                deltas[kind] = np.abs(exact_curve - curve).reshape(10, r).mean(axis=1)
            tau_ok = bool(np.all(deltas[ModelKind.MODEL2] < deltas[ModelKind.MODEL1]))
            ok = ok and tau_ok
            margins.append(f"tau={tau:g} {'ok' if tau_ok else 'FAIL'}")
        report(6, ok, f"strong absorber beats bond surgery per window, t_r={t_r:g}, R<=10: " + ", ".join(margins))
        assert ok

    def test_7_restart_forces_detection(self):
        rng = np.random.default_rng(SEED)
        cases = []
        count = 0
        while count < 25:
            spec, tau = random_instance(rng)
            r = int(rng.integers(1, 31))
            base = measured_evolution(spec, tau, r, bulk_guard=False)
            pdet_r = base.Pdet[r - 1]
            if not 0.01 < pdet_r < 1.0:
                continue
            count += 1
            cases.append((base, r))
        operating_base = measured_evolution(OPERATING_POINT, OPERATING_TAU, 26)
        cases.append((operating_base, 26))
        worst = 0.0
        for base, r in cases:
            a = -math.log(base.P[r - 1])
            k = math.ceil(3 * math.log(10) / a)
            traj = reset_survival(base, r, k * r)
            worst = max(worst, float(traj[-1]))
        ok = worst < 1e-3
        report(7, ok, f"26 instances with window detection > 1%, max survival after ceil(3 ln10/alpha) windows {worst:.3e} (tol 1e-3)")
        assert ok

    def test_8_property_spot_checks(self):
        checks = {}

        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        u = dense_step(spec, ModelKind.EXACT, 0.3)
        checks["unitarity"] = float(np.max(np.abs(u.conj().T @ u - np.eye(20)))) <= 1e-12

        mono_spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        mono_ok = True
        for kind in (ModelKind.EXACT, ModelKind.MODEL1, ModelKind.MODEL2):
            if kind is ModelKind.EXACT:
                series = measured_evolution(mono_spec, 0.7, 40, bulk_guard=False)
            else:
                series = nh_survival_series(mono_spec, kind, 0.7, 40, bulk_guard=False)
            padded = np.concatenate(([1.0], series.P))
            mono_ok = mono_ok and bool(np.all(np.diff(padded) <= 1e-12))
        checks["monotonic survival"] = mono_ok

        base = measured_evolution(mono_spec, 0.7, 7, bulk_guard=False)
        pmf = restart_pmf(base, 7, 35)
        q = base.P[6]
        checks["pmf mass"] = abs(np.sum(pmf) + q**5 - 1.0) <= 1e-12

        h_free = build_hamiltonian(spec, ModelKind.EXACT)
        u1 = propagator(h_free, 0.4, hermitian=True)
        u2 = propagator(h_free, 1.1, hermitian=True)
        u12 = propagator(h_free, 1.5, hermitian=True)
        semi = float(np.max(np.abs(u1 @ u2 - u12)))
        h_nh = build_hamiltonian(spec, ModelKind.MODEL2, tau=0.5)
        v1 = propagator(h_nh, 0.4, hermitian=False)
        v2 = propagator(h_nh, 1.1, hermitian=False)
        v12 = propagator(h_nh, 1.5, hermitian=False)
        semi = max(semi, float(np.max(np.abs(v1 @ v2 - v12))))
        checks["semigroup"] = semi <= 1e-10

        small = LatticeSpec(L=6, detector_index=4, initial_index=3)
        h0 = build_hamiltonian(small, ModelKind.MODEL2, 0.5)
        t, a, windows = 1.7, 0.3, 3
        psi = initial_state(small)
        bare = propagator(h0, t, hermitian=False) @ psi
        damped = propagator(build_reset_heff(h0, a, windows, t), t, hermitian=False) @ psi
        ratio = np.vdot(damped, damped).real / np.vdot(bare, bare).real
        checks["reset factorization"] = abs(ratio - np.exp(-a * windows)) <= 1e-10

        ok = all(checks.values())
        detail = ", ".join(f"{name} {'ok' if good else 'FAIL'}" for name, good in checks.items())
        report(8, ok, detail)
        assert ok
