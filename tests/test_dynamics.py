"""Projective measurement dynamics, renewal recursion, and the dissipative series."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreset import (
    BoundaryContaminationError,
    LatticeSpec,
    ModelKind,
    RenewalSeries,
    build_hamiltonian,
    dynamics,
    initial_state,
    measured_evolution,
    nh_survival_series,
    renewal_amplitudes,
)
from conftest import (
    band_blocks,
    bessel_j,
    bessel_renewal,
    block_rows,
    dense_step,
    full_chain_band,
    series_from_pmf,
    taylor_expm,
)


TWO_SITE = LatticeSpec(L=2, detector_index=2, initial_index=1)


class TestTwoSiteClosedForms:
    @pytest.mark.parametrize("tau", [0.3, np.pi / 4])
    def test_pmf_is_geometric_in_cos_squared(self, tau):
        n = 8
        series = measured_evolution(TWO_SITE, tau, n, bulk_guard=False)
        s2, c2 = np.sin(tau) ** 2, np.cos(tau) ** 2
        expected_p = s2 * c2 ** np.arange(n)
        assert np.max(np.abs(series.p - expected_p)) < 1e-12
        assert np.max(np.abs(series.P - c2 ** np.arange(1, n + 1))) < 1e-12

    def test_quarter_period_detects_immediately(self):
        series = measured_evolution(TWO_SITE, np.pi / 2, 5, bulk_guard=False)
        assert abs(series.p[0] - 1.0) < 1e-12
        assert np.max(np.abs(series.p[1:])) < 1e-12
        assert abs(series.Pdet[-1] - 1.0) < 1e-12

    def test_zeno_slowdown_at_small_tau(self):
        # Detection in the first step scales as tau^2: halving tau
        # quarters it, up to O(tau^2) corrections.
        tau = 0.01
        missing_full = 1.0 - measured_evolution(TWO_SITE, tau, 1, bulk_guard=False).P[0]
        missing_half = 1.0 - measured_evolution(TWO_SITE, tau / 2, 1, bulk_guard=False).P[0]
        assert abs(missing_full / missing_half - 4.0) < 1e-3


class TestRenewalRecursion:
    def test_two_site_amplitudes(self):
        tau = 0.3
        ren = renewal_amplitudes(TWO_SITE, tau, 4)
        assert abs(ren.amplitudes[0] - (-1j * np.sin(tau))) < 1e-12
        assert abs(ren.amplitudes[1] - (-1j * np.sin(tau) * np.cos(tau))) < 1e-12

    def test_first_amplitude_is_free_transition(self):
        spec = LatticeSpec(L=12, detector_index=8, initial_index=5)
        tau = 0.9
        ren = renewal_amplitudes(spec, tau, 1)
        from qreset import propagator

        u = propagator(build_hamiltonian(spec, ModelKind.EXACT), tau, hermitian=True)
        free = u[7, 4]
        assert abs(ren.amplitudes[0] - free) < 1e-12

    def test_matches_projective_dynamics_midsize(self):
        for spec, tau, n in (
            (LatticeSpec(L=20, detector_index=14, initial_index=10), 0.3, 50),
            # the frequent-measurement geometry of the pdet benchmark
            (LatticeSpec(L=1000, detector_index=510, initial_index=500), 0.05, 400),
        ):
            base = measured_evolution(spec, tau, n, bulk_guard=False)
            ren = renewal_amplitudes(spec, tau, n)
            assert np.max(np.abs(np.abs(ren.amplitudes) ** 2 - base.p)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        half_l=st.integers(min_value=2, max_value=8),
        tau=st.floats(min_value=0.1, max_value=1.5),
        data=st.data(),
    )
    def test_matches_projective_dynamics_randomized(self, half_l, tau, data):
        L = 2 * half_l
        s = data.draw(st.integers(min_value=1, max_value=L))
        initial = data.draw(
            st.integers(min_value=1, max_value=L).filter(lambda j: j != s)
        )
        spec = LatticeSpec(L=L, detector_index=s, initial_index=initial)
        base = measured_evolution(spec, tau, 30, bulk_guard=False)
        ren = renewal_amplitudes(spec, tau, 30)
        assert np.max(np.abs(np.abs(ren.amplitudes) ** 2 - base.p)) <= 1e-10

    def test_series_length_bookkeeping(self):
        ren = renewal_amplitudes(TWO_SITE, 0.4, 7)
        assert isinstance(ren, RenewalSeries)
        assert ren.n_max == 7
        assert ren.amplitudes.shape == (7,)


def relative_gap(p: np.ndarray, oracle: np.ndarray, floor: float = 0.0) -> float:
    """Largest |p - oracle| / oracle over the cells where the oracle exceeds ``floor``."""
    kept = oracle > floor
    return float(np.max(np.abs(p[kept] - oracle[kept]) / oracle[kept]))


class TestBesselRenewalOracle:
    """The infinite-chain oracle of ``conftest.bessel_renewal``, and the engines against it.

    The engines are held only where p > 1e-10: before the front arrives
    the exact engine's absolute floor of about 1e-17 on the amplitude
    leaves p with no relative accuracy.
    """

    def test_bessel_values_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.array([0.1, 0.5, 3.0, 40.0, 400.0])
        j = bessel_j(12, x)
        with mpmath.workdps(30):
            exact = np.array([[float(mpmath.besselj(k, v)) for v in x] for k in range(13)])
        assert np.max(np.abs(j - exact) / np.abs(exact)) < 1e-12

    def test_recursion_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        d, tau, n = 10, 0.25, 60
        with mpmath.workdps(50):
            transition = [(-1j) ** d * mpmath.besselj(d, 2 * k * tau) for k in range(1, n + 1)]
            ret = [mpmath.besselj(0, 2 * k * tau) for k in range(1, n + 1)]
            phi = []
            for i in range(n):
                phi.append(transition[i] - mpmath.fsum(ret[i - 1 - m] * phi[m] for m in range(i)))
            exact = np.array([float(abs(v) ** 2) for v in phi])
        assert relative_gap(np.abs(bessel_renewal(d, tau, n)) ** 2, exact) < 1e-11

    @pytest.mark.parametrize("L, tau, n", [(1000, 0.05, 4000), (200, 0.25, 160)])
    def test_measured_evolution_in_relative_terms(self, L, tau, n):
        spec = LatticeSpec(L=L, detector_index=L // 2 + 10, initial_index=L // 2)
        oracle = np.abs(bessel_renewal(10, tau, n)) ** 2
        assert relative_gap(measured_evolution(spec, tau, n).p, oracle, 1e-10) < 1e-9

    def test_renewal_amplitudes_in_relative_terms(self):
        spec = LatticeSpec(L=200, detector_index=110, initial_index=100)
        oracle = np.abs(bessel_renewal(10, 0.25, 160)) ** 2
        p = np.abs(renewal_amplitudes(spec, 0.25, 160).amplitudes) ** 2
        assert relative_gap(p, oracle, 1e-10) < 1e-9


class TestDissipativeSeries:
    def test_first_step_against_taylor_oracle(self):
        spec = LatticeSpec(L=8, detector_index=5, initial_index=4)
        tau = 0.6
        series = nh_survival_series(spec, ModelKind.MODEL2, tau, 1, bulk_guard=False)
        u = taylor_expm(build_hamiltonian(spec, ModelKind.MODEL2, tau), tau)
        phi = u @ initial_state(spec)
        assert abs(series.P[0] - np.vdot(phi, phi).real) < 1e-10

    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_tracks_projective_detection_at_operating_point(self, kind):
        spec = LatticeSpec(L=500, detector_index=260, initial_index=250)
        tau = 0.25
        n = 400  # horizon T = 100
        exact = measured_evolution(spec, tau, n)
        eff = nh_survival_series(spec, kind, tau, n)
        assert np.max(np.abs(exact.Pdet - eff.Pdet)) < 0.02

    def test_model1_improves_as_tau_shrinks(self):
        spec = LatticeSpec(L=100, detector_index=60, initial_index=50)
        gaps = {}
        for tau in (0.1, 0.5):
            n = int(round(20 / tau))
            exact = measured_evolution(spec, tau, n)
            eff = nh_survival_series(spec, ModelKind.MODEL1, tau, n)
            gaps[tau] = np.max(np.abs(exact.Pdet - eff.Pdet))
        assert gaps[0.1] < gaps[0.5]

    def test_exact_kind_rejected(self):
        with pytest.raises(ValueError):
            nh_survival_series(TWO_SITE, ModelKind.EXACT, 0.5, 3, bulk_guard=False)


def unpack_band(blocks: np.ndarray, L: int) -> np.ndarray:
    """Dense L x L matrix of the block rows, as the banded step applies them."""
    n_blocks, b, _ = blocks.shape
    dense = np.zeros(((n_blocks + 2) * b, (n_blocks + 2) * b), dtype=blocks.dtype)
    for k in range(n_blocks):
        dense[b + k * b : b + (k + 1) * b, k * b : (k + 3) * b] = blocks[k]
    return dense[b : b + L, b : b + L]


def default_geometry(L: int) -> LatticeSpec:
    return LatticeSpec(L=L, detector_index=L // 2 + 10, initial_index=L // 2)


class TestBandedDissipativeStep:
    @pytest.mark.parametrize("L,tau,n", [(500, 0.25, 60), (1000, 0.05, 200)])
    def test_matches_dense_step_loop(self, L, tau, n):
        spec = default_geometry(L)
        for kind in (ModelKind.MODEL1, ModelKind.MODEL2):
            series = nh_survival_series(spec, kind, tau, n)
            a = dense_step(spec, kind, tau)
            phi = initial_state(spec)
            dense = np.empty(n)
            for k in range(n):
                phi = a @ phi
                dense[k] = np.vdot(phi, phi).real
            assert np.max(np.abs(series.P / dense - 1.0)) <= 1e-12

    # Long runs past the bulk guard, so the light-cone window widens to
    # both chain edges and the state reflects off them, from the edge
    # sites, the middle, and either side of a block boundary.
    @pytest.mark.parametrize("L,tau,n", [(200, 0.05, 4000), (200, 0.25, 1500), (60, 1.0, 400)])
    def test_window_matches_dense_step_loop_through_reflections(self, L, tau, n):
        spec = default_geometry(L)
        for kind in (ModelKind.MODEL1, ModelKind.MODEL2):
            b = len(dynamics._step_band(spec, kind, tau)[0])
            # Sites k b and k b + 1 end one block of b sites and start the next.
            k = max(1, L // (3 * b))
            starts = sorted({1, L // 2, L, k * b, k * b + 1})
            a = dense_step(spec, kind, tau)
            phi = np.zeros((L, len(starts)), dtype=np.complex128)
            phi[np.array(starts) - 1, np.arange(len(starts))] = 1.0
            dense = np.empty((n, len(starts)))
            for m in range(n):
                phi = a @ phi
                dense[m] = np.sum(np.abs(phi) ** 2, axis=0)
            for col, start in enumerate(starts):
                moved = replace(spec, initial_index=start)
                series = nh_survival_series(moved, kind, tau, n, bulk_guard=False)
                assert np.max(np.abs(series.P / dense[:, col] - 1.0)) <= 1e-12

    # (L, tau) of every shipped config and benchmark workload that runs a
    # dissipative model: the frequent-measurement pdet run at L = 1000, and
    # tau = 0.25, 0.5, 1.0 at L = 500.
    @pytest.mark.parametrize("L,tau", [(1000, 0.05), (500, 0.25), (500, 0.5), (500, 1.0)])
    def test_dropped_tail_is_below_rounding(self, L, tau):
        spec = default_geometry(L)
        eps = np.finfo(np.float64).eps
        offset = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
        for kind in (ModelKind.MODEL1, ModelKind.MODEL2):
            a = dense_step(spec, kind, tau)
            blocks = band_blocks(a)
            kept = unpack_band(blocks, L)
            assert np.array_equal(kept, np.where(offset <= blocks.shape[1], a, 0))
            dropped = np.abs(a - kept)
            assert dropped.max() <= eps**2
            assert dropped.sum(axis=0).max() <= L * eps**2

    # The same (L, tau), and small chains whose band spans both edges.
    @pytest.mark.parametrize(
        "L,tau", [(1000, 0.05), (500, 0.25), (500, 0.5), (500, 1.0), (2, 0.7), (4, 0.7), (16, 0.7)]
    )
    def test_direct_band_matches_dense_oracle(self, L, tau):
        if L >= 100:
            spec, kinds = default_geometry(L), (ModelKind.MODEL1, ModelKind.MODEL2)
        elif L == 2:
            spec, kinds = TWO_SITE, (ModelKind.MODEL2,)
        else:
            spec = LatticeSpec(L=L, detector_index=L // 2 + 1, initial_index=L // 2)
            kinds = (ModelKind.MODEL1, ModelKind.MODEL2)
        # The band is the step in the gauge D = diag(i^x); the phases come
        # from an exact table, since 1j ** x is off by up to 8.6e-14 at L = 500.
        gauge = np.array([1, 1j, -1, -1j])[np.arange(L) % 4]
        for kind in kinds:
            band = block_rows(*dynamics._step_band(spec, kind, tau), L)
            step = dense_step(spec, kind, tau)
            oracle = band_blocks(gauge[:, None] * step * gauge.conj()[None, :])
            assert not np.any(oracle.imag)
            assert band.shape == oracle.shape
            assert np.max(np.abs(band - oracle.real)) <= 1e-15

    # Detectors at the default site and next to either end, where the
    # detector's segment merges with an end's.
    @pytest.mark.parametrize("tau", [0.05, 0.25, 1.0])
    @pytest.mark.parametrize("L", [4, 16, 40, 100, 200, 500, 1000, 5000])
    def test_feature_band_matches_full_chain_build(self, L, tau):
        middle = L // 2 + 10 if L >= 20 else L // 2 + 1
        sites = {ModelKind.MODEL1: (middle, 2, L - 1), ModelKind.MODEL2: (middle, 1, L)}
        for kind, detectors in sites.items():
            for s in detectors:
                spec = LatticeSpec(L=L, detector_index=s, initial_index=L // 2)
                bulk, runs = dynamics._step_band(spec, kind, tau)
                band = block_rows(bulk, runs, L)
                assert np.array_equal(band, full_chain_band(spec, kind, tau))
                # Only block rows within B + b of the chain ends and the rows
                # the model changes get a slab, unless no row is a bulk row.
                b = len(bulk)
                B = dynamics._probe_half_width(dynamics._gauge_diagonals(spec, kind, tau), L)
                changed = [s - 1] if kind is ModelKind.MODEL2 else [s - 2, s - 1, s]
                features = np.array([0, L - 1, *changed])
                first = np.arange(len(band))[:, None] * b
                gap = np.maximum(first - features, features - (first + b - 1))
                slabbed = np.zeros(len(band), dtype=bool)
                for k0, slab in runs:
                    assert not slabbed[max(k0 - 1, 0) : k0 + len(slab) // b].any()
                    slabbed[k0 : k0 + len(slab) // b] = True
                if bulk.any():
                    assert not np.any(slabbed & (gap > B + b).all(axis=1))
                else:
                    assert slabbed.all()

    # The build keeps the generator's diagonals, O(L), and nothing of size
    # L b: at most 20 float64 per site, where a band stored as n_blocks
    # (b, 3b) blocks alone takes 3b = 60 (9.6 MB at L = 20000, 38 MB at 80000).
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_band_build_memory_stays_near_the_band(self, kind):
        for L in (20000, 80000):
            tracemalloc.start()
            try:
                dynamics._step_band(default_geometry(L), kind, 0.25)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 160 * L

    # A whole run adds the padded state and one step's output, O(L) as well.
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_run_memory_does_not_grow_with_the_band(self, kind):
        L = 80000
        tracemalloc.start()
        try:
            nh_survival_series(default_geometry(L), kind, 0.25, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * L

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_band_is_real(self, kind):
        bulk, runs = dynamics._step_band(default_geometry(100), kind, 0.25)
        assert bulk.dtype == np.float64
        assert all(slab.dtype == np.float64 for _, slab in runs)

    def test_imaginary_hop_raises(self, monkeypatch):
        real_diagonals = dynamics.hamiltonian_diagonals

        def with_imaginary_hop(spec, kind, tau):
            diagonals = real_diagonals(spec, kind, tau)
            diagonals[1] = diagonals[1].astype(np.complex128)
            diagonals[1][10] = 1j
            diagonals[-1] = diagonals[1]
            return diagonals

        monkeypatch.setattr(dynamics, "hamiltonian_diagonals", with_imaginary_hop)
        with pytest.raises(ValueError, match=r"diagonal -1 is not real in the gauge diag\(i\^x\)"):
            dynamics._step_band(default_geometry(100), ModelKind.MODEL2, 0.25)

    def test_too_small_probe_width_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_probe_half_width", lambda a, L: 5)
        with pytest.raises(RuntimeError, match="probe half-width 5"):
            nh_survival_series(default_geometry(100), ModelKind.MODEL2, 0.25, 10)

    def test_memory_stays_far_below_one_dense_step(self):
        # One dense L = 5000 complex step matrix alone is 400 MB.
        spec = default_geometry(5000)
        for kind in (ModelKind.MODEL1, ModelKind.MODEL2):
            tracemalloc.start()
            try:
                nh_survival_series(spec, kind, 0.25, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 50e6


class TestBulkGuard:
    def test_contaminated_horizon_rejected(self):
        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        with pytest.raises(BoundaryContaminationError):
            measured_evolution(spec, 0.5, 50)

    def test_opt_out_runs(self):
        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        series = measured_evolution(spec, 0.5, 50, bulk_guard=False)
        assert series.n_max == 50

    def test_guard_applies_to_dissipative_series_too(self):
        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        with pytest.raises(BoundaryContaminationError):
            nh_survival_series(spec, ModelKind.MODEL2, 0.5, 50)

    def test_safe_horizon_passes(self):
        spec = LatticeSpec(L=500, detector_index=260, initial_index=250)
        series = measured_evolution(spec, 0.25, 100)
        assert series.n_max == 100

    @pytest.mark.parametrize(
        "L, start, tau, n_max, passes",
        [
            (20, 7, 0.25, 1, True),
            (20, 6, 0.25, 1, False),
            (500, 250, 0.25, 487, True),
            (500, 250, 0.25, 488, False),
        ],
    )
    def test_verdict_is_mirror_symmetric(self, L, start, tau, n_max, passes):
        # Site i and its mirror image L + 1 - i lie equally far from the edges.
        def verdict(start, detector):
            spec = LatticeSpec(L=L, detector_index=detector, initial_index=start)
            try:
                measured_evolution(spec, tau, n_max)
            except BoundaryContaminationError:
                return False
            return True

        assert verdict(start, start + 1) == passes
        assert verdict(L + 1 - start, L - start) == passes


class TestSeriesBookkeeping:
    def test_survival_is_accurate_far_below_rounding(self):
        # True survival ~1.85e-46; subtracting detected masses from 1 would
        # stop at the rounding floor of about 3e-15.
        spec = LatticeSpec(L=4, detector_index=3, initial_index=2)
        tau, n = 0.7, 400
        series = measured_evolution(spec, tau, n, bulk_guard=False)
        u = dense_step(spec, ModelKind.EXACT, tau)
        phi = initial_state(spec)
        for _ in range(n):
            phi = u @ phi
            phi[spec.detector_index - 1] = 0.0
        expected = np.vdot(phi, phi).real
        assert 1e-47 < expected < 1e-45
        assert abs(series.P[-1] / expected - 1.0) <= 1e-9

    def test_probability_is_conserved(self):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        series = measured_evolution(spec, 0.7, 40, bulk_guard=False)
        total = np.sum(series.p) + series.P[-1]
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_dissipative_survival_never_increases(self, kind):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        series = nh_survival_series(spec, kind, 0.7, 40, bulk_guard=False)
        padded = np.concatenate(([1.0], series.P))
        assert np.all(np.diff(padded) <= 1e-12)

    def test_projective_survival_never_increases(self):
        spec = LatticeSpec(L=16, detector_index=12, initial_index=8)
        series = measured_evolution(spec, 0.7, 40, bulk_guard=False)
        padded = np.concatenate(([1.0], series.P))
        assert np.all(np.diff(padded) <= 1e-12)

    def test_times_axis(self):
        series = measured_evolution(TWO_SITE, 0.5, 4, bulk_guard=False)
        assert np.allclose(series.times, [0.5, 1.0, 1.5, 2.0])

    def test_invalid_run_args(self):
        with pytest.raises(ValueError):
            measured_evolution(TWO_SITE, 0.0, 5, bulk_guard=False)
        with pytest.raises(ValueError):
            measured_evolution(TWO_SITE, 0.5, 0, bulk_guard=False)


class TestFromPmf:
    def test_builds_consistent_series(self):
        series = series_from_pmf(1.0, np.array([0.3, 0.2, 0.1]))
        assert np.allclose(series.Pdet, [0.3, 0.5, 0.6])
        assert np.allclose(series.P, [0.7, 0.5, 0.4])
        assert series.n_max == 3

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            series_from_pmf(1.0, np.array([0.5, -0.1]))

    def test_rejects_excess_mass(self):
        with pytest.raises(ValueError):
            series_from_pmf(1.0, np.array([0.8, 0.5]))
