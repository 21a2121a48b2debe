"""Projective measurement dynamics, renewal recursion, and the dissipative series."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qreset
from qreset import (
    BoundaryContaminationError,
    LatticeSpec,
    ModelKind,
    RenewalSeries,
    build_hamiltonian,
    dynamics,
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
    initial_state,
    real_dense_step,
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
            # detectors on either chain end, inside the band's end slabs
            (LatticeSpec(L=200, detector_index=1, initial_index=100), 0.25, 300),
            (LatticeSpec(L=200, detector_index=200, initial_index=100), 0.25, 300),
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

    The projected engine holds in relative terms at every n, before the
    front arrives too (p_1 = J_10(0.1)^2 ~ 7e-40 at tau = 0.05): it steps
    the band, whose dropped entries are eps^2 relative to the state.  The
    tight bound applies where p > 1e-10; the renewal recursion, a dense
    step matrix with an absolute floor of about 1e-17 on the amplitude,
    is held there only.
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
        p = measured_evolution(spec, tau, n).p
        assert relative_gap(p, oracle, 1e-10) < 1e-9
        assert relative_gap(p, oracle) < 1e-7

    def test_renewal_amplitudes_in_relative_terms(self):
        spec = LatticeSpec(L=200, detector_index=110, initial_index=100)
        oracle = np.abs(bessel_renewal(10, 0.25, 160)) ** 2
        p = np.abs(renewal_amplitudes(spec, 0.25, 160).amplitudes) ** 2
        assert relative_gap(p, oracle, 1e-10) < 1e-9

    # The free chain's step row J_0(2 tau) .. J_b(2 tau) that the engines'
    # bands are built from, from tiny steps to 30 hopping times.
    @pytest.mark.parametrize("tau", [1e-300, 1e-33, 0.01, 0.05, 0.25, 1.0, 3.0, 10.0, 30.0])
    def test_bessel_row_against_mpmath(self, tau):
        mpmath = pytest.importorskip("mpmath")
        row = dynamics._bessel_row(2 * tau)
        b = len(row) - 1
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.besselj(k, 2 * mpmath.mpf(tau))) for k in range(b + 2)])
        assert b >= 1 and abs(exact[b + 1]) <= dynamics.BAND_CUTOFF
        assert b == 1 or abs(exact[b]) > dynamics.BAND_CUTOFF
        assert np.max(np.abs(row - exact[:-1])) <= 2.2e-16
        if tau <= 3:
            kept = np.abs(exact[:-1]) > dynamics.BAND_CUTOFF
            assert np.max(np.abs(row[kept] / exact[:-1][kept] - 1.0)) <= 1e-15


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


def probe_half_width(spec: LatticeSpec, kind: ModelKind, tau: float) -> int:
    """The probe half-width B that ``dynamics._step_band`` takes for this band."""
    return dynamics._probe_half_width(dynamics._gauge_defect(spec, kind, tau), tau, spec.L)


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
            # In the real gauge: D takes each unit start to a phase of itself
            # and changes no norm.
            a = real_dense_step(spec, kind, tau)
            phi = np.zeros((L, len(starts)))
            phi[np.array(starts) - 1, np.arange(len(starts))] = 1.0
            dense = np.empty((n, len(starts)))
            for m in range(n):
                phi = a @ phi
                dense[m] = np.sum(phi**2, axis=0)
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

    # The same (L, tau), and small chains whose band spans both edges.  At
    # L = 500 the detector also sits B + 5 and 2B sites from either end,
    # where one block row holds rows probed near the detector and mirror
    # rows of the free open chain.  At L = 10, tau = 3 the Bessel row
    # reaches 42 sites, so images out to |m| = 2 enter each row.
    @pytest.mark.parametrize(
        "L,tau",
        [
            (1000, 0.05), (500, 0.25), (500, 0.5), (500, 1.0),
            (2, 0.7), (4, 0.7), (16, 0.7), (10, 3.0),
        ],
    )
    def test_direct_band_matches_dense_oracle(self, L, tau):
        # Model 1 needs both neighbours of the detector.
        kinds = (ModelKind.EXACT, ModelKind.MODEL2) if L == 2 else list(ModelKind)
        for kind in kinds:
            sites = (L // 2 + 10,) if L >= 100 else (L // 2 + 1,)
            if L == 500:
                B = probe_half_width(default_geometry(L), kind, tau)
                sites += (B + 6, L - B - 5, 2 * B + 1, L - 2 * B)
            for s in sites:
                spec = LatticeSpec(L=L, detector_index=s, initial_index=L // 2)
                band = block_rows(*dynamics._step_band(spec, kind, tau), L)
                oracle = band_blocks(real_dense_step(spec, kind, tau))
                assert band.shape == oracle.shape
                assert np.max(np.abs(band - oracle)) <= 1e-15

    # Detectors at the default site and next to either end, where the
    # detector's segment reaches the end.  Rows near the detector come from
    # the probe of its segment, every other row from the closed-form Bessel
    # row and its mirror images; the full-chain probe matches both to
    # rounding.
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
                full = full_chain_band(spec, kind, tau)
                b = len(bulk)
                B = probe_half_width(spec, kind, tau)
                first = np.arange(len(band)) * b
                assert np.max(np.abs(band - full)) <= 4.4e-16
                # Only block rows within B + b of the rows the model changes,
                # and within b of the chain ends, get a slab.
                changed = [s - 1] if kind is ModelKind.MODEL2 else [s - 2, s - 1, s]
                features = np.array([0, L - 1, *changed])
                gap = np.maximum(first[:, None] - features, features - (first[:, None] + b - 1))
                slabbed = np.zeros(len(band), dtype=bool)
                for k0, slab in runs:
                    assert not slabbed[max(k0 - 1, 0) : k0 + len(slab) // b].any()
                    slabbed[k0 : k0 + len(slab) // b] = True
                assert not np.any(slabbed & (gap > B + b).all(axis=1))

    # Model 1 cuts both of the detector's bonds, so the generator's
    # detector row is zero and the step's is exactly the unit row: the
    # probe writes the defect's rows from the generator's own entries,
    # where a correction added to the free hops would leave rounding.
    @pytest.mark.parametrize("tau", [0.05, 0.25, 1.0])
    @pytest.mark.parametrize("detector", [260, 2, 499])
    def test_model1_detector_row_is_the_unit_row(self, tau, detector):
        L = 500
        spec = LatticeSpec(L=L, detector_index=detector, initial_index=L // 2)
        band = unpack_band(block_rows(*dynamics._step_band(spec, ModelKind.MODEL1, tau), L), L)
        unit = np.zeros(L)
        unit[detector - 1] = 1.0
        assert np.array_equal(band[detector - 1], unit)

    # At L = 40, tau = 30 model1's bound gives B = 1373, while its
    # probe segment is the 40-site chain: the probe takes one column a row,
    # not 2B + 1 (about 4.6 MB of peak), and the band still matches the
    # dense step.
    def test_long_step_on_a_short_chain_probes_one_column_a_row(self):
        spec = default_geometry(40)
        tracemalloc.start()
        try:
            bulk, runs = dynamics._step_band(spec, ModelKind.MODEL1, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6
        oracle = band_blocks(real_dense_step(spec, ModelKind.MODEL1, 30.0))
        band = block_rows(bulk, runs, 40)
        assert band.shape == oracle.shape
        assert np.max(np.abs(band - oracle)) <= 5e-14

    # The build keeps nothing of size L b: at most 20 float64 per site,
    # where a band stored as n_blocks (b, 3b) blocks alone takes 3b = 60
    # (9.6 MB at L = 20000, 38 MB at 80000).
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

    # The build holds nothing of the chain's length: its peak is about
    # 0.2-0.4 MB at any L.
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_band_build_memory_does_not_grow_with_the_chain(self, kind):
        for L in (80000, 1280000):
            tracemalloc.start()
            try:
                dynamics._step_band(default_geometry(L), kind, 0.25)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    # A whole run adds the padded state and one step's output, O(L).
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_run_memory_does_not_grow_with_the_band(self, kind):
        L = 80000
        spec = default_geometry(L)
        tracemalloc.start()
        try:
            if kind is ModelKind.EXACT:
                measured_evolution(spec, 0.25, 10)
            else:
                nh_survival_series(spec, kind, 0.25, 10)
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
        real_defect = dynamics.detector_defect

        def with_imaginary_hop(spec, kind, tau):
            return {**real_defect(spec, kind, tau), (10, 11): 1j, (11, 10): 1j}

        monkeypatch.setattr(dynamics, "detector_defect", with_imaginary_hop)
        with pytest.raises(ValueError, match=r"diagonal 1 is not real in the gauge diag\(i\^x\)"):
            dynamics._step_band(default_geometry(100), ModelKind.MODEL2, 0.25)

    def test_too_small_probe_width_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_probe_half_width", lambda a, tau, L: 5)
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


def stepped_series(spec: LatticeSpec, kind: ModelKind, tau: float, n: int, bulk_guard: bool = True):
    """The engine's series for any kind: projected for exact, dissipative otherwise."""
    if kind is ModelKind.EXACT:
        return measured_evolution(spec, tau, n, bulk_guard)
    return nh_survival_series(spec, kind, tau, n, bulk_guard)


def dense_survival(spec: LatticeSpec, kind: ModelKind, tau: float, n: int) -> np.ndarray:
    """P_1..P_n by the dense step matrix, zeroing the detector site for the exact kind."""
    a = dense_step(spec, kind, tau)
    phi = initial_state(spec)
    survival = np.empty(n)
    for k in range(n):
        phi = a @ phi
        if kind is ModelKind.EXACT:
            phi[spec.detector_index - 1] = 0.0
        survival[k] = np.vdot(phi, phi).real
    return survival


def first_stepped(spec: LatticeSpec, tau: float, n: int) -> int:
    """Index of the first step that reaches the detector's block.

    The exact engine reads p = 0 exactly until its window steps the
    detector's block, which happens one step after the block next to it
    (on the initial site's side) joins the window.
    """
    return int(np.flatnonzero(measured_evolution(spec, tau, n).p)[0])


def per_step_band_series(spec: LatticeSpec, kind: ModelKind, tau: float, n: int) -> tuple:
    """(P, p) of the band loop with every view and test redone each step.

    The reference for the loop that sets them up once per range: the
    same products in the same order, so the results agree bit for bit.
    """
    bulk, runs = dynamics._step_band(spec, kind, tau)
    b = len(bulk)
    n_blocks = -(-spec.L // b)
    padded = np.zeros((n_blocks + 2) * b)
    padded[b + spec.initial_index - 1] = 1.0
    windows = np.lib.stride_tricks.sliding_window_view(padded, 3 * b)[::b]
    phi = np.empty((n_blocks, b))
    flat = phi.ravel()
    detector = spec.detector_index - 1
    lo = (spec.initial_index - 1) // b
    hi = lo + 1
    p, survival, prev = np.zeros(n), np.empty(n), 1.0
    for k in range(n):
        start, stop = max(lo - 1, 0), min(hi + 1, n_blocks)
        windows[start:stop].dot(bulk.T, out=phi[start:stop])
        for k0, slab in runs:
            k1 = k0 + len(slab) // b
            if k0 < stop and start < k1:
                slab.dot(padded[k0 * b : (k1 + 2) * b], out=flat[k0 * b : k1 * b])
        if kind is ModelKind.EXACT and start * b <= detector < stop * b:
            p[k] = flat[detector] ** 2
            flat[detector] = 0.0
        floor = dynamics.BAND_CUTOFF**2 * prev
        if start < lo and phi[start].dot(phi[start]) > floor:
            lo = start
        if stop > hi and phi[stop - 1].dot(phi[stop - 1]) > floor:
            hi = stop
        state = padded[(lo + 1) * b : (hi + 1) * b]
        state[:] = flat[lo * b : hi * b]
        prev = survival[k] = state.dot(state)
    return survival, p


class TestWindowSetup:
    """The step loop sets up its window once per range and steps it until a block joins.

    All runs start at site 90 of 200 with the detector at site 170, at
    tau = 0.25, where b = 20 for every kind.  The window grows at steps
    1, 5, 19, 20, 40, 41 and 66; each test ends a range in its own way
    and holds P to the dense step loop.
    """

    SPEC = LatticeSpec(L=200, detector_index=170, initial_index=90)

    def assert_matches_dense(self, kind, n, bulk_guard=True):
        series = stepped_series(self.SPEC, kind, 0.25, n, bulk_guard)
        dense = dense_survival(self.SPEC, kind, 0.25, n)
        assert np.max(np.abs(series.P / dense - 1.0)) <= 1e-12

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_run_ending_on_a_growth_step(self, kind):
        # Block 7 (sites 141-160) joins at step 20, the run's last: the
        # detector's block 8 is stepped from step 21 on.
        assert first_stepped(self.SPEC, 0.25, 21) == 20
        self.assert_matches_dense(kind, 20)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_both_edges_join_in_one_step(self, kind):
        # Blocks 2 and 6 join together at step 5: detectors in blocks 1
        # and 7 are first stepped at step 6.
        for detector in (30, 150):
            assert first_stepped(replace(self.SPEC, detector_index=detector), 0.25, 12) == 5
        self.assert_matches_dense(kind, 12)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_window_spanning_the_chain_mid_run(self, kind):
        # The window reaches site 1 at step 40 and site 200 at step 66;
        # from then on no block can join, and the state reflects off both
        # ends for the remaining 54 steps.
        self.assert_matches_dense(kind, 120, bulk_guard=False)

    # A block joins with a mass near eps^4 P, far below what the dense
    # oracle resolves; the per-step loop sees every such amplitude.  The
    # last run puts the detector's slab next to the chain end's.
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("detector,initial,n", [(170, 90, 20), (170, 90, 120), (2, 100, 300)])
    def test_matches_the_per_step_loop_bit_for_bit(self, kind, detector, initial, n):
        spec = LatticeSpec(L=200, detector_index=detector, initial_index=initial)
        series = stepped_series(spec, kind, 0.25, n, bulk_guard=False)
        survival, p = per_step_band_series(spec, kind, 0.25, n)
        assert np.array_equal(series.P, survival)
        if kind is ModelKind.EXACT:
            assert np.array_equal(series.p, p)


def chosen_steps(monkeypatch) -> list:
    """Records the measurements per super-step, k, that each engine run chooses."""
    chosen = []
    choose = dynamics._steps_per_gemm

    def spy(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    monkeypatch.setattr(dynamics, "_steps_per_gemm", spy)
    return chosen


class TestSuperSteps:
    """Long runs advance k measurements per GEMM through the band of k steps.

    Each super-step takes the losses of its first k - 1 measurements from
    the pre-step state near the detector, so P is a squared norm at its
    end and, inside it, that norm plus the later losses.  The per-step
    loop is the reference: P agrees to 2 n eps relative, and the exact
    kind's p to 1e-10 relative wherever it exceeds 1e-10.  A run is
    ceil(n_max / k) super-steps from the first measurement; when n_max is
    no multiple of k the last one is partial, its measurements past n_max
    dropped.
    """

    def assert_matches_per_step_loop(self, monkeypatch, spec, kind, tau, n):
        chosen = chosen_steps(monkeypatch)
        series = stepped_series(spec, kind, tau, n, bulk_guard=False)
        [k] = chosen
        assert k > 1
        survival, p = per_step_band_series(spec, kind, tau, n)
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(series.P / survival - 1.0)) <= 2 * n * eps
        if kind is ModelKind.EXACT:
            kept = p > 1e-10
            assert np.max(np.abs(series.p[kept] / p[kept] - 1.0)) <= 1e-10
        # Inside each super-step, the partial last one too, every loss is
        # a sum of squares, so P never rises and a model's p is never
        # negative.  Super-steps start at measurements 1, k + 1, 2 k + 1, ...
        inside = np.arange(n) % k != 0
        assert np.all(series.p[inside] >= 0.0)
        assert np.all(np.diff(series.P)[inside[1:]] <= 0.0)
        return k

    # The detection-curves point: L = 1000, tau = 0.05, 4000 measurements.
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_detection_curves_point(self, monkeypatch, kind):
        self.assert_matches_per_step_loop(monkeypatch, default_geometry(1000), kind, 0.05, 4000)

    # Runs that reflect off both ends, with the detector next to either end
    # and 10 sites from the start, and n_max = 4003, no multiple of any k.
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("detector", [2, 110, 199])
    def test_reflecting_runs(self, monkeypatch, kind, detector):
        spec = LatticeSpec(L=200, detector_index=detector, initial_index=100)
        k = self.assert_matches_per_step_loop(monkeypatch, spec, kind, 0.05, 4003)
        assert 4003 % k

    # A run of 4003 measurements, no multiple of k, builds the band of k
    # steps and nothing else for the exact kind; a model builds its band of
    # one step, for its loss rows, and hands it to the build of its band of
    # k steps, which takes its rows near the defect from the step's k-th power.
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_bands_built_per_run(self, monkeypatch, kind):
        built = []
        step_band = dynamics._step_band

        def spy(spec, kind, tau, k=1, step=None):
            built.append((k, step is not None))
            return step_band(spec, kind, tau, k, step)

        monkeypatch.setattr(dynamics, "_step_band", spy)
        stepped_series(default_geometry(1000), kind, 0.05, 4003)
        assert built == ([(16, False)] if kind is ModelKind.EXACT else [(1, False), (16, True)])

    # The rule at tau = 0.05, L = 1000: a run too short to pay for the
    # setup keeps k = 1, and a long one goes to k = 16 for every kind, the
    # 4000 measurements of the detection-curves point too.  On a 500-site
    # chain at tau = 3 a model's probe segment of 2 steps holds 364 sites
    # or more, and model1 keeps k = 1, while the exact kind takes k = 4.
    @pytest.mark.parametrize(
        "kind,L,tau,n,k",
        [
            (ModelKind.EXACT, 1000, 0.05, 399, 1),
            (ModelKind.EXACT, 1000, 0.05, 400, 4),
            (ModelKind.EXACT, 1000, 0.05, 10**6, 16),
            (ModelKind.MODEL1, 1000, 0.05, 1999, 1),
            (ModelKind.MODEL1, 1000, 0.05, 10**6, 16),
            (ModelKind.MODEL2, 1000, 0.05, 1999, 1),
            (ModelKind.MODEL2, 1000, 0.05, 10**6, 16),
            (ModelKind.EXACT, 1000, 0.05, 4000, 16),
            (ModelKind.MODEL1, 1000, 0.05, 4000, 16),
            (ModelKind.MODEL2, 1000, 0.05, 4000, 16),
            (ModelKind.MODEL1, 500, 3.0, 4000, 1),
            (ModelKind.EXACT, 500, 3.0, 4000, 4),
        ],
    )
    def test_steps_per_gemm(self, kind, L, tau, n, k):
        assert dynamics._steps_per_gemm(default_geometry(L), kind, tau, n) == k

    # The benchmark's short workloads: every engine run of optimal-tr at
    # tau = 0.25 (60 measurements) and of reset-survival up to t_r = 10
    # (40 measurements) takes one measurement per GEMM.
    @pytest.mark.parametrize(
        "recipe,config",
        [
            ("optimal-tr", "tau = 0.25\nmodel = all\ntr_sweep = 0.75:15.0:0.75\n"),
            ("reset-survival", "tau = 0.25\nhorizon = 50\ntr_sweep = 2.5,5.0,10.0\n"),
        ],
    )
    def test_short_runs_step_one_measurement_at_a_time(self, monkeypatch, tmp_path, recipe, config):
        from qreset.cli import main

        chosen = chosen_steps(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main([recipe, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert chosen and set(chosen) == {1}

    # The exact kind's renewal rows give the detector amplitudes of the
    # first k - 1 projected steps, and with their correction the band of k
    # steps ends where k - 1 projected steps and one more step end: the
    # detector site then holds the k-th amplitude.
    @pytest.mark.parametrize("detector", [2, 30, 39])
    def test_detector_rows_are_the_projected_amplitudes(self, detector):
        spec = LatticeSpec(L=40, detector_index=detector, initial_index=20)
        tau, k, s = 0.25, 6, detector - 1
        v = real_dense_step(spec, ModelKind.EXACT, tau)
        c0, M, C = dynamics._detector_rows(spec.L, s, tau, k)
        cols = slice(c0, c0 + M.shape[1])
        psi = np.zeros(spec.L)
        psi[cols] = np.random.default_rng(detector).standard_normal(M.shape[1])
        phi, amps = psi.copy(), []
        for _ in range(k - 1):
            phi = v @ phi
            amps.append(phi[s])
            phi[s] = 0.0
        assert np.max(np.abs(M @ psi[cols] - amps)) <= 1e-14
        full = np.linalg.matrix_power(v, k) @ psi
        full[cols] -= C @ np.array(amps)
        assert np.max(np.abs(full - v @ phi)) <= 1e-14

    # The free lines of V .. V^(k-1) go through one image sum for the rows
    # and one for the columns; the reference takes one call per line.
    @pytest.mark.parametrize("k", [4, 16])
    @pytest.mark.parametrize("L,detector,tau", [(40, 2, 0.25), (40, 30, 0.25), (40, 39, 0.25), (1000, 510, 0.05)])
    def test_detector_rows_take_one_image_sum_for_every_line(self, L, detector, tau, k):
        s = detector - 1
        c0, M, C = dynamics._detector_rows(L, s, tau, k)
        lines = [dynamics._free_line(m * tau) for m in range(1, k)]
        h = max(len(line) for line in lines) // 2 - 1
        assert c0 == max(s - h, 0)
        cols, site = np.arange(c0, min(s + h + 1, L))[None, :], np.array([[s]])
        rows = np.concatenate([dynamics._free_entries(line, L, site, cols) for line in lines])
        ret, renewal = rows[:, s - c0], rows.copy()
        for i in range(1, k - 1):
            renewal[i] -= ret[:i][::-1] @ renewal[:i]
        assert np.array_equal(M, renewal)
        columns = [dynamics._free_entries(line, L, cols.T, site) for line in lines[::-1]]
        assert np.array_equal(C, np.concatenate(columns, axis=1))

    # A model's loss rows at the k its run takes, on the detection-curves
    # point and the reflecting runs with the detector next to either end.
    # F starts and ends on a column that holds an entry above the cutoff.
    # W is only defined up to a rotation of its rows, so each row block
    # W S^m is held to the dense step's through its Gram matrix, the
    # quadratic form whose value is the loss, to a few eps (the rounding
    # of 1 - S^T S); and every column of the dense W S^m outside F's
    # span stays below the cutoff times F's largest entry.
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    @pytest.mark.parametrize("L,detector", [(1000, 510), (200, 2), (200, 199)])
    def test_loss_rows_cut_to_reach(self, kind, L, detector):
        spec = LatticeSpec(L=L, detector_index=detector, initial_index=L // 2)
        tau, s = 0.05, detector - 1
        k = dynamics._steps_per_gemm(spec, kind, tau, 4000)
        band = dynamics._step_band(spec, kind, tau)
        reach = len(dynamics._step_band(spec, kind, tau, k, band)[0])
        c0, F = dynamics._loss_rows(band, L, s, k, reach)
        top = np.abs(F).max()
        cut = dynamics.BAND_CUTOFF * top
        assert np.abs(F[:, 0]).max() > cut and np.abs(F[:, -1]).max() > cut
        # X: the detector's run of slab rows and one block on each side.
        bulk, runs = band
        b = len(bulk)
        r0, r1 = next((q, q + len(slab) // b) for q, slab in runs if q * b <= s < q * b + len(slab))
        x = slice(max(r0 - 1, 0) * b, min((r1 + 1) * b, L))
        step = real_dense_step(spec, kind, tau)
        lam, u = np.linalg.eigh(np.eye(x.stop - x.start) - step[:, x].T @ step[:, x])
        r = len(F) // (k - 1)
        w = np.zeros((r, L))
        w[:, x] = np.sqrt(lam[-r:])[:, None] * u[:, -r:].T
        span = np.zeros(L, dtype=bool)
        span[c0 : c0 + F.shape[1]] = True
        eps = np.finfo(np.float64).eps
        for m in range(k - 1):
            w = w @ step
            rows = F[m * r : (m + 1) * r]
            assert np.max(np.abs(rows.T @ rows - w[:, span].T @ w[:, span])) <= 8 * eps
            assert np.max(np.abs(w[:, ~span])) <= cut

    # A model's band of k steps takes its rows near the defect from the k-th
    # power of its one-step band on the probe segment.  Held to the k-th
    # power of the dense step at every k from 2 to 16, on the
    # detection-curves point, the reflecting runs and a 40-site chain at
    # tau = 1 and 3: the dense power's half-width, slabs on exactly the
    # block rows within B_k of the defect or b of an end, and every entry
    # within 1.2e-14.  The largest distance measured is 7.1e-15, as far as
    # a Taylor probe of e^{kA} lies: the dense power has rounding of its own.
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    @pytest.mark.parametrize(
        "L,detector,tau",
        [(1000, 510, 0.05), (200, 2, 0.05), (200, 110, 0.05), (200, 199, 0.05), (40, 30, 1.0), (40, 30, 3.0)],
    )
    def test_band_of_k_steps_is_the_power_of_the_step(self, kind, L, detector, tau):
        spec = LatticeSpec(L=L, detector_index=detector, initial_index=L // 2)
        step = real_dense_step(spec, kind, tau)
        a = dynamics._gauge_defect(spec, kind, tau)
        first, last = min(a)[0], max(a)[0]
        band, power = dynamics._step_band(spec, kind, tau), step
        for k in range(2, 17):
            power = power @ step
            bulk, runs = dynamics._step_band(spec, kind, tau, k, band)
            oracle = band_blocks(power)
            blocks = block_rows(bulk, runs, L)
            assert blocks.shape == oracle.shape
            assert np.max(np.abs(blocks - oracle)) <= 1.2e-14
            b = len(bulk)
            B = dynamics._probe_half_width({ij: k * v for ij, v in a.items()}, k * tau, L)
            ranges = ((first - B, last + B + 1), (0, b), (L - b, L))
            held = {q for r0, r1 in ranges for q in range(max(r0, 0) // b, (min(r1, L) - 1) // b + 1)}
            assert {q for k0, slab in runs for q in range(k0, k0 + len(slab) // b)} == held

    # A slab row within b of an end is the free open chain's image sum, and
    # every other one not near the defect the bulk row: the slabs equal the
    # image sum taken over the whole run, at one step and at the rule's k.
    @pytest.mark.parametrize(
        "L,detector,tau", [(200, 2, 0.05), (200, 110, 0.05), (200, 199, 0.05), (40, 30, 1.0), (40, 30, 3.0)]
    )
    def test_slabs_take_image_sums_within_b_of_an_end(self, L, detector, tau):
        spec = LatticeSpec(L=L, detector_index=detector, initial_index=L // 2)
        for kind in ModelKind:
            for k in {1, dynamics._steps_per_gemm(spec, kind, tau, 4000)}:
                bulk, runs = dynamics._step_band(spec, kind, tau, k)
                b, line = len(bulk), dynamics._free_line(k * tau)
                # The rows near the defect, first .. last: none for the exact kind.
                a, first, last = dynamics._gauge_defect(spec, kind, tau), L, -1
                if a:
                    B = dynamics._probe_half_width({ij: k * v for ij, v in a.items()}, k * tau, L)
                    first, last = min(a)[0] - B, max(a)[0] + B
                for k0, slab in runs:
                    rows = np.arange(k0 * b, k0 * b + len(slab))[:, None]
                    cols = np.arange((k0 - 1) * b, (k0 + 1) * b + len(slab))[None, :]
                    keep = (rows < L) & (cols >= 0) & (cols < L) & (np.abs(cols - rows) <= b)
                    whole = np.where(keep, dynamics._free_entries(line, L, rows, cols), 0.0)
                    free = (rows[:, 0] < first) | (rows[:, 0] > last)
                    assert np.array_equal(slab[free], whole[free])


class TestOneProbe:
    """The exact kind probes nothing, and each model probes its defect's segment once.

    The free chain's rows are the closed-form Bessel row and its mirror
    images, so no run, however far it reflects, probes again.
    """

    @staticmethod
    def probe_calls(monkeypatch) -> list:
        """Records "bound" for each half-width bound and the row count of each probe."""
        calls = []
        probe, half_width = dynamics._probe_block, dynamics._probe_half_width

        def counted(a, tau, lo, n, P):
            calls.append(n)
            return probe(a, tau, lo, n, P)

        def bounded(a, tau, L):
            calls.append("bound")
            return half_width(a, tau, L)

        monkeypatch.setattr(dynamics, "_probe_block", counted)
        monkeypatch.setattr(dynamics, "_probe_half_width", bounded)
        return calls

    # A model's probe covers its defect's rows and 2B past them on each
    # side, clipped to the chain: one contiguous stretch.
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("tau", [0.05, 0.25, 1.0])
    @pytest.mark.parametrize("L,detector", [(500, 260), (500, 1), (500, 3), (40, 20)])
    def test_step_band_probes_once(self, monkeypatch, kind, tau, L, detector):
        if kind is ModelKind.MODEL1 and detector == 1:
            detector = 2
        spec = LatticeSpec(L=L, detector_index=detector, initial_index=L // 2)
        B = probe_half_width(spec, kind, tau)
        calls = self.probe_calls(monkeypatch)
        dynamics._step_band(spec, kind, tau)
        s = detector - 1
        # The first and last rows the model changes; the exact kind changes none.
        span = {ModelKind.MODEL1: (s - 1, s + 1), ModelKind.MODEL2: (s, s)}.get(kind)
        rows = min(L, span[1] + 2 * B + 1) - max(0, span[0] - 2 * B) if span else None
        assert calls == (["bound", rows] if span else [])

    # A segment of fewer than 2B + 1 rows gives each row its own probe
    # column: at L = 40, tau = 1 the segment is the whole chain, n = 40,
    # while 2B + 1 is 75 for model2.
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_probe_is_no_wider_than_its_segment(self, monkeypatch, kind):
        shapes = []
        probe = dynamics._probe_block

        def spy(a, tau, lo, n, P):
            shapes.append((n, P))
            return probe(a, tau, lo, n, P)

        monkeypatch.setattr(dynamics, "_probe_block", spy)
        dynamics._step_band(default_geometry(40), kind, 1.0)
        [(n, P)] = shapes
        assert P <= n

    # A model run of 4003 measurements at k = 16 probes only for its band of
    # one step: its band of 16 steps is that band's power.
    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_super_stepped_run_probes_once(self, monkeypatch, kind):
        chosen = chosen_steps(monkeypatch)
        calls = self.probe_calls(monkeypatch)
        nh_survival_series(default_geometry(1000), kind, 0.05, 4003)
        assert chosen == [16]
        assert len([n for n in calls if n != "bound"]) == 1

    # Runs that reflect off both ends, from the middle and next to an end,
    # make no probe past the band's one.
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("L,detector,initial,n", [(300, 150, 140, 400), (200, 170, 3, 300)])
    def test_reflecting_run_probes_once(self, monkeypatch, kind, L, detector, initial, n):
        calls = self.probe_calls(monkeypatch)
        spec = LatticeSpec(L=L, detector_index=detector, initial_index=initial)
        stepped_series(spec, kind, 0.25, n, bulk_guard=False)
        # One bound and one probe per model, none for the exact kind.
        assert len(calls) == (0 if kind is ModelKind.EXACT else 2)


def run_isolated(code: str) -> object:
    """The JSON that ``code`` prints, run in a fresh interpreter with a timeout.

    A loop that never ends then fails the test at the timeout instead of
    hanging the suite.
    """
    path = [str(Path(qreset.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(out.stdout)


class TestLargeSteps:
    """The a priori bounds end for every finite step.

    Their terms ``x^h / h!`` rise to about e^x before they fall, past the
    largest float64 once x exceeds about 709: x is tau for the Bessel
    row's order, and the probe's row sum, 2 tau or more, for the
    half-width.  Each case runs in a fresh interpreter with a timeout.
    """

    # B - S is the smallest h >= 2x - 1 with x^h / h! <= BAND_CUTOFF / 2,
    # checked in logarithms: x is the largest off-diagonal row sum, 2 tau
    # for model 2 and tau + tau^2 / 2 (a free hop and the bridge) for
    # model 1, whose bridge skips S = 1 site.
    @pytest.mark.parametrize("tau", [400.0, 1000.0])
    def test_bounds_end(self, tau):
        widths, b = run_isolated(
            "import json\n"
            "from qreset import LatticeSpec, ModelKind, dynamics\n"
            "spec = LatticeSpec(40, 20, 10)\n"
            f"widths = {{k.value: dynamics._probe_half_width(dynamics._gauge_defect(spec, k, {tau}), {tau}, 40)"
            " for k in (ModelKind.MODEL1, ModelKind.MODEL2)}\n"
            f"print(json.dumps([widths, len(dynamics._bessel_row(2 * {tau})) - 1]))\n"
        )
        floor = math.log(dynamics.BAND_CUTOFF / 2)
        for kind, x, skipped in (("model1", tau + tau**2 / 2, 1), ("model2", 2 * tau, 0)):
            h = widths[kind] - skipped

            def log_term(k):
                return k * math.log(x) - math.lgamma(k + 1)

            assert h + 1 >= 2 * x and log_term(h) <= floor + 1e-6
            assert h < 2 * x or log_term(h - 1) > floor - 1e-6
        assert b > 2 * tau

    def test_bessel_row_at_large_argument(self):
        mpmath = pytest.importorskip("mpmath")
        orders = [0, 1, 2, 100, 800, 1599, 1600, 1650]
        row = np.array(run_isolated(
            "import json\n"
            "from qreset import dynamics\n"
            "print(json.dumps(dynamics._bessel_row(1600.0).tolist()))\n"
        ))
        b = len(row) - 1
        with mpmath.workdps(40):
            exact = {k: float(mpmath.besselj(k, 1600)) for k in orders + [b, b + 1]}
        assert abs(exact[b + 1]) <= dynamics.BAND_CUTOFF < abs(exact[b])
        for k in orders + [b]:
            assert abs(row[k] - exact[k]) <= 2.2e-16

    def test_measured_evolution_at_large_step(self):
        P, p = run_isolated(
            "import json\n"
            "from qreset import LatticeSpec, measured_evolution\n"
            "s = measured_evolution(LatticeSpec(40, 30, 20), 800, 2, bulk_guard=False)\n"
            "print(json.dumps([s.P.tolist(), s.p.tolist()]))\n"
        )
        assert all(0 <= v <= 1 for v in P + p)
        assert abs(1 - p[0] - P[0]) <= 1e-12 and abs(P[0] - p[1] - P[1]) <= 1e-12


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

    # An infinite step used to hang in the probe's half-width bound, and a
    # NaN one to fail in the gauge check with a message about diagonals.
    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_non_finite_tau_rejected(self, tau):
        spec = LatticeSpec(L=40, detector_index=30, initial_index=20)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            measured_evolution(spec, tau, 5, bulk_guard=False)
        for kind in (ModelKind.MODEL1, ModelKind.MODEL2):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                nh_survival_series(spec, kind, tau, 5, bulk_guard=False)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            renewal_amplitudes(spec, tau, 5)

    # Steps so short that no hop reaches the cutoff: the band is the
    # diagonal plus the unit-width floor, and a start 10 sites from the
    # detector is never detected.
    @pytest.mark.parametrize("tau", [1e-300, 1e-33])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_tiny_step_keeps_every_particle(self, kind, tau):
        spec = LatticeSpec(L=40, detector_index=30, initial_index=20)
        series = stepped_series(spec, kind, tau, 10)
        assert np.all(series.P == 1.0)
        assert np.all(series.p == 0.0)


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
