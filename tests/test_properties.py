"""Structural invariants checked over randomized inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreset import (
    LatticeSpec,
    ModelKind,
    build_hamiltonian,
    measured_evolution,
    nh_survival_series,
    propagator,
)

from conftest import dense_step, restart_pmf


def draw_spec(data, half_l_min=1, half_l_max=10, interior_detector=False):
    half_l = data.draw(st.integers(min_value=half_l_min, max_value=half_l_max))
    L = 2 * half_l
    lo, hi = (2, L - 1) if interior_detector else (1, L)
    s = data.draw(st.integers(min_value=lo, max_value=hi))
    initial = data.draw(
        st.integers(min_value=1, max_value=L).filter(lambda j: j != s)
    )
    return LatticeSpec(L=L, detector_index=s, initial_index=initial)


class TestUnitarity:
    @settings(max_examples=30, deadline=None)
    @given(tau=st.floats(min_value=0.05, max_value=2.0), data=st.data())
    def test_free_step_is_unitary(self, tau, data):
        spec = draw_spec(data)
        u = dense_step(spec, ModelKind.EXACT, tau)
        gap = np.max(np.abs(u.conj().T @ u - np.eye(spec.L)))
        assert gap <= 1e-12


class TestNormMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(tau=st.floats(min_value=0.1, max_value=1.5), data=st.data())
    def test_projective_survival_never_increases(self, tau, data):
        spec = draw_spec(data, half_l_min=2)
        series = measured_evolution(spec, tau, 25, bulk_guard=False)
        padded = np.concatenate(([1.0], series.P))
        assert np.all(np.diff(padded) <= 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from([ModelKind.MODEL1, ModelKind.MODEL2]),
        tau=st.floats(min_value=0.1, max_value=1.5),
        data=st.data(),
    )
    def test_dissipative_survival_never_increases(self, kind, tau, data):
        spec = draw_spec(data, half_l_min=2, interior_detector=True)
        series = nh_survival_series(spec, kind, tau, 25, bulk_guard=False)
        padded = np.concatenate(([1.0], series.P))
        assert np.all(np.diff(padded) <= 1e-12)


class TestRestartMass:
    @settings(max_examples=20, deadline=None)
    @given(
        tau=st.floats(min_value=0.1, max_value=1.5),
        r=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_pmf_plus_survival_is_unity(self, tau, r, k, data):
        spec = draw_spec(data, half_l_min=2)
        base = measured_evolution(spec, tau, r, bulk_guard=False)
        pmf = restart_pmf(base, r, k * r)
        q = base.P[r - 1]
        assert abs(np.sum(pmf) + q**k - 1.0) <= 1e-12


class TestSemigroup:
    @settings(max_examples=15, deadline=None)
    @given(
        t1=st.floats(min_value=0.2, max_value=1.5),
        t2=st.floats(min_value=0.2, max_value=1.5),
        data=st.data(),
    )
    def test_hermitian_path_composes(self, t1, t2, data):
        spec = draw_spec(data, half_l_min=2, half_l_max=8)
        h = build_hamiltonian(spec, ModelKind.EXACT)
        u1 = propagator(h, t1, hermitian=True)
        u2 = propagator(h, t2, hermitian=True)
        u12 = propagator(h, t1 + t2, hermitian=True)
        assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(
        t1=st.floats(min_value=0.2, max_value=1.5),
        t2=st.floats(min_value=0.2, max_value=1.5),
        tau=st.floats(min_value=0.2, max_value=1.0),
        data=st.data(),
    )
    def test_pade_path_composes(self, t1, t2, tau, data):
        spec = draw_spec(data, half_l_min=2, half_l_max=8)
        h = build_hamiltonian(spec, ModelKind.MODEL2, tau=tau)
        u1 = propagator(h, t1, hermitian=False)
        u2 = propagator(h, t2, hermitian=False)
        u12 = propagator(h, t1 + t2, hermitian=False)
        assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-10


class TestWindowArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10**6),
        r=st.integers(min_value=1, max_value=10**4),
    )
    def test_measurement_index_decomposes_uniquely(self, n, r):
        windows = (n - 1) // r
        offset = 1 + (n - 1) % r
        assert n == r * windows + offset
        assert 1 <= offset <= r
        assert windows >= 0


class TestEffectiveRestartFactorization:
    @settings(max_examples=10, deadline=None)
    @given(
        tau=st.floats(min_value=0.2, max_value=1.0),
        r=st.integers(min_value=2, max_value=10),
        k=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_window_survival_compounds_exponentially(self, tau, r, k, data):
        # Restarts erase memory, so k windows survive with exactly the
        # k-th power of one window's survival: e^{-alpha k}.
        spec = draw_spec(data, half_l_min=2, half_l_max=8, interior_detector=True)
        base = nh_survival_series(spec, ModelKind.MODEL2, tau, r, bulk_guard=False)
        q = base.P[r - 1]
        if q <= 1e-300:
            return  # fully absorbed window; nothing to compound
        from qreset import reset_survival

        traj = reset_survival(base, r, k * r)
        alpha = -np.log(q)
        assert abs(traj[k * r - 1] - np.exp(-alpha * k)) <= 1e-10
