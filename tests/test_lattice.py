"""Operator construction and propagator contracts."""

import numpy as np
import pytest

from qreset import (
    ExpmScalingError,
    LatticeSpec,
    ModelKind,
    build_hamiltonian,
    propagator,
    step_propagator,
)

from conftest import taylor_expm


class TestLatticeSpec:
    def test_valid_spec(self):
        spec = LatticeSpec(L=10, detector_index=7, initial_index=5)
        assert spec.L == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(L=5, detector_index=3, initial_index=2),  # odd L
            dict(L=0, detector_index=1, initial_index=1),
            dict(L=10, detector_index=0, initial_index=5),
            dict(L=10, detector_index=11, initial_index=5),
            dict(L=10, detector_index=7, initial_index=0),
            dict(L=10, detector_index=7, initial_index=11),
        ],
    )
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ValueError):
            LatticeSpec(**kwargs)


class TestTightBinding:
    def test_two_sites(self):
        spec = LatticeSpec(L=2, detector_index=2, initial_index=1)
        assert np.array_equal(build_hamiltonian(spec, ModelKind.EXACT), [[0, 1], [1, 0]])

    def test_four_sites_open_boundary(self):
        spec = LatticeSpec(L=4, detector_index=2, initial_index=1)
        h = build_hamiltonian(spec, ModelKind.EXACT)
        expected = np.zeros((4, 4))
        for j in range(3):
            expected[j, j + 1] = expected[j + 1, j] = 1.0
        assert np.array_equal(h, expected)
        assert h[0, 3] == 0.0 and h[3, 0] == 0.0

    def test_spectrum_matches_open_chain_closed_form(self):
        spec = LatticeSpec(L=500, detector_index=260, initial_index=250)
        h = build_hamiltonian(spec, ModelKind.EXACT)
        eigs = np.sort(np.linalg.eigvalsh(h))
        k = np.arange(1, 501)
        expected = np.sort(2.0 * np.cos(k * np.pi / 501.0))
        assert np.max(np.abs(eigs - expected)) < 1e-10


class TestModel1:
    def test_hand_expanded_four_site_example(self):
        spec = LatticeSpec(L=4, detector_index=2, initial_index=1)
        m = build_hamiltonian(spec, ModelKind.MODEL1, 0.5)
        expected = np.zeros((4, 4), dtype=np.complex128)
        expected[2, 3] = expected[3, 2] = 1.0
        expected[0, 2] = expected[2, 0] = -0.25j
        expected[0, 0] = expected[2, 2] = -0.25j
        assert np.max(np.abs(m - expected)) == 0.0

    def test_small_tau_limit_is_detector_decoupled_hopping(self):
        spec = LatticeSpec(L=10, detector_index=5, initial_index=3)
        tau = 1e-3
        m = build_hamiltonian(spec, ModelKind.MODEL1, tau)
        h_s = np.zeros((10, 10))
        for j in range(9):
            if j in (3, 4):  # bonds (4,5) and (5,6), 1-based
                continue
            h_s[j, j + 1] = h_s[j + 1, j] = 1.0
        gap = np.max(np.abs(m - h_s))
        assert 0.0 < gap <= tau

    def test_dissipator_eigenvalues_are_zero_and_tau(self):
        spec = LatticeSpec(L=12, detector_index=6, initial_index=3)
        tau = 0.8
        m = build_hamiltonian(spec, ModelKind.MODEL1, tau)
        dissipator = (m - m.conj().T) / (-2j)  # PSD loss operator
        eigs = np.sort(np.linalg.eigvalsh(dissipator))
        assert np.max(np.abs(eigs[:-1])) < 1e-14
        assert abs(eigs[-1] - tau) < 1e-14

    @pytest.mark.parametrize("s", [1, 6])
    def test_edge_detector_rejected(self, s):
        spec = LatticeSpec(L=6, detector_index=s, initial_index=3)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, ModelKind.MODEL1, 0.5)

    def test_nonpositive_tau_rejected(self):
        spec = LatticeSpec(L=6, detector_index=3, initial_index=2)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, ModelKind.MODEL1, 0.0)


class TestModel2:
    def test_two_site_example(self):
        spec = LatticeSpec(L=2, detector_index=2, initial_index=1)
        m = build_hamiltonian(spec, ModelKind.MODEL2, 1.0)
        assert np.array_equal(m, np.array([[0, 1], [1, -2j]], dtype=np.complex128))

    def test_single_absorbing_diagonal_entry(self):
        spec = LatticeSpec(L=500, detector_index=260, initial_index=250)
        m = build_hamiltonian(spec, ModelKind.MODEL2, 0.25)
        diag = np.diag(m)
        assert diag[259] == -8j
        assert np.count_nonzero(diag) == 1

    def test_nonpositive_tau_rejected(self):
        spec = LatticeSpec(L=6, detector_index=3, initial_index=2)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, ModelKind.MODEL2, -0.1)


class TestBuildHamiltonianDispatch:
    def test_exact_ignores_tau(self):
        spec = LatticeSpec(L=6, detector_index=4, initial_index=2)
        assert np.array_equal(
            build_hamiltonian(spec, ModelKind.EXACT, tau=0.5),
            build_hamiltonian(spec, ModelKind.EXACT),
        )

    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_models_require_tau(self, kind):
        spec = LatticeSpec(L=6, detector_index=4, initial_index=2)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, kind)


class TestPropagator:
    def test_single_bond_closed_form(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = 0.7
        u = propagator(m, t, hermitian=True)
        expected = np.array(
            [[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]]
        )
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_pade_path_matches_closed_form(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = 0.7
        u = propagator(m, t, hermitian=False)
        expected = np.array(
            [[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]]
        )
        assert np.max(np.abs(u - expected)) < 1e-12

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_zero_time_limit_is_identity(self, hermitian):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = propagator(m, 1e-14, hermitian=hermitian)
        assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_model2_matches_taylor_oracle(self):
        spec = LatticeSpec(L=6, detector_index=4, initial_index=3)
        tau = 0.5
        m = build_hamiltonian(spec, ModelKind.MODEL2, tau)
        u = propagator(m, 0.5, hermitian=False)
        assert np.max(np.abs(u - taylor_expm(m, 0.5))) < 1e-10

    def test_model1_matches_taylor_oracle(self):
        spec = LatticeSpec(L=6, detector_index=3, initial_index=5)
        tau = 0.5
        m = build_hamiltonian(spec, ModelKind.MODEL1, tau)
        u = propagator(m, 1.3, hermitian=False)
        assert np.max(np.abs(u - taylor_expm(m, 1.3))) < 1e-10

    def test_hermitian_path_rejects_non_hermitian_input(self):
        spec = LatticeSpec(L=6, detector_index=4, initial_index=3)
        m = build_hamiltonian(spec, ModelKind.MODEL2, 0.5)
        with pytest.raises(ValueError):
            propagator(m, 1.0, hermitian=True)

    def test_unitarity_of_hermitian_propagator(self):
        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        h = build_hamiltonian(spec, ModelKind.EXACT)
        u = propagator(h, 0.3, hermitian=True)
        assert np.max(np.abs(u.conj().T @ u - np.eye(20))) <= 1e-12

    @pytest.mark.parametrize("kind", [ModelKind.MODEL1, ModelKind.MODEL2])
    def test_effective_propagators_never_amplify(self, kind):
        spec = LatticeSpec(L=20, detector_index=14, initial_index=10)
        m = build_hamiltonian(spec, kind, tau=0.5)
        u = propagator(m, 2.0, hermitian=False)
        assert np.max(np.linalg.svd(u, compute_uv=False)) <= 1.0 + 1e-10

    def test_semigroup_property_hermitian(self):
        spec = LatticeSpec(L=12, detector_index=8, initial_index=4)
        h = build_hamiltonian(spec, ModelKind.EXACT)
        u1 = propagator(h, 0.4, hermitian=True)
        u2 = propagator(h, 1.1, hermitian=True)
        u12 = propagator(h, 1.5, hermitian=True)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10

    def test_semigroup_property_pade(self):
        spec = LatticeSpec(L=12, detector_index=8, initial_index=4)
        m = build_hamiltonian(spec, ModelKind.MODEL2, 0.5)
        u1 = propagator(m, 0.4, hermitian=False)
        u2 = propagator(m, 1.1, hermitian=False)
        u12 = propagator(m, 1.5, hermitian=False)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10

    def test_scaling_cap_reported(self):
        m = np.array([[1e22, 0.0], [0.0, 1e22]])
        with pytest.raises(ExpmScalingError):
            propagator(m, 1.0, hermitian=False)

    def test_nonpositive_time_rejected(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            propagator(m, 0.0, hermitian=True)

    def test_result_matrix_is_read_only(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = propagator(m, 0.5, hermitian=True)
        with pytest.raises(ValueError):
            u[0, 0] = 1.0


class TestStepPropagator:
    def test_cached_and_consistent(self):
        spec = LatticeSpec(L=10, detector_index=6, initial_index=5)
        a = step_propagator(spec, ModelKind.MODEL2, 0.5)
        b = step_propagator(spec, ModelKind.MODEL2, 0.5)
        assert a is b
        direct = propagator(
            build_hamiltonian(spec, ModelKind.MODEL2, 0.5), 0.5, hermitian=False
        )
        assert np.array_equal(a, direct)

    def test_cache_is_bounded(self):
        spec = LatticeSpec(L=10, detector_index=6, initial_index=5)
        step_propagator.cache_clear()
        for tau in (0.1, 0.2, 0.3, 0.4):
            step_propagator(spec, ModelKind.MODEL2, tau)
        assert step_propagator.cache_info().currsize <= len(ModelKind)

    def test_exact_step_is_unitary_operator(self):
        spec = LatticeSpec(L=10, detector_index=6, initial_index=5)
        u = step_propagator(spec, ModelKind.EXACT, 0.3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(10))) <= 1e-12
        assert not u.flags.writeable
