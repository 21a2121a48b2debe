"""The public surface, and the names the benchmark harness binds by name."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import qreset
from qreset import LatticeSpec, analysis, cli, dynamics, lattice, restart

SUBMODULES = (lattice, dynamics, restart, analysis, cli)

# Duplicate builders, echo-only dataclasses, the unused bundle, the test
# oracles, the routines no recipe runs (now in tests/conftest.py), the
# optimum and window gap the recipes now take themselves and the CLI
# internals: none of them is part of the top level.
NOT_EXPORTED = (
    "EvolutionOperator",
    "build_tb_hamiltonian",
    "build_model1_heff",
    "build_model2_heff",
    "ComparisonReport",
    "RestartResult",
    "run_restart",
    "RestartSpec",
    "AlphaResult",
    "OptimalTr",
    "delta_p_r",
    "mfdt_direct",
    "build_reset_heff",
    "fit_exponential",
    "FitResult",
    "optimal_tr_exact",
    "restart_pmf",
    "initial_state",
    "RunConfig",
    "CsvArtifact",
    "parse_config",
    "parse_values",
    "run_experiment",
    "sweep",
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestPublicSurface:
    @pytest.mark.parametrize("module", (qreset, *SUBMODULES), ids=lambda m: m.__name__)
    def test_every_exported_name_resolves_once(self, module):
        assert len(module.__all__) == len(set(module.__all__))
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []

    @pytest.mark.parametrize("name", NOT_EXPORTED)
    def test_removed_name_is_not_exported(self, name):
        assert not hasattr(qreset, name)
        assert name not in qreset.__all__

    def test_cli_binds_no_private_name_of_another_module(self):
        # The front end reaches the library through its public names only.
        tree = ast.parse(Path(inspect.getfile(cli)).read_text(encoding="utf-8"))
        borrowed = [
            f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qreset"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert borrowed == []


@pytest.fixture(scope="module")
def tracing():
    """``perfbench/tracing.py``, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


class TestBenchmarkBindings:
    def test_every_traced_call_site_resolves(self, tracing):
        missing = [
            (getattr(owner, "__name__", owner), attribute)
            for owner, attribute, _, _ in tracing.boundary_targets(qreset)
            if not callable(getattr(owner, attribute, None))
        ]
        assert missing == []

    def test_step_cache_keeps_its_controls(self):
        assert callable(lattice.step_propagator.cache_clear)
        assert callable(lattice.step_propagator.cache_info)

    def test_positional_parameters_the_tracer_reads(self):
        # The tracer reads these by position when the caller passes them so.
        assert list(inspect.signature(lattice.propagator).parameters)[2] == "hermitian"
        assert list(inspect.signature(cli.sweep).parameters)[3] == "values"

    def test_renewal_series_exposes_amplitudes(self):
        spec = LatticeSpec(L=4, detector_index=3, initial_index=2)
        assert qreset.renewal_amplitudes(spec, 0.5, 3).amplitudes.shape == (3,)
