"""Self-tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, percentile, self_times  # noqa: E402
from workloads import WORKLOADS, content_checks, score_run  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root [0, 10] has two overlapping children (as from two worker threads);
    # child a [1, 4] has a grandchild [2, 3]; child b [3, 6] runs past a.
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, 1),
        Span(2, "cli.run_experiment", 1.0, 4.0, 1, 1),
        Span(3, "lattice.propagator.pade", 2.0, 3.0, 2, 1),
        Span(4, "cli.run_experiment", 3.0, 6.0, 1, 1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0})


def test_self_time_clips_children_to_parent():
    spans = [Span(1, "cli.sweep", 0.0, 2.0, None, 1), Span(2, "cli.run_experiment", 1.5, 3.0, 1, 1)]
    assert self_times(spans)[1] == pytest.approx(1.5)


def test_tracer_nests_spans_and_restores_patches():
    class Owner:
        @staticmethod
        def inner():
            return 7

        @staticmethod
        def outer():
            return Owner.inner() + 1

    original = Owner.inner
    tracer = Tracer()
    targets = [(Owner, "outer", "cli.outer", None), (Owner, "inner", "lattice.inner", None)]
    with tracer.patched(targets):
        assert Owner.outer() == 8
    assert Owner.inner is original
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("lattice.inner", "cli.outer")
    assert inner.parent == outer.id and outer.parent is None


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == 89
    # ties at the top leave nothing beyond the percentile
    assert percentile([1.0] * 500, 50) is None


def test_latency_percentiles_report_sample_count():
    spans = [Span(i, "analysis.alpha", 0.0, float(i), None, 1) for i in range(1, 31)]
    report = tracing.latency_percentiles(spans)["analysis.alpha.point_s"]
    assert report == {"n": 30, "p50": 15.0, "p90": None}


def _tr_scan_outputs(out: Path) -> None:
    out.mkdir()
    rows = "\n".join(f"{0.75 * (i + 1):g},-0.0{i + 1}" for i in range(20))
    for model in ("model1", "model2"):
        (out / f"optimal_tr_{model}.csv").write_text(f"t_r,neg_alpha_over_tr\n{rows}\n")
    (out / "optimal_tr_summary.csv").write_text("model,t_star\nmodel1,6.75\nmodel2,6.75\n")


def test_corrupted_csv_counts_as_failure(tmp_path):
    w = WORKLOADS["tr-scan"]
    first, second = tmp_path / "first", tmp_path / "second"
    _tr_scan_outputs(first)
    _tr_scan_outputs(second)
    attempted, failed, reference = score_run(w, first, 0, None)
    assert (attempted, failed) == (40, 0)
    assert content_checks(w, first) == {"t_star_model1": True, "t_star_model2": True}
    assert score_run(w, second, 0, reference)[:2] == (41, 0)

    # Truncate one grid CSV: its 10 missing rows fail, and so does byte identity.
    path = second / "optimal_tr_model1.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:11]) + "\n")
    assert score_run(w, second, 0, reference)[:2] == (41, 11)

    (second / "optimal_tr_summary.csv").write_text("model,t_star\nmodel1,6.7x\nmodel2,9.0\n")
    assert content_checks(w, second) == {"t_star_model1": False, "t_star_model2": False}


def test_failed_exit_fails_every_grid_point(tmp_path):
    w = WORKLOADS["long-restart"]
    out = tmp_path / "out"
    out.mkdir()
    assert score_run(w, out, 1, None)[:2] == (3, 3)
    (out / "errors.log").write_text("t_r=5: boom\n")
    assert score_run(w, out, 2, None)[:2] == (3, 1)
