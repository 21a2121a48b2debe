"""Config parsing, CSV contracts, recipe smoke runs, and sweep semantics."""

import os
import re
import runpy
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qreset
from qreset import ConfigError, ModelKind, dynamics, step_propagator
from qreset.cli import (
    _CHUNK_ROWS,
    _render_rows,
    _restart_period,
    CsvArtifact,
    RunConfig,
    main,
    parse_config,
    parse_values,
    run_experiment,
    sweep,
)


# The nearer edge (site 1) lies 10 hops from the start, so a front of 4
# sites (horizon 2 at tau 0.25) keeps the bulk margin of 5.
SMALL = "L = 22\ndetector_index = 15\ninitial_index = 11\n"


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        config = parse_config("tau = 0.25\n")
        assert config.tau == 0.25
        assert config.L == 500
        assert config.detector_index == 260
        assert config.initial_index == 250
        assert config.model == "all"
        assert config.t_r is None and config.n_max is None

    def test_grid_aligned_restart_time(self):
        config = parse_config("tau = 0.25\nt_r = 6.5\n")
        assert config.resolve_r() == 26

    def test_off_grid_restart_time_rejected_with_exact_engine(self):
        with pytest.raises(ConfigError):
            parse_config("tau = 0.3\nt_r = 1.0\nmodel = exact\n")
        with pytest.raises(ConfigError):
            parse_config("tau = 0.3\nt_r = 1.0\n")  # model defaults to all
        with pytest.raises(ConfigError):
            # Dissipative windows are read off the same tau grid.
            parse_config("tau = 0.3\nt_r = 1.0\nmodel = model2\n")

    def test_seed_is_not_a_config_key(self):
        # Nor are the count and stem keys: t_r and horizon are the one form of
        # the restart period and the run length, and file names are fixed.
        for key, value in (("seed", "1"), ("r", "4"), ("n_max", "8"), ("output_path", "x")):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(f"tau = 0.25\n{key} = {value}\n")

    def test_comments_and_blank_lines(self):
        config = parse_config(
            "# full-line comment\n\ntau = 0.5  # trailing comment\nL = 20\n"
            "detector_index = 14\ninitial_index = 10\n"
        )
        assert config.tau == 0.5
        assert config.L == 20

    @pytest.mark.parametrize(
        "text",
        [
            "tau = 0.25\nwavelength = 3\n",  # unknown key
            "tau = 0.25\ntau = 0.5\n",  # duplicate
            "L = 20\n",  # missing tau
            "tau = abc\n",  # malformed number
            "tau 0.25\n",  # no '='
            "tau =\n",  # empty value
            "tau = 0.25\nr = 4\nt_r = 1.0\n",  # r is no key; t_r is the restart period
            "tau = 0.25\nn_max = 10\nhorizon = 5.0\n",  # n_max is no key; horizon is the run length
            "tau = 0.25\nhorizon = 0.1\n",  # horizon under one interval
            "tau = 1e-300\nhorizon = 1e10\n",  # horizon / tau overflows
            "tau = 0.25\nhorizon = 1e308\n",
            "tau = -0.25\n",
            "tau = inf\n",
        ],
    )
    def test_rejected_documents(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_horizon_folds_into_measurement_count(self):
        config = parse_config("tau = 0.25\nhorizon = 2.0\n")
        assert config.n_max == 8

    def test_odd_chain_length_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(tau=0.5, L=21)

    # The default detector, L/2 + 10, lies past the end of a short chain:
    # the message names the default and asks for detector_index, not a
    # value the config never set.
    def test_default_detector_outside_a_short_chain(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 4\ntau = 0.25\nhorizon = 2\n")
        out = tmp_path / "out"
        assert main(["pdet", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert "default detector_index L/2 + 10 = 12" in err and "set detector_index" in err
        assert not out.exists()

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(tau=0.5, model="model3")

    @pytest.mark.parametrize("tau", [float("inf"), float("nan"), 0.0])
    def test_tau_must_be_positive_and_finite(self, tau):
        with pytest.raises(ConfigError, match="tau must be positive and finite"):
            RunConfig(tau=tau)


class TestRestartPeriod:
    def test_grid_tolerance_is_relative_1e9(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point.
        assert parse_config("tau = 0.1\nt_r = 0.3\n").resolve_r() == 3
        assert parse_config(f"tau = 0.1\nt_r = {0.3 * (1 + 1e-10)!r}\n").resolve_r() == 3
        with pytest.raises(ConfigError, match="not a positive integer multiple of tau=0.1"):
            parse_config(f"tau = 0.1\nt_r = {0.3 * (1 + 1e-8)!r}\n")

    def test_off_grid_time_rejected(self):
        assert _restart_period(2.0, 0.5) == 4
        for t_r in (1.2, 0.2):  # between grid points, and below one interval
            with pytest.raises(ConfigError, match=f"t_r={t_r:g} is not"):
                _restart_period(t_r, 0.5)

    @pytest.mark.parametrize("recipe", ["reset-survival", "mfdt-sweep", "optimal-tr"])
    def test_off_grid_tr_sweep_rejected_before_any_run(self, tmp_path, capsys, recipe):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 40\ntau = 0.25\nhorizon = 2\ntr_sweep = 0.5, 0.6\n")
        out = tmp_path / "out"
        assert main([recipe, "--config", str(cfg), "--out", str(out)]) == 1
        assert "t_r=0.6 is not a positive integer multiple of tau=0.25" in capsys.readouterr().err
        assert not out.exists()

    def test_off_grid_pair_of_a_tau_sweep_fails_as_its_grid_point(self, tmp_path):
        # 0.5 sits on the grid of tau = 0.25 but not on that of tau = 0.3.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\ntr_sweep = 0.5\ntau_sweep = 0.25, 0.3\n")
        assert main(["mfdt-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert (tmp_path / "mfdt_sweep_tau0.25.csv").exists()
        assert "tau=0.3: t_r=0.5 is not" in (tmp_path / "errors.log").read_text()

    def test_t_r_is_checked_against_swept_tau_only(self, tmp_path):
        # The base tau = 0.3 never runs; t_r = 1.0 is 4 and 2 steps of the swept ones.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.3\nt_r = 1.0\nhorizon = 2.4\ntau_sweep = 0.25, 0.5\n")
        assert main(["delta-pr", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "delta_pr_tau0.25.csv").exists()
        assert (tmp_path / "delta_pr_tau0.5.csv").exists()
        assert not (tmp_path / "errors.log").exists()

    def test_off_grid_t_r_of_a_tau_sweep_fails_as_its_grid_point(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nt_r = 1.0\nhorizon = 2.0\ntau_sweep = 0.25, 0.3\n")
        assert main(["delta-pr", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert (tmp_path / "delta_pr_tau0.25.csv").exists()
        assert "tau=0.3: t_r=1 is not" in (tmp_path / "errors.log").read_text()


class TestParseValues:
    def test_comma_list(self):
        assert parse_values("0.5, 1.0, 1.5") == (0.5, 1.0, 1.5)

    def test_inclusive_range(self):
        assert parse_values("0.25:1.0:0.25") == (0.25, 0.5, 0.75, 1.0)

    def test_range_with_inexact_step_stays_inside(self):
        values = parse_values("1:2:0.3")
        assert len(values) == 4
        assert values[0] == 1.0
        assert abs(values[-1] - 1.9) < 1e-12

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "-1,2", "0,1", "2:1:0.5", "1:2", "1:2:0", "1:2:-0.5", "a,b"],
    )
    def test_rejected_lists(self, text):
        with pytest.raises(ConfigError):
            parse_values(text)


class TestCsvArtifact:
    def test_formatting_contract(self, tmp_path):
        artifact = CsvArtifact(
            tmp_path / "a.csv",
            ("T", "value"),
            [(1.0, 1.0 / 3.0), (2.0, np.pi)],
        )
        artifact.write()
        text = (tmp_path / "a.csv").read_text(encoding="utf-8")
        assert text == "T,value\n1,0.333333333333\n2,3.14159265359\n"
        assert "\r" not in text

    def test_string_first_column_skips_monotonicity(self, tmp_path):
        artifact = CsvArtifact(
            tmp_path / "s.csv", ("model", "t_star"), [(2.0,), (1.0,)], ("model1", "model2")
        )
        artifact.write()
        header, rows = read_csv(tmp_path / "s.csv")
        assert rows == [["model1", "2"], ["model2", "1"]]

    def test_non_finite_rejected(self, tmp_path):
        artifact = CsvArtifact(tmp_path / "x.csv", ("T", "v"), [(1.0, np.inf)])
        with pytest.raises(ValueError):
            artifact.write()

    def test_non_increasing_lead_rejected(self, tmp_path):
        artifact = CsvArtifact(
            tmp_path / "x.csv", ("T", "v"), [(1.0, 0.0), (1.0, 0.0)]
        )
        with pytest.raises(ValueError):
            artifact.write()

    def test_row_width_mismatch_rejected(self, tmp_path):
        for rows in ([(1.0,)], [(1.0, 2.0), (2.0,)], np.zeros(3)):
            with pytest.raises(ValueError):
                CsvArtifact(tmp_path / "x.csv", ("T", "v"), rows).write()
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file_and_no_temp(self, tmp_path):
        target = tmp_path / "x.csv"
        CsvArtifact(target, ("T", "v"), [(1.0, 2.0)]).write()
        before = target.read_bytes()
        bad = CsvArtifact(target, ("T", "v"), [(1.0, 3.0), (2.0, np.nan)])
        with pytest.raises(ValueError):
            bad.write()
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    # Cells that stress the shortest-repr and exponent paths of %.12g, and
    # every numeric type a recipe or caller may hand over.
    HOSTILE = (
        5e-324,
        -0.0,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        1e16,
        2**60 + 1,
        7,
        np.int64(-3),
        np.float64(np.pi),
        np.float32(0.1),
        -2.2250738585072014e-308,
        0.1 + 0.2,
    )
    LEADS = (int, np.int64, float, np.float64)

    def hostile_rows(self, n_rows):
        rng = np.random.default_rng(n_rows)
        noise = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        return [
            (self.LEADS[i % 4](i), self.HOSTILE[i % len(self.HOSTILE)], noise[i])
            for i in range(n_rows)
        ]

    @staticmethod
    def per_cell_reference(header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(c if isinstance(c, str) else f"{float(c):.12g}" for c in row)
            )
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "n_rows",
        [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1],
        ids=["block-1", "block", "block+1", "2block+1"],
    )
    def test_chunked_rendering_matches_per_cell_formatting(self, tmp_path, n_rows):
        header = ("T", "hostile", "noise")
        rows = self.hostile_rows(n_rows)
        expected = self.per_cell_reference(header, rows)
        as_tuples = CsvArtifact(tmp_path / "t.csv", header, rows)
        as_array = CsvArtifact(
            tmp_path / "a.csv", header, np.array(rows, dtype=np.float64)
        )
        assert len(as_tuples.rows) == len(as_array.rows) == n_rows
        for artifact in (as_tuples, as_array):
            assert artifact.write().read_text(encoding="utf-8") == expected

    def test_text_first_column_renders_as_is(self, tmp_path):
        header = ("model", "hostile")
        values = self.HOSTILE * (_CHUNK_ROWS // 6)
        labels = tuple(f"m{i % 3}" for i in range(len(values)))
        artifact = CsvArtifact(tmp_path / "s.csv", header, [(v,) for v in values], labels)
        assert len(artifact.rows) == len(values) > _CHUNK_ROWS
        expected = self.per_cell_reference(header, list(zip(labels, values)))
        assert artifact.write().read_text(encoding="utf-8") == expected

    # An int past int64 leaves an object table, where "3.5" would parse
    # as a number; such a table is rejected whole.
    @pytest.mark.parametrize(
        "rows",
        [
            [(1.0, "a"), (2.0, 3.0)],
            [(1.0, 2.0), (2.0, "3.5")],
            [(1, 2**70)],
            [(1, 2**70), (3, "3.5")],
        ],
    )
    def test_column_mixing_text_and_numbers_rejected(self, tmp_path, rows):
        with pytest.raises(ValueError, match="rows must be numbers"):
            CsvArtifact(tmp_path / "x.csv", ("T", "v"), rows).write()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels", [("model1",), ("model1", "model2", "model3")])
    def test_label_count_must_match_rows(self, tmp_path, labels):
        rows = [(2.0,), (1.0,)]
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 rows"):
            CsvArtifact(tmp_path / "s.csv", ("model", "t_star"), rows, labels).write()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("defect", ["non-finite", "non-increasing"])
    def test_defect_in_second_chunk_keeps_previous_file(self, tmp_path, defect, as_array):
        target = tmp_path / "x.csv"
        CsvArtifact(target, ("T", "v"), [(1.0, 2.0)]).write()
        before = target.read_bytes()
        n_rows, bad_row = 2 * _CHUNK_ROWS + 1, _CHUNK_ROWS + 5
        table = np.column_stack((np.arange(n_rows, dtype=np.float64), np.ones(n_rows)))
        if defect == "non-finite":
            table[bad_row, 1] = np.nan
        else:
            table[bad_row, 0] = table[bad_row - 1, 0]
        rows = table if as_array else [tuple(row) for row in table.tolist()]
        with pytest.raises(ValueError, match=f"row {bad_row + 1}"):
            CsvArtifact(target, ("T", "v"), rows).write()
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    @staticmethod
    def three_blocks_and_a_part(path):
        """A labelled table of more than three blocks: negatives, zeros and unsure cells."""
        n_rows = 3 * _CHUNK_ROWS + 17
        rng = np.random.default_rng(3)
        table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-320, 300, (n_rows, 3))
        table[::5, 0] = 0.0
        table[::7, 1] = -0.0
        # Cells the float estimate leaves to "%.11e": a tie, a cell below
        # 1e-300 and one ulp below a decade.
        table[::11, 2] = 1234567890125.0
        table[::13, 1] = -1e-305
        table[::17, 0] = np.nextafter(1e-4, 0.0)
        labels = tuple(f"row{i}" for i in range(n_rows))
        return CsvArtifact(path, ("label", "a", "b", "c"), table, labels)

    def test_threaded_blocks_match_one_thread(self, tmp_path, monkeypatch):
        threads = []
        render = qreset.cli._render_rows
        monkeypatch.setattr(
            qreset.cli,
            "_render_rows",
            lambda *args: threads.append(threading.get_ident()) or render(*args),
        )
        one = self.three_blocks_and_a_part(tmp_path / "one.csv")
        expected = self.per_cell_reference(
            one.header, [(label, *row) for label, row in zip(one.labels, one.rows.tolist())]
        )
        assert one.write(workers=1).read_text(encoding="utf-8") == expected
        assert threads == [threading.get_ident()] * 4
        threads.clear()
        two = self.three_blocks_and_a_part(tmp_path / "two.csv")
        assert two.write(workers=2).read_bytes() == (tmp_path / "one.csv").read_bytes()
        # Every block rendered on the pool's threads.
        assert len(threads) == 4 and threading.get_ident() not in threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_block_leaves_no_file(self, tmp_path, monkeypatch, workers):
        render = qreset.cli._render_rows

        def second_block_fails(numbers, labels=()):
            if labels[0] == f"row{_CHUNK_ROWS}":
                raise MemoryError("second block")
            return render(numbers, labels)

        monkeypatch.setattr(qreset.cli, "_render_rows", second_block_fails)
        artifact = self.three_blocks_and_a_part(tmp_path / "x.csv")
        with pytest.raises(MemoryError, match="second block"):
            artifact.write(workers=workers)
        assert list(tmp_path.iterdir()) == []


def render_column(values):
    """The kernel's text for ``values`` as one numeric column, one cell a line."""
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return _render_rows(column).decode("utf-8").splitlines()


def with_neighbours(values):
    """Each value with the floats one ulp below and above it."""
    return [w for v in values for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


class TestNumericKernel:
    """The vectorised cell kernel against Python's own ``%.12g``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_finite_floats(self, values):
        assert render_column(values) == [f"{v:.12g}" for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, words):
        values = np.array(words, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assume(len(values))
        assert render_column(values) == [f"{v:.12g}" for v in values.tolist()]

    # Subnormals, zeros, the float range's ends, 13-digit ties (half-even),
    # the notation switches at 1e-5, 1e-4, 1e12 and 1e16, and the carry of
    # 9.99999999999|5 into 10.
    EDGES = [
        5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 1e-300,
        0.0, -0.0,
        1.7976931348623157e308, -1.7976931348623157e308,
        1234567890125.0, 1234567890135.0, 0.1234567890125,
    ] + with_neighbours([1e-5, 1e-4, 1e12, 1e16, 9.999999999995, 999999999999.5])

    def test_edge_cells(self):
        values = [float(v) for v in self.EDGES]
        text = render_column(values)
        assert text == [f"{v:.12g}" for v in values]
        assert "10" in text and "1e+12" in text

    def test_ints_and_float32_render_as_float_of_the_cell(self, tmp_path):
        cells = [7, -3, 2**60 + 1, np.int64(-3), np.float32(0.1), np.float32(3.4e38), True]
        rows = [(i, cell) for i, cell in enumerate(cells)]
        text = CsvArtifact(tmp_path / "c.csv", ("i", "v"), rows).write().read_text("utf-8")
        assert text.splitlines()[1:] == [f"{i},{float(c):.12g}" for i, c in rows]

    @pytest.mark.parametrize("rows", [[], np.empty((0, 2))], ids=["tuples", "array"])
    def test_header_only_table(self, tmp_path, rows):
        path = CsvArtifact(tmp_path / "h.csv", ("T", "v"), rows).write()
        assert path.read_bytes() == b"T,v\n"

    def test_unsure_cells_take_the_dtoa_branch(self, monkeypatch):
        # 1234567890125 * 10**-1 is a tie the float estimate cannot settle;
        # one ulp below 1e-4 rounds up to the next decade (and to fixed
        # notation); 0.5 is settled by the estimate.
        calls = []
        dtoa = qreset.cli._dtoa
        monkeypatch.setattr(qreset.cli, "_dtoa", lambda v: calls.append(v) or dtoa(v))
        below = float(np.nextafter(1e-4, 0.0))
        assert render_column([1234567890125.0, 0.5, below]) == ["1.23456789012e+12", "0.5", "0.0001"]
        assert calls == [1234567890125.0, below]


class TestRecipes:
    def test_pdet_smoke(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\nmodel = all\n")
        assert main(["pdet", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "pdet.csv")
        assert header == ["T", "Pdet_exact", "Pdet_model1", "Pdet_model2"]
        assert len(rows) == 8
        exact = [float(row[1]) for row in rows]
        assert all(b >= a for a, b in zip(exact, exact[1:]))
        assert all(0.0 <= v <= 1.0 for v in exact)

    # A step too short for any hop to reach the cutoff: no engine raises,
    # and nothing is detected.
    def test_pdet_at_a_tiny_step(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 40\ntau = 1e-33\nhorizon = 1e-32\n")
        assert main(["pdet", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(tmp_path / "pdet.csv")
        assert len(rows) == 10
        assert all(float(v) == 0.0 for row in rows for v in row[1:])

    def test_reset_survival_smoke(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nt_r = 1.0\nhorizon = 5.0\n")
        assert main(["reset-survival", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "reset_survival.csv")
        assert header == ["T", "P_exact", "P_nh_predicted"]
        assert len(rows) == 20
        assert all(0.0 < float(row[1]) <= 1.0 for row in rows)
        assert all(0.0 < float(row[2]) <= 1.0 for row in rows)

    def test_mfdt_sweep_smoke(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.5\ntr_sweep = 0.5:2.0:0.5\n")
        assert main(["mfdt-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "mfdt_sweep.csv")
        assert header == ["t_r", "MFDT"]
        assert len(rows) == 4
        assert all(float(row[1]) > 0 for row in rows)

    def test_optimal_tr_smoke(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\ntr_sweep = 0.5, 1.0, 1.5\n")
        assert main(["optimal-tr", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        for name in ("optimal_tr_model1.csv", "optimal_tr_model2.csv"):
            header, rows = read_csv(tmp_path / name)
            assert header == ["t_r", "neg_alpha_over_tr"]
            assert len(rows) == 3
        header, rows = read_csv(tmp_path / "optimal_tr_summary.csv")
        assert header == ["model", "t_star"]
        assert [row[0] for row in rows] == ["model1", "model2"]
        for row in rows:
            assert float(row[1]) in (0.5, 1.0, 1.5)

    def test_optimal_tr_tie_goes_to_the_first_grid_point(self, tmp_path, monkeypatch):
        # A flat objective: every restart time ties, and the summary takes
        # the first one of the grid.
        monkeypatch.setattr(qreset.cli, "optimal_tr_nh", lambda base, r_grid: np.full(len(r_grid), -0.5))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\ntr_sweep = 0.5, 1.0, 1.5\n")
        assert main(["optimal-tr", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "optimal_tr_summary.csv")
        assert rows == [["model1", "0.5"], ["model2", "0.5"]]

    @pytest.mark.parametrize("recipe", ["mfdt-sweep", "optimal-tr"])
    def test_unordered_tr_sweep_rejected_before_any_engine_runs(
        self, tmp_path, capsys, monkeypatch, recipe
    ):
        # Each value is one table row, and a table's first column increases.
        runs = []

        def spy(*args, **kwargs):
            runs.append(args)
            raise AssertionError("an engine ran")

        monkeypatch.setattr(qreset.cli, "measured_evolution", spy)
        monkeypatch.setattr(qreset.cli, "nh_survival_series", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 40\ntau = 0.25\ntr_sweep = 5.0, 2.5\n")
        out = tmp_path / "out"
        assert main([recipe, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: tr_sweep must increase strictly for {recipe}, one row per value (2.5 after 5)"
        ]
        assert runs == []
        assert not out.exists()

    # The order of the rows does not depend on tau, so a tau sweep fails it
    # once, before any grid point runs, not once per grid point.
    @pytest.mark.parametrize("recipe", ["mfdt-sweep", "optimal-tr"])
    def test_unordered_tr_sweep_of_a_tau_sweep_rejected_once(self, tmp_path, capsys, recipe):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 40\ntau = 0.25\ntr_sweep = 5.0, 2.5\ntau_sweep = 0.25, 0.5\n")
        out = tmp_path / "out"
        assert main([recipe, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: tr_sweep must increase strictly for {recipe}, one row per value (2.5 after 5)"
        ]
        assert not out.exists()

    def test_optimal_tr_applies_the_bulk_guard(self, tmp_path, capsys):
        # The longest window, 80 measurements, carries the front 40 sites.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 40\ntau = 0.25\ntr_sweep = 5:20:5\n")
        for recipe in ("mfdt-sweep", "optimal-tr"):
            out = tmp_path / recipe
            assert main([recipe, "--config", str(cfg), "--out", str(out)]) == 1
            assert "front travels 40.0 sites, room for 14" in capsys.readouterr().err
            assert list(out.glob("*.csv")) == []

    def test_delta_pr_smoke(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nt_r = 1.0\nhorizon = 5.0\n")
        assert main(["delta-pr", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "delta_pr.csv")
        assert header == ["R", "delta_pr_model1", "delta_pr_model2"]
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5"]
        assert all(float(cell) >= 0 for row in rows for cell in row[1:])

    def test_delta_pr_horizon_shorter_than_one_window(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nt_r = 1.0\nhorizon = 0.75\n")
        assert main(["delta-pr", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"horizon spans 3 .* the 4 of one restart window t_r=1", err)
        assert "n_max" not in err
        assert list(tmp_path.glob("*.csv")) == []


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["pdet", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["pdet", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "pdet.csv").read_bytes() == (out2 / "pdet.csv").read_bytes()

    def test_parallel_sweep_matches_sequential(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        # The sweep reinterprets a fixed n_max at each tau, so keep the
        # swept values small enough that the ballistic front stays in bulk.
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\ntau_sweep = 0.2, 0.25\n")
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["pdet", "--config", str(cfg), "--out", str(seq)]) == 0
        assert (
            main(["pdet", "--config", str(cfg), "--out", str(par), "--workers", "2"])
            == 0
        )
        for name in ("pdet_tau0.2.csv", "pdet_tau0.25.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()

    def test_singleton_sweep_matches_single_run(self, tmp_path):
        cfg, grid = tmp_path / "run.cfg", tmp_path / "grid.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\n")
        grid.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\ntau_sweep = 0.25\n")
        single, swept = tmp_path / "one", tmp_path / "grid"
        assert main(["pdet", "--config", str(cfg), "--out", str(single)]) == 0
        assert main(["pdet", "--config", str(grid), "--out", str(swept)]) == 0
        assert (single / "pdet.csv").read_bytes() == (
            swept / "pdet_tau0.25.csv"
        ).read_bytes()


class TestSweepSemantics:
    def test_restart_time_sweep_builds_one_band_per_kind_and_point(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\ntr_sweep = 0.5,1.0\n")
        builds = []
        step_band = dynamics._step_band

        def counted(spec, kind, *args):
            builds.append(kind)
            return step_band(spec, kind, *args)

        monkeypatch.setattr(dynamics, "_step_band", counted)
        step_propagator.cache_clear()
        before = step_propagator.cache_info()
        assert main(["delta-pr", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        # No engine builds a dense step matrix; each kind builds its band
        # once per grid point (t_r = 0.5, 1.0), not once per step.
        assert step_propagator.cache_info() == before
        assert Counter(builds) == {ModelKind.EXACT: 2, ModelKind.MODEL1: 2, ModelKind.MODEL2: 2}

    def test_partial_failure_keeps_good_points_and_logs_bad(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            SMALL + "tau = 0.25\nt_r = 1.0\nhorizon = 5.0\ntau_sweep = 0.25, 0.3\n"
        )
        code = main(["delta-pr", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert (tmp_path / "delta_pr_tau0.25.csv").exists()
        assert not (tmp_path / "delta_pr_tau0.3.csv").exists()
        log = (tmp_path / "errors.log").read_text(encoding="utf-8")
        assert "tau=0.3" in log
        assert "error:" in capsys.readouterr().err

    def test_both_sweep_axes_rejected_for_curve_recipes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            SMALL
            + "tau = 0.25\nhorizon = 2.0\ntau_sweep = 0.25, 0.5\ntr_sweep = 1.0, 2.0\n"
        )
        assert main(["pdet", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    # pdet reads no restart time, so every t_r grid point would write the
    # same table under its own tag.
    def test_restart_time_sweep_of_pdet_rejected_before_any_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\nmodel = exact\ntr_sweep = 0.5, 1.0\n")
        out = tmp_path / "out"
        assert main(["pdet", "--config", str(cfg), "--out", str(out)]) == 1
        assert "pdet reads no restart time" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("recipe", ["mfdt-sweep", "optimal-tr"])
    def test_restart_time_axis_rejected_for_row_grid_recipes(self, tmp_path, recipe):
        config = RunConfig(tau=0.25, L=22, detector_index=15, initial_index=11, tr_sweep=(0.5,))
        with pytest.raises(ConfigError, match=f"{recipe} reads no restart time"):
            sweep(config, recipe, "t_r", [0.5, 1.0], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_tau_fanout_for_row_grid_recipes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            SMALL + "tau = 0.5\ntr_sweep = 0.5, 1.0\ntau_sweep = 0.5\n"
        )
        assert main(["mfdt-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "mfdt_sweep_tau0.5.csv").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_values_sharing_a_file_tag_rejected_before_any_run(
        self, tmp_path, capsys, workers
    ):
        # Both values print as 0.1 under %g, so their files would collide.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            SMALL + "tau = 0.25\nhorizon = 2.0\ntau_sweep = 0.1000001, 0.1000002\n"
        )
        out = tmp_path / "out"
        code = main(["pdet", "--config", str(cfg), "--out", str(out), "--workers", workers])
        assert code == 1
        err = capsys.readouterr().err
        assert "0.1000001" in err and "0.1000002" in err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_repeated_value_rejected_before_any_run(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        calls = []
        monkeypatch.setattr(
            qreset.cli, "run_experiment", lambda *args, **kw: calls.append(args)
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\ntau_sweep = 0.5, 0.25, 0.25\n")
        out = tmp_path / "out"
        code = main(["pdet", "--config", str(cfg), "--out", str(out), "--workers", workers])
        assert code == 1
        assert "sweep value 0.25 is repeated" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    # Grid points run in order under any --workers, so an interrupt in
    # the first one leaves the rest unstarted.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_stops_the_grid(self, tmp_path, monkeypatch, workers):
        calls = []

        def interrupted(config, recipe, out_dir, tag="", workers=1):
            calls.append(tag)
            raise KeyboardInterrupt

        monkeypatch.setattr(qreset.cli, "run_experiment", interrupted)
        config = RunConfig(tau=0.5, L=20, detector_index=14, initial_index=10)
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        with pytest.raises(KeyboardInterrupt):
            sweep(config, "pdet", "tau", values, tmp_path, workers=workers)
        assert calls == ["_tau0.1"]

    # The sweep keeps only the written paths, so no grid point's table
    # outlives it: six reset-survival points of 0.96 MB tables (40000 rows
    # of three float64) peak within one table of the first two.
    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        config = RunConfig(tau=0.25, n_max=40000, t_r=1.0)
        values = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        peaks = {}
        for count in (2, 6):
            tracemalloc.start()
            try:
                paths, failures = sweep(config, "reset-survival", "t_r", values[:count], tmp_path)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] - peaks[2] < 40000 * 3 * 8
        assert failures == []
        assert paths == [tmp_path / f"reset_survival_tr{v:g}.csv" for v in values]

    def test_sweep_rejects_unknown_axis(self):
        config = RunConfig(tau=0.5, L=20, detector_index=14, initial_index=10)
        with pytest.raises(ValueError):
            sweep(config, "pdet", "gamma", [0.5])


class TestMainErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["pdet", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_recipe(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.25\n")
        assert main(["sing", "--config", str(cfg)]) == 1

    def test_workers_must_be_positive(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\n")
        code = main(
            ["pdet", "--config", str(cfg), "--out", str(tmp_path), "--workers", "0"]
        )
        assert code == 1

    def test_missing_run_length(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\n")
        assert main(["pdet", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_horizon_beyond_the_float_range(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 1e308\n")
        out = tmp_path / "out"
        assert main(["pdet", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: horizon 1e+308 ")
        assert "tau=0.25" in err[0]
        assert not out.exists()

    def test_range_beyond_the_float_range(self, tmp_path, capsys):
        # (stop - start) / step overflows to inf: no step count exists.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\ntr_sweep = 0.5:1e308:1e-300\n")
        out = tmp_path / "out"
        assert main(["mfdt-sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: range 0.5:1e+308 spans too many steps of 1e-300"]
        assert not out.exists()

    def test_detector_beyond_the_front_is_never_detected(self, tmp_path, capsys):
        # 50 sites away, one measurement detects J_50(0.5)^2 ~ 7e-190: far
        # below the engine's floor, so it reads 0 and no mean time exists.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "L = 500\ndetector_index = 300\ninitial_index = 250\ntau = 0.25\ntr_sweep = 0.25\n"
        )
        out = tmp_path / "out"
        assert main(["mfdt-sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: no detection probability in a window of r=1 measurements"]
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--sweep-tau", "--sweep-tr"])
    def test_sweep_override_options_are_gone(self, tmp_path, capsys, option):
        # A sweep has one form: the tau_sweep or tr_sweep key.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\n")
        out = tmp_path / "out"
        assert main(["pdet", "--config", str(cfg), "--out", str(out), option, "0.25"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: unrecognized arguments: {option}")
        assert not out.exists()

    def test_help_lists_config_out_and_workers(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--config", "--out", "--workers"}

    def test_bulk_guard_error_offers_only_cli_remedies(self, tmp_path, capsys):
        # bulk_guard=False is a library argument; the CLI has no way to pass it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 100\ntau = 0.25\nhorizon = 200\n")
        assert main(["pdet", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "chain edge" in err
        assert "bulk_guard" not in err

    @pytest.mark.parametrize("sweep", ["", "tau_sweep = 0.25\n"], ids=["single", "sweep"])
    def test_output_directory_that_is_a_file(self, tmp_path, capsys, sweep):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\n" + sweep)
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["pdet", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write to {out}: ")

    def test_single_run_write_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\n")
        (tmp_path / "pdet.csv").mkdir()  # the target name is taken by a directory
        assert main(["pdet", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write to {tmp_path}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pdet.csv", "run.cfg"]

    @pytest.mark.parametrize("recipe", ["reset-survival", "delta-pr"])
    def test_horizon_too_long_to_allocate(self, tmp_path, capsys, recipe):
        # 4e15 measurements; the allocation fails at once, touching no memory.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nt_r = 1.0\nhorizon = 1e15\n")
        out = tmp_path / "out"
        assert main([recipe, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate ")
        assert list(out.glob("*.csv")) == []

    def test_failed_mfdt_scan_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # A grid point that raises ends the single run: no partial table.
        def mfdt(base, r):
            if r > 2:
                raise qreset.NeverDetectedError(f"no detection in r={r}")
            return 1.0

        monkeypatch.setattr(qreset.cli, "mfdt", mfdt)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\ntr_sweep = 0.25, 0.5, 0.75, 1.0\n")
        assert main(["mfdt-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: no detection in r=3"]
        assert list(tmp_path.glob("*.csv")) == []

    def test_failed_optimal_tr_scan_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # model1's table is built before model2's scan, the second, raises;
        # a failed single run writes none of its files.
        scan = qreset.cli.optimal_tr_nh
        scanned = []

        def optimal_tr_nh(base, r_grid):
            scanned.append(base)
            if len(scanned) == 2:
                raise qreset.InstantAbsorptionError("model2 survival underflowed")
            return scan(base, r_grid)

        monkeypatch.setattr(qreset.cli, "optimal_tr_nh", optimal_tr_nh)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\ntr_sweep = 0.5, 1.0, 1.5\n")
        out = tmp_path / "out"
        assert main(["optimal-tr", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: model2 survival underflowed"]
        assert not out.exists()

    def test_run_experiment_rejects_unknown_recipe(self, tmp_path):
        config = RunConfig(tau=0.5, L=20, detector_index=14, initial_index=10)
        with pytest.raises(ConfigError):
            run_experiment(config, "spectrum", tmp_path)


class TestModuleEntryPoint:
    def test_python_dash_m_qreset_runs_a_recipe(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL + "tau = 0.25\nhorizon = 2.0\n")
        monkeypatch.setattr(
            sys, "argv", ["qreset", "pdet", "--config", str(cfg), "--out", str(tmp_path)]
        )
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("qreset", run_name="__main__")
        assert exit_info.value.code == 0
        assert (tmp_path / "pdet.csv").exists()

    def test_import_leaves_scipy_unloaded(self):
        # The package runs on numpy alone; scipy would also add its import
        # time to every run's start-up.
        path = [str(Path(qreset.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = "import sys, qreset; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"
