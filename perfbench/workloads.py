"""The benchmark's workloads: one CLI invocation each, with its output checks.

The physics is deterministic, so a workload's inputs are fixed; the
benchmark seed only orders the workloads of ``--workload all``.
An operation is one grid point of a run or one output check.  A run's
grid points fail when the CLI exits non-zero, logs them to
``errors.log``, or leaves their rows out of the CSV.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from qreset import measured_evolution, renewal_amplitudes
from qreset.cli import parse_config


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    config: str
    workers: int
    unit: str
    units: int
    grid_points: int

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.recipe, "--config", str(config_path), "--out", str(out_dir),
                "--workers", str(self.workers)]

    @property
    def L(self) -> int:
        return parse_config(self.config).L


WORKLOADS = {
    w.name: w
    for w in (
        # 20 restart times x 2 dissipative models = 40 dense Pade exponentials at L=500.
        Workload("tr-scan", "optimal-tr",
                 "tau = 0.25\nmodel = all\ntr_sweep = 0.75:15.0:0.75\n",
                 workers=1, unit="alpha grid points", units=40, grid_points=40),
        # 4000 measurements x 3 engines on 16 MB step matrices.
        Workload("detection-curves", "pdet",
                 "L = 1000\ntau = 0.05\nhorizon = 200\nmodel = all\n",
                 workers=1, unit="engine-measurements", units=12000, grid_points=1),
        # 3 restart times x 200000 measurements, one CSV row each.
        Workload("long-restart", "reset-survival",
                 "tau = 0.25\nhorizon = 50000\ntr_sweep = 2.5,5.0,10.0\n",
                 workers=2, unit="CSV rows", units=600000, grid_points=3),
    )
}


def digest(out_dir: Path) -> str:
    """SHA-256 over every CSV under ``out_dir``, names included."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    return header, rows


def _columns(path: Path) -> dict[str, np.ndarray]:
    with path.open(encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        table = np.loadtxt(f, delimiter=",", ndmin=2)
    if table.shape[1] != len(header):
        raise ValueError(f"{path.name}: {table.shape[1]} columns under {len(header)} names")
    return {name: table[:, i] for i, name in enumerate(header)}


def grid_failures(w: Workload, out_dir: Path, exit_code: int) -> int:
    """Grid points of one run that did not complete."""
    if exit_code == 1:
        return w.grid_points
    log = out_dir / "errors.log"
    failed = len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0
    if w.name == "tr-scan":
        per_model = w.grid_points // 2
        for model in ("model1", "model2"):
            try:
                failed += per_model - len(_read(out_dir / f"optimal_tr_{model}.csv")[1])
            except (OSError, ValueError):
                failed += per_model
    elif exit_code != 0 and failed == 0:
        failed = w.grid_points
    return failed


def score_run(w: Workload, out_dir: Path, exit_code: int, reference: str | None) -> tuple[int, int, str]:
    """(attempted, failed, digest) of one run: its grid points, and byte identity with the first run."""
    attempted, failed = w.grid_points, grid_failures(w, out_dir, exit_code)
    current = digest(out_dir)
    if reference is not None:
        attempted += 1
        failed += current != reference
    return attempted, failed, current


def content_checks(w: Workload, out_dir: Path) -> dict[str, bool]:
    """Physics checks of one run's CSVs; an unreadable file fails its check."""
    config = parse_config(w.config)
    checks = {}

    def check(name: str, fn) -> None:
        try:
            checks[name] = bool(fn())
        except (OSError, ValueError, KeyError, IndexError):
            checks[name] = False

    if w.name == "tr-scan":
        # Both dissipative models put the optimum at t* = 6.75 (acceptance criterion 4).
        def t_star(model: str) -> bool:
            summary = dict(_read(out_dir / "optimal_tr_summary.csv")[1])
            return 6.0 <= float(summary[model]) <= 7.0

        for model in ("model1", "model2"):
            check(f"t_star_{model}", lambda m=model: t_star(m))

    elif w.name == "detection-curves":
        n = config.n_measurements()
        # 1 - P over n contractions carries up to n rounding errors of size eps.
        tol = n * np.finfo(np.float64).eps

        def renewal() -> bool:
            amps = renewal_amplitudes(config.lattice(), config.tau, n).amplitudes
            pdet = _columns(out_dir / "pdet.csv")["Pdet_exact"]
            return np.allclose(pdet, np.cumsum(np.abs(amps) ** 2), rtol=1e-9, atol=tol)

        def monotone(column: str) -> bool:
            pdet = _columns(out_dir / "pdet.csv")[column]
            return (len(pdet) == n and pdet.min() >= -tol and pdet.max() <= 1 + tol
                    and np.diff(pdet).min() >= -tol)

        check("pdet_exact_matches_renewal", renewal)
        for kind in ("exact", "model1", "model2"):
            check(f"pdet_{kind}_monotone_in_unit_interval", lambda k=kind: monotone(f"Pdet_{k}"))

    elif w.name == "long-restart":
        n = config.n_measurements()

        def window_ends(t_r: float) -> bool:
            r = int(round(t_r / config.tau))
            q = measured_evolution(config.lattice(), config.tau, r).P[r - 1]
            p_exact = _columns(out_dir / f"reset_survival_tr{t_r:g}.csv")["P_exact"]
            windows = np.arange(1, n // r + 1)
            return len(p_exact) == n and np.allclose(
                p_exact[windows * r - 1], q ** windows.astype(np.float64), rtol=1e-10, atol=1e-300)

        for t_r in config.tr_sweep:
            check(f"window_ends_tr{t_r:g}", lambda t=t_r: window_ends(t))
    return checks
