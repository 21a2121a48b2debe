"""Batch front-end: experiment configs in, CSV artifacts out.

Configs are flat ``key = value`` documents (``#`` comments allowed) that
map onto :class:`RunConfig`.  Recipes name the standard experiments:

* ``pdet``            integrated detection probability vs time, per engine
* ``reset-survival``  restarted survival vs time plus the e^{-alpha T/t_r} line
* ``mfdt-sweep``      mean first-detection time vs restart time
* ``optimal-tr``      -alpha/t_r vs restart time per dissipative model,
                      with an argmin summary
* ``delta-pr``        per-window detection gap between the projective run
                      and each dissipative model

Each input has one form: the restart period is the time ``t_r``, the run
length the time ``horizon``, sweeps are the ``tau_sweep`` and ``tr_sweep``
keys, and the command line adds only ``--out`` and ``--workers``.

The CLI performs no numerics of its own: every column is an engine
output, rendered to 12 significant digits, and every engine run applies
the bulk guard.  Sweeps run their grid points one after another, in the
order the config gives; ``--workers`` threads render the blocks of each
CSV, and the output is byte-identical to one thread's.

Exit codes: 0 success, 1 a failed single run (out of memory included),
which writes no CSV, 2 a sweep with failed grid points (``errors.log``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import alpha, optimal_tr_nh, survival_prediction
from .dynamics import measured_evolution, nh_survival_series
from .errors import ConfigError, QresetError
from .lattice import LatticeSpec, ModelKind
from .restart import mfdt, reset_pdet, reset_survival

__all__ = [
    "RECIPES",
    "RunConfig",
    "CsvArtifact",
    "parse_config",
    "parse_values",
    "run_experiment",
    "sweep",
    "main",
]

RECIPES = ("pdet", "reset-survival", "mfdt-sweep", "optimal-tr", "delta-pr")

_MODEL_CHOICES = ("exact", "model1", "model2", "all")

_INT_KEYS = frozenset({"L", "detector_index", "initial_index"})
_FLOAT_KEYS = frozenset({"tau", "t_r", "horizon"})
_LIST_KEYS = frozenset({"tau_sweep", "tr_sweep"})
_STR_KEYS = frozenset({"model"})
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS | _STR_KEYS


@dataclass
class RunConfig:
    """One experiment's knobs, validated on construction.

    ``model`` selects which engines a recipe runs: a single engine name
    or ``all``.  The library takes restart periods as measurement counts,
    and the CLI is the one place that turns a time into one, so ``t_r``
    and every ``tr_sweep`` value must be multiples of ``tau``, checked
    here unless ``tau_sweep`` varies ``tau`` (a pair off the grid then
    fails as its own grid point).  The config's ``horizon`` (a physical
    time) is folded into the measurement count ``n_max`` during parsing,
    at the base ``tau``; a ``tau_sweep`` keeps that count at every grid
    point.
    """

    tau: float
    L: int = 500
    detector_index: int | None = None
    initial_index: int | None = None
    model: str = "all"
    t_r: float | None = None
    n_max: int | None = None
    tau_sweep: tuple[float, ...] | None = None
    tr_sweep: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        default_detector = self.detector_index is None
        if default_detector:
            self.detector_index = self.L // 2 + 10
        if self.initial_index is None:
            self.initial_index = self.L // 2
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.model not in _MODEL_CHOICES:
            raise ConfigError(
                f"model must be one of {', '.join(_MODEL_CHOICES)}, got {self.model!r}"
            )
        if self.t_r is not None and self.tau_sweep is None:
            _restart_period(self.t_r, self.tau)
        if self.n_max is not None and self.n_max < 1:
            raise ConfigError(f"n_max must be at least 1, got {self.n_max}")
        for name, values in (("tau_sweep", self.tau_sweep), ("tr_sweep", self.tr_sweep)):
            if values is None:
                continue
            if len(values) == 0:
                raise ConfigError(f"{name} must not be empty")
            if any(v <= 0 for v in values):
                raise ConfigError(f"{name} values must be positive")
        if self.tr_sweep is not None and self.tau_sweep is None:
            for t_r in self.tr_sweep:
                _restart_period(t_r, self.tau)
        if default_detector and not 1 <= self.detector_index <= self.L:
            raise ConfigError(
                f"the default detector_index L/2 + 10 = {self.detector_index} lies outside "
                f"1..{self.L}; set detector_index"
            )
        try:
            self.lattice()
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def lattice(self) -> LatticeSpec:
        return LatticeSpec(
            L=self.L,
            detector_index=self.detector_index,
            initial_index=self.initial_index,
        )

    def engine_kinds(self) -> tuple[ModelKind, ...]:
        if self.model == "all":
            return (ModelKind.EXACT, ModelKind.MODEL1, ModelKind.MODEL2)
        return (ModelKind(self.model),)

    def dissipative_kinds(self) -> tuple[ModelKind, ...]:
        return tuple(k for k in self.engine_kinds() if k is not ModelKind.EXACT)

    def resolve_r(self) -> int:
        """Restart period in measurements, from a grid-aligned ``t_r``."""
        if self.t_r is None:
            raise ConfigError("this recipe needs a restart period: set t_r")
        return _restart_period(self.t_r, self.tau)

    def n_measurements(self) -> int:
        if self.n_max is None:
            raise ConfigError("this recipe needs a run length: set horizon")
        return self.n_max


def _restart_period(t_r: float, tau: float) -> int:
    """Measurements in a restart window of length ``t_r``.

    ``t_r / tau`` must be a whole number to a relative 1e-9.
    """
    ratio = t_r / tau
    r = round(ratio) if math.isfinite(ratio) else 0
    if r < 1 or abs(ratio - r) > 1e-9 * max(1.0, ratio):
        raise ConfigError(
            f"t_r={t_r:g} is not a positive integer multiple of tau={tau:g}"
        )
    return r


def _table_rows(config: RunConfig, recipe: str) -> tuple[float, ...]:
    """``tr_sweep`` as a table's rows, one per value: present and strictly increasing."""
    if not config.tr_sweep:
        raise ConfigError(f"{recipe} needs a tr_sweep key")
    for prev, t_r in zip(config.tr_sweep, config.tr_sweep[1:]):
        if t_r <= prev:
            raise ConfigError(
                f"tr_sweep must increase strictly for {recipe}, one row per value "
                f"({t_r:g} after {prev:g})"
            )
    return config.tr_sweep


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {text!r}") from None


def _as_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def parse_values(text: str) -> tuple[float, ...]:
    """Value list: ``v1,v2,...`` or an inclusive ``start:stop:step`` range."""
    text = text.strip()
    if not text:
        raise ConfigError("empty value list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"ranges use start:stop:step, got {text!r}")
        start, stop, step = (_as_float("range bound", p.strip()) for p in parts)
        if step <= 0:
            raise ConfigError(f"range step must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"range stop {stop} is below start {start}")
        count = (stop - start) / step + 1e-9
        if not math.isfinite(count):
            raise ConfigError(f"range {start}:{stop} spans too many steps of {step}")
        count = int(math.floor(count)) + 1
        values = tuple(start + i * step for i in range(count))
    else:
        values = tuple(_as_float("sweep value", p.strip()) for p in text.split(","))
    if any(v <= 0 for v in values):
        raise ConfigError(f"sweep values must be positive: {text!r}")
    return values


def parse_config(text: str) -> RunConfig:
    """Parse a flat ``key = value`` document into a validated RunConfig.

    Unknown and duplicate keys are errors; nothing is silently ignored.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        entries[key] = value

    if "tau" not in entries:
        raise ConfigError("missing required key 'tau'")

    kwargs: dict[str, object] = {}
    for key, value in entries.items():
        if key == "horizon":
            continue
        if key in _INT_KEYS:
            kwargs[key] = _as_int(key, value)
        elif key in _FLOAT_KEYS:
            kwargs[key] = _as_float(key, value)
        elif key in _LIST_KEYS:
            kwargs[key] = parse_values(value)
        else:
            kwargs[key] = value

    if "horizon" in entries:
        horizon = _as_float("horizon", entries["horizon"])
        tau = kwargs["tau"]
        if not isinstance(tau, float) or tau <= 0:
            raise ConfigError(f"tau must be positive, got {tau}")
        count = horizon / tau + 1e-9
        if not math.isfinite(count):
            raise ConfigError(f"horizon {horizon} spans too many intervals of tau={tau}")
        n_max = int(math.floor(count))
        if n_max < 1:
            raise ConfigError(
                f"horizon {horizon} is shorter than one measurement interval tau={tau}"
            )
        kwargs["n_max"] = n_max

    return RunConfig(**kwargs)  # type: ignore[arg-type]


# Numeric cells render through one vectorised kernel that reproduces
# f"{x:.12g}" byte for byte.  A cell is a 12-digit mantissa m and a decimal
# exponent e, |x| = m * 10**(e - 11) to 12 digits (m = e = 0 for a zero).
# The fast estimate is e = floor(log10|x|), y = |x| * 10**(11 - e) and
# m = rint(y), with the power applied as two correctly rounded factors so
# that no product overflows or underflows.  Four half-ulp roundings put y
# within 4.4e-4 of its exact value while y < 1e12, so m is the correctly
# rounded mantissa whenever frac(y) lies at least 1e-3 from 1/2,
# 1e11 <= y, m < 1e12 and |x| >= 1e-300.  Every other cell (exact ties
# among them) takes m and e from "%.11e" % |x|, the same correctly rounded
# 12-digit conversion %.12g makes: about 0.14% of the cells of a
# restarted-survival table.
# 11 - e spans -297..335, so each half of it lies in -149..168.
_POW10_LOW = -150
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_LOW, 171)])


def _mantissas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """12-digit mantissas (float64) and decimal exponents of the cells ``x``."""
    a = np.abs(x)
    # Zeros are set apart below; the floor keeps log10 off them.
    shift = 11 - np.floor(np.log10(np.maximum(a, 5e-324))).astype(np.intp)
    half = shift >> 1
    y = a * _POW10[half - _POW10_LOW] * _POW10[shift - half - _POW10_LOW]
    m = np.rint(y)
    certain = (
        (np.abs(y - np.floor(y) - 0.5) >= 1e-3) & (y >= 1e11) & (m < 1e12) & (a >= 1e-300)
    )
    e = 11 - shift
    zero = a == 0
    e[zero] = 0
    for i in np.flatnonzero(~(certain | zero)).tolist():
        m[i], e[i] = _dtoa(a[i])
    return m, e


def _dtoa(value: float) -> tuple[int, int]:
    """Mantissa and exponent of a cell the fast estimate leaves unsure."""
    text = "%.11e" % value
    return int(text[0] + text[2:13]), int(text[14:])


# Each cell is laid out as a 40-byte record of five 8-byte words,
#   "-0.000" + 2 pad | d.d.d.d. | d.d.d.d. | d.d.d.d. | "e+XXX" + separator + 2 pad,
# the digits of m each followed by a dot, and a keep mask picks the bytes
# of the cell's text out of it by %g's rules: fixed notation for
# -4 <= e < 12, else d.ddde±XX; trailing zeros and a bare dot stripped.
# The mask depends only on the notation (e for fixed notation, and for
# exponential notation whether |e| >= 100), the number of significant
# digits and the sign, so it comes from a table of 18 * 13 * 2 rows.
_RECORD = 40
_LEAD = np.frombuffer(b"-0.000\0\0", np.uint64)[0]
_SEPARATOR = {
    sep: np.frombuffer(b"\0" * 5 + sep + b"\0\0", np.uint64)[0] for sep in (b",", b"\n")
}
_E_LOW = -324  # exponent of the smallest subnormal; the largest float's is 308


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Text of each 4-digit group with its dots, and its significant digits."""
    digit = np.arange(10)
    place = [digit.reshape(shape) for shape in ((10, 1, 1, 1), (10, 1, 1), (10, 1), (10,))]
    text = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    for i, d in enumerate(place):
        text[..., 2 * i] = d + ord("0")
    # Up to the last nonzero digit; -8 for 0000, so that a zero group never
    # sets a mantissa's digit count.
    significant = np.full(text.shape[:-1], -8)
    for i, d in enumerate(place):
        significant = np.where(d != 0, i + 1, significant)
    return text.view(np.uint64).ravel(), significant.ravel()


def _exponent_tables() -> tuple[np.ndarray, np.ndarray]:
    """The exponent word of each e, and 2 * 13 * notation, the keep table's row offset."""
    e = np.arange(_E_LOW, 309)
    a = np.abs(e)
    text = np.zeros((len(e), 8), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    text[:, 2:5] = np.stack((a // 100, a // 10 % 10, a % 10), axis=1) + ord("0")
    fixed = (e >= -4) & (e < 12)
    notation = np.where(fixed, e + 4, np.where(a < 100, 16, 17))
    return text.view(np.uint64).ravel(), 26 * notation


def _keep_table() -> np.ndarray:
    """Keep mask of a record for each row (13 * notation + digits) * 2 + negative."""
    grid = np.meshgrid(np.arange(18), np.arange(13), (False, True), indexing="ij")
    notation, digits, negative = (axis.ravel() for axis in grid)
    fixed = notation < 16
    e = np.where(fixed, notation - 4, 0)
    below_one = fixed & (e < 0)
    sci = ~fixed
    j = np.arange(12)
    keep = np.zeros((len(notation), _RECORD), bool)
    keep[:, 0] = negative
    keep[:, 1] = keep[:, 2] = below_one  # "0."
    keep[:, 3] = below_one & (e <= -2)  # then -e - 1 zeros
    keep[:, 4] = below_one & (e <= -3)
    keep[:, 5] = below_one & (e <= -4)
    # Significant digits, and in fixed notation every digit before the dot.
    keep[:, 8:32:2] = (j < digits[:, None]) | (j <= np.where(fixed, e, 0)[:, None])
    # The dot follows digit e (fixed) or digit 0 (exponential) when a
    # significant digit comes after it; fixed notation below 1 has its own.
    dot = np.where(fixed, np.where(e >= 0, e, -1), 0)[:, None]
    keep[:, 9:32:2] = (j == dot) & (j + 1 < digits[:, None])
    keep[:, 32] = keep[:, 33] = keep[:, 35] = keep[:, 36] = sci
    keep[:, 34] = notation == 17  # a third exponent digit
    keep[:, 37] = True  # separator
    return keep.view(np.dtype((np.void, _RECORD))).ravel()


_GROUP_TEXT, _GROUP_DIGITS = _group_tables()
_EXPONENT_TEXT, _NOTATION_ROW = _exponent_tables()
_KEEP = _keep_table()


def _numeric_cells(x: np.ndarray, separators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Records and keep masks, each of shape (rows, columns, 40), of a float64 block."""
    flat = x.ravel()
    m, e = _mantissas(flat)
    high = np.floor(m / 1e8)
    rest = m - high * 1e8
    mid = np.floor(rest / 1e4)
    groups = [high.astype(np.intp), mid.astype(np.intp), (rest - mid * 1e4).astype(np.intp)]
    words = np.empty((*x.shape, 5), np.uint64)
    flat_words = words.reshape(-1, 5)
    flat_words[:, 0] = _LEAD
    for i, group in enumerate(groups):
        flat_words[:, i + 1] = _GROUP_TEXT[group]
    exponent = e - _E_LOW
    words[..., 4] = _EXPONENT_TEXT[exponent].reshape(x.shape) | separators
    digits = np.maximum(
        np.maximum(_GROUP_DIGITS[groups[0]], _GROUP_DIGITS[groups[1]] + 4),
        _GROUP_DIGITS[groups[2]] + 8,
    )
    row = _NOTATION_ROW[exponent] + 2 * digits + np.signbit(flat)
    keep = _KEEP[row].view(bool).reshape(words.shape[:-1] + (_RECORD,))
    return words.view(np.uint8), keep


def _text_cells(cells: Sequence[str], separator: bytes) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 text cells, each followed by its separator, and their keep mask."""
    encoded = [cell.encode("utf-8") + separator for cell in cells]
    lengths = np.array([len(b) for b in encoded])
    chars = np.array(encoded, dtype=f"S{lengths.max()}").view(np.uint8).reshape(len(cells), -1)
    return chars, np.arange(chars.shape[1]) < lengths[:, None]


def _render_rows(numbers: np.ndarray, labels: Sequence[str] = ()) -> bytes:
    """CSV text of a block of numeric rows, each led by its label if ``labels`` is given."""
    rows, width = numbers.shape
    words = [_SEPARATOR[b","]] * (width - 1) + [_SEPARATOR[b"\n"]]
    chars, keep = _numeric_cells(numbers, np.array(words, np.uint64))
    chars, keep = chars.reshape(rows, -1), keep.reshape(rows, -1)
    if labels:
        text, mask = _text_cells(labels, b",")
        chars = np.concatenate((text, chars), axis=1)
        keep = np.concatenate((mask, keep), axis=1)
    return np.compress(keep.ravel(), chars.ravel()).tobytes()


# Rows per kernel call.  The kernel's temporaries take about 180 bytes a
# cell (2.3 MB for a block of three numeric columns), so memory stays
# bounded whatever the table's length.  On three 200000-row survival
# files rendered by two workers, 1024-row blocks ran 40% slower (the
# per-call cost of the kernel's ~50 numpy operations) and 16384-row
# blocks raised peak memory by 14 MB.  numpy drops the GIL inside those
# operations, so ``--workers`` threads render the blocks of one file
# concurrently: a 200000-row survival table took 153 ms on one thread
# and 129 ms on two (medians of 20, 2-vCPU Xeon, numpy 2.4).
_CHUNK_ROWS = 4096


@dataclass
class CsvArtifact:
    """One CSV file: header, rows, and the formatting contract.

    ``rows`` is a numeric 2-D table, an array or a list of numeric row
    tuples; its cells render as 12-significant-digit decimals, the same
    text as ``f"{float(cell):.12g}"``.  ``labels``, when given, is a
    leading text column with one UTF-8 label per row, and the header
    names it first.  Without labels the first column must increase
    strictly row to row.  Every cell must be a finite int or float; text,
    an int past 64 bits (numpy holds that table as objects) or a row
    width other than the header's is rejected.  The whole table is
    checked before anything is written.  Rows then render, a block of
    ``_CHUNK_ROWS`` per call, through the kernel above: cells as
    ``float64`` (exactly ``float(cell)``) by a float estimate of their
    12 digits, with the cells it cannot settle taken from ``"%.11e"``;
    labels encoded into the same byte matrix.  Blocks go to a temporary
    file beside the target, which replaces the target only once every
    block is out, so a failed or killed write never leaves a partial
    CSV under the final name.
    """

    path: Path
    header: tuple[str, ...]
    rows: list[tuple] | np.ndarray
    labels: tuple[str, ...] = ()

    def write(self, workers: int = 1) -> Path:
        """Check the table, render it and write it; returns the path.

        With ``workers > 1`` and more than one block, the blocks render
        on that many threads and are written in order as they finish, so
        the bytes are those of one thread.  On a failure or an interrupt
        the blocks not yet started are dropped.
        """
        numbers = self._checked_table()
        # The directory appears with its first file, so a run that fails
        # before writing anything leaves none behind.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
        )

        def render(start: int) -> bytes:
            stop = start + _CHUNK_ROWS
            return _render_rows(numbers[start:stop], self.labels[start:stop])

        starts = range(0, len(numbers), _CHUNK_ROWS)
        pool = ThreadPoolExecutor(workers) if workers > 1 and len(starts) > 1 else None
        try:
            with tmp.open("wb") as out:
                out.write((",".join(self.header) + "\n").encode("utf-8"))
                for block in (pool.map if pool else map)(render, starts):
                    out.write(block)
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        return self.path

    def _checked_table(self) -> np.ndarray:
        """The rows as one validated float64 array."""
        name, columns = self.path.name, len(self.header) - bool(self.labels)
        table = np.asarray(self.rows)
        # Text anywhere promotes the table to a string dtype; Python ints
        # past int64, alone or beside text, leave an object table.
        if table.dtype.kind not in "biuf":
            raise ValueError(f"{name}: rows must be numbers, got {table.dtype} cells")
        numbers = table.astype(np.float64, copy=False) if len(table) else np.empty((0, columns))
        if numbers.ndim != 2 or numbers.shape[1] != columns:
            raise ValueError(
                f"{name}: table of shape {numbers.shape}, header wants {columns} numeric columns"
            )
        if self.labels and len(self.labels) != len(numbers):
            raise ValueError(f"{name}: {len(self.labels)} labels for {len(numbers)} rows")
        # One pass over the whole table; the row is looked up only on failure.
        if not np.isfinite(numbers).all():
            i = np.flatnonzero(~np.isfinite(numbers).all(axis=1))[0]
            raise ValueError(
                f"{name}: non-finite value in row {i + 1} {tuple(numbers[i].tolist())}"
            )
        if not self.labels:
            lead = numbers[:, 0]
            bad = np.flatnonzero(~(np.diff(lead) > 0))
            if len(bad):
                i = bad[0]
                raise ValueError(
                    f"{name}: first column must increase strictly "
                    f"({lead[i + 1]} after {lead[i]}, row {i + 2})"
                )
        return numbers


def _build_pdet(config: RunConfig, out_dir: Path, tag: str) -> list[CsvArtifact]:
    spec = config.lattice()
    n = config.n_measurements()
    header = ["T"]
    columns = []
    times = None
    for kind in config.engine_kinds():
        if kind is ModelKind.EXACT:
            series = measured_evolution(spec, config.tau, n)
        else:
            series = nh_survival_series(spec, kind, config.tau, n)
        header.append(f"Pdet_{kind.value}")
        columns.append(series.Pdet)
        if times is None:
            times = series.times
    artifact = CsvArtifact(
        out_dir / f"pdet{tag}.csv",
        tuple(header),
        np.column_stack([times, *columns]),
    )
    return [artifact]


def _build_reset_survival(config: RunConfig, out_dir: Path, tag: str) -> list[CsvArtifact]:
    spec = config.lattice()
    n = config.n_measurements()
    r = config.resolve_r()
    base = measured_evolution(spec, config.tau, r)
    trajectory = reset_survival(base, r, n)
    times = config.tau * np.arange(1, n + 1)
    decay = alpha(nh_survival_series(spec, ModelKind.MODEL2, config.tau, r), r)
    predicted = survival_prediction(decay, r * config.tau, times)
    artifact = CsvArtifact(
        out_dir / f"reset_survival{tag}.csv",
        ("T", "P_exact", "P_nh_predicted"),
        np.column_stack((times, trajectory, predicted)),
    )
    return [artifact]


def _build_mfdt_sweep(config: RunConfig, out_dir: Path, tag: str) -> list[CsvArtifact]:
    r_values = [_restart_period(t_r, config.tau) for t_r in _table_rows(config, "mfdt-sweep")]
    base = measured_evolution(config.lattice(), config.tau, max(r_values))
    rows = [(t_r, mfdt(base, r)) for t_r, r in zip(config.tr_sweep, r_values)]
    artifact = CsvArtifact(out_dir / f"mfdt_sweep{tag}.csv", ("t_r", "MFDT"), rows)
    return [artifact]


def _build_optimal_tr(config: RunConfig, out_dir: Path, tag: str) -> list[CsvArtifact]:
    r_values = [_restart_period(t_r, config.tau) for t_r in _table_rows(config, "optimal-tr")]
    kinds = config.dissipative_kinds()
    if not kinds:
        raise ConfigError("optimal-tr needs a dissipative model: model1, model2, or all")
    spec = config.lattice()
    stem = f"optimal_tr{tag}"
    artifacts = []
    t_stars = []
    grid = np.asarray([r * config.tau for r in r_values], dtype=np.float64)
    for kind in kinds:
        base = nh_survival_series(spec, kind, config.tau, max(r_values))
        objective = optimal_tr_nh(base, r_values)
        # Fully absorbed grid points carry no objective; leave them out.
        artifact = CsvArtifact(
            out_dir / f"{stem}_{kind.value}.csv",
            ("t_r", "neg_alpha_over_tr"),
            np.column_stack((grid, objective))[np.isfinite(objective)],
        )
        artifacts.append(artifact)
        # Ties go to the first grid point.
        t_stars.append((float(grid[np.nanargmin(objective)]),))
    labels = tuple(kind.value for kind in kinds)
    summary = CsvArtifact(out_dir / f"{stem}_summary.csv", ("model", "t_star"), t_stars, labels)
    artifacts.append(summary)
    return artifacts


def _build_delta_pr(config: RunConfig, out_dir: Path, tag: str) -> list[CsvArtifact]:
    kinds = config.dissipative_kinds()
    if not kinds:
        raise ConfigError("delta-pr needs a dissipative model: model1, model2, or all")
    spec = config.lattice()
    r = config.resolve_r()
    n = config.n_measurements()
    R_max = n // r
    if R_max < 1:
        raise ConfigError(
            f"horizon spans {n} measurements of tau={config.tau:g}, fewer than "
            f"the {r} of one restart window t_r={config.t_r:g}"
        )
    needed = r * R_max
    base = measured_evolution(spec, config.tau, r)
    exact_curve = reset_pdet(base, r, needed)
    header = ["R"]
    columns = []
    for kind in kinds:
        nh_base = nh_survival_series(spec, kind, config.tau, r)
        header.append(f"delta_pr_{kind.value}")
        # Window R covers measurements rR + 1 .. r(R + 1): its mean absolute gap.
        gaps = np.abs(exact_curve - reset_pdet(nh_base, r, needed))
        columns.append(gaps.reshape(R_max, r).mean(axis=1))
    artifact = CsvArtifact(
        out_dir / f"delta_pr{tag}.csv",
        tuple(header),
        np.column_stack([np.arange(1, R_max + 1), *columns]),
    )
    return [artifact]


_RECIPE_BUILDERS = {
    "pdet": _build_pdet,
    "reset-survival": _build_reset_survival,
    "mfdt-sweep": _build_mfdt_sweep,
    "optimal-tr": _build_optimal_tr,
    "delta-pr": _build_delta_pr,
}


def run_experiment(
    config: RunConfig, recipe: str, out_dir: Path | str = ".", tag: str = "", workers: int = 1
) -> list[CsvArtifact]:
    """Run one recipe, then write its artifacts under ``out_dir``.

    The recipe builds every artifact before the first is written, so a
    recipe that fails writes no CSV, and ``out_dir``, created with the
    first file, does not appear.  ``tag`` is appended to every filename
    stem; sweeps use it to embed the swept value.  ``workers`` threads
    render each file (:meth:`CsvArtifact.write`).
    """
    if recipe not in _RECIPE_BUILDERS:
        raise ConfigError(
            f"unknown recipe {recipe!r}; choose from {', '.join(RECIPES)}"
        )
    artifacts = _RECIPE_BUILDERS[recipe](config, Path(out_dir), tag)
    for artifact in artifacts:
        artifact.write(workers)
    return artifacts


def sweep(
    config: RunConfig,
    recipe: str,
    axis: str,
    values: Sequence[float],
    out_dir: Path | str = ".",
    workers: int = 1,
) -> tuple[list[Path], list[str]]:
    """Run a recipe once per value of ``axis`` (``tau`` or ``t_r``); returns paths and failures.

    Grid points run one after another, in the order given, and only their
    paths are kept, so one grid point's tables are alive at a time;
    ``workers`` threads render each file's blocks (:meth:`CsvArtifact.write`).
    A failed grid point is recorded and the next one runs: failures go to
    ``errors.log`` in ``out_dir``, one line per failed value; files stay.
    Files carry each value's ``%g`` tag (``_tau0.25``); a repeated value
    would run twice and write its file twice, and distinct values sharing
    a tag would overwrite each other, so both are a ConfigError, raised
    before any grid point runs, as are a ``t_r`` sweep of a recipe without
    ``t_r`` and a row grid (``tr_sweep``) out of order.
    """
    if axis not in ("tau", "t_r"):
        raise ValueError(f"sweep axis must be 'tau' or 't_r', got {axis!r}")
    if axis == "t_r" and recipe in ("pdet", "mfdt-sweep", "optimal-tr"):
        raise ConfigError(f"{recipe} reads no restart time t_r; a t_r sweep repeats one table")
    if recipe in ("mfdt-sweep", "optimal-tr"):
        _table_rows(config, recipe)
    values = tuple(float(v) for v in values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if any(v <= 0 for v in values):
        raise ConfigError("sweep values must be positive")
    prefix = "_tau" if axis == "tau" else "_tr"
    tags: dict[str, float] = {}
    for value in values:
        tag = f"{prefix}{value:g}"
        if tag not in tags:
            tags[tag] = value
        elif tags[tag] == value:
            raise ConfigError(f"sweep value {value!r} is repeated")
        else:
            raise ConfigError(
                f"sweep values {tags[tag]!r} and {value!r} share the file tag "
                f"{tag}; they differ beyond 6 significant digits"
            )
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    paths: list[Path] = []
    failures: list[str] = []
    for tag, value in tags.items():  # every value once, in the order given
        try:
            derived = replace(config, **{axis: value})
            paths += [a.path for a in run_experiment(derived, recipe, out_path, tag, workers)]
        except Exception as err:  # recorded per grid point, run continues
            failures.append(f"{axis}={value:g}: {err}")
    if failures:
        (out_path / "errors.log").write_text(
            "\n".join(failures) + "\n", encoding="utf-8"
        )
    return paths, failures


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with
    # the failed-sweep exit code; route usage errors through ConfigError.
    def error(self, message: str):  # type: ignore[override]
        raise ConfigError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="qreset",
        description="First-detection and sharp-restart experiments on a tight-binding chain.",
    )
    parser.add_argument("recipe", choices=RECIPES, help="experiment to run")
    parser.add_argument("--config", required=True, metavar="PATH", help="key = value config file")
    parser.add_argument("--out", default=".", metavar="DIR", help="artifact directory")
    parser.add_argument("--workers", type=int, default=1, help="threads that render each CSV")

    try:
        args = parser.parse_args(argv)
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        config = parse_config(text)
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")

        # mfdt-sweep and optimal-tr consume tr_sweep as their row grid, so
        # only tau can fan out into files; sweep refuses t_r for pdet.
        if args.recipe in ("mfdt-sweep", "optimal-tr"):
            plan = ("tau", config.tau_sweep) if config.tau_sweep else None
        elif config.tau_sweep and config.tr_sweep:
            raise ConfigError(
                f"tau_sweep and tr_sweep are mutually exclusive for {args.recipe}"
            )
        elif config.tau_sweep:
            plan = ("tau", config.tau_sweep)
        elif config.tr_sweep:
            plan = ("t_r", config.tr_sweep)
        else:
            plan = None

        if plan is None:
            run_experiment(config, args.recipe, args.out, workers=args.workers)
            return 0
        axis, values = plan
        _, failures = sweep(
            config, args.recipe, axis, values, args.out, workers=args.workers
        )
        if failures:
            for line in failures:
                print(f"error: {line}", file=sys.stderr)
            return 2
        return 0
    except (QresetError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        # Creating the output directory, or a single run's write; a sweep
        # records its grid points' write errors in errors.log instead.
        print(f"error: cannot write to {args.out}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
