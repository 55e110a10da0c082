"""Series containers, windowing, CSV ingestion and synthetic generators.

A forecasting problem here is always framed the same way: take a 1-D
series, cut it into sliding windows of ``d`` consecutive values, and
predict the value immediately after each window.  Everything downstream
(models, metrics, the experiment harness) works on the
:class:`WindowedDataset` produced by :func:`make_windows`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._rng import GaussianStream
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class TimeSeries:
    """A named 1-D series of float64 values, oldest first.

    ``timestamps`` is optional bookkeeping for CSV round-trips; no
    arithmetic is ever done on it.
    """

    name: str
    values: np.ndarray
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise DataError(f"series {self.name!r} must be a non-empty 1-D array")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise DataError(f"series {self.name!r} has a non-finite value at index {bad}")
        object.__setattr__(self, "values", vals)
        if self.timestamps is not None and len(self.timestamps) != vals.size:
            raise DataError(
                f"series {self.name!r}: {len(self.timestamps)} timestamps for {vals.size} values"
            )

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised view of a series: row i is d consecutive values, target is the next one."""

    window_d: int
    inputs: np.ndarray   # shape (N, d)
    targets: np.ndarray  # shape (N,)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if self.window_d < 1:
            raise DataError("window_d must be >= 1")
        if inputs.ndim != 2 or inputs.shape[1] != self.window_d:
            raise DataError(f"inputs must have shape (N, {self.window_d})")
        if targets.ndim != 1 or targets.shape[0] != inputs.shape[0]:
            raise DataError("targets must be 1-D with one entry per input row")
        if inputs.shape[0] < 1:
            raise DataError("windowed dataset must contain at least one row")
        # rows must come from one contiguous pass over a series
        if inputs.shape[0] > 1:
            if self.window_d > 1 and not np.array_equal(inputs[1:, :-1], inputs[:-1, 1:]):
                raise DataError("window rows do not overlap like consecutive slices")
            if not np.array_equal(targets[:-1], inputs[1:, -1]):
                raise DataError("target i must reappear as the last lag of row i+1")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return int(self.targets.size)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split: first floor(n * train_fraction) points train, rest test."""

    train_fraction: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def load_csv(path: str | Path, value_column: str | int = 0, has_header: bool = True) -> TimeSeries:
    """Read one value column from a comma-delimited text file.

    Column may be named (requires a header) or a 0-based index.  Rows in
    error messages are 1-based file lines, header included.  When the file
    has exactly two columns and the value is the second, the first column
    is kept as timestamps.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip() == "":
            continue
        rows.append((lineno, [cell.strip() for cell in raw.split(",")]))
    if not rows:
        raise DataError(f"{path}: file contains no rows")

    col_index: int
    if has_header:
        header_line, header = rows[0]
        rows = rows[1:]
        if isinstance(value_column, str):
            if value_column not in header:
                raise DataError(
                    f"{path}: no column named {value_column!r} in header (row {header_line})"
                )
            col_index = header.index(value_column)
        else:
            col_index = int(value_column)
    else:
        if isinstance(value_column, str):
            raise ConfigError("named value_column requires has_header=True")
        col_index = int(value_column)
    if col_index < 0:
        raise DataError(f"{path}: column index must be >= 0, got {col_index}")

    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {len(rows)}")

    values = []
    stamps = []
    for lineno, cells in rows:
        if col_index >= len(cells):
            raise DataError(f"{path}: row {lineno} has no column {col_index}")
        cell = cells[col_index]
        try:
            v = float(cell)
        except ValueError:
            raise DataError(f"{path}: row {lineno}: cannot parse {cell!r} as a number") from None
        if not math.isfinite(v):
            raise DataError(f"{path}: row {lineno}: non-finite value {cell!r}")
        values.append(v)
        if len(cells) == 2 and col_index == 1:
            stamps.append(cells[0])

    timestamps = tuple(stamps) if len(stamps) == len(values) else None
    return TimeSeries(name=path.stem, values=np.array(values), timestamps=timestamps)


def make_windows(series: TimeSeries, d: int) -> WindowedDataset:
    """Slide a length-d window over the series; target is the next value.

    Row i is (t_i, ..., t_{i+d-1}) with target t_{i+d}, giving N = n - d
    rows.  Needs n >= d + 2 so at least two (input, target) pairs exist.
    """
    if d < 1:
        raise DataError(f"window size d must be >= 1, got {d}")
    n = len(series)
    if n < d + 2:
        raise DataError(
            f"series {series.name!r} has {n} points, need at least {d + 2} for d={d}"
        )
    v = series.values
    idx = np.arange(n - d)[:, None] + np.arange(d)[None, :]
    return WindowedDataset(window_d=d, inputs=v[idx], targets=v[d:])


def split_train_test(series: TimeSeries, spec: SplitSpec) -> tuple[TimeSeries, TimeSeries]:
    """Chronological split, no shuffling; concatenating the parts recovers the series."""
    n = len(series)
    n_train = int(math.floor(n * spec.train_fraction))
    if n_train < 1 or n_train >= n:
        raise DataError(
            f"train_fraction={spec.train_fraction} leaves an empty side for n={n}"
        )
    ts = series.timestamps
    return (
        TimeSeries(series.name + ":train", series.values[:n_train],
                   ts[:n_train] if ts else None),
        TimeSeries(series.name + ":test", series.values[n_train:],
                   ts[n_train:] if ts else None),
    )


def _check_common(n: int, noise_sd: float):
    if n <= 0:
        raise ConfigError(f"n must be positive, got {n}")
    if noise_sd < 0:
        raise ConfigError(f"noise_sd must be >= 0, got {noise_sd}")


def synth_seasonal(n: int, period: int, amplitude: float = 1.0, trend: float = 0.0,
                   noise_sd: float = 0.0, seed: int = 0) -> TimeSeries:
    """Sine of the given period plus linear trend plus gaussian noise.

    value_i = amplitude * sin(2*pi*i / period) + trend * i + noise_i.
    Deterministic per seed on every platform (see _rng module).
    """
    _check_common(n, noise_sd)
    if period <= 0:
        raise ConfigError(f"period must be positive, got {period}")
    if n < 4 * period:
        warnings.warn(
            f"n={n} covers under four periods of {period}; seasonal structure may be weak",
            stacklevel=2,
        )
    noise = GaussianStream(seed).gaussians(n, sigma=noise_sd)
    i = np.arange(n, dtype=np.float64)
    values = amplitude * np.sin(2.0 * np.pi * i / period) + trend * i + np.array(noise)
    return TimeSeries(name=f"seasonal-{seed}", values=values)


def synth_random_walk(n: int, drift: float = 0.0, noise_sd: float = 1.0,
                      seed: int = 0) -> TimeSeries:
    """Random walk from 0: v_{i+1} = v_i + drift + gaussian(0, noise_sd)."""
    _check_common(n, noise_sd)
    steps = GaussianStream(seed).gaussians(n - 1, mu=drift, sigma=noise_sd)
    values = np.concatenate([[0.0], np.cumsum(steps)]) if n > 1 else np.zeros(1)
    return TimeSeries(name=f"walk-{seed}", values=values)


def synth_ar(coeffs: list[float], n: int, noise_sd: float = 0.0,
             seed: int = 0) -> TimeSeries:
    """Autoregressive series; coeffs[0] weights the most recent lag.

    The first len(coeffs) values are standard-normal draws from the seed,
    after which value_i = sum_k coeffs[k] * value_{i-1-k} + gaussian(0, noise_sd).
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ConfigError("coeffs must not be empty")
    _check_common(n, noise_sd)
    p = len(coeffs)
    if n <= p:
        raise ConfigError(f"n={n} must exceed the AR order {p}")
    companion = np.zeros((p, p))
    companion[0, :] = coeffs
    if p > 1:
        companion[1:, :-1] = np.eye(p - 1)
    radius = float(np.max(np.abs(np.linalg.eigvals(companion))))
    if radius >= 1.0:
        warnings.warn(
            f"AR coefficients have spectral radius {radius:.3f} >= 1; series will not be stationary",
            stacklevel=2,
        )
    stream = GaussianStream(seed)
    values = np.empty(n)
    values[:p] = stream.gaussians(p)
    for i in range(p, n):
        acc = stream.next_gaussian() * noise_sd
        for k in range(p):
            acc += coeffs[k] * values[i - 1 - k]
        values[i] = acc
    return TimeSeries(name=f"ar-{seed}", values=values)
