"""Series containers, windowing, CSV ingestion, synthetic generators, model documents.

A forecasting problem here is always framed the same way: take a 1-D
series, cut it into sliding windows of ``d`` consecutive values, and
predict the value immediately after each window.  Everything downstream
(models, metrics, the experiment harness) works on the
:class:`WindowedDataset` produced by :func:`make_windows`.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


def float_array(values, what: str, ndim: int | None = None,
                error: type = DataError) -> np.ndarray | float:
    """values as float64, a plain float with ndim 0: the one number intake.

    A bool, text or None, bare or inside a list or array, or what numpy
    cannot convert (an int past float range, a ragged list) raises `error`;
    with ndim, so does an array of another dimension count, an empty one or
    one holding NaN or an infinity, naming `what` and the first such index.
    """
    try:
        raw = values if isinstance(values, np.ndarray) else np.asarray(values)
        if (kind := raw.dtype.kind) == "b" or kind in "SUO" and any(
                isinstance(v, (str, bytes, type(None))) for v in raw.flat):
            raise TypeError  # numpy reads True as 1.0, "1.5" as a number and None as NaN
        array = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be numbers within float range") from None
    if ndim is None:
        return array
    if array.ndim != ndim or array.size == 0:
        raise error(f"{what} must be " + (f"a non-empty {ndim}-D array" if ndim else "a number"))
    if not np.isfinite(array).all():
        bad = tuple(np.argwhere(~np.isfinite(array))[0].tolist())
        at = f" at index {bad[0] if ndim == 1 else bad}" if ndim else ""
        raise error(f"{what} must be finite, got {array[bad]}{at}")
    return array if ndim else float(array)


def int_value(value, what: str, low: int, error: type = ConfigError) -> int:
    """The one integer intake: value as a plain int if an int or numpy int >= low, not a bool."""
    try:
        if not isinstance(value, bool) and (number := operator.index(value)) >= low:
            return number
    except TypeError:
        pass
    raise error(f"{what} must be an integer >= {low}, got {value!r}")


def take_numbers(record, error: type = DataError):
    """Store each field of the record's _NUMBERS table, {field: (int_value or float_array,
    its name in messages, its least value or ndim)}, as that intake returns it; a refused
    value raises `error`.  A name may quote the record's fields: "series {name!r}"."""
    for name, (take, what, arg) in record._NUMBERS.items():
        if "{" in what:
            what = what.format_map(vars(record))
        object.__setattr__(record, name, take(getattr(record, name), what, arg, error))


def keeping(take, *kept: type):
    """take, but a value of a kept type, such as None for an unset option, stays as given."""
    return lambda value, *args: value if isinstance(value, kept) else take(value, *args)


@dataclass(frozen=True)
class TimeSeries:
    """A named 1-D series of float64 values, oldest first."""

    name: str
    values: np.ndarray

    _NUMBERS = {"values": (float_array, "series {name!r}", 1)}
    __post_init__ = take_numbers

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised view of a series: row i is d consecutive values, target is the next one."""

    window_d: int
    inputs: np.ndarray   # shape (N, d)
    targets: np.ndarray  # shape (N,)

    _NUMBERS = {"window_d": (int_value, "window_d", 1), "inputs": (float_array, "inputs", None),
                "targets": (float_array, "targets", None)}

    def __post_init__(self):
        take_numbers(self)
        inputs, targets = self.inputs, self.targets
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

    def __len__(self) -> int:
        return int(self.targets.size)


def read_text(path: str | Path, label: str | None = None, error: type = DataError) -> str:
    """A file's text as UTF-8, less the byte-order mark spreadsheets write; a file
    that cannot be read or decoded raises `error`, naming `label` or the path."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {label or path}: {exc}") from exc


def load_csv(path: str | Path, value_column: str | int | None = None) -> TimeSeries:
    """Read one value column from a comma-delimited text file.

    Column may be named, a 0-based index, or None for a file of one
    column; every other column is ignored.  The first non-blank line is
    a header when the column is named or when its cell in the column is
    not a number to float(); otherwise it is the first data row, so a
    header whose cell is itself a number (a column named 2024) reads as
    data.  Rows in error messages are 1-based file lines, header included.
    """
    path = Path(path)
    rows = [(lineno, raw) for lineno, raw in enumerate(read_text(path).splitlines(), start=1)
            if raw.strip()]
    if not rows:
        raise DataError(f"{path}: file contains no rows")

    first_line, first = rows[0][0], [cell.strip() for cell in rows[0][1].split(",")]
    if value_column is None:
        if len(first) > 1:
            raise DataError(f"{path}: row {first_line} has {len(first)} columns "
                            f"({', '.join(first)}); choose one by name or index")
        value_column = 0
    if isinstance(value_column, str):
        if value_column not in first:
            raise DataError(
                f"{path}: no column named {value_column!r} in header (row {first_line})"
            )
        col_index = first.index(value_column)
        rows = rows[1:]
    else:
        col_index = int_value(value_column, f"{path}: column index", 0, DataError)
        try:
            float(first[col_index])
        except IndexError:
            pass  # a data row, so the loop below names the missing column
        except ValueError:
            rows = rows[1:]

    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {len(rows)}")

    values = []
    for lineno, raw in rows:
        cells = raw.split(",")
        if col_index >= len(cells):
            raise DataError(f"{path}: row {lineno} has no column {col_index}")
        # float() ignores the same surrounding whitespace that str.strip() removes
        cell = cells[col_index]
        try:
            v = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: row {lineno}: cannot parse {cell.strip()!r} as a number") from None
        if not math.isfinite(v):
            raise DataError(f"{path}: row {lineno}: non-finite value {cell.strip()!r}")
        values.append(v)
    return TimeSeries(name=path.stem, values=np.array(values))


def make_windows(series: TimeSeries, d: int) -> WindowedDataset:
    """Slide a length-d window over the series; target is the next value.

    Row i is (t_i, ..., t_{i+d-1}) with target t_{i+d}, giving N = n - d
    rows.  Needs n >= d + 2 so at least two (input, target) pairs exist.
    """
    d = int_value(d, "window size d", 1, DataError)
    n = len(series)
    if n < d + 2:
        raise DataError(
            f"series {series.name!r} has {n} points, need at least {d + 2} for d={d}"
        )
    v = series.values
    idx = np.arange(n - d)[:, None] + np.arange(d)[None, :]
    return WindowedDataset(window_d=d, inputs=v[idx], targets=v[d:])


MODEL_SCHEMA_VERSION = 1
# each kind, named with its article, to its fields {name: (list depth, int or
# float)}; a kind's first field marks its documents
MODEL_LAYOUTS = {"a polynomial": {"exponents": (2, int), "d": (0, int), "K": (0, int),
                                  "lambda": (0, float), "weights": (1, float)},
                 "an RBF": {"centers": (2, float), "d": (0, int), "widths": (1, float),
                            "out_weights": (1, float), "bias": (0, float)}}


def write_model_document(fields: dict) -> str:
    """A model document: schema_version, then each field as nested JSON numbers."""
    return json.dumps({"schema_version": MODEL_SCHEMA_VERSION,
                       **{key: np.asarray(v).tolist() for key, v in fields.items()}}, indent=2)


def read_model_document(text: str, kind: str | None = None) -> tuple[str, dict]:
    """Parse a model document of the given kind, else of any; return (kind, fields).

    Fields come back as int64 or float64 arrays.  A malformation, such as a
    boolean, a string, NaN, or 4.5 for an integer, is a DataError.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    kind = kind or next((k for k in MODEL_LAYOUTS if next(iter(MODEL_LAYOUTS[k])) in doc), None)
    if kind is None:
        raise DataError(f"model document is neither {' nor '.join(MODEL_LAYOUTS)} model document")
    version = doc.get("schema_version")
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:
        raise DataError(f"unsupported model schema_version {version!r}")
    fields = {}
    for key, (depth, number) in MODEL_LAYOUTS[kind].items():
        if key not in doc:
            raise DataError(f"model document missing field {key!r}")
        array = np.array(doc[key], dtype=object)
        if array.ndim == depth and {type(v) for v in array.flat} <= {int, number}:
            with contextlib.suppress(OverflowError):  # an integer beyond int64 or float
                fields[key] = array.astype(number)
        if not np.all(np.isfinite(fields.get(key, np.nan))):
            what = "integers" if number is int else "finite numbers"
            raise DataError(f"model field {key!r} must hold {what} at list depth {depth}")
    return kind, fields


_MASK64 = (1 << 64) - 1


def _gaussians(seed: int, n: int) -> list[float]:
    """n standard normal deviates, the same on every platform for a seed.

    numpy's bit generators are stable, but its normal sampler is a
    rejection method whose internals are not a public contract.  So the
    stream is two textbook pieces, each a handful of integer and float
    operations with no data-dependent branching: SplitMix64 words (Steele,
    Lea and Flood's mixer), whose top 53 bits give a uniform in [0, 1),
    and Box-Muller over consecutive pairs of uniforms, cosine first.  An
    odd n drops the last pair's sine.
    """
    state = seed  # in [0, 2**64), as _check_synth requires
    uniforms = []
    for _ in range(2 * ((n + 1) // 2)):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        uniforms.append(((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53)))
    draws = []
    for u1, u2 in zip(uniforms[::2], uniforms[1::2]):
        # 1 - u1 is in (0, 1], so the log is finite
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        draws += (r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2))
    return draws[:n]


def _check_synth(n: int, seed: int, **params) -> dict:
    """The synthetic generators' one check, made first by each and by a SynthSource when
    built: every input by name, n and seed plain ints, coeffs a list, the rest floats."""
    checked = {"n": int_value(n, "n", 1), "seed": int_value(seed, "seed", 0)}
    if checked["seed"] > _MASK64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    for name, value in params.items():
        checked[name] = float_array(value, name, int(name == "coeffs"), ConfigError)
    if checked.get("noise_sd", 0.0) < 0:
        raise ConfigError(f"noise_sd must be >= 0, got {checked['noise_sd']}")
    if checked.get("period", 1.0) <= 0:
        raise ConfigError(f"period must be positive, got {checked['period']}")
    if "coeffs" in checked:
        checked["coeffs"] = checked["coeffs"].tolist()
        if (n := checked["n"]) <= (p := len(checked["coeffs"])):
            raise ConfigError(f"n={n} must exceed the AR order {p}")
    return checked


def synth_seasonal(n: int, period: float = 12, amplitude: float = 1.0, trend: float = 0.0,
                   noise_sd: float = 0.0, *, seed: int) -> TimeSeries:
    """Sine of the given period plus linear trend plus gaussian noise.

    value_i = amplitude * sin(2*pi*i / period) + trend * i + noise_i.
    Deterministic per seed on every platform (see _gaussians).
    """
    c = _check_synth(n, seed, period=period, amplitude=amplitude, trend=trend,
                     noise_sd=noise_sd)
    n, period = c["n"], c["period"]
    if n < 4 * period:
        warnings.warn(
            f"n={n} covers under four periods of {period:.15g}; seasonal structure may be weak",
            stacklevel=2,
        )
    # 0.0 + keeps zero noise +0.0 after a negative draw (noise_sd * z is -0.0)
    noise = [0.0 + c["noise_sd"] * z for z in _gaussians(c["seed"], n)]
    i = np.arange(n, dtype=np.float64)
    values = c["amplitude"] * np.sin(2.0 * np.pi * i / period) + c["trend"] * i + np.array(noise)
    return TimeSeries(name=f"seasonal-{c['seed']}", values=values)


def synth_random_walk(n: int, drift: float = 0.0, noise_sd: float = 1.0,
                      *, seed: int) -> TimeSeries:
    """Random walk from 0: v_{i+1} = v_i + drift + gaussian(0, noise_sd)."""
    c = _check_synth(n, seed, drift=drift, noise_sd=noise_sd)
    steps = [c["drift"] + c["noise_sd"] * z for z in _gaussians(c["seed"], c["n"] - 1)]
    return TimeSeries(name=f"walk-{c['seed']}", values=np.concatenate([[0.0], np.cumsum(steps)]))


def synth_ar(coeffs: Sequence[float] = (0.6, 0.3), *, n: int, noise_sd: float = 0.0,
             seed: int) -> TimeSeries:
    """Autoregressive series; coeffs[0] weights the most recent lag.

    The first len(coeffs) values are standard-normal draws from the seed,
    after which value_i = sum_k coeffs[k] * value_{i-1-k} + gaussian(0, noise_sd).
    """
    c = _check_synth(n, seed, coeffs=coeffs, noise_sd=noise_sd)
    coeffs, n, noise_sd = c["coeffs"], c["n"], c["noise_sd"]
    p = len(coeffs)
    companion = np.zeros((p, p))
    companion[0, :] = coeffs
    companion[1:, :-1] = np.eye(p - 1)
    radius = float(np.max(np.abs(np.linalg.eigvals(companion))))
    if radius >= 1.0:
        warnings.warn(
            f"AR coefficients have spectral radius {radius:.3f} >= 1; series will not be stationary",
            stacklevel=2,
        )
    draws = _gaussians(c["seed"], n)
    values = np.empty(n)
    values[:p] = [0.0 + z for z in draws[:p]]
    for i in range(p, n):
        acc = draws[i] * noise_sd
        for k in range(p):
            acc += coeffs[k] * values[i - 1 - k]
        values[i] = acc
    return TimeSeries(name=f"ar-{c['seed']}", values=values)


# each synthetic kind's generator, and the parameters it takes: the generator's
# keyword parameters less n and seed, with their defaults
_SYNTH_KINDS = {"seasonal": synth_seasonal, "walk": synth_random_walk, "ar": synth_ar}
_SYNTH_PARAMETERS = {kind: {name: p.default for name, p in inspect.signature(g).parameters.items()
                            if name not in ("n", "seed")} for kind, g in _SYNTH_KINDS.items()}
