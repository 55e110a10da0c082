"""Experiment harness: degree sweeps, model comparisons, report rendering.

The harness owns the evaluation protocol so every experiment runs it
identically: window the series, split the windows chronologically, fit
on the training rows, forecast one step ahead on the test rows from
true lagged values, and score with MAE, RMSE and CV(RMSE).  Model
comparisons additionally run paired significance tests on the
per-point absolute errors of the two models.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import polynomial as poly
from . import rbf
from .data import _SYNTH_KINDS, _SYNTH_PARAMETERS, TimeSeries, WindowedDataset, _check_synth, \
    float_array, int_value, keeping, load_csv, make_windows, take_numbers
from .errors import ConfigError, DataError, DegenerateSampleError, FitError, \
    UndefinedMetricError
from .metrics import MetricReport, metric_report, timed
from .rbf import RbfTrainConfig
from .stats import PairedTestResult, paired_t_test, wilcoxon_signed_rank

REPORT_SCHEMA_VERSION = 1

PC = "PC"
RBFNN = "RBFNN"

REPORT_FORMATS = ("markdown", "csv", "json")

# the paper's table, in column order: a row's time, then its three metrics
_TABLE_FIELDS = ("exec_seconds", "mae", "rmse", "cv_rmse_pct")


@dataclass(frozen=True)
class CsvSource:
    path: str
    column: str | int | None = None  # a name, a 0-based index, or None for a file's only column

    _NUMBERS = {"column": (keeping(int_value, str, type(None)), "{path}: column index", 0)}
    __post_init__ = take_numbers


@dataclass(frozen=True)
class SynthSource:
    kind: str  # "seasonal", "walk" or "ar"
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    _NUMBERS = {"n": (int_value, "n", 1), "seed": (int_value, "seed", 0)}

    def __post_init__(self):
        if (takes := _SYNTH_PARAMETERS.get(self.kind)) is None:
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        for name in self.params:
            if name not in takes:
                raise ConfigError(f"synthetic kind {self.kind!r} takes no parameter {name!r}; "
                                  f"it takes {', '.join(sorted(takes))}")
        take_numbers(self, ConfigError)
        checked = _check_synth(self.n, self.seed, **{**takes, **self.params})
        object.__setattr__(self, "params", {name: checked[name] for name in self.params})


DataSource = CsvSource | SynthSource


def resolve_source(source: DataSource) -> TimeSeries:
    """Materialize the configured data source, checked when it was built, as a TimeSeries."""
    if isinstance(source, CsvSource):
        return load_csv(source.path, source.column)
    if isinstance(source, SynthSource):
        return _SYNTH_KINDS[source.kind](n=source.n, seed=source.seed, **source.params)
    raise ConfigError(f"unknown data source type {type(source).__name__}")


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's protocol, checked once here; integers and floats are kept as plain ones."""

    source: DataSource
    window_d: int = 8
    train_fraction: float = 0.8
    degrees: tuple = (1, 2, 3, 4, 5)
    ridge_lambda: float = 0.0
    rbf_config: RbfTrainConfig = field(default_factory=RbfTrainConfig)
    seeds: tuple = (0,)
    alpha: float = 0.05

    _NUMBERS = {"window_d": (int_value, "window_d", 1), "alpha": (float_array, "alpha", 0),
                "train_fraction": (float_array, "train_fraction", 0),
                "ridge_lambda": (float_array, "ridge_lambda", 0)}

    def __post_init__(self):
        take_numbers(self, ConfigError)
        for name in ("train_fraction", "alpha"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if self.ridge_lambda < 0:
            raise ConfigError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")
        if self.rbf_config.seed != RbfTrainConfig.seed or self.rbf_config.target_mse is not None:
            raise ConfigError("rbf_config sets a seed or growth (target_mse, max_units): seeds "
                              "sets the RBF seed, and a comparison fits one fixed network")
        # RbfTrainConfig decides which seeds are valid
        for name, check in (("degrees", lambda k: int_value(k, "degrees", 1)),
                            ("seeds", lambda s: replace(self.rbf_config, seed=s).seed)):
            given = getattr(self, name)
            values = tuple(map(check, given)) if np.iterable(given) else ()
            if not values:
                raise ConfigError(f"{name} must be a non-empty list of integers, got {given!r}")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat, got {given}")
            object.__setattr__(self, name, values)


def config_hash(config: ExperimentConfig) -> str:
    """Stable digest of everything that determines the run (times excluded)."""
    doc = asdict(config)
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _window_hash(w: WindowedDataset) -> str:
    h = hashlib.sha256()
    h.update(str(w.inputs.shape).encode())
    h.update(w.inputs.tobytes())
    h.update(w.targets.tobytes())
    return h.hexdigest()[:16]


def windowed_split(series: TimeSeries, d: int,
                   train_fraction: float) -> tuple[WindowedDataset, WindowedDataset]:
    """Window the whole series, then cut the rows at the chronological split.

    The boundary is floor(n * train_fraction) observations.  Training
    rows are exactly those whose target falls inside the training span,
    so nothing from the test span ever reaches the fit.  Test rows carry
    one prediction for every observation after the boundary; the first
    few test windows reach back into the training span, which is the
    usual teacher-forced setup for one-step forecasts.
    """
    if not 0.0 < (fraction := float_array(train_fraction, "train_fraction", ndim=0)) < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {fraction}")
    full = make_windows(series, d)  # checks d before n_train - d below
    # a float64 fraction below 1 times a length below 2**53 rounds below the
    # length, so at least one test row remains
    n_train = math.floor(len(series) * fraction)
    boundary = n_train - d  # index of the first test row
    if boundary < 1:
        raise DataError(
            f"train span of {n_train} points is too short for windows of d={d}"
        )
    train = WindowedDataset(d, full.inputs[:boundary], full.targets[:boundary])
    test = WindowedDataset(d, full.inputs[boundary:], full.targets[boundary:])
    return train, test


def _table_fields(row: ModelRow) -> dict:
    """A row's _TABLE_FIELDS; a failed row's metrics are None."""
    m = row.metrics
    return {"exec_seconds": row.exec_seconds,
            **{k: getattr(m, k) if m else None for k in _TABLE_FIELDS[1:]}}


@dataclass(frozen=True)
class ModelRow:
    """One row of the paper's table: a compared model, or one degree of a sweep."""

    model: str
    exec_seconds: float | None = None  # None, as are metrics, on a failed sweep degree
    metrics: MetricReport | None = None
    detail: dict = field(default_factory=dict)
    error: str | None = None  # a sweep degree's failure; a comparison aborts instead


@dataclass(frozen=True)
class SweepResult:
    dataset: str
    window_d: int
    ridge_lambda: float
    rows: tuple

    def to_dict(self) -> dict:
        rows = [{"degree": r.detail["degree"], **_table_fields(r), "error": r.error}
                for r in self.rows]
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "dataset": self.dataset,
            "window_d": self.window_d,
            "ridge_lambda": self.ridge_lambda,
            "rows": rows,
        }


def _split(config: ExperimentConfig) -> tuple[str, WindowedDataset, WindowedDataset]:
    """The configured series' name and its train and test windows."""
    series = resolve_source(config.source)
    return (series.name, *windowed_split(series, config.window_d, config.train_fraction))


def _forecast(model, windows: WindowedDataset, failure: Exception) -> np.ndarray:
    """A fitted PC or RBFNN model's forecast of every window.  A forecast
    that is not finite raises failure, without numpy's overflow warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, rbf.RbfNetwork):
            pred = rbf.batch_forward(model, windows.inputs)
        else:
            pred = poly.rolling_forecast(model, windows)
    if not np.all(np.isfinite(pred)):
        raise failure
    return pred


def _run(name: str, fit, test: WindowedDataset, failure: FitError) -> tuple[ModelRow, np.ndarray]:
    """A model's row and test forecasts; fit() returns the model and the row's
    detail.  Execution Time covers the fit and _forecast, not the scoring."""
    def job() -> tuple[np.ndarray, dict]:
        model, detail = fit()
        return _forecast(model, test, failure), detail

    run = timed(job)
    pred, detail = run.value
    return ModelRow(model=name, exec_seconds=run.seconds,
                    metrics=metric_report(test.targets, pred), detail=detail), pred


def _pc(train: WindowedDataset, test: WindowedDataset, detail: dict) -> tuple[ModelRow, np.ndarray]:
    """PC's run at its row detail's degree and ridge_lambda."""
    degree = detail["degree"]
    return _run(PC, lambda: (poly.fit(train, degree, detail["ridge_lambda"]), detail), test,
                FitError(f"degree {degree} forecasts overflow on the test windows; "
                         "rescale the series or lower the degree"))


def run_degree_sweep(config: ExperimentConfig) -> SweepResult:
    """Fit and score the polynomial model at every configured degree.

    A degree whose fit or scoring fails, or whose basis is over the cap,
    contributes a marked failure row instead of aborting the sweep.
    """
    dataset, train, test = _split(config)
    rows = []
    for degree in config.degrees:
        detail = {"degree": degree, "ridge_lambda": config.ridge_lambda}
        try:
            rows.append(_pc(train, test, detail)[0])
        except (ConfigError, FitError, UndefinedMetricError) as exc:
            rows.append(ModelRow(model=PC, detail=detail, error=str(exc)))
    return SweepResult(dataset=dataset, window_d=config.window_d,
                       ridge_lambda=config.ridge_lambda, rows=tuple(rows))


@dataclass(frozen=True)
class ComparisonReport:
    dataset: str
    models: tuple          # exactly (PC row, RBFNN row)
    t_test: PairedTestResult | None
    wilcoxon: PairedTestResult | None
    verdict: str
    degenerate: bool
    alpha: float
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "dataset": self.dataset,
            "models": [{"model": m.model, **_table_fields(m), "detail": m.detail}
                       for m in self.models],
            "tests": {
                "paired_t": _test_dict(self.t_test),
                "wilcoxon": _test_dict(self.wilcoxon),
            },
            "verdict": self.verdict,
            "degenerate": self.degenerate,
            "alpha": self.alpha,
            "metadata": self.metadata,
        }


def _test_dict(t: PairedTestResult | None) -> dict | None:
    """A test's report fields: all but p_exact, and no w_plus/w_minus on the t-test."""
    if t is None:
        return None
    return {f.name: v for f in fields(t)
            if f.name != "p_exact" and (v := getattr(t, f.name)) is not None}


def _verdict(result: PairedTestResult | None, alpha: float) -> str:
    """The comparison's verdict from its deciding test (None: no test ran).

    Significant means p strictly below alpha, with a nonzero direction;
    +1 means PC's errors ran larger, so RBFNN is better.
    """
    if result is None or result.p_value >= alpha or result.effect_direction == 0:
        return "no_significant_difference"
    return "RBFNN_better" if result.effect_direction > 0 else "PC_better"


def run_comparison(config: ExperimentConfig, seed: int | None = None) -> ComparisonReport:
    """Head-to-head PC vs RBFNN on identical train/test windows.

    PC runs at the smallest configured degree, and RBFNN is one fixed
    network, trained with the given seed (the first configured seed when
    omitted).  Significance tests compare per-point absolute errors; ties
    too degenerate to test are reported as such rather than failing.
    """
    dataset, train, test = _split(config)
    rbf_cfg = replace(config.rbf_config, seed=config.seeds[0] if seed is None else seed)
    degree = min(config.degrees)

    def rbf_fit() -> tuple[rbf.RbfNetwork, dict]:
        net, trace = rbf.fit_fixed(train.inputs, train.targets, rbf_cfg)
        return net, {
            "units": trace.final_units, "epochs": trace.epochs_run,
            "learning_rate": rbf_cfg.learning_rate, "batch_size": rbf_cfg.batch_size,
            "seed": rbf_cfg.seed,
            "stop_reason": trace.stop_reason, "train_mse": trace.best_mse,
        }

    stage = "PC fit"
    try:
        pc_row, pc_pred = _pc(train, test, {"degree": degree, "ridge_lambda": config.ridge_lambda})
        stage = "RBFNN training"
        rbf_row, rbf_pred = _run(RBFNN, rbf_fit, test,
                                 FitError("RBFNN forecasts overflow on the test windows"))
    except FitError as exc:
        raise FitError(f"comparison aborted at stage '{stage}': {exc}") from exc

    err_pc = np.abs(test.targets - pc_pred)
    err_rbf = np.abs(test.targets - rbf_pred)
    t_res = w_res = None
    # Zero-spread differences carry no usable ranking or variance
    # information, so neither test is attempted.
    if np.ptp(err_pc - err_rbf) > 0.0:
        with contextlib.suppress(DegenerateSampleError):
            t_res = paired_t_test(err_pc, err_rbf)
        # a nonzero spread leaves a nonzero difference, so this cannot raise
        w_res = wilcoxon_signed_rank(err_pc, err_rbf)

    metadata = {
        "window_d": config.window_d,
        "degree": degree,
        "train_fraction": config.train_fraction,
        "seed": rbf_cfg.seed,
        "seeds": list(config.seeds),
        "alpha": config.alpha,
        "config_hash": config_hash(config),
        "train_window_hash": _window_hash(train),
        "test_window_hash": _window_hash(test),
        "n_train_windows": len(train),
        "n_test_windows": len(test),
    }
    return ComparisonReport(
        dataset=dataset, models=(pc_row, rbf_row),
        t_test=t_res, wilcoxon=w_res, verdict=_verdict(t_res or w_res, config.alpha),
        degenerate=t_res is None, alpha=config.alpha, metadata=metadata,
    )


@dataclass(frozen=True)
class ComparisonSuite:
    """One comparison per configured seed."""

    reports: tuple

    def to_dict(self) -> dict:
        reports = [r.to_dict() for r in self.reports]
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "reports": reports,
            # each model's median of each table field over the seeds
            "median_summary": {name: {k: float(np.median([d["models"][idx][k] for d in reports]))
                                      for k in _TABLE_FIELDS}
                               for idx, name in enumerate((PC, RBFNN))},
        }


def run_comparison_suite(config: ExperimentConfig) -> ComparisonSuite:
    return ComparisonSuite(tuple(run_comparison(config, seed=s) for s in config.seeds))


# -- rendering ---------------------------------------------------------

# (markdown, csv) headings of the _TABLE_FIELDS columns
_FIELD_HEADS = tuple(zip(("Execution Time (s)", "MAE", "RMSE", "CV(RMSE) (%)"),
                         _TABLE_FIELDS))
_MODEL_HEADS = (("Model", "model"),) + _FIELD_HEADS


def _cells(row: dict) -> list[str]:
    if row["mae"] is None:
        return ["-"] * len(_TABLE_FIELDS)
    return [f"{row['exec_seconds']:.3g}"] + [f"{row[k]:.4f}" for k in _TABLE_FIELDS[1:]]


def _table(fmt: str, heads, rows, title: str = "", notes=()) -> str:
    """Write one table as markdown (title, table, notes) or csv (table only).

    heads are (markdown, csv) heading pairs; a cell is a string, or a
    (markdown, csv) pair where the two differ.  csv cells never hold a
    comma: it becomes ';'.
    """
    def pick(cell) -> str:
        return cell if isinstance(cell, str) else cell[fmt == "csv"]

    if fmt == "csv":
        return "\n".join(",".join(pick(c).replace(",", ";") for c in line)
                         for line in [heads, *rows])
    grid = [heads, ["---"] * len(heads), *rows]
    lines = [title, "", *(" | ".join(map(pick, line)) for line in grid)]
    if notes:
        lines += ["", *notes]
    return "\n".join(lines)


def _test_line(label: str, t: dict | None) -> str:
    if t is None:
        return f"{label}: not available (degenerate sample)"
    return (f"{label}: statistic={t['statistic']:.4f}, p={t['p_value']:.4f}, "
            f"n={t['n_effective']}")


def _sweep_table(doc: dict, fmt: str) -> str:
    heads = (("Degree", "degree"),) + _FIELD_HEADS + (("Status", "error"),)
    rows = [[str(r["degree"]), *_cells(r),
             ("ok", "") if r["error"] is None else (f"failed: {r['error']}", r["error"])]
            for r in doc["rows"]]
    return _table(fmt, heads, rows, f"### {doc['dataset']} (window d={doc['window_d']})")


def _comparison_table(doc: dict, fmt: str) -> str:
    rows = [[m["model"], *_cells(m)] for m in doc["models"]]
    if fmt == "csv":
        rows.append(["verdict", doc["verdict"], "", "", ""])
    verdict = doc["verdict"] + (" (degenerate sample)" if doc["degenerate"] else "")
    notes = [_test_line("Paired t-test", doc["tests"]["paired_t"]),
             _test_line("Wilcoxon signed-rank", doc["tests"]["wilcoxon"]),
             f"Verdict: {verdict}"]
    return _table(fmt, _MODEL_HEADS, rows, f"### {doc['dataset']}", notes)


def _suite_table(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        heads = (("Seed", "seed"),) + _MODEL_HEADS + (("Verdict", "verdict"),)
        rows = [[str(r["metadata"]["seed"]), m["model"], *_cells(m), r["verdict"]]
                for r in doc["reports"] for m in r["models"]]
        return _table(fmt, heads, rows)
    median = [[name, *_cells(row)] for name, row in doc["median_summary"].items()]
    parts = [_comparison_table(r, fmt) for r in doc["reports"]]
    return "\n\n".join(parts + [_table(fmt, _MODEL_HEADS, median, "## Median over seeds")])


_TABLES = {SweepResult: _sweep_table, ComparisonReport: _comparison_table,
           ComparisonSuite: _suite_table}


def render_report(obj, fmt: str = "markdown") -> str:
    """Render a sweep, comparison or suite's to_dict() document as markdown, csv or json."""
    table = _TABLES.get(type(obj))
    if table is None:
        raise ConfigError(f"cannot render object of type {type(obj).__name__}")
    if fmt not in REPORT_FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    doc = obj.to_dict()
    if fmt == "json":
        return json.dumps(doc, indent=2)
    return table(doc, fmt)


render_comparison = render_report  # the older name, which the acceptance tests import


_TEST_SCHEMA = {
    "type": ["object", "null"],
    "required": ["method", "statistic", "p_value", "n_effective",
                 "effect_direction", "alternative"],
    "properties": {
        "method": {"enum": ["paired_t", "wilcoxon_exact", "wilcoxon_normal_approx"]},
        "statistic": {"type": "number"},
        "p_value": {"type": "number", "minimum": 0, "maximum": 1},
        "n_effective": {"type": "integer", "minimum": 1},
        "effect_direction": {"enum": [-1, 0, 1]},
        "alternative": {"const": "two-sided"},
        "w_plus": {"type": ["number", "null"]},
        "w_minus": {"type": ["number", "null"]},
    },
}

COMPARISON_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "lagcast comparison report",
    "type": "object",
    "required": ["schema_version", "dataset", "models", "tests", "verdict",
                 "degenerate", "alpha", "metadata"],
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "dataset": {"type": "string"},
        "models": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {
                "type": "object",
                "required": ["model", "exec_seconds", "mae", "rmse", "cv_rmse_pct"],
                "properties": {
                    "model": {"enum": [PC, RBFNN]},
                    "exec_seconds": {"type": "number", "minimum": 0},
                    "mae": {"type": "number", "minimum": 0},
                    "rmse": {"type": "number", "minimum": 0},
                    "cv_rmse_pct": {"type": "number"},
                    "detail": {"type": "object"},
                },
            },
        },
        "tests": {
            "type": "object",
            "required": ["paired_t", "wilcoxon"],
            "properties": {"paired_t": _TEST_SCHEMA, "wilcoxon": _TEST_SCHEMA},
        },
        "verdict": {"enum": ["PC_better", "RBFNN_better", "no_significant_difference"]},
        "degenerate": {"type": "boolean"},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "metadata": {"type": "object"},
    },
}

COMPARISON_SUITE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "lagcast comparison suite",
    "type": "object",
    "required": ["schema_version", "reports", "median_summary"],
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "reports": {"type": "array", "minItems": 1,
                    "items": COMPARISON_REPORT_SCHEMA},
        "median_summary": {"type": "object"},
    },
}
