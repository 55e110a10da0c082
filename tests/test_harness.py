"""Experiment orchestration, report rendering and the report schemas."""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from lagcast.cli import main
from lagcast.data import TimeSeries, make_windows
from lagcast import harness, polynomial as poly, rbf
from lagcast.errors import ConfigError, DataError, DegenerateSampleError, FitError
from lagcast.harness import (
    COMPARISON_REPORT_SCHEMA,
    COMPARISON_SUITE_SCHEMA,
    ComparisonReport,
    ComparisonSuite,
    CsvSource,
    ExperimentConfig,
    ModelRow,
    SweepResult,
    SynthSource,
    config_hash,
    render_comparison,
    render_report,
    resolve_source,
    run_comparison,
    run_comparison_suite,
    run_degree_sweep,
    windowed_split,
)
from lagcast.metrics import MetricReport
from lagcast.rbf import RbfTrainConfig
from lagcast.stats import PairedTestResult, wilcoxon_signed_rank

QUICK_RBF = RbfTrainConfig(units=8, batch_size=16, epochs=12,
                           learning_rate=0.02, seed=0)


def seasonal_config(**kw):
    defaults = dict(
        source=SynthSource(kind="seasonal", n=120, seed=0,
                           params={"period": 12, "noise_sd": 0.1}),
        window_d=6,
        degrees=(1, 2),
        rbf_config=QUICK_RBF,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ------------------------------------------------------------ windowed_split

def test_windowed_split_boundary_bookkeeping():
    vals = np.arange(20.0)
    series = TimeSeries(name="t", values=vals)
    train, test = windowed_split(series, d=3, train_fraction=0.8)
    full = make_windows(series, 3)
    # 16 points of training span, so train targets stop at t_15
    assert len(train) == 13 and len(test) == 4
    assert train.targets.tolist() == vals[3:16].tolist()
    assert test.targets.tolist() == vals[16:].tolist()
    assert np.array_equal(np.vstack([train.inputs, test.inputs]), full.inputs)


def test_windowed_split_train_targets_stay_in_train_span():
    vals = np.arange(50.0)
    train, test = windowed_split(TimeSeries(name="t", values=vals), d=5,
                                 train_fraction=0.7)
    boundary = 35
    assert train.targets.max() < boundary
    assert test.targets.min() == boundary
    assert len(test) == 50 - boundary


def test_windowed_split_too_small():
    series = TimeSeries(name="t", values=np.arange(8.0))
    with pytest.raises(DataError):
        windowed_split(series, d=6, train_fraction=0.8)
    for fraction in (0.0, 1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DataError):
            windowed_split(series, d=2, train_fraction=fraction)


def test_windowed_split_keeps_one_test_row_at_the_largest_fraction_below_one():
    # n * f rounds below n for a float64 f < 1 and n < 2**53
    fraction = np.nextafter(1.0, 0.0)
    for n in range(10, 3001):
        train, test = windowed_split(TimeSeries("t", np.arange(float(n))), 8, fraction)
        assert len(test) == 1 and len(train) == n - 9


# ------------------------------------------------------------------- sources

def test_resolve_seasonal_defaults():
    ts = resolve_source(SynthSource(kind="seasonal", n=48))
    assert len(ts) == 48


def test_resolve_walk_and_ar():
    assert len(resolve_source(SynthSource(kind="walk", n=30))) == 30
    assert len(resolve_source(SynthSource(kind="ar", n=30))) == 30


def test_resolve_unknown_kind():
    with pytest.raises(ConfigError):
        resolve_source(SynthSource(kind="sawtooth", n=30))


def test_resolve_parameter_of_another_kind():
    with pytest.raises(ConfigError, match="'walk' takes no parameter 'period'"):
        resolve_source(SynthSource("walk", 30, params={"period": 4}))
    with pytest.raises(ConfigError, match="'n'"):
        resolve_source(SynthSource("ar", 30, params={"n": 40}))


def test_resolve_unknown_source_type():
    with pytest.raises(ConfigError, match="unknown data source type dict"):
        resolve_source({"kind": "walk", "n": 30})


def test_resolve_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("v\n1.0\n2.0\n3.0\n")
    ts = resolve_source(CsvSource(path=str(p), column="v"))
    assert ts.values.tolist() == [1.0, 2.0, 3.0]


# -------------------------------------------------------------------- config

def test_config_validation():
    src = SynthSource(kind="seasonal", n=60)
    with pytest.raises(ConfigError):
        ExperimentConfig(source=src, window_d=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(source=src, degrees=())
    with pytest.raises(ConfigError):
        ExperimentConfig(source=src, seeds=())
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
        ExperimentConfig(source=src, seeds=(0, -1))
    # a repeat would fit a degree twice, or count a seed twice in the median
    with pytest.raises(ConfigError, match="degrees must not repeat"):
        ExperimentConfig(source=src, degrees=(2, 1, 2))
    with pytest.raises(ConfigError, match="seeds must not repeat"):
        ExperimentConfig(source=src, seeds=(0, 3, 3))
    # seeds sets the RBF seed, and a comparison fits a fixed network
    for rbf_config in (RbfTrainConfig(seed=5), RbfTrainConfig(target_mse=0.1, max_units=8)):
        with pytest.raises(ConfigError, match="seeds sets the RBF seed.*one fixed network"):
            ExperimentConfig(source=src, rbf_config=rbf_config)
    for alpha in (0.0, 1.0, 1.5):  # ExperimentConfig is the one check of alpha
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig(source=src, alpha=alpha)
    with pytest.raises(ConfigError):
        ExperimentConfig(source=src, train_fraction=1.0)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="ridge_lambda"):
            ExperimentConfig(source=src, ridge_lambda=lam)


def test_config_hash_stable_and_sensitive():
    c1 = seasonal_config()
    c2 = seasonal_config()
    c3 = seasonal_config(degrees=(1, 3))
    assert config_hash(c1) == config_hash(c2)
    assert config_hash(c1) != config_hash(c3)
    assert len(config_hash(c1)) == 16


# --------------------------------------------------------------------- sweep

def test_sweep_noiseless_linear_degree_one():
    cfg = ExperimentConfig(
        source=SynthSource(kind="seasonal", n=60,
                           params={"amplitude": 0.0, "trend": 1.0}),
        window_d=2, degrees=(1,), rbf_config=QUICK_RBF,
    )
    with pytest.warns(UserWarning):  # collinear ramp hits the fallback
        result = run_degree_sweep(cfg)
    assert len(result.rows) == 1
    assert result.rows[0].detail["degree"] == 1
    assert result.rows[0].error is None
    assert result.rows[0].metrics.mae < 1e-6


def test_sweep_row_per_degree_and_failures_flagged(tmp_path):
    # values around 1e80 overflow the degree-5 design but not degree 1
    p = tmp_path / "big.csv"
    rows = "\n".join(repr(1e80 + i * 1e70) for i in range(30))
    p.write_text("v\n" + rows + "\n")
    cfg = ExperimentConfig(
        source=CsvSource(path=str(p), column="v"),
        window_d=2, degrees=(1, 5), rbf_config=QUICK_RBF,
    )
    with pytest.warns(UserWarning, match="minimum-norm"):
        result = run_degree_sweep(cfg)
    assert [r.detail["degree"] for r in result.rows] == [1, 5]
    assert result.rows[0].error is None
    assert result.rows[1].exec_seconds is None and result.rows[1].metrics is None
    assert "overflow" in result.rows[1].error


def test_sweep_keeps_configured_degree_order():
    cfg = seasonal_config(degrees=(3, 1, 2))
    result = run_degree_sweep(cfg)
    assert [r.detail["degree"] for r in result.rows] == [3, 1, 2]


# ---------------------------------------------------------------- comparison

def test_comparison_structure_and_hashes():
    report = run_comparison(seasonal_config())
    assert [m.model for m in report.models] == ["PC", "RBFNN"]
    assert report.metadata["train_window_hash"] != report.metadata["test_window_hash"]
    assert len(report.metadata["config_hash"]) == 16
    assert report.verdict in ("PC_better", "RBFNN_better",
                              "no_significant_difference")
    assert report.t_test is not None and report.wilcoxon is not None
    doc = report.to_dict()
    jsonschema.validate(doc, COMPARISON_REPORT_SCHEMA)


def test_comparison_constant_series_degenerates(tmp_path):
    p = tmp_path / "const.csv"
    p.write_text("v\n" + "\n".join(["7.5"] * 40) + "\n")
    cfg = ExperimentConfig(
        source=CsvSource(path=str(p), column="v"),
        window_d=3, degrees=(1,), rbf_config=QUICK_RBF,
    )
    with pytest.warns(UserWarning):  # constant design triggers the fallback
        report = run_comparison(cfg)
    assert report.degenerate
    assert report.verdict == "no_significant_difference"
    assert report.t_test is None and report.wilcoxon is None
    assert "degenerate" in render_comparison(report, "markdown")
    jsonschema.validate(report.to_dict(), COMPARISON_REPORT_SCHEMA)


def _tested(p, direction):
    return PairedTestResult(method="paired_t", statistic=1.0, p_value=p,
                            n_effective=10, effect_direction=direction)


@pytest.mark.parametrize("result, alpha, want", [
    (_tested(0.2, 1), 0.05, "no_significant_difference"),
    (_tested(0.01, 1), 0.05, "RBFNN_better"),
    (_tested(0.01, -1), 0.05, "PC_better"),
    (_tested(0.05, 1), 0.05, "no_significant_difference"),
    (_tested(0.001, 0), 0.05, "no_significant_difference"),
    (wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, -0.5], np.zeros(6)), 0.2, "RBFNN_better"),
    (None, 0.05, "no_significant_difference"),
], ids=["not-significant", "pc-errors-larger", "rbfnn-errors-larger", "alpha-is-strict",
        "no-direction", "wilcoxon-decided", "no-test"])
def test_verdict(result, alpha, want):
    # effect_direction +1: PC's errors ran larger, so RBFNN is better
    assert harness._verdict(result, alpha) == want


def test_comparison_degenerate_t_test_takes_the_wilcoxon_verdict(monkeypatch):
    def degenerate(a, b):
        raise DegenerateSampleError("all paired differences are identical")

    monkeypatch.setattr(harness, "paired_t_test", degenerate)
    report = run_comparison(seasonal_config(alpha=0.2))
    assert report.degenerate
    assert report.t_test is None and report.wilcoxon is not None
    w = report.wilcoxon
    assert w.p_value < 0.2 and w.effect_direction == -1
    assert report.verdict == "PC_better"
    assert "Paired t-test: not available" in render_report(report, "markdown")
    jsonschema.validate(report.to_dict(), COMPARISON_REPORT_SCHEMA)


def test_comparison_deterministic_up_to_timing():
    def strip(doc):
        for m in doc["models"]:
            m.pop("exec_seconds")
        return doc

    r1 = strip(run_comparison(seasonal_config()).to_dict())
    r2 = strip(run_comparison(seasonal_config()).to_dict())
    assert r1 == r2


def _reports_like(config, twin):
    """config equals twin, hashes like it, and its comparison and sweep JSON
    equal twin's apart from exec_seconds."""
    assert config == twin and config_hash(config) == config_hash(twin)

    def doc(result):
        doc = json.loads(render_report(result, "json"))
        for row in doc.get("models") or doc["rows"]:
            row.pop("exec_seconds")
        return doc

    for run in (run_comparison, run_degree_sweep):
        assert doc(run(config)) == doc(run(twin))


def test_numpy_int_config_reports_like_plain_ints():
    plain = seasonal_config(window_d=6, degrees=(1, 2), seeds=(3,))
    numpy = seasonal_config(window_d=np.int64(6), degrees=np.array([1, 2]),
                            seeds=(np.int32(3),))
    _reports_like(numpy, plain)


@pytest.mark.parametrize("make", [np.float32, np.float64, lambda x: Fraction(str(x))],
                         ids=["float32", "float64", "Fraction"])
@pytest.mark.parametrize("field, value", [("train_fraction", 0.6), ("alpha", 0.1),
                                          ("ridge_lambda", 0.3), ("learning_rate", 0.03)])
def test_numpy_and_fraction_float_configs_report_like_plain_floats(field, value, make):
    def config(x):
        if field == "learning_rate":
            return seasonal_config(rbf_config=replace(QUICK_RBF, learning_rate=x))
        return seasonal_config(**{field: x})

    _reports_like(config(make(value)), config(float(make(value))))


def test_comparison_uses_min_degree_for_pc():
    report = run_comparison(seasonal_config(degrees=(3, 1, 2)))
    assert report.metadata["degree"] == 1


def test_suite_reports_and_median():
    cfg = seasonal_config(seeds=(0, 1, 2))
    suite = run_comparison_suite(cfg)
    assert len(suite.reports) == 3
    maes = sorted(r.models[1].metrics.mae for r in suite.reports)
    assert suite.to_dict()["median_summary"]["RBFNN"]["mae"] == pytest.approx(maes[1])
    jsonschema.validate(suite.to_dict(), COMPARISON_SUITE_SCHEMA)


def test_sweep_degree_row_is_the_comparison_pc_row():
    cfg = seasonal_config(degrees=(1, 2))
    sweep_row = run_degree_sweep(cfg).rows[0]
    pc_row = run_comparison(cfg).models[0]
    assert sweep_row.detail == pc_row.detail == {"degree": 1, "ridge_lambda": 0.0}
    assert sweep_row.metrics == pc_row.metrics
    assert sweep_row.model == pc_row.model == "PC" and sweep_row.error is None


def test_comparison_non_finite_rbf_forecasts_abort_at_the_rbf_stage(monkeypatch):
    # no real fit gets this far, as training fails first; the patch stands in
    monkeypatch.setattr(rbf, "batch_forward", lambda net, inputs: np.full(len(inputs), np.inf))
    with pytest.raises(FitError) as failure:
        run_comparison(seasonal_config())
    assert str(failure.value) == ("comparison aborted at stage 'RBFNN training': "
                                  "RBFNN forecasts overflow on the test windows")


def test_model_functions_are_looked_up_at_call_time(monkeypatch, tmp_path):
    # perfbench's tracer replaces these module attributes after import, as
    # here; a call through a reference taken at import would escape it
    counts = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in [(poly, "fit"), (poly, "rolling_forecast"),
                         (rbf, "fit_fixed"), (rbf, "batch_forward")]:
        count(module, name)

    run_degree_sweep(seasonal_config(degrees=(1, 2)))
    assert counts == {"fit": 2, "rolling_forecast": 2}
    counts.clear()
    run_comparison(seasonal_config())
    assert counts == {"fit": 1, "rolling_forecast": 1, "fit_fixed": 1, "batch_forward": 1}

    series = resolve_source(seasonal_config().source)
    data = tmp_path / "series.csv"
    data.write_text("v\n" + "\n".join(map(repr, series.values.tolist())) + "\n")
    windows = make_windows(series, 6)
    poly.save(poly.fit(windows, 1), tmp_path / "poly.json")
    rbf.save(rbf.fit_fixed(windows.inputs, windows.targets, QUICK_RBF)[0], tmp_path / "rbf.json")
    for kind, forecast in [("poly", "rolling_forecast"), ("rbf", "batch_forward")]:
        counts.clear()
        assert main(["forecast", "--model", str(tmp_path / f"{kind}.json"), "--data", str(data),
                     "--column", "v", "--out", str(tmp_path / f"{kind}.csv")]) == 0
        assert counts == {forecast: 1}


# ----------------------------------------------------------------- rendering

def fixture_report():
    def row(name, secs, mae_v, rmse_v, cv):
        return ModelRow(
            model=name, exec_seconds=secs,
            metrics=MetricReport(mae=mae_v, rmse=rmse_v, cv_rmse_pct=cv, n=50),
            detail={},
        )

    return ComparisonReport(
        dataset="gold",
        models=(row("PC", 0.153, 23.47583, 30.59528, 1.66031),
                row("RBFNN", 0.31, 24.0, 31.0, 1.7)),
        t_test=None, wilcoxon=None, verdict="no_significant_difference",
        degenerate=True, alpha=0.05,
        metadata={"seed": 0},
    )


def fixture_sweep():
    ok = MetricReport(mae=0.123456, rmse=0.234567, cv_rmse_pct=3.456789, n=40)
    return SweepResult(dataset="gold", window_d=4, ridge_lambda=0.0, rows=(
        ModelRow(model="PC", exec_seconds=0.0123, metrics=ok, detail={"degree": 1}),
        ModelRow(model="PC", exec_seconds=None, metrics=None, detail={"degree": 2},
                 error="design for degree 2 is singular, refit"),
    ))


def fixture_suite():
    first = fixture_report()
    pc = replace(first.models[0], exec_seconds=0.247, metrics=MetricReport(
        mae=23.52417, rmse=30.60472, cv_rmse_pct=1.65969, n=50))
    second = replace(
        first, models=(pc, first.models[1]),
        verdict="PC_better", degenerate=False, metadata={"seed": 1},
        t_test=PairedTestResult("paired_t", -2.5, 0.0123, 50, -1),
        wilcoxon=PairedTestResult("wilcoxon_normal_approx", 412.0, 0.0456, 48, -1,
                                  w_plus=412.0, w_minus=764.0),
    )
    return ComparisonSuite(reports=(first, second))


_GOLD_COMPARISON_MD = """### gold

Model | Execution Time (s) | MAE | RMSE | CV(RMSE) (%)
--- | --- | --- | --- | ---
PC | 0.153 | 23.4758 | 30.5953 | 1.6603
RBFNN | 0.31 | 24.0000 | 31.0000 | 1.7000

Paired t-test: not available (degenerate sample)
Wilcoxon signed-rank: not available (degenerate sample)
Verdict: no_significant_difference (degenerate sample)"""

GOLDEN_TEXT = {
    ("sweep", "markdown"): """### gold (window d=4)

Degree | Execution Time (s) | MAE | RMSE | CV(RMSE) (%) | Status
--- | --- | --- | --- | --- | ---
1 | 0.0123 | 0.1235 | 0.2346 | 3.4568 | ok
2 | - | - | - | - | failed: design for degree 2 is singular, refit""",
    ("sweep", "csv"): """degree,exec_seconds,mae,rmse,cv_rmse_pct,error
1,0.0123,0.1235,0.2346,3.4568,
2,-,-,-,-,design for degree 2 is singular; refit""",
    ("comparison", "markdown"): _GOLD_COMPARISON_MD,
    ("comparison", "csv"): """model,exec_seconds,mae,rmse,cv_rmse_pct
PC,0.153,23.4758,30.5953,1.6603
RBFNN,0.31,24.0000,31.0000,1.7000
verdict,no_significant_difference,,,""",
    ("suite", "markdown"): _GOLD_COMPARISON_MD + """

### gold

Model | Execution Time (s) | MAE | RMSE | CV(RMSE) (%)
--- | --- | --- | --- | ---
PC | 0.247 | 23.5242 | 30.6047 | 1.6597
RBFNN | 0.31 | 24.0000 | 31.0000 | 1.7000

Paired t-test: statistic=-2.5000, p=0.0123, n=50
Wilcoxon signed-rank: statistic=412.0000, p=0.0456, n=48
Verdict: PC_better

## Median over seeds

Model | Execution Time (s) | MAE | RMSE | CV(RMSE) (%)
--- | --- | --- | --- | ---
PC | 0.2 | 23.5000 | 30.6000 | 1.6600
RBFNN | 0.31 | 24.0000 | 31.0000 | 1.7000""",
    ("suite", "csv"): """seed,model,exec_seconds,mae,rmse,cv_rmse_pct,verdict
0,PC,0.153,23.4758,30.5953,1.6603,no_significant_difference
0,RBFNN,0.31,24.0000,31.0000,1.7000,no_significant_difference
1,PC,0.247,23.5242,30.6047,1.6597,PC_better
1,RBFNN,0.31,24.0000,31.0000,1.7000,PC_better""",
}

_FIXTURES = {"sweep": fixture_sweep, "comparison": fixture_report, "suite": fixture_suite}


@pytest.mark.parametrize("kind, fmt", sorted(GOLDEN_TEXT))
def test_golden_text(kind, fmt):
    assert render_report(_FIXTURES[kind](), fmt) == GOLDEN_TEXT[kind, fmt]


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
@pytest.mark.parametrize("kind", sorted(_FIXTURES))
def test_tables_render_from_the_json_document(kind, fmt):
    # nothing reaches a table that the JSON lacks, and every number
    # survives the JSON text
    obj = _FIXTURES[kind]()
    doc = json.loads(render_report(obj, "json"))
    assert harness._TABLES[type(obj)](doc, fmt) == render_report(obj, fmt)


def test_markdown_fixture_row():
    text = render_comparison(fixture_report(), "markdown")
    assert "Model | Execution Time (s) | MAE | RMSE | CV(RMSE) (%)" in text
    assert "PC | 0.153 | 23.4758 | 30.5953 | 1.6603" in text


def test_csv_columns():
    text = render_comparison(fixture_report(), "csv")
    lines = text.splitlines()
    assert lines[0] == "model,exec_seconds,mae,rmse,cv_rmse_pct"
    assert lines[1].startswith("PC,0.153,23.4758,")


def test_json_round_trip_byte_identical():
    report = run_comparison(seasonal_config())
    text = render_comparison(report, "json")
    again = json.dumps(json.loads(text), indent=2)
    assert text == again


def test_render_dispatch():
    report = run_comparison(seasonal_config())
    assert render_report(report, "json") == render_comparison(report, "json")
    sweep = run_degree_sweep(seasonal_config())
    assert "Degree | Execution Time (s)" in render_report(sweep, "markdown")
    suite = run_comparison_suite(seasonal_config())
    assert "Median over seeds" in render_report(suite, "markdown")
    with pytest.raises(ConfigError):
        render_report(report, "yaml")
    with pytest.raises(ConfigError):
        render_report(42)


def test_sweep_render_marks_failures(tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("v\n" + "\n".join(repr(1e80 + i * 1e70) for i in range(30)) + "\n")
    cfg = ExperimentConfig(source=CsvSource(path=str(p), column="v"),
                           window_d=2, degrees=(5,), rbf_config=QUICK_RBF)
    result = run_degree_sweep(cfg)
    md = render_report(result, "markdown")
    assert "failed:" in md
    csv_text = render_report(result, "csv")
    assert csv_text.splitlines()[1].startswith("5,-,-,-,-")


def test_suite_csv_lists_each_seed():
    suite = run_comparison_suite(seasonal_config(seeds=(0, 1)))
    lines = render_report(suite, "csv").splitlines()
    assert lines[0].startswith("seed,model,")
    assert len(lines) == 1 + 2 * 2
