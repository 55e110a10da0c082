"""Command-line interface: subcommands, config files, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lagcast import cli, errors, polynomial as poly
from lagcast import rbf
from lagcast.cli import main
from lagcast.data import TimeSeries, load_csv, make_windows, synth_seasonal
from lagcast.harness import (
    CsvSource, ExperimentConfig, SynthSource, render_report, resolve_source,
    run_comparison, run_degree_sweep,
)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lagcast", *argv],
        capture_output=True, text=True,
    )


def write_series(path, values):
    path.write_text("v\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def seasonal_csv(tmp_path, n=200):
    t = np.arange(n)
    rng = np.random.default_rng(0)
    # noise keeps the lag design full rank (a clean sinusoid plus trend
    # spans only 4 dimensions, which would make the fit rank deficient)
    vals = 10.0 + np.sin(2 * np.pi * t / 12) + 0.01 * t + rng.normal(0, 0.05, n)
    return write_series(tmp_path / "series.csv", vals)


# ----------------------------------------------------------- end-to-end pipe

def test_pipeline_synth_sweep_compare_forecast(tmp_path):
    data = str(tmp_path / "series.csv")
    r = run_cli("synth", "--kind", "seasonal", "--n", "160",
                "--noise-sd", "0.05", "--out", data)
    assert r.returncode == 0, r.stderr
    assert "wrote 160 points" in r.stdout

    # synth output has a t column, so select v by name
    r = run_cli("sweep", "--data", data, "--column", "v",
                "--window", "6", "--degrees", "1..3", "--format", "markdown")
    assert r.returncode == 0, r.stderr
    assert "Degree | Execution Time (s)" in r.stdout

    out_json = str(tmp_path / "report.json")
    r = run_cli("compare", "--data", data, "--column", "v", "--window", "6",
                "--rbf-units", "8", "--rbf-epochs", "10", "--rbf-batch", "16",
                "--rbf-lr", "0.01", "--out", out_json)
    assert r.returncode == 0, r.stderr
    doc = json.loads(open(out_json).read())
    assert [m["model"] for m in doc["models"]] == ["PC", "RBFNN"]
    assert doc["verdict"] in ("PC_better", "RBFNN_better",
                              "no_significant_difference")

    series = load_csv(data, "v")
    model = poly.fit(make_windows(series, 6), degree_k=2)
    model_path = tmp_path / "model.json"
    poly.save(model, model_path)
    preds = str(tmp_path / "preds.csv")
    r = run_cli("forecast", "--model", str(model_path), "--data", data,
                "--column", "v", "--out", preds)
    assert r.returncode == 0, r.stderr
    lines = open(preds).read().splitlines()
    assert lines[0] == "index,prediction"
    assert lines[1].startswith("6,")
    assert len(lines) == 1 + 160 - 6


def test_pipeline_names_every_file_encoding(tmp_path):
    # -X warn_default_encoding warns wherever a file is opened in the
    # locale's encoding, and -W error makes each warning a failure
    def run(*argv):
        r = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                            "-W", "error::EncodingWarning", *argv],
                           capture_output=True, text=True)
        assert r.returncode == 0 and "EncodingWarning" not in r.stderr, r.stderr

    data, cfg = str(tmp_path / "series.csv"), tmp_path / "run.cfg"
    poly_path, rbf_path = str(tmp_path / "poly.json"), str(tmp_path / "rbf.json")
    run("-m", "lagcast", "synth", "--kind", "seasonal", "--n", "160",
        "--noise-sd", "0.05", "--out", data)
    cfg.write_text(f"data = {data}\ncolumn = v\ndegrees = 1..2\n", encoding="utf-8")
    run("-m", "lagcast", "sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.md"))
    run("-m", "lagcast", "compare", "--data", data, "--column", "v", "--rbf-epochs", "5")
    run("-c", "import sys\n"
              "from lagcast import load_csv, make_windows, polynomial as poly, rbf\n"
              "w = make_windows(load_csv(sys.argv[1], 'v'), 8)\n"
              "poly.save(poly.fit(w, degree_k=2), sys.argv[2])\n"
              "cfg = rbf.RbfTrainConfig(units=4, epochs=2)\n"
              "rbf.save(rbf.fit_fixed(w.inputs, w.targets, cfg)[0], sys.argv[3])\n"
              "poly.load(sys.argv[2]), rbf.load(sys.argv[3])\n", data, poly_path, rbf_path)
    for model in (poly_path, rbf_path):
        run("-m", "lagcast", "forecast", "--model", model, "--data", data, "--column", "v",
            "--out", str(tmp_path / "preds.csv"))


def test_synth_deterministic_and_headered(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["synth", "--kind", "walk", "--n", "25", "--seed", "7",
                 "--out", a]) == 0
    assert main(["synth", "--kind", "walk", "--n", "25", "--seed", "7",
                 "--out", b]) == 0
    ta, tb = open(a).read(), open(b).read()
    assert ta == tb
    assert ta.splitlines()[0] == "t,v"


def test_synth_period_is_a_real_number_as_in_the_library(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["synth", "--kind", "seasonal", "--n", "100", "--period", "12.5",
                 "--out", str(out)]) == 0
    written = load_csv(out, "v").values.tobytes()
    assert written == synth_seasonal(n=100, period=12.5, seed=0).values.tobytes()


# ------------------------------------------------------------ reading CSVs

class SeriesRead(Exception):
    """Carries the values a command read, and stops it before any work."""


def read_by_sweep(*argv):
    """The values `lagcast sweep` reads from its --data file."""
    def capture(config):
        raise SeriesRead(resolve_source(config.source).values)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(SeriesRead) as info:
        mp.setattr(cli, "run_degree_sweep", capture)
        main(["sweep", *argv])
    return info.value.args[0]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
def test_headerless_repr_floats_read_back_bit_for_bit(tmp_path_factory, values):
    p = tmp_path_factory.mktemp("csv") / "vals.csv"
    p.write_text("".join(f"{v!r}\n" for v in values))
    written = np.array(values).tobytes()
    assert load_csv(p).values.tobytes() == written
    assert read_by_sweep("--data", str(p)).tobytes() == written


def test_written_files_need_a_column_and_read_back_bit_for_bit(tmp_path, capsys):
    series_csv, preds_csv, model = tmp_path / "s.csv", tmp_path / "p.csv", tmp_path / "m.json"
    assert main(["synth", "--kind", "seasonal", "--n", "60", "--noise-sd", "0.1",
                 "--out", str(series_csv)]) == 0
    series = resolve_source(SynthSource(kind="seasonal", n=60, params={"noise_sd": 0.1}))
    poly.save(poly.fit(make_windows(series, 3), degree_k=2), model)
    assert main(["forecast", "--model", str(model), "--data", str(series_csv),
                 "--column", "v", "--out", str(preds_csv)]) == 0
    preds = poly.rolling_forecast(poly.load(model), make_windows(series, 3))
    capsys.readouterr()
    for path, columns, column, written in ((series_csv, "t, v", "v", series.values),
                                           (preds_csv, "index, prediction", "prediction", preds)):
        assert main(["sweep", "--data", str(path)]) == 3
        assert capsys.readouterr().err == (f"data error: {path}: row 1 has 2 columns "
                                           f"({columns}); choose one by name or index\n")
        assert read_by_sweep("--data", str(path), "--column", column).tobytes() \
            == written.tobytes()


def test_forecast_on_a_headerless_file_keeps_its_first_point(tmp_path, capsys):
    values = 10.0 + np.sin(np.arange(60) / 2.0) + np.random.default_rng(0).normal(0, 0.05, 60)
    data, model, out = tmp_path / "vals.csv", tmp_path / "m.json", tmp_path / "p.csv"
    data.write_text("".join(f"{float(v)!r}\n" for v in values))
    poly.save(poly.fit(make_windows(TimeSeries(name="s", values=values), 3), degree_k=1), model)
    assert main(["forecast", "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 57 predictions to {out}\n"
    assert out.read_text().splitlines()[1].startswith("3,")


# ----------------------------------------------------------------- sweep CLI

def test_sweep_csv_format_and_out_file(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--data", data, "--column", "v", "--window", "4",
                 "--degrees", "1,2", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "degree,exec_seconds,mae,rmse,cv_rmse_pct,error"
    assert len(lines) == 3
    assert capsys.readouterr().out == ""


def test_sweep_degree_list_forms(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    for spec, expected in (("1..3", ["1", "2", "3"]), ("1,3", ["1", "3"])):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--data", data, "--column", "v", "--window", "4",
                     "--degrees", spec, "--format", "csv",
                     "--out", str(out)]) == 0
        got = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        assert got == expected


def test_sweep_lambda_alias(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    for flag in ("--lambda", "--ridge-lambda"):
        assert main(["sweep", "--data", data, "--column", "v", "--window",
                     "4", "--degrees", "1", flag, "0.5"]) == 0
        capsys.readouterr()


def all_failed_csv(tmp_path):
    """30 points from 1e80: at d = 2, degrees 5 and 6 both fail to fit."""
    return write_series(tmp_path / "big.csv", [1e80 + i * 1e70 for i in range(30)])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_all_degrees_failed_is_exit_4(tmp_path, capsys):
    data = all_failed_csv(tmp_path)
    code = main(["sweep", "--data", data, "--column", "v", "--window", "2",
                 "--degrees", "5,6"])
    captured = capsys.readouterr()
    assert code == 4
    lines = [line for line in captured.err.splitlines() if not line.startswith("warning: ")]
    assert lines == ["fit error: every degree failed to fit"]
    # the table comes first; a failed row has no time, so it is reproducible
    result = run_degree_sweep(ExperimentConfig(source=CsvSource(path=data, column="v"),
                                               window_d=2, degrees=(5, 6)))
    assert all(r.error is not None for r in result.rows)
    assert captured.out == render_report(result, "markdown") + "\n"


def overflow_csv(tmp_path):
    """1e59 to 2e59 over 192 points, then to 2e62 over 48: PC's fits are
    finite, but at degree 5 and d = 2 its test forecasts overflow."""
    vals = np.concatenate([np.linspace(1e59, 2e59, 192), np.linspace(2e59, 2e62, 49)[1:]])
    return write_series(tmp_path / "overflow.csv", vals)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_marks_an_overflowing_forecast_failed(tmp_path, capsys):
    data = overflow_csv(tmp_path)
    assert main(["sweep", "--data", data, "--window", "2", "--degrees", "1..5",
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[-1] for r in rows[:4]] == [""] * 4
    assert rows[4].startswith("5,-,-,-,-,degree 5 forecasts overflow on the test windows;")
    # compare fits PC at the smallest degree, here the overflowing one
    assert main(["compare", "--data", data, "--window", "2", "--degrees", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fit error: comparison aborted at stage 'PC fit': "
                                   "degree 5 forecasts overflow")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_marks_a_degree_over_the_basis_cap_failed(tmp_path, capsys):
    data = seasonal_csv(tmp_path, n=240)
    assert main(["sweep", "--data", data, "--column", "v", "--window", "180",
                 "--format", "csv"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert [r[-1] for r in rows[:2]] == ["", ""]
    for k, r in zip((3, 4, 5), rows[2:]):
        assert r[-1] == f"basis for d=180; K={k} has more than 100000 terms (the cap)"


# ----------------------------------------------------------------- exit codes

def test_missing_required_flag_is_exit_2(capsys):
    assert main(["sweep", "--column", "v"]) == 2
    assert "--data" in capsys.readouterr().err


def test_bad_flag_value_is_exit_2(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    assert main(["sweep", "--data", data, "--window", "eight"]) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda", "nan"],
    ["compare", "--lambda", "inf"],
    ["compare", "--rbf-lr", "nan"],
    ["compare", "--rbf-lr", "inf"],
    ["sweep", "--lambda", "-inf"],
    ["compare", "--lambda", "-1e3"],
    ["compare", "--rbf-lr", "-inf"],
], ids=["sweep-lambda-nan", "compare-lambda-inf", "compare-lr-nan",
        "compare-lr-inf", "sweep-lambda-minus-inf",
        "compare-lambda-minus-1e3", "compare-lr-minus-inf"])
def test_non_finite_flag_is_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "report.txt"
    code = main([*argv, "--data", seasonal_csv(tmp_path, n=120), "--column", "v",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error")
    assert not out.exists()


def refuse_work(*args, **kwargs):
    raise AssertionError("the command ran an experiment")


@pytest.mark.parametrize("argv", [
    ["compare", "--format", "xml"],
    ["compare", "--format", "xml", "--seeds", "0..9"],
    ["sweep", "--format", "xml"],
    ["sweep", "--degrees", "1..1000000000000000"],
    ["compare", "--seeds", "0..1000000000000000"],
    ["compare", "--rbf-target-mse", "0.1"],
    ["compare", "--rbf-max-units", "40"],
    ["compare", "--seeds", "-1"],
    ["compare", "--seeds", "0,-1"],
    ["sweep", "--degrees", "2,1,2"],
    ["compare", "--seeds", "0,3,3"],
    ["sweep", "--frobnicate", "1"],
    ["bogus"],
    [],
    ["sweep", "--data"],
    ["sweep", "--deg", "1..2"],
    ["sweep", "--col", "v"],
    ["compare", "--seed", "3"],
    ["sweep", "stray"],
    ["sweep", "--no-header"],
    ["sweep", "--degrees", "5..1"],
    ["sweep", "--config", "/nonexistent/run.cfg"],
], ids=["compare-format", "compare-format-seeds", "sweep-format",
        "sweep-huge-degree-range", "compare-huge-seed-range",
        "compare-target-mse-only", "compare-max-units-only", "compare-negative-seed",
        "compare-negative-second-seed", "sweep-repeated-degree",
        "compare-repeated-seed", "unknown-option",
        "unknown-command", "no-command", "option-missing-value",
        "abbreviated-degrees", "abbreviated-column", "abbreviated-seeds",
        "stray-token", "no-header-is-unknown", "empty-degree-range",
        "missing-config-file"])
def test_bad_option_is_exit_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    for name in ("run_comparison", "run_comparison_suite", "run_degree_sweep"):
        monkeypatch.setattr(cli, name, refuse_work)
    code = main([*argv, "--data", seasonal_csv(tmp_path, n=120), "--column", "v"])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("config error")
    assert captured.out == ""


def test_growth_options_are_unknown_options(tmp_path, capsys, monkeypatch):
    # compare fits one fixed network; growth is rbf.grow_until_target's alone
    for name in ("run_comparison", "run_comparison_suite"):
        monkeypatch.setattr(cli, name, refuse_work)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rbf_target_mse = 0.1\nrbf_max_units = 8\n")
    data = ["--data", seasonal_csv(tmp_path, n=120), "--column", "v"]
    for growth, name in ((["--rbf-target-mse", "0.1", "--rbf-max-units", "8"],
                          "unknown option --rbf-target-mse"),
                         (["--config", str(cfg)], "rbf_max_units, rbf_target_mse")):
        code = main(["compare", *growth, *data])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error") and name in captured.err
        assert len(captured.err.splitlines()) == 1


def test_synth_parameter_of_another_kind_is_exit_2(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["synth", "--kind", "seasonal", "--n", "50", "--drift", "1",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "'drift'" in err and "'seasonal'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["--kind", "ar", "--coeffs", "0.5,nan"], "coeffs"),
    (["--kind", "walk", "--drift", "nan"], "drift"),
    (["--kind", "seasonal", "--trend", "inf"], "trend"),
    (["--kind", "walk", "--noise-sd", "nan"], "noise_sd"),
    (["--kind", "seasonal", "--amplitude", "nan"], "amplitude"),
    (["--kind", "walk", "--seed", "-1"], "seed"),
    (["--kind", "walk", "--seed", str(2**64)], "seed"),
    (["--kind", "seasonal", "--period", "0"], "period"),
    (["--kind", "ar", "--coeffs", ","], "coeffs"),
], ids=["ar-nan-coeff", "walk-nan-drift", "seasonal-inf-trend", "walk-nan-noise-sd",
        "seasonal-nan-amplitude", "negative-seed", "seed-2-to-the-64", "seasonal-zero-period",
        "ar-no-coeffs"])
def test_synth_bad_parameter_is_exit_2(tmp_path, capsys, argv, name):
    out = tmp_path / "s.csv"
    code = main(["synth", *argv, "--n", "50", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: {name} must be")
    assert not out.exists()


def without_times(doc):
    if isinstance(doc, dict):
        return {k: without_times(v) for k, v in doc.items() if k != "exec_seconds"}
    if isinstance(doc, list):
        return [without_times(v) for v in doc]
    return doc


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_defaults_are_the_library_defaults(tmp_path, capsys):
    data = seasonal_csv(tmp_path, n=120)
    source = CsvSource(data, "v")

    assert main(["sweep", "--data", data, "--column", "v", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads(render_report(run_degree_sweep(ExperimentConfig(source=source)),
                                    "json"))
    assert without_times(got) == without_times(want)

    # the library's RBFNN settings are the paper's, so compare sets none
    assert rbf.RbfTrainConfig() == rbf.RbfTrainConfig(units=36, learning_rate=0.000264,
                                                      epochs=60, batch_size=109)
    assert main(["compare", "--data", data, "--column", "v"]) == 0
    got = json.loads(capsys.readouterr().out)
    report = run_comparison(ExperimentConfig(source=source))
    assert without_times(got) == without_times(json.loads(render_report(report, "json")))


def test_unknown_flag_process_exits_2_with_one_line():
    r = run_cli("sweep", "--frobnicate", "1")
    assert r.returncode == 2
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("config error")


def test_library_warnings_print_one_line_each(tmp_path):
    # the README series' sweep warns three times: CV(RMSE) of a negative
    # mean at every degree (shown once), and rank deficiency at degrees 4 and 5
    data = str(tmp_path / "s.csv")
    assert run_cli("synth", "--kind", "seasonal", "--n", "240", "--noise-sd", "0.1",
                   "--out", data).returncode == 0
    r = run_cli("sweep", "--data", data, "--column", "v", "--degrees", "1..5")
    assert r.returncode == 0
    lines = r.stderr.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("warning: ") and ".py:" not in line for line in lines)
    with pytest.warns(UserWarning):
        want = render_report(run_degree_sweep(
            ExperimentConfig(source=CsvSource(path=data, column="v"))))

    def without_times(text):
        return [line.split(" | ")[:1] + line.split(" | ")[2:] for line in text.splitlines()]
    assert without_times(r.stdout) == without_times(want)


@pytest.mark.parametrize("values, flags, stage, forward", [
    ([1e120 * (1 + 0.01 * np.sin(i)) for i in range(120)], ["--degrees", "3"], "PC fit", None),
    (None, ["--rbf-lr", "1e200"], "RBFNN training", None),
    # the later --rbf-epochs wins: more epochs than any trace array could hold
    (None, ["--rbf-lr", "1e200", "--rbf-epochs", "1000000000000"], "RBFNN training", None),
    # no real fit gets this far, as training fails first; the patch stands in
    (None, [], "RBFNN training", lambda net, inputs: np.full(len(inputs), np.inf)),
], ids=["pc-design-overflow", "rbf-loss-non-finite", "rbf-huge-epoch-count",
        "rbf-forecast-non-finite"])
def test_fit_failure_is_exit_4(tmp_path, capsys, monkeypatch, values, flags, stage, forward):
    if forward is not None:
        monkeypatch.setattr(rbf, "batch_forward", forward)
    data = (seasonal_csv(tmp_path) if values is None
            else write_series(tmp_path / "huge.csv", values))
    out = tmp_path / "report.json"
    code = main(["compare", "--data", data, "--column", "v", "--rbf-epochs", "2",
                 *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1
    assert err.startswith(f"fit error: comparison aborted at stage '{stage}': ")
    if "1e200" in flags:
        assert "non-finite at epoch 1;" in err
    assert not out.exists()


def test_diverging_rbf_fit_process_exits_4_with_one_line(tmp_path):
    # pytest records numpy's RuntimeWarnings in process; only a real
    # process shows whether they reach stderr ahead of the fit error
    r = run_cli("compare", "--data", seasonal_csv(tmp_path), "--column", "v",
                "--rbf-lr", "1e200", "--rbf-epochs", "2")
    assert r.returncode == 4
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("fit error: comparison aborted at stage 'RBFNN training': ")


# each exit code's exception root, and the prefix of its one stderr line
_ERROR_ROOTS = {errors.ConfigError: (2, "config error"), errors.DataError: (3, "data error"),
                errors.FitError: (4, "fit error")}


@pytest.mark.parametrize("cls", [c for c in vars(errors).values() if isinstance(c, type)
                                 and issubclass(c, Exception)
                                 and c.__module__ == errors.__name__],
                         ids=lambda c: c.__name__)
def test_each_error_class_has_one_exit_code(cls, capsys, monkeypatch):
    roots = [root for root in _ERROR_ROOTS if issubclass(cls, root)]
    assert len(roots) == 1
    code, prefix = _ERROR_ROOTS[roots[0]]

    def handler(groups):
        raise cls("boom")
    monkeypatch.setitem(cli._HANDLERS, "sweep", handler)
    assert main(["sweep", "--data", "series.csv"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


@pytest.mark.parametrize("series, argv", [
    (None, ["--help"]),
    (seasonal_csv, ["sweep", "--column", "v"]),
    (seasonal_csv, ["compare", "--column", "v", "--seeds", "0..3", "--format", "markdown",
                    "--rbf-units", "8", "--rbf-epochs", "5", "--rbf-batch", "16",
                    "--rbf-lr", "0.01"]),
    (all_failed_csv, ["sweep", "--column", "v", "--window", "2", "--degrees", "5,6"]),
], ids=["help", "sweep", "compare-suite", "sweep-all-failed"])
def test_closed_stdout_is_exit_2_with_one_line(tmp_path, series, argv):
    if series is not None:
        argv = [argv[0], "--data", series(tmp_path), *argv[1:]]
    # the child spends its first 100 ms or more importing, so the read
    # end is closed before lagcast writes anything; stdout keeps its
    # default buffering, so the last write can wait for the flush at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "lagcast", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
    assert len(lines) == 1
    assert lines[0].startswith("config error: cannot write stdout: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_missing_data_file_is_exit_3(capsys):
    assert main(["sweep", "--data", "/nonexistent/series.csv"]) == 3
    assert "data error" in capsys.readouterr().err


def test_forecast_missing_model_is_exit_3(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    assert main(["forecast", "--model", str(tmp_path / "nope.json"),
                 "--data", data, "--out", str(tmp_path / "p.csv")]) == 3
    capsys.readouterr()


def test_forecast_rejects_foreign_json(tmp_path, capsys):
    bogus = tmp_path / "m.json"
    bogus.write_text(json.dumps({"weights": [1, 2]}))
    data = seasonal_csv(tmp_path)
    assert main(["forecast", "--model", str(bogus), "--data", data,
                 "--out", str(tmp_path / "p.csv")]) == 3
    assert "neither" in capsys.readouterr().err


def test_negative_column_is_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    # a value out of range; load_csv keeps its own check for library callers
    monkeypatch.setattr(cli, "run_degree_sweep", refuse_work)
    assert main(["sweep", "--data", seasonal_csv(tmp_path), "--column", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: bad value for column: index must be >= 0, got -1\n"


def test_forecast_model_directory_is_exit_3(tmp_path, capsys):
    model_dir = tmp_path / "models"
    model_dir.mkdir()
    data = seasonal_csv(tmp_path)
    assert main(["forecast", "--model", str(model_dir), "--data", data,
                 "--out", str(tmp_path / "p.csv")]) == 3
    assert "cannot read model file" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, prefix", [
    (["sweep", "--data"], 3, "data error: cannot read "),
    (["forecast", "--out", "p.csv", "--data", "s.csv", "--model"], 3,
     "data error: cannot read model file "),
    (["sweep", "--config"], 2, "config error: cannot read config file "),
], ids=["data", "model", "config"])
def test_undecodable_file_is_exit_code_with_one_line(tmp_path, capsys, argv, code, prefix):
    # a cp1252 degree sign is the byte 0xb0, which UTF-8 cannot decode
    bad = tmp_path / "cp1252.txt"
    bad.write_bytes("Temp (\u00b0C)\n1\n2\n".encode("cp1252"))
    assert main([*argv, str(bad)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{prefix}{bad}: 'utf-8' codec can't decode byte 0xb0")


def model_doc(kind, tmp_path):
    """A valid polynomial ("poly") or RBF ("rbf") model document as a dict."""
    if kind == "poly":
        series = load_csv(seasonal_csv(tmp_path), "v")
        return json.loads(poly.to_json(poly.fit(make_windows(series, 4), degree_k=1)))
    net = rbf.RbfNetwork(centers=np.zeros((2, 4)), widths=np.ones(2),
                         out_weights=np.ones(2), bias=0.0)
    return json.loads(rbf.to_json(net))


@pytest.mark.parametrize("kind, field, index, value", [
    ("poly", "weights", 0, "abc"),
    ("poly", "weights", 1, float("nan")),
    ("poly", "lambda", None, [1]),
    ("rbf", "out_weights", 0, float("nan")),
    ("rbf", "bias", None, float("inf")),
    ("rbf", "widths", 1, "wide"),
    ("poly", None, None, "exponents"),
    ("poly", None, None, 1),
    ("poly", "weights", 1, 1.7e308),
    ("poly", "d", None, 4.5),
    ("poly", "K", None, 1.5),
    ("poly", "d", None, 0),
    ("poly", "lambda", None, -5.0),
    ("poly", "lambda", None, float("nan")),
    ("poly", "lambda", None, "1e3"),
    ("poly", "weights", 0, "0.5"),
    ("poly", "schema_version", None, True),
    ("rbf", "bias", None, True),
    ("rbf", "widths", 0, "1"),
], ids=["poly-text-weight", "poly-nan-weight", "poly-list-lambda",
        "rbf-nan-out-weight", "rbf-inf-bias", "rbf-text-width",
        "doc-string", "doc-number", "poly-overflowing-weight",
        "poly-fractional-d", "poly-fractional-k", "poly-zero-d", "poly-negative-lambda",
        "poly-nan-lambda", "poly-quoted-lambda", "poly-quoted-weight",
        "poly-boolean-version", "rbf-boolean-bias", "rbf-quoted-width"])
def test_forecast_bad_model_numbers_is_exit_3(tmp_path, capsys, kind, field,
                                              index, value):
    doc = model_doc(kind, tmp_path)
    if field is None:  # the whole document is not an object
        doc = value
    elif index is None:
        doc[field] = value
    else:
        doc[field][index] = value
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "p.csv"
    code = main(["forecast", "--model", str(model), "--data", seasonal_csv(tmp_path),
                 "--column", "v", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("data error")
    assert not out.exists()


def test_forecast_overflow_prints_one_line(tmp_path):
    poly_doc = model_doc("poly", tmp_path)
    poly_doc["weights"][1] = 1.7e308
    rbf_doc = json.loads(rbf.to_json(rbf.RbfNetwork(
        centers=np.zeros((2, 4)), widths=np.full(2, 1e9), out_weights=np.full(2, 1e308),
        bias=0.0)))
    data = seasonal_csv(tmp_path)
    for kind, doc in (("poly", poly_doc), ("rbf", rbf_doc)):
        model, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}.csv"
        model.write_text(json.dumps(doc))
        r = run_cli("forecast", "--model", str(model), "--data", data, "--column", "v",
                    "--out", str(out))
        assert r.returncode == 3, kind
        assert r.stderr.splitlines() == [f"data error: {model} gives non-finite forecasts "
                                         "on this series"], kind
        assert not out.exists()


def test_forecast_deeply_nested_model_is_exit_3(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text('{"exponents": ' + "[" * 100_000)
    out = tmp_path / "p.csv"
    code = main(["forecast", "--model", str(model), "--data", seasonal_csv(tmp_path),
                 "--column", "v", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("data error")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_compare_zero_mean_test_span_is_exit_3(tmp_path, capsys):
    # CV(RMSE) divides by the test span's mean, which is 0 here
    data = write_series(tmp_path / "alt.csv", [1.0, -1.0] * 60)
    out = tmp_path / "report.json"
    code = main(["compare", "--data", data, "--column", "v", "--rbf-epochs", "2",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("data error")
    assert "CV(RMSE)" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "sweep", "compare", "forecast"])
def test_out_in_missing_directory_is_exit_2(tmp_path, capsys, command):
    data = seasonal_csv(tmp_path, n=120)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(model_doc("poly", tmp_path)))
    out = tmp_path / "missing" / "out.txt"
    argv = {
        "synth": ["--kind", "walk", "--n", "50"],
        "sweep": ["--data", data, "--column", "v", "--degrees", "1"],
        "compare": ["--data", data, "--column", "v", "--rbf-epochs", "2"],
        "forecast": ["--model", str(model), "--data", data, "--column", "v"],
    }[command]
    code = main([command, *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: cannot write {out}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_import_leaves_scipy_unloaded():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, lagcast; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_import_loads_numpy_random():
    # numpy loads numpy.random on first use; if the first RBF fit did
    # that, its import would count as RBFNN execution time
    r = subprocess.run(
        [sys.executable, "-c", "import sys, lagcast; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "True"


def test_import_leaves_argparse_unloaded():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, lagcast.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"], ["sweep", "-h"]])
def test_help_names_every_flag(capsys, argv):
    assert main(argv) == 0
    words = set(capsys.readouterr().out.split())
    commands = argv[:1] if argv[0] in cli._SPECS else list(cli._SPECS)
    names = [*cli._ALIASES, "config"]
    names += [key for command in commands for key in cli._SPECS[command]]
    assert {"--" + name.replace("_", "-") for name in names} <= words


@pytest.mark.parametrize("argv, want", [
    (["sweep", "--column", "-h"], ("sweep", {"column": "-h"})),
    (["sweep", "--out", "-h", "--data", "s.csv"], ("sweep", {"out": "-h", "data": "s.csv"})),
    (["sweep", "--out=--help"], ("sweep", {"out": "--help"})),
    (["sweep", "--column", "v", "-h"], ("sweep", None)),
    (["sweep", "--help", "--column", "-h"], ("sweep", None)),
    (["-h", "sweep"], (None, None)),
], ids=["column-value", "out-value", "joined-value", "after-a-value", "before-a-value",
        "first"])
def test_help_only_in_a_flags_place(argv, want):
    assert cli._parse_argv(argv) == want


def test_help_as_a_value_runs_the_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--data", seasonal_csv(tmp_path), "--window", "4", "--degrees", "1"]
    assert main([*argv, "--column", "v", "--out", "-h"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "-h").read_text().startswith("### series")
    assert main([*argv, "--column", "-h"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("data error")


# ---------------------------------------------------------------- config file

# a valid text for every option key of every command
SAMPLE_TEXT = {
    "kind": "walk", "n": "50", "seed": "3", "out": "out.txt", "period": "6",
    "amplitude": "2", "trend": "0.1", "noise_sd": "0.2", "drift": "0.3",
    "coeffs": "0.5,0.2", "data": "series.csv", "column": "v",
    "window": "4", "degrees": "1..3", "lambda": "0.1", "train_fraction": "0.7",
    "format": "csv", "alpha": "0.01", "rbf_units": "5", "rbf_lr": "0.01",
    "rbf_epochs": "3", "rbf_batch": "8", "seeds": "0,1", "model": "model.json",
}


@pytest.mark.parametrize("command, name", [
    (command, name) for command, spec in cli._SPECS.items()
    for name in [*spec, *(alias for alias, key in cli._ALIASES.items() if key in spec)]
])
def test_flag_forms_and_config_key_agree(tmp_path, command, name):
    key = cli._key(name)
    text = SAMPLE_TEXT[key]
    required = [f"--{k.replace('_', '-')}={SAMPLE_TEXT[k]}"
                for k, (_, default, _) in cli._SPECS[command].items()
                if default is cli._REQUIRED and k != key]
    flag = "--" + name.replace("_", "-")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {text}\n")
    got = [cli._effective(*cli._parse_argv([command, *required, *form]))
           for form in ([flag, text], [f"{flag}={text}"], ["--config", str(cfg)])]
    assert got[0] == got[1] == got[2]
    conv, _, target = cli._SPECS[command][key]
    group, param = target.split(".")
    assert got[0][group][param] == conv(text)


def test_config_file_supplies_flags(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data = {}\n"
        "column = v\n"
        "window = 4   # lag count\n"
        "degrees = 1,2\n"
        "format = csv\n".format(data)
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("degree,")
    assert len(out.splitlines()) == 3


def test_config_comment_and_blank_lines_run_like_flags(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a sweep of the seasonal series\n\ndata = {data}\n"
                   "   # two degrees only\ndegrees = 1,2\n\nformat = csv\n")
    flags = ["--data", data, "--degrees", "1,2", "--format", "csv"]
    assert (cli._effective(*cli._parse_argv(["sweep", "--config", str(cfg)]))
            == cli._effective(*cli._parse_argv(["sweep", *flags])))
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["degree", "1", "2"]


def test_explicit_flag_beats_config_file(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data = {data}\ncolumn = v\nwindow = 4\n"
                   "degrees = 1,2\nformat = csv\n")
    assert main(["sweep", "--config", str(cfg), "--degrees", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("3,")


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data = x.csv\nwheels = 4\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "wheels" in capsys.readouterr().err


def test_malformed_config_line_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "line 1" in capsys.readouterr().err


# ------------------------------------------------------------------- compare

def test_compare_markdown_single_seed(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    code = main(["compare", "--data", data, "--column", "v", "--window", "4",
                 "--rbf-units", "6", "--rbf-epochs", "8", "--rbf-batch", "16",
                 "--rbf-lr", "0.01", "--format", "markdown"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Model | Execution Time (s) | MAE | RMSE | CV(RMSE) (%)" in out
    assert "Verdict:" in out


def test_compare_one_rbf_unit(tmp_path, capsys):
    # one center takes set_widths' scale branch; the general path would
    # average an empty slice, whose RuntimeWarning tier-1 makes an error
    assert main(["compare", "--data", seasonal_csv(tmp_path), "--column", "v",
                 "--rbf-units", "1", "--rbf-epochs", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["models"][1]["detail"]["units"] == 1


def test_compare_multi_seed_emits_suite(tmp_path, capsys):
    data = seasonal_csv(tmp_path)
    code = main(["compare", "--data", data, "--column", "v", "--window", "4",
                 "--rbf-units", "6", "--rbf-epochs", "8", "--rbf-batch", "16",
                 "--rbf-lr", "0.01", "--seeds", "0,1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"]) == 2
    assert "median_summary" in doc


def test_compare_rbf_forecast_round_trip(tmp_path):
    # RBF model documents go through the same forecast subcommand
    data = seasonal_csv(tmp_path, n=120)
    series = load_csv(data, "v")
    windows = make_windows(series, 6)
    from lagcast.rbf import RbfTrainConfig
    net, _ = rbf.fit_fixed(windows.inputs, windows.targets,
                           RbfTrainConfig(units=5, epochs=10, batch_size=16,
                                          learning_rate=0.01, seed=0))
    model_path = tmp_path / "net.json"
    rbf.save(net, model_path)
    out = tmp_path / "preds.csv"
    assert main(["forecast", "--model", str(model_path), "--data", data,
                 "--column", "v", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 120 - 6
    got = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.array_equal(got, rbf.batch_forward(net, windows.inputs))
