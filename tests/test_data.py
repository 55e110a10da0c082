"""Ingestion, windowing, splitting and the synthetic generators."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lagcast import polynomial as poly
from lagcast import rbf
from lagcast.data import (
    TimeSeries,
    WindowedDataset,
    float_array,
    int_value,
    load_csv,
    make_windows,
    read_model_document,
    synth_ar,
    synth_random_walk,
    synth_seasonal,
)
from lagcast.errors import ConfigError, DataError, FitError
from lagcast.harness import ExperimentConfig, SynthSource, run_comparison, run_degree_sweep, \
    windowed_split
from lagcast.metrics import cv_rmse, mae, metric_report, rmse
from lagcast.stats import paired_t_test, student_t_sf, wilcoxon_signed_rank


def series(values, name="s"):
    return TimeSeries(name=name, values=np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------- TimeSeries

def test_timeseries_rejects_nan():
    with pytest.raises(DataError):
        series([1.0, float("nan"), 3.0])


def test_timeseries_rejects_inf():
    with pytest.raises(DataError):
        series([1.0, float("inf")])


def test_timeseries_rejects_2d():
    with pytest.raises(DataError, match="non-empty 1-D array"):
        series([[1.0, 2.0], [3.0, 4.0]])


def test_timeseries_len():
    assert len(series([1, 2, 3])) == 3


# ------------------------------------------------ float_array, the one intake

@pytest.mark.parametrize("values, ndim, message", [
    (10 ** 400, None, "x must be numbers within float range"),
    ([1.0, 10 ** 400], 1, "x must be numbers within float range"),
    ([[1.0, 2.0], [3.0]], 2, "x must be numbers within float range"),
    ("1.5", 0, "x must be numbers within float range"),
    ([1.0, 2.0], 0, "x must be a number"),
    ([1.0, 2.0], 2, "x must be a non-empty 2-D array"),
    (np.zeros((3, 0)), 2, "x must be a non-empty 2-D array"),
    ([1.0, math.inf, math.nan], 1, "x must be finite, got inf at index 1"),
    ([[0.0, 1.0], [math.nan, 2.0]], 2, r"x must be finite, got nan at index \(1, 0\)"),
    (None, 0, "x must be numbers within float range"),
    (["1", "2"], None, "x must be numbers within float range"),
    (np.array(["1.5"]), None, "x must be numbers within float range"),
    (np.array([b"1"]), 1, "x must be numbers within float range"),
    (np.array([1.0, "2"], dtype=object), None, "x must be numbers within float range"),
    (True, 0, "x must be numbers within float range"),
    (np.True_, None, "x must be numbers within float range"),
    (np.array([True, False]), 1, "x must be numbers within float range"),
    ([1.0, None], None, "x must be numbers within float range"),
    (np.array([1.0, None], dtype=object), 1, "x must be numbers within float range"),
], ids=["int-past-float", "int-past-float-entry", "ragged", "text", "not-a-number",
        "wrong-ndim", "empty", "inf-entry", "nan-entry-2-d", "none", "text-list", "text-array",
        "bytes-array", "text-in-object-array", "bool", "numpy-bool", "bool-array",
        "none-in-list", "none-in-object-array"])
def test_float_array_refusals(values, ndim, message):
    with pytest.raises(ConfigError, match=message):
        float_array(values, "x", ndim=ndim, error=ConfigError)


def test_float_array_converts_without_checks_when_ndim_is_none():
    got = float_array([[1, math.inf]], "x")
    assert got.dtype == np.float64 and got.tolist() == [[1.0, math.inf]]
    same = np.arange(3.0)
    assert float_array(same, "x", ndim=1) is same


_X = np.random.default_rng(5).standard_normal((12, 2))
_Y = np.random.default_rng(6).standard_normal(12)


def _sweep_config(**fields):
    return ExperimentConfig(source=SynthSource("seasonal", n=120, params={"noise_sd": 0.1}),
                            degrees=(1,), **fields)


_NET = rbf.RbfNetwork(centers=np.zeros((1, 2)), widths=np.ones(1), out_weights=np.ones(1),
                      bias=0.0)
_CFG = rbf.RbfTrainConfig(units=2, epochs=1)
_PAIR = [1.0, 2.0, 4.0]
_BASIS = poly.enumerate_monomials(1, 1)

# what no site takes as a number, for a site of one number or of an array
_SCALAR = {"int-past-float": 10 ** 400, "bool": True, "numpy-bool": np.True_, "none": None,
           "text": "0.5"}
_ARRAY = {"int-past-float": [0.0, 10 ** 400], "bool-array": np.array([True, False]),
          "none-in-list": [0.0, None]}
# every entry point that takes a caller's numbers: (error, the name its message
# gives them, the bad values it is given, call given one)
_NUMBER_CASES = {
    "TimeSeries": (DataError, "series 's'", _ARRAY, lambda v: TimeSeries("s", v)),
    "WindowedDataset": (DataError, "targets", _ARRAY, lambda v: WindowedDataset(
        1, [[0.0], [1.0]], v)),
    "synth_seasonal-amplitude": (ConfigError, "amplitude", _SCALAR, lambda v: synth_seasonal(
        48, amplitude=v, seed=0)),
    "synth_seasonal-trend": (ConfigError, "trend", _SCALAR, lambda v: synth_seasonal(
        48, trend=v, seed=0)),
    "synth_seasonal-period": (ConfigError, "period", _SCALAR, lambda v: synth_seasonal(
        48, period=v, seed=0)),
    "synth_random_walk-drift": (ConfigError, "drift", _SCALAR, lambda v: synth_random_walk(
        8, drift=v, seed=0)),
    "synth_random_walk-noise_sd": (ConfigError, "noise_sd", _SCALAR, lambda v: synth_random_walk(
        8, noise_sd=v, seed=0)),
    "synth_ar-coeffs": (ConfigError, "coeffs", _ARRAY, lambda v: synth_ar(v, n=8, seed=0)),
    "RbfNetwork-widths": (DataError, "widths", _ARRAY, lambda v: rbf.RbfNetwork(
        centers=[[0.0]], widths=v, out_weights=[0.0], bias=0.0)),
    "RbfNetwork-out_weights": (DataError, "out_weights", _ARRAY, lambda v: rbf.RbfNetwork(
        centers=[[0.0]], widths=[1.0], out_weights=v, bias=0.0)),
    "RbfNetwork-bias": (DataError, "bias", _SCALAR, lambda v: rbf.RbfNetwork(
        centers=[[0.0]], widths=[1.0], out_weights=[0.0], bias=v)),
    "RbfTrainConfig-learning_rate": (ConfigError, "learning_rate", _SCALAR,
                                     lambda v: rbf.RbfTrainConfig(learning_rate=v)),
    "RbfTrainConfig-target_mse": (ConfigError, "target_mse", _SCALAR,
                                  lambda v: rbf.RbfTrainConfig(target_mse=v, max_units=8)),
    "init_centers": (DataError, "training inputs", _ARRAY, lambda v: rbf.init_centers(
        v, 2, seed=0)),
    "set_widths-centers": (DataError, "centers", _ARRAY, lambda v: rbf.set_widths(v, 1.0)),
    "set_widths-scale": (DataError, "scale", _SCALAR, lambda v: rbf.set_widths([[0.0]], v)),
    "batch_forward": (DataError, "inputs", _ARRAY, lambda v: rbf.batch_forward(_NET, v)),
    "fit_fixed-inputs": (DataError, "training inputs", _ARRAY, lambda v: rbf.fit_fixed(
        v, _Y, _CFG)),
    "fit_fixed-targets": (DataError, "training targets", _ARRAY, lambda v: rbf.fit_fixed(
        _X, v, _CFG)),
    "train": (DataError, "training targets", _ARRAY, lambda v: rbf.train(
        _X, v, np.zeros((1, 2)), np.ones(1), _CFG)),
    "grow_until_target": (DataError, "training inputs", _ARRAY, lambda v: rbf.grow_until_target(
        v, _Y, rbf.RbfTrainConfig(target_mse=0.1, max_units=4))),
    "loss_gradient": (DataError, "training targets", _ARRAY, lambda v: rbf.loss_gradient(
        _NET, _X, v)),
    "PolynomialModel-weights": (DataError, "model weights", _ARRAY, lambda v: poly.PolynomialModel(
        _BASIS, v, 0.0)),
    "PolynomialModel-ridge_lambda": (DataError, "model lambda", _SCALAR,
                                     lambda v: poly.PolynomialModel(_BASIS, [0.0, 1.0], v)),
    "poly.fit-ridge_lambda": (FitError, "ridge_lambda", _SCALAR, lambda v: poly.fit(
        make_windows(TimeSeries("s", np.arange(10.0)), 2), 1, ridge_lambda=v)),
    "mae": (DataError, "paired inputs", _ARRAY, lambda v: mae(_PAIR, v)),
    "rmse": (DataError, "paired inputs", _ARRAY, lambda v: rmse(v, _PAIR)),
    "cv_rmse": (DataError, "paired inputs", _ARRAY, lambda v: cv_rmse(_PAIR, v)),
    "metric_report": (DataError, "paired inputs", _ARRAY, lambda v: metric_report(_PAIR, v)),
    "paired_t_test": (DataError, "paired inputs", _ARRAY, lambda v: paired_t_test(_PAIR, v)),
    "wilcoxon_signed_rank": (DataError, "paired inputs", _ARRAY,
                             lambda v: wilcoxon_signed_rank(_PAIR, v)),
    "student_t_sf-t": (DataError, "t statistic", _SCALAR, lambda v: student_t_sf(v, 3.0)),
    "student_t_sf-df": (ConfigError, "degrees of freedom", _SCALAR,
                        lambda v: student_t_sf(1.0, v)),
    "ExperimentConfig-sweep": (ConfigError, "ridge_lambda", _SCALAR, lambda v: run_degree_sweep(
        _sweep_config(ridge_lambda=v))),
    "ExperimentConfig-train_fraction": (ConfigError, "train_fraction", _SCALAR,
                                        lambda v: _sweep_config(train_fraction=v)),
    "ExperimentConfig-alpha": (ConfigError, "alpha", _SCALAR, lambda v: _sweep_config(alpha=v)),
    "windowed_split-train_fraction": (DataError, "train_fraction", _SCALAR,
                                      lambda v: windowed_split(series(np.arange(20.0)), 2, v)),
}


def _refused_as_not_a_number(case, bad):
    error, what, bads, call = _NUMBER_CASES[case]
    with pytest.raises(error, match=f"^{re.escape(what)} must be numbers within float range$"):
        call(bads[bad])


@pytest.mark.parametrize("case", _NUMBER_CASES)
def test_an_int_past_float_range_is_refused_with_the_sites_error(case):
    _refused_as_not_a_number(case, "int-past-float")


# target_mse None is a config without growth
@pytest.mark.parametrize("case, bad", [(c, b) for c in _NUMBER_CASES for b in _NUMBER_CASES[c][2]
                                       if b != "int-past-float"
                                       and (c, b) != ("RbfTrainConfig-target_mse", "none")])
def test_a_bool_none_or_text_is_not_a_number(case, bad):
    _refused_as_not_a_number(case, bad)


# every entry point that takes a caller's integer: (error, lowest valid value,
# call given the value and a two-column CSV file)
_INT_CASES = {
    "WindowedDataset-window_d": (DataError, 1, lambda v, csv: WindowedDataset(
        v, [[0.0], [1.0]], [1.0, 2.0])),
    "make_windows-d": (DataError, 1, lambda v, csv: make_windows(series([1, 2, 3, 4]), v)),
    "load_csv-column": (DataError, 0, lambda v, csv: load_csv(csv, v)),
    "synth-n": (ConfigError, 1, lambda v, csv: synth_random_walk(v, seed=0)),
    "synth-seed": (ConfigError, 0, lambda v, csv: synth_seasonal(48, seed=v)),
    "ExperimentConfig-window_d": (ConfigError, 1, lambda v, csv: _sweep_config(window_d=v)),
    "ExperimentConfig-degrees": (ConfigError, 1, lambda v, csv: ExperimentConfig(
        source=SynthSource("seasonal", n=120), degrees=(1, v))),
    "ExperimentConfig-seeds": (ConfigError, 0, lambda v, csv: _sweep_config(seeds=(0, v))),
    "windowed_split-d": (DataError, 1, lambda v, csv: windowed_split(
        series(np.arange(20.0)), v, 0.8)),
    "run_comparison-seed": (ConfigError, 0, lambda v, csv: run_comparison(_sweep_config(),
                                                                          seed=v)),
    "MonomialBasis-d": (ConfigError, 1, lambda v, csv: poly.MonomialBasis(v, 2)),
    "MonomialBasis-K": (ConfigError, 1, lambda v, csv: poly.MonomialBasis(2, v)),
    "poly.fit-degree_k": (ConfigError, 1, lambda v, csv: poly.fit(
        make_windows(series(np.arange(10.0)), 2), v)),
    "RbfTrainConfig-units": (ConfigError, 1, lambda v, csv: rbf.RbfTrainConfig(units=v)),
    "RbfTrainConfig-batch_size": (ConfigError, 1, lambda v, csv: rbf.RbfTrainConfig(
        batch_size=v)),
    "RbfTrainConfig-epochs": (ConfigError, 1, lambda v, csv: rbf.RbfTrainConfig(epochs=v)),
    "RbfTrainConfig-seed": (ConfigError, 0, lambda v, csv: rbf.RbfTrainConfig(seed=v)),
    "RbfTrainConfig-max_units": (ConfigError, 1, lambda v, csv: rbf.RbfTrainConfig(
        target_mse=0.1, max_units=v)),
    "init_centers-m": (ConfigError, 1, lambda v, csv: rbf.init_centers(_X, v, seed=0)),
    "init_centers-seed": (ConfigError, 0, lambda v, csv: rbf.init_centers(_X, 2, seed=v)),
}
_BAD_INTS = {"float": lambda low: 2.5, "bool": lambda low: True, "text": lambda low: "3",
             "none": lambda low: None, "below-low": lambda low: low - 1}
# what these sites accept by design: a column name, a file's only column, no
# growth, and the first configured seed
_VALID_THERE = {("load_csv-column", "text"), ("load_csv-column", "none"),
                ("RbfTrainConfig-max_units", "none"), ("run_comparison-seed", "none")}


@pytest.mark.parametrize("case, bad", [(c, b) for c in _INT_CASES for b in _BAD_INTS
                                       if (c, b) not in _VALID_THERE])
def test_a_bad_integer_is_refused_with_the_sites_error(tmp_path, case, bad):
    error, low, call = _INT_CASES[case]
    csv = tmp_path / "a.csv"
    csv.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(error, match="must be an integer"):
        call(_BAD_INTS[bad](low), csv)


def test_int_value_accepts_numpy_integers_as_plain_ints():
    for value in (3, np.int64(3), np.uint8(3), np.array(3)):
        got = int_value(value, "x", 0)
        assert got == 3 and type(got) is int
    with pytest.raises(ConfigError, match=r"x must be an integer >= 0, got (np.float64\()?3.0"):
        int_value(np.float64(3.0), "x", 0)
    with pytest.raises(DataError, match=r"x must be an integer >= 0, got array\(\[3\]\)"):
        int_value(np.array([3]), "x", 0, DataError)


# ------------------------------------------------------------------ load_csv

def test_load_csv_named_column(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("date,v\n1,5.0\n2,6.5\n")
    ts = load_csv(p, value_column="v")
    assert ts.values.tolist() == [5.0, 6.5]
    assert ts.name == "a"


def test_load_csv_indexed_second_column(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("date,v\n2020-01,5.0\n2020-02,6.5\n")
    ts = load_csv(p, value_column=1)
    assert ts.values.tolist() == [5.0, 6.5]


def test_load_csv_single_column_no_header(tmp_path):
    p = tmp_path / "vals.csv"
    p.write_text("1.5\n2.5\n3.5\n")
    assert load_csv(p).values.tolist() == [1.5, 2.5, 3.5]


@pytest.mark.parametrize("text, column, want", [
    ("v\n1\n2\n", None, [1.0, 2.0]),
    ("v\n1\n2\n", 0, [1.0, 2.0]),
    # a header cell that is itself a number reads as data: the one input the rule cannot tell
    ("x,2024\n1,5\n2,6\n", 1, [2024.0, 5.0, 6.0]),
], ids=["header", "header-by-index", "numeric-header-is-data"])
def test_load_csv_first_line_is_a_header_unless_a_number(tmp_path, text, column, want):
    p = tmp_path / "a.csv"
    p.write_text(text)
    assert load_csv(p, column).values.tolist() == want


@pytest.mark.parametrize("first", ["nan", "inf", "-inf", "1e999"])
def test_load_csv_non_finite_first_line_is_data(tmp_path, first):
    p = tmp_path / "a.csv"
    p.write_text(f"{first}\n1\n2\n")
    with pytest.raises(DataError, match=f"row 1: non-finite value '{first}'"):
        load_csv(p)


def test_load_csv_first_line_without_the_column_is_data(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("v\n1,2\n3,4\n")
    with pytest.raises(DataError, match="row 1 has no column 1"):
        load_csv(p, 1)


@pytest.mark.parametrize("text, column, want", [
    ("\ufeffv\n1.5\n2.5\n", "v", [1.5, 2.5]),
    ("\ufeff1.5\n2.5\n3.5\n", None, [1.5, 2.5, 3.5]),
], ids=["named", "headerless"])
def test_load_csv_skips_a_byte_order_mark(tmp_path, text, column, want):
    p = tmp_path / "a.csv"
    p.write_bytes(text.encode("utf-8"))
    assert load_csv(p, column).values.tolist() == want


def test_load_csv_many_columns_need_a_column(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,v\n0,1.5\n1,2.5\n")
    with pytest.raises(DataError) as info:
        load_csv(p)
    assert str(info.value) == f"{p}: row 1 has 2 columns (t, v); choose one by name or index"


def test_load_csv_tolerates_whitespace(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("v\n 5.0 \n\t6.5\n")
    assert load_csv(p, value_column="v").values.tolist() == [5.0, 6.5]


def test_load_csv_bad_cell_names_the_row(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("v\n5.0\nabc\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p, value_column="v")


def test_load_csv_rejects_nonfinite_cell(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("v\n5.0\ninf\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p, value_column="v")


def test_load_csv_too_few_rows(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("v\n5.0\n")
    with pytest.raises(DataError, match="at least 2 data rows"):
        load_csv(p, value_column="v")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_unknown_column(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("v\n5.0\n6.0\n")
    with pytest.raises(DataError):
        load_csv(p, value_column="w")
    with pytest.raises(DataError):
        load_csv(p, value_column=7)
    with pytest.raises(DataError, match="column index must be an integer >= 0, got -1"):
        load_csv(p, value_column=-1)


def test_load_csv_named_column_needs_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("5.0\n6.0\n")
    with pytest.raises(DataError, match=r"no column named 'v' in header \(row 1\)"):
        load_csv(p, value_column="v")


# -------------------------------------------------------------- make_windows

def test_make_windows_hand_case():
    w = make_windows(series([1, 2, 3, 4, 5, 6]), d=3)
    assert w.inputs.tolist() == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
    assert w.targets.tolist() == [4, 5, 6]
    assert len(w) == 3


def test_make_windows_constant_series():
    w = make_windows(series([5, 5, 5, 5]), d=2)
    assert w.inputs.tolist() == [[5, 5], [5, 5]]
    assert w.targets.tolist() == [5, 5]


def test_make_windows_too_short():
    with pytest.raises(DataError):
        make_windows(series([1, 2, 3]), d=3)


def test_make_windows_bad_d():
    with pytest.raises(DataError):
        make_windows(series([1, 2, 3, 4]), d=0)


@pytest.mark.parametrize("window_d, inputs, targets, message", [
    (0, np.zeros((2, 0)), [0.0, 0.0], "window_d must be an integer >= 1, got 0"),
    (2, [[1.0, 2.0, 3.0]], [4.0], "inputs must have shape"),
    (2, [[1.0, 2.0], [2.0, 3.0]], [3.0], "targets must be 1-D"),
    (2, np.zeros((0, 2)), np.zeros(0), "at least one row"),
    (2, [[1.0, 2.0], [2.0, 3.0]], [9.0, 4.0], "target i must reappear"),
], ids=["window-below-1", "input-shape", "target-shape", "no-rows", "target-not-next-lag"])
def test_windowed_dataset_construction_errors(window_d, inputs, targets, message):
    with pytest.raises(DataError, match=message):
        WindowedDataset(window_d=window_d, inputs=np.asarray(inputs),
                        targets=np.asarray(targets))


def test_windowed_dataset_validates_overlap():
    with pytest.raises(DataError):
        WindowedDataset(
            window_d=2,
            inputs=np.array([[1.0, 2.0], [9.0, 3.0]]),
            targets=np.array([3.0, 4.0]),
        )


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=80),
    st.integers(min_value=1, max_value=10),
)
def test_windows_reconstruct_the_series(values, d):
    if len(values) < d + 2:
        return
    ts = series(values)
    w = make_windows(ts, d)
    assert len(w) == len(values) - d
    rebuilt = list(w.inputs[0]) + list(w.targets)
    assert rebuilt == list(ts.values)


# --------------------------------------------------------------------- split

def test_split_80_20():
    tr, te = windowed_split(series(range(100)), 1, 0.8)
    # the first 80 points are the first window plus the training targets
    assert len(tr) == 79 and len(te) == 20
    assert tr.targets[-1] == 79.0 and te.targets[0] == 80.0


def test_split_preserves_order():
    tr, te = windowed_split(series(range(10)), 1, 0.5)
    assert tr.targets.tolist() == [1, 2, 3, 4]
    assert te.targets.tolist() == [5, 6, 7, 8, 9]
    assert te.inputs[:, 0].tolist() == [4, 5, 6, 7, 8]


def test_split_empty_part_is_an_error():
    with pytest.raises(DataError):
        windowed_split(series([1, 2, 3]), 1, 0.1)


@given(
    st.integers(min_value=3, max_value=200),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_split_is_a_partition(n, fraction):
    ts = series(np.arange(n, dtype=np.float64))
    n_train = math.floor(n * fraction)
    if n_train < 2:
        with pytest.raises(DataError):
            windowed_split(ts, 1, fraction)
        return
    tr, te = windowed_split(ts, 1, fraction)
    assert len(tr) == n_train - 1
    assert np.concatenate([tr.targets, te.targets]).tolist() == ts.values[1:].tolist()


# ---------------------------------------------------------------- generators

def test_seasonal_degenerates_to_ramp():
    ts = synth_seasonal(n=50, period=12, amplitude=0.0, trend=1.0, noise_sd=0.0,
                        seed=0)
    assert np.allclose(ts.values, np.arange(50), atol=1e-12)


def test_seasonal_noiseless_periodicity():
    ts = synth_seasonal(n=40, period=4, amplitude=1.0, trend=0.0, noise_sd=0.0,
                        seed=0)
    assert np.allclose(ts.values[:-4], ts.values[4:], atol=1e-12)


def test_seasonal_deterministic():
    a = synth_seasonal(n=64, period=12, noise_sd=0.3, seed=7)
    b = synth_seasonal(n=64, period=12, noise_sd=0.3, seed=7)
    assert np.array_equal(a.values, b.values)
    c = synth_seasonal(n=64, period=12, noise_sd=0.3, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_seasonal_warns_when_short():
    with pytest.warns(UserWarning):
        synth_seasonal(n=10, period=12, noise_sd=0.0, seed=0)


def test_seasonal_rejects_bad_args():
    with pytest.raises(ConfigError):
        synth_seasonal(n=0, period=4, seed=0)
    with pytest.raises(ConfigError):
        synth_seasonal(n=50, period=4, noise_sd=-1.0, seed=0)


def test_walk_deterministic_drift():
    ts = synth_random_walk(n=6, drift=1.0, noise_sd=0.0, seed=0)
    assert ts.values.tolist() == [0, 1, 2, 3, 4, 5]


def test_walk_zero_everything():
    assert synth_random_walk(n=5, drift=0.0, noise_sd=0.0, seed=0).values.tolist() == [0] * 5


def test_walk_deterministic_per_seed():
    a = synth_random_walk(n=100, noise_sd=1.0, seed=3)
    b = synth_random_walk(n=100, noise_sd=1.0, seed=3)
    assert np.array_equal(a.values, b.values)


def test_ar_fixed_point():
    # coeffs [1] copies the previous value forever (and warns: radius 1)
    with pytest.warns(UserWarning):
        ts = synth_ar([1.0], n=10, noise_sd=0.0, seed=5)
    assert np.all(ts.values[1:] == ts.values[0])


def test_ar_zero_coeff():
    ts = synth_ar([0.0], n=10, noise_sd=0.0, seed=5)
    assert np.all(ts.values[1:] == 0.0)


def test_ar_deterministic():
    a = synth_ar([0.6, 0.3], n=50, noise_sd=0.1, seed=2)
    b = synth_ar([0.6, 0.3], n=50, noise_sd=0.1, seed=2)
    assert np.array_equal(a.values, b.values)


def test_ar_too_short():
    with pytest.raises(ConfigError):
        synth_ar([0.5, 0.2], n=2, seed=0)


def test_ar_warns_on_unstable_coeffs():
    with pytest.warns(UserWarning):
        synth_ar([1.2], n=20, noise_sd=0.0, seed=0)


def test_generator_noise_is_platform_pinned():
    # Same seed, same draws; test_generator_bytes_are_pinned freezes them.
    ts = synth_random_walk(n=3, drift=0.0, noise_sd=1.0, seed=0)
    again = synth_random_walk(n=3, drift=0.0, noise_sd=1.0, seed=0)
    assert ts.values.tolist() == again.values.tolist()
    assert ts.values[0] == 0.0
    assert ts.values[1] != ts.values[2]


_TOP_SEED = 2**64 - 1


@pytest.mark.parametrize("make, kwargs, digest", [
    (synth_seasonal, dict(n=25, period=6, amplitude=1.5, trend=0.05, noise_sd=0.3, seed=0),
     "ecc26089be03711224e7df00cda4286bc2b82f692cdab10b1f9881789afc1891"),
    (synth_seasonal, dict(n=24, period=6, amplitude=1.5, trend=0.05, noise_sd=0.3,
                          seed=_TOP_SEED),
     "4735fd062a8c6d52764400c074880b1f1a025410bb669cafa3c44fa79a726b7a"),
    # zero noise after a negative first draw: value 0 is +0.0, not -0.0
    (synth_seasonal, dict(n=24, period=6, amplitude=-1.0, trend=-0.5, noise_sd=0.0, seed=0),
     "2ecd64e2b879be9093d5d773d7c59de7782bfb3501bf970a9d0e2cce1d6b90ed"),
    (synth_random_walk, dict(n=31, drift=0.1, noise_sd=1.0, seed=0),
     "a262509ea7bdd1b3b39b79e45ad030aabb9f30460355bb9c8db5846365ddf72c"),
    (synth_random_walk, dict(n=30, drift=0.1, noise_sd=1.0, seed=_TOP_SEED),
     "45cb078f4eaf4a61e25098928c047f7eae3f7feda8bd35d928d04f4be2abeaee"),
    (synth_ar, dict(coeffs=(0.6, 0.3), n=40, noise_sd=0.5, seed=0),
     "0bf13a9cf9c3d97df4efeb0eda19bd2795f5428aee16698bdc482b6aa04d88e6"),
    # order 3: one Box-Muller pair spans the last start value and the first step
    (synth_ar, dict(coeffs=(0.5, 0.2, 0.1), n=41, noise_sd=0.5, seed=_TOP_SEED),
     "ac38b71014341462405ed12635d7d0f5035578aeae4df56329ae29d263dfba1b"),
], ids=["seasonal-odd", "seasonal-even-top-seed", "seasonal-signed-zero", "walk-odd-n",
        "walk-even-n-top-seed", "ar2", "ar3-top-seed"])
def test_generator_bytes_are_pinned(make, kwargs, digest):
    # A change to the stream, the Box-Muller order or the per-draw
    # arithmetic (signed zeros included) changes these SHA-256 digests.
    values = make(**kwargs).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


# ------------------------------------------------------------ model documents

def _pc_model(d, k, ridge_lambda):
    basis = poly.enumerate_monomials(d, k)
    # weights from 3e-7 to 5e50 in correctly rounded operations only, so
    # every platform writes the same full-precision reprs and exponents
    weights = [(-1) ** i / (i + 3) * float(f"1e{3 * i - 6}") for i in range(basis.count)]
    return poly.PolynomialModel(basis=basis, weights=np.array(weights),
                                ridge_lambda=ridge_lambda)


_RBF_NET = rbf.RbfNetwork(
    centers=np.array([[0.1 * i - j / 7 for j in range(2)] for i in range(3)]),
    widths=np.array([(i + 1) / 3 for i in range(3)]),
    out_weights=np.array([-1.5, 1 / 7, 1e-9]), bias=-0.0)


@pytest.mark.parametrize("write, digest", [
    (lambda: poly.to_json(_pc_model(2, 1, 0.0)),
     "569235c0c74fe6e3552229877268569549f4dbd622cf0caca5dbb13c82469273"),
    (lambda: poly.to_json(_pc_model(2, 2, 0.125)),
     "cf7bcd5e9d600d2273d4a08284ff890bc9c36cd2e022f44d3de9a194c0b6e26f"),
    (lambda: poly.to_json(_pc_model(3, 3, 0.0)),
     "88654a89d707ee03597eaf3fe4de9b5b393690ac1b91628c2b633a49470c5b7e"),
    (lambda: rbf.to_json(_RBF_NET),
     "cda9e2ce1726198703f288095cffc6c28158615c0105bf51211a7b269b275400"),
    # hand-built models with integer parameters: weights, lambda and bias
    # are written as floats
    (lambda: poly.to_json(poly.PolynomialModel(poly.enumerate_monomials(2, 1),
                                               np.array([1, -2, 3]), 0)),
     "f504b0051d011448fdce125c9fb8911b5d5a9122bafd164e372cb93f4ab4ed3a"),
    (lambda: rbf.to_json(rbf.RbfNetwork(centers=[[1, 2]], widths=[1], out_weights=[3],
                                        bias=-4)),
     "f0bcd686916c8b4acceb4d4d57aac12bffe9eb86bd9832bd1659953e55a70670"),
], ids=["pc-k1", "pc-k2-ridge", "pc-k3", "rbf", "pc-integer-parameters",
        "rbf-integer-parameters"])
def test_model_document_bytes_are_pinned(write, digest):
    # Parameters are written out, not fitted: a least-squares or RMSprop
    # result can differ in its last bits between BLAS kernels, and these
    # SHA-256 digests pin the document writer, not the machine.
    assert hashlib.sha256(write().encode()).hexdigest() == digest


def test_model_document_kind_and_arrays():
    text = rbf.to_json(_RBF_NET).replace('"bias": -0.0', '"bias": 0')
    kind, fields = read_model_document(text)
    assert kind == "an RBF"
    assert fields["d"].dtype == np.int64 and fields["d"].shape == ()
    assert fields["centers"].dtype == np.float64 and fields["centers"].shape == (3, 2)
    assert fields["bias"].dtype == np.float64 and fields["bias"] == 0.0  # from JSON 0


def test_model_document_kind_is_marked_by_its_first_field():
    text = json.dumps({"schema_version": 1, "weights": [1, 2]})
    with pytest.raises(DataError, match="neither a polynomial nor an RBF"):
        read_model_document(text)
    with pytest.raises(DataError, match="missing field 'exponents'"):
        read_model_document(text, "a polynomial")
