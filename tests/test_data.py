"""Ingestion, windowing, splitting and the synthetic generators."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lagcast import polynomial as poly
from lagcast import rbf
from lagcast.data import (
    TimeSeries,
    WindowedDataset,
    load_csv,
    make_windows,
    read_model_document,
    synth_ar,
    synth_random_walk,
    synth_seasonal,
)
from lagcast.errors import ConfigError, DataError
from lagcast.harness import windowed_split


def series(values, name="s"):
    return TimeSeries(name=name, values=np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------- TimeSeries

def test_timeseries_rejects_nan():
    with pytest.raises(DataError):
        series([1.0, float("nan"), 3.0])


def test_timeseries_rejects_inf():
    with pytest.raises(DataError):
        series([1.0, float("inf")])


def test_timeseries_len():
    assert len(series([1, 2, 3])) == 3


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
    ts = load_csv(p, value_column=0, has_header=False)
    assert ts.values.tolist() == [1.5, 2.5, 3.5]


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
    with pytest.raises(DataError, match="column index must be >= 0"):
        load_csv(p, value_column=-1)


def test_load_csv_named_column_needs_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("5.0\n6.0\n")
    with pytest.raises(ConfigError):
        load_csv(p, value_column="v", has_header=False)


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
    (0, np.zeros((2, 0)), [0.0, 0.0], "window_d must be >= 1"),
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
    # hand-built models with integer parameters: weights and bias are
    # written as floats, lambda as given
    (lambda: poly.to_json(poly.PolynomialModel(poly.enumerate_monomials(2, 1),
                                               np.array([1, -2, 3]), 0)),
     "d540306bcd0f2d41eef0469c9a20f5387a34066ab256c78fdb8ff2aef77f813a"),
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
