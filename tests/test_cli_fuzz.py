"""Hostile inputs through cli.main: never a traceback, never non-finite output.

Every run must exit 0, 2, 3 or 4.  A run that fails leaves exactly one
line on stderr, and a run that exits 0 writes only finite numbers.
Warnings are silenced here: they go to stderr on their own and are not
part of the one-line contract.
"""

import io
import json
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lagcast import polynomial as poly
from lagcast import rbf
from lagcast.cli import main
from lagcast.data import TimeSeries, make_windows

FUZZ = settings(max_examples=25, deadline=None)
QUICK_RBF = ["--rbf-units", "4", "--rbf-epochs", "2", "--rbf-batch", "16"]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# every fuzz argv is built from valid flags, so an error about its shape is a broken test
ARGV_SHAPE = re.compile(r"unknown option|expects a value|unexpected argument|"
                        r"missing required option")

SERIES = 10.0 + np.sin(np.arange(60) / 2.0) \
    + 0.05 * np.random.default_rng(0).standard_normal(60)
POLY_DOC = json.loads(poly.to_json(poly.fit(
    make_windows(TimeSeries(name="s", values=SERIES), 3), degree_k=2)))
RBF_DOC = json.loads(rbf.to_json(rbf.RbfNetwork(
    centers=np.array([[10.0, 10.5, 11.0], [9.0, 9.5, 10.0]]),
    widths=np.ones(2), out_weights=np.array([0.5, -0.25]), bias=10.0)))

hostile_values = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None, True,
                     "abc", "", [], {}, [[]], [1], -1, 0, 10 ** 6, 10 ** 30, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-5, max_value=12),
    st.text(max_size=4),
)
hostile_floats = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "1", "1e308", "abc"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def write_csv(directory: Path, values, name="series.csv", header=True) -> str:
    path = directory / name
    path.write_text(("v\n" if header else "") + "".join(f"{float(v)!r}\n" for v in values),
                    encoding="utf-8")
    return str(path)


def run(argv, out: Path | None = None) -> int:
    """Run cli.main in process and check the exit contract."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3, 4), code
    if code:
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
        assert not ARGV_SHAPE.search(stderr.getvalue()), stderr.getvalue()
    else:
        text = stdout.getvalue()
        if out is not None and out.is_file():
            text += out.read_text(encoding="utf-8")
        assert not NON_FINITE.search(text), text
    return code


@FUZZ
@given(
    kind=st.sampled_from(["poly", "rbf"]),
    mutation=st.sampled_from(["replace", "truncate", "field", "element", "d",
                              "huge-basis"]),
    value=hostile_values,
    cut=st.integers(min_value=0, max_value=400),
    key=st.sampled_from(["schema_version", "d", "K", "lambda", "exponents", "weights",
                         "centers", "widths", "out_weights", "bias"]),
    d=st.integers(min_value=-2, max_value=12),
)
@example(kind="poly", mutation="element", value=1.7e308, cut=5, key="d", d=0)
@example(kind="poly", mutation="huge-basis", value=0, cut=0, key="d", d=0)
def test_forecast_hostile_model_documents(kind, mutation, value, cut, key, d):
    doc = json.loads(json.dumps(POLY_DOC if kind == "poly" else RBF_DOC))
    if mutation == "replace":
        doc = value
    elif mutation == "field":
        doc[key] = value
    elif mutation == "element":  # one entry of the output weights
        key = "weights" if kind == "poly" else "out_weights"
        doc[key][cut % len(doc[key])] = value
    elif mutation == "d":
        doc["d"] = d
    elif mutation == "huge-basis":  # C(d + K, K) far too large to count
        doc["d"] = doc["K"] = 10 ** 6
    text = json.dumps(doc)
    if mutation == "truncate":
        text = text[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = tmp / "m.json"
        model.write_text(text, encoding="utf-8")
        out = tmp / "p.csv"
        run(["forecast", "--model", str(model), "--data", write_csv(tmp, SERIES),
             "--column", "v", "--out", str(out)], out)


@FUZZ
@given(
    command=st.sampled_from(["sweep", "forecast"]),
    column=st.one_of(st.integers(min_value=-3, max_value=3),
                     st.sampled_from(["-1", "v", "w", "", "1e3", str(10 ** 20)])),
    header=st.booleans(),
)
def test_out_of_range_columns(command, column, header):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command, "--data", write_csv(tmp, SERIES, header=header),
                "--column", str(column)]
        if command == "sweep":
            argv += ["--window", "3", "--degrees", "1,2"]
        else:
            model = tmp / "m.json"
            model.write_text(json.dumps(POLY_DOC), encoding="utf-8")
            argv += ["--model", str(model), "--out", str(tmp / "p.csv")]
        run(argv, tmp / "p.csv")


@FUZZ
@given(
    command=st.sampled_from(["sweep", "compare", "forecast"]),
    rows=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
    header=st.booleans(),
)
def test_empty_and_tiny_csvs(command, rows, header):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command, "--data", write_csv(tmp, rows, "tiny.csv", header), "--column", "0"]
        if command == "compare":
            argv += QUICK_RBF
        if command == "forecast":
            model = tmp / "m.json"
            model.write_text(json.dumps(RBF_DOC), encoding="utf-8")
            argv += ["--model", str(model), "--out", str(tmp / "p.csv")]
        run(argv, tmp / "p.csv")


@FUZZ
@given(
    command=st.sampled_from(["sweep", "compare"]),
    window=st.integers(min_value=-2, max_value=80),
    fraction=st.sampled_from(["0.1", "0.5", "0.8", "0.95"]),
)
def test_windows_longer_than_the_train_span(command, window, fraction):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--data", write_csv(Path(tmp), SERIES), "--column", "v",
                "--window", str(window), "--train-fraction", fraction, "--degrees", "1"]
        if command == "compare":
            argv += QUICK_RBF
        run(argv)


@FUZZ
@given(
    flag=st.sampled_from(["--train-fraction", "--lambda", "--rbf-lr"]),
    value=hostile_floats,
    joined=st.booleans(),
)
def test_non_finite_float_flags(flag, value, joined):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["compare", "--data", write_csv(Path(tmp), SERIES), "--column", "v",
                "--window", "3", *QUICK_RBF,
                *([f"{flag}={value}"] if joined else [flag, value])]
        run(argv)


@settings(max_examples=20, deadline=None)
@given(
    command=st.sampled_from(["synth", "sweep", "compare", "forecast"]),
    target=st.sampled_from(["missing-dir", "under-a-file", "a-directory"]),
)
def test_unwritable_out(command, target):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = write_csv(tmp, SERIES)
        (tmp / "file").write_text("", encoding="utf-8")
        out = {"missing-dir": tmp / "missing" / "out",
               "under-a-file": tmp / "file" / "out",
               "a-directory": tmp}[target]
        argv = {
            "synth": ["--kind", "walk", "--n", "30"],
            "sweep": ["--data", data, "--column", "v", "--window", "3", "--degrees", "1"],
            "compare": ["--data", data, "--column", "v", "--window", "3", *QUICK_RBF],
            "forecast": ["--model", str(tmp / "m.json"), "--data", data, "--column", "v"],
        }[command]
        (tmp / "m.json").write_text(json.dumps(POLY_DOC), encoding="utf-8")
        assert run([command, *argv, "--out", str(out)]) == 2
