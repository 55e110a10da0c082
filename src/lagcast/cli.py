"""Command-line interface.

Four subcommands: synth writes a synthetic series to CSV, sweep runs
the polynomial degree sweep, compare runs the PC vs RBFNN head-to-head,
and forecast applies a saved model to a series.  Every flag can also be
supplied through --config pointing at a flat "key = value" file; flags
given on the command line win over the file.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 model
fit or training error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import polynomial as poly
from . import rbf
from .data import load_csv, make_windows
from .errors import ConfigError, DataError, FitError
from .harness import (
    ComparisonSuite, CsvSource, ExperimentConfig, SynthSource, render_report,
    resolve_source, run_comparison, run_comparison_suite, run_degree_sweep,
)
from .rbf import RbfTrainConfig


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse {text!r} as a boolean")


def _parse_int_list(text: str) -> tuple:
    """Accept '1..5', '1,3,5' or a single integer."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ConfigError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(p) for p in text.split(",") if p.strip() != "")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(p) for p in text.split(",") if p.strip() != "")


def _parse_column(text: str) -> str | int:
    t = text.strip()
    return int(t) if t.lstrip("-").isdigit() else t


def _wrap(conv, key: str):
    def run(text: str):
        try:
            return conv(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    return run


# dest -> (converter, default); None default means "required"
_SPECS = {
    "synth": {
        "kind": (str, None),
        "n": (int, None),
        "seed": (int, 0),
        "out": (str, None),
        "period": (int, "unset"),
        "amplitude": (float, "unset"),
        "trend": (float, "unset"),
        "noise_sd": (float, "unset"),
        "drift": (float, "unset"),
        "coeffs": (_parse_float_list, "unset"),
    },
    "sweep": {
        "data": (str, None),
        "column": (_parse_column, 0),
        "no_header": (_parse_bool, False),
        "window": (int, 8),
        "degrees": (_parse_int_list, (1, 2, 3, 4, 5)),
        "ridge_lambda": (float, 0.0),
        "train_fraction": (float, 0.8),
        "format": (str, "markdown"),
        "out": (str, ""),
    },
    "compare": {
        "data": (str, None),
        "column": (_parse_column, 0),
        "no_header": (_parse_bool, False),
        "window": (int, 8),
        "degrees": (_parse_int_list, (1,)),
        "ridge_lambda": (float, 0.0),
        "train_fraction": (float, 0.8),
        "alpha": (float, 0.05),
        "rbf_units": (int, 36),
        "rbf_lr": (float, 0.000264),
        "rbf_epochs": (int, 60),
        "rbf_batch": (int, 109),
        "rbf_target_mse": (float, ""),
        "rbf_max_units": (int, ""),
        "seeds": (_parse_int_list, (0,)),
        "format": (str, "json"),
        "out": (str, ""),
    },
    "forecast": {
        "model": (str, None),
        "data": (str, None),
        "column": (_parse_column, 0),
        "no_header": (_parse_bool, False),
        "out": (str, None),
    },
}


def _read_config_file(path: str) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; keys match flag names."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _effective(args: argparse.Namespace, command: str) -> dict:
    """Layer defaults, then config-file values, then explicit flags."""
    spec = _SPECS[command]
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(spec)
    if unknown:
        raise ConfigError(
            f"config file keys not recognized for '{command}': {', '.join(sorted(unknown))}"
        )
    out = {}
    for key, (conv, default) in spec.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            out[key] = _wrap(conv, key)(flag_value)
        elif key in file_values:
            out[key] = _wrap(conv, key)(file_values[key])
        elif default is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        else:
            out[key] = default
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagcast",
        description="Polynomial and RBF-network one-step forecasting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value file")
        for key, (conv, _) in spec.items():
            flag = f"--{key.replace('_', '-')}"
            if key == "ridge_lambda":
                p.add_argument("--lambda", "--ridge-lambda", dest=key, default=None)
            elif conv is _parse_bool:
                p.add_argument(flag, dest=key, nargs="?", const="true", default=None)
            else:
                p.add_argument(flag, dest=key, default=None)
    return parser


def _emit(text: str, out: str):
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_synth(v: dict) -> int:
    params = {}
    for key in ("period", "amplitude", "trend", "noise_sd", "drift", "coeffs"):
        if v[key] != "unset":
            params[key] = v[key]
    series = resolve_source(SynthSource(kind=v["kind"], n=v["n"],
                                        seed=v["seed"], params=params))
    lines = ["t,v"] + [f"{i},{float(val)!r}" for i, val in enumerate(series.values)]
    Path(v["out"]).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(series)} points to {v['out']}")
    return 0


def _experiment_config(v: dict, seeds: tuple = (0,),
                       rbf_config: RbfTrainConfig | None = None) -> ExperimentConfig:
    source = CsvSource(path=v["data"], column=v["column"],
                       has_header=not v["no_header"])
    return ExperimentConfig(
        source=source,
        window_d=v["window"],
        train_fraction=v["train_fraction"],
        degrees=v["degrees"],
        ridge_lambda=v["ridge_lambda"],
        rbf_config=rbf_config or RbfTrainConfig(),
        seeds=seeds,
        alpha=v.get("alpha", 0.05),
    )


def _cmd_sweep(v: dict) -> int:
    result = run_degree_sweep(_experiment_config(v))
    _emit(render_report(result, v["format"]), v["out"])
    if all(r.failed for r in result.rows):
        print("every degree failed to fit", file=sys.stderr)
        return 4
    return 0


def _cmd_compare(v: dict) -> int:
    rbf_config = RbfTrainConfig(
        units=v["rbf_units"],
        batch_size=v["rbf_batch"],
        epochs=v["rbf_epochs"],
        learning_rate=v["rbf_lr"],
        target_mse=v["rbf_target_mse"] if v["rbf_target_mse"] != "" else None,
        max_units=v["rbf_max_units"] if v["rbf_max_units"] != "" else None,
    )
    config = _experiment_config(v, seeds=v["seeds"], rbf_config=rbf_config)
    if len(config.seeds) == 1:
        result = run_comparison(config)
    else:
        result = run_comparison_suite(config)
    _emit(render_report(result, v["format"]), v["out"])
    return 0


def _cmd_forecast(v: dict) -> int:
    try:
        text = Path(v["model"]).read_text()
    except OSError as exc:
        raise DataError(f"cannot read model file {v['model']}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{v['model']} is not valid JSON: {exc}") from exc
    if "exponents" in doc:
        model = poly.from_json(text)
        d = model.basis.window_d
        predict_all = lambda w: poly.rolling_forecast(model, w)
    elif "centers" in doc:
        net = rbf.from_json(text)
        d = net.window_d
        predict_all = lambda w: rbf.batch_forward(net, w.inputs)
    else:
        raise DataError(f"{v['model']} is neither a polynomial nor an RBF model document")
    series = load_csv(v["data"], v["column"], has_header=not v["no_header"])
    windows = make_windows(series, d)
    preds = predict_all(windows)
    lines = ["index,prediction"]
    lines += [f"{i + d},{float(p)!r}" for i, p in enumerate(preds)]
    Path(v["out"]).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(preds)} predictions to {v['out']}")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "forecast": _cmd_forecast,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = _effective(args, args.command)
        return _HANDLERS[args.command](values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
