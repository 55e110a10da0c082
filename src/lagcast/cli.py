"""Command-line interface.

Four subcommands: synth writes a synthetic series to CSV, sweep runs
the polynomial degree sweep, compare runs the PC vs RBFNN head-to-head,
and forecast applies a saved model to a series.  Every flag can also be
supplied through --config pointing at a flat "key = value" file; flags
given on the command line win over the file; an option given neither
way keeps the library's default unless _SPECS sets one.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 model
fit or training error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import polynomial as poly
from . import rbf
from .data import make_windows
from .errors import ConfigError, DataError, FitError, UndefinedMetricError
from .harness import (
    REPORT_FORMATS, CsvSource, ExperimentConfig, SynthSource, render_report,
    resolve_source, run_comparison, run_comparison_suite, run_degree_sweep,
)
from .rbf import RbfTrainConfig

# a longer --degrees or --seeds range is a typo, not an experiment
_MAX_RANGE = 100_000


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
        if hi - lo >= _MAX_RANGE:
            raise ConfigError(f"range {text!r} has more than {_MAX_RANGE} values")
        return tuple(range(lo, hi + 1))
    return tuple(int(p) for p in text.split(",") if p.strip() != "")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(p) for p in text.split(",") if p.strip() != "")


def _parse_format(text: str) -> str:
    if text not in REPORT_FORMATS:
        raise ConfigError(f"unknown format {text!r}; expected {', '.join(REPORT_FORMATS)}")
    return text


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


_REQUIRED = object()  # the default of an option that must be given

# dest -> (converter, default).  An option whose default is None, given
# neither as a flag nor in the config file, is left out, so the library's
# default applies.
_CSV = {"data": (str, _REQUIRED), "column": (_parse_column, None),
        "no_header": (_parse_bool, None)}
_PROTOCOL = {"window": (int, None), "degrees": (_parse_int_list, None),
             "ridge_lambda": (float, None), "train_fraction": (float, None)}
_SYNTH_PARAMS = {"period": (int, None), "amplitude": (float, None),
                 "trend": (float, None), "noise_sd": (float, None),
                 "drift": (float, None), "coeffs": (_parse_float_list, None)}
_SPECS = {
    "synth": {"kind": (str, _REQUIRED), "n": (int, _REQUIRED), "seed": (int, None),
              "out": (str, _REQUIRED), **_SYNTH_PARAMS},
    "sweep": {**_CSV, **_PROTOCOL, "format": (_parse_format, "markdown"),
              "out": (str, None)},
    # compare departs from the library on purpose: PC at degree 1 and
    # RBFNN at the paper's settings
    "compare": {
        **_CSV, **_PROTOCOL, "degrees": (_parse_int_list, (1,)), "alpha": (float, None),
        "rbf_units": (int, 36), "rbf_lr": (float, 0.000264), "rbf_epochs": (int, 60),
        "rbf_batch": (int, 109), "rbf_target_mse": (float, None),
        "rbf_max_units": (int, None), "seeds": (_parse_int_list, None),
        "format": (_parse_format, "json"), "out": (str, None),
    },
    "forecast": {"model": (str, _REQUIRED), **_CSV, "out": (str, _REQUIRED)},
}

# every flag that takes a value, spelled as on the command line
_VALUE_FLAGS = {"--config", "--lambda"} | {
    "--" + key.replace("_", "-")
    for spec in _SPECS.values() for key, (conv, _) in spec.items() if conv is not _parse_bool
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
    """Layer CLI defaults, config-file values and flags; check each one."""
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
        elif default is _REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        elif default is not None:
            out[key] = default
    return out


def _join_values(argv: list[str]) -> list[str]:
    """Rewrite each '--flag value' as '--flag=value'.

    argparse reads a value that starts with '-' but is not a plain
    number, such as -inf or -1e3, as an unknown option; joined to its
    flag it is a value, checked like any other.
    """
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main reports it in one line, exit 2
        raise ConfigError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _write(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None):
    if out is None:
        print(text)
    else:
        _write(out, text + "\n")


def _given(v: dict, **names: str) -> dict:
    """The options of names present in v, keyed by the parameter each sets."""
    return {param: v[key] for key, param in names.items() if key in v}


def _csv_source(v: dict) -> CsvSource:
    kwargs = _given(v, column="column")
    if "no_header" in v:
        kwargs["has_header"] = not v["no_header"]
    return CsvSource(path=v["data"], **kwargs)


def _cmd_synth(v: dict) -> int:
    params = {key: v[key] for key in _SYNTH_PARAMS if key in v}
    series = resolve_source(SynthSource(kind=v["kind"], n=v["n"], params=params,
                                        **_given(v, seed="seed")))
    lines = ["t,v"] + [f"{i},{float(val)!r}" for i, val in enumerate(series.values)]
    _write(v["out"], "\n".join(lines) + "\n")
    print(f"wrote {len(series)} points to {v['out']}")
    return 0


def _experiment_config(v: dict, **extra) -> ExperimentConfig:
    return ExperimentConfig(
        source=_csv_source(v),
        **_given(v, window="window_d", train_fraction="train_fraction",
                 degrees="degrees", ridge_lambda="ridge_lambda", seeds="seeds",
                 alpha="alpha"),
        **extra,
    )


def _cmd_sweep(v: dict) -> int:
    result = run_degree_sweep(_experiment_config(v))
    _emit(render_report(result, v["format"]), v.get("out"))
    if all(r.failed for r in result.rows):
        print("every degree failed to fit", file=sys.stderr)
        return 4
    return 0


def _cmd_compare(v: dict) -> int:
    rbf_config = RbfTrainConfig(**_given(
        v, rbf_units="units", rbf_batch="batch_size", rbf_epochs="epochs",
        rbf_lr="learning_rate", rbf_target_mse="target_mse",
        rbf_max_units="max_units"))
    config = _experiment_config(v, rbf_config=rbf_config)
    if len(config.seeds) == 1:
        result = run_comparison(config)
    else:
        result = run_comparison_suite(config)
    _emit(render_report(result, v["format"]), v.get("out"))
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
    fields = doc if isinstance(doc, dict) else {}
    if "exponents" in fields:
        model = poly.from_json(text)
        d = model.basis.window_d
        predict_all = lambda w: poly.rolling_forecast(model, w)
    elif "centers" in fields:
        net = rbf.from_json(text)
        d = net.window_d
        predict_all = lambda w: rbf.batch_forward(net, w.inputs)
    else:
        raise DataError(f"{v['model']} is neither a polynomial nor an RBF model document")
    windows = make_windows(resolve_source(_csv_source(v)), d)
    preds = predict_all(windows)
    if not np.all(np.isfinite(preds)):
        raise DataError(f"{v['model']} gives non-finite forecasts on this series")
    lines = ["index,prediction"]
    lines += [f"{i + d},{float(p)!r}" for i, p in enumerate(preds)]
    _write(v["out"], "\n".join(lines) + "\n")
    print(f"wrote {len(preds)} predictions to {v['out']}")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "forecast": _cmd_forecast,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(
            _join_values(sys.argv[1:] if argv is None else argv))
        values = _effective(args, args.command)
        return _HANDLERS[args.command](values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, UndefinedMetricError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
