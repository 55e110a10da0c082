"""Command-line interface.

Four subcommands: synth writes a synthetic series to CSV, sweep runs
the polynomial degree sweep, compare runs the PC vs RBFNN head-to-head,
and forecast applies a saved model to a series.  Every flag can also be
supplied through --config pointing at a flat "key = value" file; flags
given on the command line win over the file; an option given neither
way keeps the library's default.  A --data file's first line is a
header when --column names a column or the line's cell in that column
is not a number; a file of more than one column needs --column.  Files
are read and written as UTF-8.

Exit codes: 0 success, 2 configuration error (an unwritable --out or
a closed stdout among them), 3 data error, 4 model fit or training error.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path

from . import polynomial as poly
from . import rbf
from .data import _SYNTH_PARAMETERS, make_windows, read_model_document, read_text
from .errors import ConfigError, DataError, FitError
from .harness import (
    REPORT_FORMATS, CsvSource, ExperimentConfig, SynthSource, _forecast, render_report,
    resolve_source, run_comparison, run_comparison_suite, run_degree_sweep,
)
from .rbf import RbfTrainConfig

# a longer --degrees or --seeds range is a typo, not an experiment
_MAX_RANGE = 100_000


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
    if not t.lstrip("-").isdigit():
        return t
    if int(t) < 0:
        raise ConfigError(f"index must be >= 0, got {t}")
    return int(t)


_REQUIRED = object()  # the default of an option that must be given

# key -> (converter, CLI default, target).  The target "group.param" names
# the parameter the option sets: csv of CsvSource, exp of ExperimentConfig,
# rbf of RbfTrainConfig, synth of SynthSource, gen of the synthetic
# generator (one option per parameter of any kind, a list for coeffs), cli
# of the command itself.  An option whose default is None, given neither as
# a flag nor in the config file, is left out, so the library's default applies.
_CSV = {"data": (str, _REQUIRED, "csv.path"), "column": (_parse_column, None, "csv.column")}
_PROTOCOL = {"window": (int, None, "exp.window_d"),
             "degrees": (_parse_int_list, None, "exp.degrees"),
             "lambda": (float, None, "exp.ridge_lambda"),
             "train_fraction": (float, None, "exp.train_fraction")}
_SPECS = {
    "synth": {
        "kind": (str, _REQUIRED, "synth.kind"), "n": (int, _REQUIRED, "synth.n"),
        "seed": (int, None, "synth.seed"), "out": (str, _REQUIRED, "cli.out"),
        **{name: (_parse_float_list if isinstance(default, tuple) else float, None, f"gen.{name}")
           for takes in _SYNTH_PARAMETERS.values() for name, default in takes.items()},
    },
    "sweep": {**_CSV, **_PROTOCOL, "format": (_parse_format, "markdown", "cli.format"),
              "out": (str, None, "cli.out")},
    "compare": {
        **_CSV, **_PROTOCOL, "alpha": (float, None, "exp.alpha"),
        "rbf_units": (int, None, "rbf.units"), "rbf_lr": (float, None, "rbf.learning_rate"),
        "rbf_epochs": (int, None, "rbf.epochs"), "rbf_batch": (int, None, "rbf.batch_size"),
        "seeds": (_parse_int_list, None, "exp.seeds"),
        "format": (_parse_format, "json", "cli.format"), "out": (str, None, "cli.out"),
    },
    "forecast": {"model": (str, _REQUIRED, "cli.model"), **_CSV,
                 "out": (str, _REQUIRED, "cli.out")},
}
_ALIASES = {"ridge_lambda": "lambda"}  # alias -> key, as a flag and a config-file key


def _key(name: str) -> str:
    """The option key of a flag or config-file name: '-' becomes '_', aliases resolve."""
    name = name.replace("-", "_")
    return _ALIASES.get(name, name)


def _read_config_file(path: str) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; keys match flag names."""
    text = read_text(path, f"config file {path}", ConfigError)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[_key(key.strip())] = value.strip()
    return values


def _parse_argv(argv: list[str]) -> tuple[str | None, dict | None]:
    """Read 'COMMAND (--name value | --name=value)...' into the command and {key: text}.

    A flag is its option's config-file key with '--' in front.  A value
    is the next token unless that token starts with '--', so -inf, -1e3
    and -h are values.  -h or --help in a flag's place asks for help:
    texts None (and command None if first).
    """
    if argv[:1] in (["-h"], ["--help"]):
        return None, None
    if not argv or argv[0] not in _SPECS:
        raise ConfigError(f"expected a command, one of {', '.join(_SPECS)} (see lagcast --help)")
    command, tokens = argv[0], list(argv[1:])
    spec = _SPECS[command]
    texts = {}
    while tokens:
        token = tokens.pop(0)
        if token in ("-h", "--help"):
            return command, None
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r} (see lagcast {command} --help)")
        name, has_value, text = token.partition("=")
        key = _key(name[2:])
        if key not in spec and key != "config":
            raise ConfigError(f"unknown option {name} for '{command}' (see lagcast {command} --help)")
        if not has_value:
            if not tokens or tokens[0].startswith("--"):
                raise ConfigError(f"option {name} expects a value")
            text = tokens.pop(0)
        texts[key] = text
    return command, texts


def _usage(commands) -> str:
    """The --help text: each command's flags, from _SPECS."""
    lines = ["usage: lagcast COMMAND [--config FILE] [--OPTION VALUE | --OPTION=VALUE]...",
             "Polynomial and RBF-network one-step forecasting experiments.",
             "--config reads 'option = value' lines; flags given on the command line win."]
    for command in commands:
        lines.append(f"\n{command}:")
        for key, (_, default, _) in _SPECS[command].items():
            names = [key] + [alias for alias, k in _ALIASES.items() if k == key]
            flags = " | ".join("--" + name.replace("_", "-") for name in names)
            note = ("required" if default is _REQUIRED
                    else "" if default is None else f"default {default}")
            lines.append(f"  {flags:<28}{note}".rstrip())
    return "\n".join(lines)


def _effective(command: str, texts: dict) -> dict:
    """Layer CLI defaults, config-file values and flags; check each one.

    Returns {group: {param: value}}, with every group of the command's
    targets present, so each handler builds its config objects directly.
    """
    spec = _SPECS[command]
    file_values = _read_config_file(texts["config"]) if "config" in texts else {}
    unknown = set(file_values) - set(spec)
    if unknown:
        raise ConfigError(
            f"config file keys not recognized for '{command}': {', '.join(sorted(unknown))}"
        )
    groups = {}
    for key, (conv, default, target) in spec.items():
        group, param = target.split(".")
        values = groups.setdefault(group, {})
        text = texts.get(key, file_values.get(key))
        if text is not None:
            try:
                values[param] = conv(text)
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        elif default is not None:
            values[param] = default
    return groups


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None):
    if out is None:
        print(text)
    else:
        _write(out, text + "\n")


def _write_series(path: str, header: str, start: int, values, noun: str):
    """A two-column CSV: the header, then one 'index,value' row per value from start."""
    lines = [header] + [f"{i},{float(v)!r}" for i, v in enumerate(values, start)]
    _write(path, "\n".join(lines) + "\n")
    print(f"wrote {len(values)} {noun} to {path}")


def _cmd_synth(g: dict):
    series = resolve_source(SynthSource(**g["synth"], params=g["gen"]))
    _write_series(g["cli"]["out"], "t,v", 0, series.values, "points")


def _cmd_sweep(g: dict):
    result = run_degree_sweep(ExperimentConfig(source=CsvSource(**g["csv"]), **g["exp"]))
    _emit(render_report(result, g["cli"]["format"]), g["cli"].get("out"))
    if all(r.error is not None for r in result.rows):
        raise FitError("every degree failed to fit")


def _cmd_compare(g: dict):
    config = ExperimentConfig(source=CsvSource(**g["csv"]),
                              rbf_config=RbfTrainConfig(**g["rbf"]), **g["exp"])
    if len(config.seeds) == 1:
        result = run_comparison(config)
    else:
        result = run_comparison_suite(config)
    _emit(render_report(result, g["cli"]["format"]), g["cli"].get("out"))


def _cmd_forecast(g: dict):
    v = g["cli"]
    kind, fields = read_model_document(read_text(v["model"], f"model file {v['model']}"))
    model = (rbf if kind == "an RBF" else poly).from_document(fields)
    windows = make_windows(resolve_source(CsvSource(**g["csv"])), fields["d"])
    preds = _forecast(model, windows,
                      DataError(f"{v['model']} gives non-finite forecasts on this series"))
    _write_series(v["out"], "index,prediction", windows.window_d, preds, "predictions")


_HANDLERS = {
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "forecast": _cmd_forecast,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with warnings.catch_warnings():  # one line per warning; the filters still decide which
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            try:
                command, texts = _parse_argv(argv)
                if texts is None:
                    print(_usage(_SPECS if command is None else [command]))
                else:
                    _HANDLERS[command](_effective(command, texts))
            finally:
                sys.stdout.flush()  # a closed stdout fails here, not at the flush at exit
        except BrokenPipeError as exc:  # the reader of stdout has gone, as with | head
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())  # so the flush at exit has somewhere to go
            os.close(null)
            print(f"config error: cannot write stdout: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except DataError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 3
        except FitError as exc:
            print(f"fit error: {exc}", file=sys.stderr)
            return 4
        return 0


if __name__ == "__main__":
    sys.exit(main())
