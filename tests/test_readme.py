"""The README's Python examples and command-line recipe run as written."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from lagcast import polynomial as poly
from lagcast.cli import main
from lagcast.data import load_csv, make_windows

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def recipe_commands(text):
    """The argv of each lagcast line in the first sh block under '## Command line'."""
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("lagcast ")]


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2  # the quick start and the one-call comparison
    monkeypatch.chdir(tmp_path)
    namespace = {}  # later blocks build on names the first one defines
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "PC" in capsys.readouterr().out  # the markdown report printed


def test_readme_command_line_recipe_runs(tmp_path, monkeypatch, capsys):
    commands = recipe_commands(README.read_text(encoding="utf-8"))
    assert [argv[0] for argv in commands] == ["synth", "sweep", "compare", "forecast"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "forecast":  # no command writes a model document; the library does
            model = poly.fit(make_windows(load_csv("series.csv", "v"), 8), 1)
            poly.save(model, "model.json")
        code, err = main(argv), capsys.readouterr().err
        assert code == 0, (argv, err)
        # the recipe's series has a positive mean, so CV(RMSE) needs no warning
        assert argv[0] != "compare" or "warning:" not in err
    want = poly.rolling_forecast(model, make_windows(load_csv("series.csv", "v"), 8))
    assert np.array_equal(load_csv("preds.csv", "prediction").values, want)
    models = json.loads(Path("report.json").read_text(encoding="utf-8"))["models"]
    assert all(m["cv_rmse_pct"] > 0 for m in models)
