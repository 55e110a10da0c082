"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2  # the quick start and the one-call comparison
    monkeypatch.chdir(tmp_path)
    namespace = {}  # later blocks build on names the first one defines
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "PC" in capsys.readouterr().out  # the markdown report printed
