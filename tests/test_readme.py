"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    assert "test_accuracy_mean" in capsys.readouterr().out
