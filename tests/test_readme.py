"""The README's Library block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_block_runs(capsys):
    exec(compile(_library_block(), str(README), "exec"), {"__name__": "readme"})
    assert len(capsys.readouterr().out.splitlines()) == 2  # its two print lines
