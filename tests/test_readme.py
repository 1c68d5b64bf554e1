"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    section = section.split("\n## ")[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert namespace["svg"].startswith("<?xml")
    assert namespace["trace"].n_cells == namespace["stats"].counts.size == 25
