"""The README's library example runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    occupation, xi, squeezed = capsys.readouterr().out.split()
    assert float(occupation) > 0 and float(xi) > 0 and squeezed in ("True", "False")
