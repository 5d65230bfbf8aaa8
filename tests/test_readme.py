"""The README's library example and INI block match the current code."""

import configparser
import pathlib
import re

from tlsbath.config import DEFAULTS, load_config, resolve

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    occupation, xi, squeezed = capsys.readouterr().out.split()
    assert float(occupation) > 0 and float(xi) > 0 and squeezed in ("True", "False")


def test_readme_ini_block_is_the_defaults(tmp_path):
    """The documented INI, inline comments and all, loads to the baseline
    and lists every key of the grammar under its canonical name."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == resolve({})
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    parser.read_string(block)
    documented = {(s, k) for s in parser.sections() for k in parser[s]}
    assert documented == {(s, k) for s, keys in DEFAULTS.items() for k in keys}
