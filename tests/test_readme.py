"""The README's library example, INI block and command lines match the
current code."""

import configparser
import pathlib
import re
import shlex

from tlsbath import cli
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


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch, capsys):
    """Every `tlsbath` line of the README's sh blocks, its continuation
    lines joined and its comment dropped, runs to exit 0 (a line given
    twice runs once); the files it names with --out are written in a
    scratch directory."""
    text = "\n".join(re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S))
    words = [shlex.split(line, comments=True) for line in text.replace("\\\n", " ").splitlines()]
    commands = [w[1:] for w in words if w[:1] == ["tlsbath"]]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in map(list, dict.fromkeys(map(tuple, commands))):
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).is_file(), argv
