"""The README's API session and CLI commands run as written, and the package
root exports exactly the session's names, the error types and __version__."""

import ast
import contextlib
import inspect
import io
import os
import re
import shlex

import freewave
from freewave import cli, errors

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _api_session() -> str:
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def _cli_commands() -> list:
    """Argument lists of the `freewave ...` lines of the README's CLI block."""
    with open(README) as fh:
        blocks = re.findall(r"^```\n(.*?)^```", fh.read(), re.S | re.M)
    block, = (b for b in blocks if "\nfreewave " in b)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("freewave ")]


# the files each README command writes under --out (SVGs only with --plot)
README_FILES = {
    "speed": {"speed.json"},
    "semiwave": {"semiwave_profile.csv", "semiwave_profile.svg"},
    "compact": {"compact.json", "compact_profile.csv"},
    "two": {"two.json", "two_left.csv", "two_right.csv"},
    "three": {"three.json", "three_left.csv", "three_middle.csv", "three_right.csv"},
    "dispersion": {"dispersion_two_beta.csv"},
    "verify": {"verify.json", "verify_history.csv"},
}


def test_readme_cli_block_runs(tmp_path, capsys):
    commands = _cli_commands()
    assert sorted(argv[0] for argv in commands) == sorted(README_FILES)
    for argv in commands:
        out = str(tmp_path / argv[0])
        if "--out" in argv:
            argv[argv.index("--out") + 1] = out
        else:
            argv += ["--out", out]
        assert cli.main(argv) == 0, argv
        assert set(os.listdir(out)) == README_FILES[argv[0]]
    capsys.readouterr()


def test_readme_session_runs():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(_api_session(), README, "exec"), {})
    wave_line, residual_line = buf.getvalue().splitlines()
    assert len(wave_line.split()) == 3
    assert float(residual_line) < 1e-6


def test_root_exports_the_documented_api():
    documented = {alias.name for node in ast.walk(ast.parse(_api_session()))
                  if isinstance(node, ast.ImportFrom) and node.module == "freewave"
                  for alias in node.names}
    error_types = {name for name, obj in vars(errors).items()
                   if inspect.isclass(obj) and issubclass(obj, errors.FreewaveError)}
    assert len(error_types) == 6
    assert sorted(freewave.__all__) == sorted(documented | error_types | {"__version__"})
    for name in freewave.__all__:
        assert hasattr(freewave, name)
