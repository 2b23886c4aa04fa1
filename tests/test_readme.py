"""The README's API session runs as written, and the package root exports
exactly its names, the error types and __version__."""

import ast
import contextlib
import inspect
import io
import os
import re

import freewave
from freewave import errors

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _api_session() -> str:
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


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
