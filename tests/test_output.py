import json
import os

import numpy as np
import pytest

from freewave import output


def test_config_comment_sorted_and_prefixed():
    line = output.config_comment({"b": 2, "a": 1})
    assert line.startswith("# config: ")
    assert line.index('"a"') < line.index('"b"')


def test_write_csv_layout(tmp_path):
    path = str(tmp_path / "t.csv")
    output.write_csv(path, ("x", "y"), [(1.0, 2.0), (3.0, 4.5)], {"run": 7})
    lines = open(path).read().splitlines()
    assert lines[0] == '# config: {"run": 7}'
    assert lines[1] == "x,y"
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == 2.0


def test_write_csv_deterministic(tmp_path):
    rows = [(0.1, 0.2), (0.30000000000000004, 1e-17)]
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    output.write_csv(p1, ("x", "y"), rows, {"seed": 1})
    output.write_csv(p2, ("x", "y"), list(rows), {"seed": 1})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_write_csv_roundtrips_floats(tmp_path):
    path = str(tmp_path / "t.csv")
    vals = [(np.pi, np.e), (1.0 / 3.0, 2.0 ** -40)]
    output.write_csv(path, ("x", "y"), vals, {})
    lines = open(path).read().splitlines()[2:]
    for (x, y), line in zip(vals, lines):
        gx, gy = (float(s) for s in line.split(","))
        assert gx == x and gy == y


def test_write_json_sorted(tmp_path):
    path = str(tmp_path / "o.json")
    output.write_json(path, {"z": 1, "a": {"y": 2, "b": 3}})
    text = open(path).read()
    assert text.index('"a"') < text.index('"z"')
    assert json.loads(text) == {"z": 1, "a": {"y": 2, "b": 3}}


def test_ensure_dir_nested(tmp_path):
    target = str(tmp_path / "d1" / "d2")
    output.ensure_dir(target)
    assert os.path.isdir(target)
    output.ensure_dir(target)   # idempotent


def test_svg_polylines(tmp_path):
    path = str(tmp_path / "plot.svg")
    x = np.linspace(0, 1, 20)
    output.svg_polylines(path, [("one", x, np.sin(x)), ("two", x, np.cos(x))],
                         title="waves")
    text = open(path).read()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "waves" in text
    assert text.rstrip().endswith("</svg>")
