"""``tools/parity.py --compare`` passes equal recordings and fails on any
difference in exit code, stderr, verdict or a number beyond ``--atol``."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(exit=0, stderr="", verdict="verified", value=1e-16):
    report = {"verdict": verdict, "quantities": [{"name": "d", "value": value}]}
    return {"argv": ["theorem", "--n", "1"], "exit": exit, "stderr": stderr, "report": report}


def recordings(tmp_path, a, b):
    dirs = []
    for side, rec in (("a", a), ("b", b)):
        d = tmp_path / side
        d.mkdir()
        if rec is not None:
            (d / "theorem-n1.json").write_text(json.dumps(rec))
        dirs.append(d)
    return dirs


def test_the_set_has_43_runs(parity):
    runs = parity.cases()
    assert len(runs) == 43
    assert sum("--corrupt-epsilon" in argv for argv in runs.values()) == 22


def test_equal_and_near_recordings_pass(parity, tmp_path, capsys):
    a, b = recordings(tmp_path, record(value=1e-16), record(value=2e-16))
    assert parity.compare(a, b, atol=1e-14) == 0
    assert parity.compare(a, a, atol=0.0) == 0
    assert "identical reports (1): theorem-n1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "other",
    [
        record(value=1e-13),
        record(exit=2),
        record(stderr="qcatalyst: refused: x\n"),
        record(verdict="falsified"),
        None,
    ],
    ids=["number", "exit", "stderr", "verdict", "missing"],
)
def test_any_difference_fails(parity, tmp_path, other):
    a, b = recordings(tmp_path, record(), other)
    assert parity.compare(a, b, atol=1e-14) == 1
