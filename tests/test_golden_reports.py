"""Every case of the parity set, rerun in process through ``cli.main``,
matches its recording in ``tests/golden`` (written by ``tools/parity.py
--write``) under ``parity.compare``: exit code, stderr, verdict and every
string exact, every number within 1e-14. The ``timestamp`` and the package
``versions`` are not compared. A change that is meant to change a report
writes the set again with ``tools/parity.py --write tests/golden``."""

import importlib.util
import json
import pathlib

import pytest

from qcatalyst.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ATOL = 1e-14


def _load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load_parity()
CASES = parity.cases()


def _write(directory: pathlib.Path, name: str, record: dict) -> None:
    directory.mkdir(exist_ok=True)
    if isinstance(record["report"], dict):
        record["report"].pop("timestamp", None)
        record["report"].pop("versions", None)
    (directory / f"{name}.json").write_text(json.dumps(record))


def test_the_golden_set_is_the_parity_set():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_its_golden_recording(name, tmp_path, capsys, monkeypatch):
    argv = CASES[name]
    monkeypatch.chdir(GOLDEN)  # the pair runs name their states relative to it
    code = main(argv)
    out, err = capsys.readouterr()
    fresh = {
        "argv": argv,
        "exit": code,
        "stderr": err,
        "report": json.loads(out) if out.strip() else None,
    }
    _write(tmp_path / "golden", name, json.loads((GOLDEN / f"{name}.json").read_text()))
    _write(tmp_path / "fresh", name, fresh)
    assert parity.compare(tmp_path / "golden", tmp_path / "fresh", ATOL) == 0, (
        capsys.readouterr().out
    )
