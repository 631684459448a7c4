"""Non-finite amplitudes and out-of-range CLI arguments are rejected with a
documented exit code and a one-line reason."""

import json

import numpy as np
import pytest

from qcatalyst import (
    EnsembleBranch,
    Factor,
    KrausChannel,
    QuantumState,
    ValidationError,
    max_entangled,
)
from qcatalyst.cli import main


def _pair_layout():
    return max_entangled(2, ("A", "B")).layout


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ensemble_rejects_non_finite_amplitude(bad):
    vec = np.array([bad, 0.0, 0.0, 1.0], dtype=np.complex128)
    layout = _pair_layout()
    branch = EnsembleBranch(1.0, (Factor(layout.labels, vec),))
    with pytest.raises(ValidationError, match="non-finite"):
        QuantumState.from_branches(layout, [branch])


@pytest.mark.parametrize("p", [np.nan, np.inf, -0.5])
def test_ensemble_rejects_bad_probability(p):
    layout = _pair_layout()
    vec = np.array([1.0, 0.0, 0.0, 0.0])
    branch = EnsembleBranch(p, (Factor(layout.labels, vec),))
    with pytest.raises(ValidationError, match="not a positive number"):
        QuantumState.from_branches(layout, [branch])


def test_factor_size_is_counted_past_64_bits():
    # two 2^32-level registers hold 2^64 amplitudes, which a 64-bit product
    # wraps to 0
    doc = {
        "layout": [
            {"label": "A", "dim": 2**32, "party": "Alice"},
            {"label": "B", "dim": 2**32, "party": "Bob"},
        ],
        "ensemble": [
            {"p": 1.0, "factors": [{"labels": ["A", "B"], "vector": [[1.0, 0.0]]}]}
        ],
    }
    with pytest.raises(
        ValidationError, match="has 1 amplitudes, expected 18446744073709551616$"
    ):
        QuantumState.from_json(doc)


def test_dense_state_rejects_nan():
    entries = np.eye(4, dtype=np.complex128) / 4
    entries[1, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        QuantumState.from_dense_matrix(entries, _pair_layout())


def test_channel_rejects_nan():
    layout = _pair_layout()
    k = np.eye(4, dtype=np.complex128)
    k[0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        KrausChannel([k], layout, layout)


def test_schmidt_on_nan_document_exits_two(tmp_path, capsys):
    doc = max_entangled(2, ("A", "B")).to_json()
    doc["ensemble"][0]["factors"][0]["vector"][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # writes the bare NaN token json.load accepts
    code = main(["schmidt", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("qcatalyst: refused:") and "non-finite" in err
    assert "Traceback" not in err


def test_schmidt_past_the_int_print_limit_is_refused(tmp_path, capsys):
    # 15000 qubit registers: the dimension 2^15000 has more decimal digits
    # than Python will print, and the refusal must still name it
    regs = 15_000
    doc = {
        "layout": [
            {"label": f"Q{i}", "dim": 2, "party": "Alice" if i % 2 else "Bob"}
            for i in range(regs)
        ],
        "ensemble": [
            {
                "p": 1.0,
                "factors": [
                    {"labels": [f"Q{i}"], "vector": [[1.0, 0.0], [0.0, 0.0]]}
                    for i in range(regs)
                ],
            }
        ],
    }
    path = tmp_path / "qubits.json"
    path.write_text(json.dumps(doc))
    code = main(["schmidt", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "refused"
    assert report["reason"] == (
        "refusing to build a <15001 bits>x1 operator (cap 2000^2 entries)"
    )


def test_dense_document_past_the_int_print_limit_is_refused(tmp_path, capsys):
    # the expected payload size (2^15000)^2 is named, not printed in full
    doc = {
        "layout": [
            {"label": f"Q{i}", "dim": 2, "party": "Alice" if i % 2 else "Bob"}
            for i in range(15_000)
        ],
        "dense": [[1.0, 0.0]],
    }
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    code = main(["schmidt", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "qcatalyst: refused: dense payload has 1 entries, expected <15001 bits>^2\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["obs3", "--seeds", "-2"],
        ["obs3", "--seeds", "0"],
        ["theorem", "--n", "0"],
        ["lemma1", "--n", "-1"],
        ["obs1", "--n", "0"],
        ["obs1", "--n", "two"],
    ],
)
def test_out_of_range_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert f"argument {argv[1]}:" in message


def _drop_factors(doc):
    del doc["ensemble"][0]["factors"]


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _drop_factors,
        _set(("ensemble",), "x"),
        _set(("ensemble", 0, "factors", 0, "vector", 0), [0.7071]),
        _set(("ensemble", 0, "p"), "abc"),
        _set(("layout", 0, "dim"), "x"),
        _set(("ensemble", 0, "p"), 10**400),
        _set(("layout", 0, "dim"), float("inf")),
    ],
    ids=[
        "no-factors",
        "ensemble-string",
        "one-element-pair",
        "p-string",
        "dim-string",
        "p-overflow",
        "dim-infinite",
    ],
)
def test_malformed_state_document_is_refused(edit, tmp_path, capsys):
    doc = max_entangled(2, ("A", "B")).to_json()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["schmidt", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("qcatalyst: refused:")
    assert "Traceback" not in err


@pytest.mark.parametrize("cut", ["[1]", '"x"'])
def test_cut_must_be_a_json_object(cut, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(max_entangled(2, ("A", "B")).to_json()))
    with pytest.raises(SystemExit) as err:
        main(["schmidt", "--input", str(path), "--cut", cut])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert "--cut must be a JSON object" in message
    assert "Traceback" not in message


def _refused_with_one_line(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["schmidt", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("qcatalyst: refused:")
    return err


@pytest.mark.parametrize("dim", [2.7, True, 2.0], ids=["float", "bool", "integral-float"])
def test_register_dim_must_be_a_json_integer(dim, tmp_path, capsys):
    doc = max_entangled(2, ("A", "B")).to_json()
    doc["layout"][0]["dim"] = dim
    err = _refused_with_one_line(doc, tmp_path, capsys)
    assert "invalid dim" in err


@pytest.mark.parametrize(
    "edit, reason",
    [
        ({"dim": list(range(200_000))}, "invalid dim"),
        ({"label": "A" * 200_000, "dim": 0}, "invalid dim"),
        ({"party": ["Alice"] * 200_000}, "unknown party"),
        ({"label": [["A"] * 1000] * 1000}, "non-empty string"),
    ],
    ids=["dim-list", "long-label", "party-list", "label-nested-list"],
)
def test_register_refusal_echoes_a_bounded_value(edit, reason, tmp_path, capsys):
    doc = max_entangled(2, ("A", "B")).to_json()
    doc["layout"][0].update(edit)
    err = _refused_with_one_line(doc, tmp_path, capsys)
    assert reason in err
    assert len(err) < 300


@pytest.mark.parametrize("labels", ["AB", ["A", 1], {"A": 0, "B": 1}])
def test_factor_labels_must_be_a_list_of_strings(labels, tmp_path, capsys):
    doc = max_entangled(2, ("A", "B")).to_json()
    doc["ensemble"][0]["factors"][0]["labels"] = labels
    err = _refused_with_one_line(doc, tmp_path, capsys)
    assert "not a list of strings" in err


@pytest.mark.parametrize(
    "edit",
    [
        _set(("ensemble", 0, "p"), "1.0"),
        _set(("ensemble", 0, "p"), True),
        _set(("ensemble", 0, "factors", 0, "vector", 0), [True, 0.0]),
        _set(("ensemble", 0, "factors", 0, "vector", 0), ["0.7071067811865475", 0.0]),
        _set(("ensemble", 0, "factors", 0, "vector", 1), [0.0, False]),
    ],
    ids=["p-numeric-string", "p-bool", "re-bool", "re-numeric-string", "im-bool"],
)
def test_state_numbers_must_be_json_numbers(edit, tmp_path, capsys):
    doc = max_entangled(2, ("A", "B")).to_json()
    edit(doc)
    err = _refused_with_one_line(doc, tmp_path, capsys)
    assert "is not a JSON number" in err


def test_integer_probability_is_a_json_number(tmp_path, capsys):
    doc = max_entangled(2, ("A", "B")).to_json()
    doc["ensemble"][0]["p"] = 1
    path = tmp_path / "int.json"
    path.write_text(json.dumps(doc))
    assert main(["schmidt", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "verified"
