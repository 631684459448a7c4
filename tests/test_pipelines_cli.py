"""Report pipelines and the command line wrapper around them."""

import argparse
import json
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    EnsembleBranch,
    Factor,
    QuantumState,
    RegisterLayout,
    ValidationError,
    basis_product,
    max_entangled,
    tensor_states,
)
from qcatalyst.cli import main
from qcatalyst.pipelines import (
    pipeline_lemma1,
    pipeline_obs1,
    pipeline_obs3,
    pipeline_schmidt,
    pipeline_theorem,
    qutrit_pair_states,
)


def quantity(report, name):
    for q in report.quantities:
        if q.name == name:
            return q
    raise AssertionError(f"no quantity named {name}")


class TestPipelineVerdicts:
    def test_lemma1_default_inputs(self):
        report = pipeline_lemma1(n=2)
        assert report.verdict == "verified"
        assert quantity(report, "output-distance").value < 1e-12
        assert quantity(report, "catalyst-restoration-distance").value < 1e-12

    def test_lemma1_explicit_flag_mode(self):
        report = pipeline_lemma1(n=2, mode="explicit-flags")
        assert report.verdict == "verified"
        assert quantity(report, "mode").value == "explicit-flags"

    def test_lemma1_refuses_entangled_sigma(self):
        rho, _ = qutrit_pair_states()
        report = pipeline_lemma1(rho, rho, n=2)
        assert report.verdict == "refused"
        assert report.reason

    def test_theorem_smallest_case(self):
        report = pipeline_theorem(1)
        assert report.verdict == "verified"
        assert quantity(report, "target-sn-oracle").value == (4, 4)
        assert quantity(report, "impossible-with-message-dim").value == (1, True)
        assert quantity(report, "converse-message-dimension").value == 2

    def test_obs1_entangled_and_product(self):
        report = pipeline_obs1(2)
        assert report.verdict == "verified"
        assert quantity(report, "message-dimension").value == 2
        product = pipeline_obs1(2, product_rho=True)
        assert product.verdict == "verified"
        assert quantity(product, "message-dimension").value == 1

    def test_obs3(self):
        report = pipeline_obs3(seeds=2)
        assert report.verdict == "verified"
        assert quantity(report, "message-dimension").value == 1
        assert quantity(report, "entropy-gap").value == pytest.approx(1.0, abs=1e-9)

    def test_schmidt_pure_and_mixed(self):
        pure = pipeline_schmidt(max_entangled(3, ("A", "B")))
        assert pure.verdict == "verified"
        assert quantity(pure, "schmidt-rank").value == 3

        rho, sigma = qutrit_pair_states()
        from qcatalyst import EnsembleBranch, QuantumState

        mixed = QuantumState.from_branches(
            rho.layout,
            (
                EnsembleBranch(0.5, rho.branches[0].factors),
                EnsembleBranch(0.5, sigma.branches[0].factors),
            ),
        )
        rep = pipeline_schmidt(mixed)
        assert rep.verdict == "verified"
        assert quantity(rep, "sn-lower").value == 2
        assert quantity(rep, "sn-upper").value == 2


class TestCorruption:
    # a perturbation far above tolerance must flip every pipeline
    @pytest.mark.parametrize(
        "build",
        [
            lambda: pipeline_lemma1(n=2, corruption=1e-3),
            lambda: pipeline_theorem(1, corruption=1e-3),
            lambda: pipeline_obs1(2, corruption=1e-3),
            lambda: pipeline_obs3(seeds=2, corruption=1e-3),
        ],
        ids=["lemma1", "theorem", "obs1", "obs3"],
    )
    def test_corruption_falsifies(self, build):
        report = build()
        assert report.verdict == "falsified"
        assert any(not q.ok for q in report.quantities)
        assert report.corruption == 1e-3


class TestReportDocument:
    def test_json_render_is_deterministic(self):
        report = pipeline_lemma1(n=1)
        a = json.dumps(report.to_json(), indent=2, sort_keys=True)
        b = json.dumps(report.to_json(), indent=2, sort_keys=True)
        assert a == b

    def test_repeat_runs_differ_only_in_timestamp(self):
        doc1 = pipeline_lemma1(n=1).to_json()
        doc2 = pipeline_lemma1(n=1).to_json()
        doc1.pop("timestamp")
        doc2.pop("timestamp")
        assert doc1 == doc2

    def test_text_format_marks_failures(self):
        good = pipeline_lemma1(n=1).to_text()
        assert "verdict: verified" in good
        assert "FAIL" not in good
        bad = pipeline_lemma1(n=1, corruption=1e-3).to_text()
        assert "verdict: falsified" in bad
        assert "FAIL" in bad

    def test_versions_recorded(self):
        report = pipeline_lemma1(n=1)
        assert set(report.versions) == {"qcatalyst", "numpy", "python"}


def write_state(path, state):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state.to_json(), fh)


def dense_document(state, scale=1.0):
    """``state`` as a ``"dense"`` document: its density matrix times ``scale``."""
    flat = scale * state.densify().entries.reshape(-1)
    return {
        "layout": state.layout.to_json(),
        "dense": [[float(z.real), float(z.imag)] for z in flat],
    }


class TestCli:
    def test_verified_run_exits_zero(self, capsys):
        code = main(["lemma1", "--n", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "verified"

    def test_text_format(self, capsys):
        code = main(["lemma1", "--n", "1", "--format", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("pipeline: catalytic-mixing")
        assert out.rstrip().endswith("verdict: verified")

    def test_out_written_atomically(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(["lemma1", "--n", "1", "--out", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["pipeline"] == "catalytic-mixing"
        assert os.listdir(tmp_path) == ["report.json"]  # no tmp file left

    def test_hidden_corruption_flag_exits_two(self, capsys):
        code = main(["lemma1", "--n", "1", "--corrupt-epsilon", "1e-3"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "falsified"

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_theorem_requires_n(self):
        with pytest.raises(SystemExit) as err:
            main(["theorem"])
        assert err.value.code == 1

    def test_lemma1_rejects_single_state_file(self, tmp_path):
        rho, _ = qutrit_pair_states()
        path = tmp_path / "rho.json"
        write_state(path, rho)
        with pytest.raises(SystemExit) as err:
            main(["lemma1", "--rho", str(path)])
        assert err.value.code == 1

    def test_lemma1_with_state_files(self, tmp_path, capsys):
        rho, sigma = qutrit_pair_states()
        rho_path = tmp_path / "rho.json"
        sigma_path = tmp_path / "sigma.json"
        write_state(rho_path, rho)
        write_state(sigma_path, sigma)
        code = main(
            ["lemma1", "--rho", str(rho_path), "--sigma", str(sigma_path), "--n", "2"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "verified"

    def test_missing_file_exits_one(self, tmp_path):
        code = main(["schmidt", "--input", str(tmp_path / "nope.json")])
        assert code == 1

    def test_unparseable_file_exits_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("this is not json")
        code = main(["schmidt", "--input", str(path)])
        assert code == 1

    def test_invalid_state_refused_exits_two(self, tmp_path, capsys):
        # parses as JSON but fails state validation (trace 2)
        doc = dense_document(max_entangled(2, ("A", "B")), scale=2.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["schmidt", "--input", str(path)])
        assert code == 2
        assert "refused" in capsys.readouterr().err

    def test_schmidt_on_saved_state(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        write_state(path, max_entangled(3, ("A", "B")))
        code = main(["schmidt", "--input", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        ranks = {q["name"]: q["value"] for q in doc["quantities"]}
        assert ranks["schmidt-rank"] == 3

    def test_schmidt_cut_override(self, tmp_path, capsys):
        # three registers: referee side chosen by the --cut flag
        from qcatalyst import ALICE, BOB, REFEREE, QuantumState, Register, RegisterLayout

        pair = max_entangled(2, ("A", "R"), (ALICE, REFEREE))
        lone = QuantumState.pure(
            RegisterLayout((Register("B", 2, BOB),)), [1.0, 0.0]
        )
        state = tensor_states(pair, lone)
        path = tmp_path / "tri.json"
        write_state(path, state)
        code = main(
            ["schmidt", "--input", str(path), "--cut", '{"R": "left"}']
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        ranks = {q["name"]: q["value"] for q in doc["quantities"]}
        assert ranks["schmidt-rank"] == 1
        code2 = main(
            ["schmidt", "--input", str(path), "--cut", '{"R": "right"}']
        )
        assert code2 == 0
        doc2 = json.loads(capsys.readouterr().out)
        ranks2 = {q["name"]: q["value"] for q in doc2["quantities"]}
        assert ranks2["schmidt-rank"] == 2

    def test_obs1_and_obs3_subcommands(self, capsys):
        assert main(["obs1", "--n", "2"]) == 0
        capsys.readouterr()
        assert main(["obs3", "--seeds", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "verified"


class TestTrivialCatalyst:
    """At n=1 the catalyst is empty: its preparation is a zero-round protocol
    with message dimension 1, so obs1 is decided, not refused."""

    def test_obs1_single_copy_verified(self):
        report = pipeline_obs1(1)
        assert report.verdict == "verified"
        assert quantity(report, "message-dimension").value == 1
        assert quantity(report, "output-distance").value < 1e-12

    def test_obs1_single_copy_corruption_falsifies(self):
        report = pipeline_obs1(1, corruption=0.3)
        assert report.verdict == "falsified"
        assert not quantity(report, "output-distance").ok


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "graded"])
def test_dense_classically_correlated_schmidt_matches_ensemble(
    d, uniform, tmp_path, capsys
):
    """A dense sum_i p_i |ii><ii| is analysed through its ensemble form, so
    both documents report Schmidt number 1."""
    p = np.full(d, 1.0 / d) if uniform else np.arange(1, d + 1) / (d * (d + 1) / 2)
    layout = max_entangled(d, ("A", "B")).layout
    diag = np.zeros(d * d)
    diag[[i * d + i for i in range(d)]] = p
    dense = QuantumState.from_dense_matrix(np.diag(diag), layout)
    ensemble = QuantumState.from_branches(
        layout,
        [
            EnsembleBranch(float(p[i]), (Factor(("A", "B"), np.eye(d * d)[i * d + i]),))
            for i in range(d)
        ],
    )
    reports = []
    for name, state in (("dense", dense), ("ensemble", ensemble)):
        path = tmp_path / f"{name}.json"
        write_state(path, state)
        assert main(["schmidt", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        reports.append({q["name"]: q["value"] for q in doc["quantities"]})
    assert reports[0] == reports[1]
    assert reports[0]["sn-lower"] == reports[0]["sn-upper"] == 1


def _qutrit_pair(gen, orthogonal):
    """A benchmark-style (rho, sigma) on a qutrit pair, both rotated by
    random local unitaries. Orthogonal: rank-2 rho on levels {0, 1} and
    sigma on level 2, so the local supports are orthogonal. Full rank: rho
    of full Schmidt rank and a random product sigma."""
    layout = qutrit_pair_states()[0].layout

    def unitary():
        z = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        return np.linalg.qr(z)[0]

    def unit():
        v = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        return v / np.linalg.norm(v)

    ua, ub = unitary(), unitary()
    if orthogonal:
        theta = gen.uniform(0.35, np.pi / 2 - 0.35)
        coeffs = np.array([np.cos(theta), np.sin(theta), 0.0])
        halves = ua[:, 2], ub[:, 2]
    else:
        c = gen.uniform(0.3, 1.0, size=3)
        coeffs = c / np.linalg.norm(c)
        halves = unit(), unit()
    core = np.diag(coeffs * np.exp(1j * gen.uniform(0, 2 * np.pi, size=3)))
    rho = QuantumState.pure(layout, (ua @ core @ ub.T).reshape(-1))
    factors = (Factor(("A",), halves[0]), Factor(("B",), halves[1]))
    sigma = QuantumState.from_branches(layout, (EnsembleBranch(1.0, factors),))
    return rho, sigma


def _assert_same_values(a, b, path):
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        assert isinstance(b, (int, float)) and abs(a - b) <= 1e-14, (path, a, b)
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), (path, a, b)
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_values(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), (path, a, b)
        for key in a:
            _assert_same_values(a[key], b[key], f"{path}.{key}")
    else:
        assert a == b, (path, a, b)


@pytest.mark.parametrize("mode", ["explicit-flags", "support-measurement"])
@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "full-rank"])
def test_lemma1_on_dense_documents_matches_the_ensemble_form(
    orthogonal, mode, tmp_path, capsys
):
    """A dense --rho/--sigma pair is read into its eigen-ensembles and gives
    the report of the same pair written as ensembles: the same exit code and
    verdict, and every quantity within 1e-14."""
    rho, sigma = _qutrit_pair(np.random.default_rng(20261019), orthogonal)
    runs = []
    for form in ("ensemble", "dense"):
        paths = []
        for name, state in (("rho", rho), ("sigma", sigma)):
            path = tmp_path / f"{form}-{name}.json"
            doc = state.to_json() if form == "ensemble" else dense_document(state)
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        argv = ["lemma1", "--rho", paths[0], "--sigma", paths[1], "--n", "2"]
        code = main(argv + ["--mode", mode])
        runs.append((code, json.loads(capsys.readouterr().out)))
    (code_e, ens), (code_d, den) = runs
    assert code_d == code_e
    assert den["verdict"] == ens["verdict"]
    _assert_same_values(ens["quantities"], den["quantities"], "quantities")


@pytest.mark.parametrize("n", [4, 5, 6, 12])
@pytest.mark.parametrize("command", ["lemma1", "obs1", "theorem"])
def test_over_cap_sizes_are_refused_before_allocating(command, n, capsys):
    """Past the dense cap a catalytic pipeline is refused with one reason,
    exit 2, and nothing large allocated (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        code = main([command, "--n", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    dim = 9 ** (n + 1 if command == "theorem" else n)
    assert code == 2
    assert captured.err == ""
    assert doc["verdict"] == "refused"
    assert doc["reason"] == f"refusing to densify dimension {dim} (cap 2000)"
    assert peak < 16 << 20


@pytest.mark.parametrize("n", [5000, 10**8])
@pytest.mark.parametrize("command", ["lemma1", "obs1", "theorem"])
def test_huge_n_is_refused_without_forming_its_size(command, n, capsys):
    """The size of an n-copy output is compared, and named, without the
    integer (9 or 81)^n ever being formed or printed."""
    copies = n + 1 if command == "theorem" else n
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main([command, "--n", str(n)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2
    assert captured.err == ""
    assert doc["verdict"] == "refused"
    assert doc["reason"] == f"refusing to densify dimension 9^{copies} (cap 2000)"
    assert elapsed < 1.0
    assert peak < 16 << 20


def _product_pair_documents(tmp_path, da, db):
    """rho = |00>, sigma = |10> (|00> when da = 1) on a da x db pair: they
    share Bob's support, so the protocol needs explicit flags."""
    layout = RegisterLayout.build([("A", da, ALICE), ("B", db, BOB)])
    paths = []
    for name, index in (("rho", 0), ("sigma", 1)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(basis_product(layout, (min(index, da - 1), 0)).to_json()))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "da, n, shape",
    [(44, 2, "170368x3872"), (12, 3, "746496x5184")],
)
def test_lopsided_pair_refused_before_its_stage_operators(
    da, n, shape, tmp_path, capsys
):
    """The n-copy output fits the cap (44^2 = 1936), but a stage operator of
    Alice's channel would hold far more than 2000^2 entries (9.8 GiB at
    44 x 1, n = 2)."""
    rho, sigma = _product_pair_documents(tmp_path, da, 1)
    tracemalloc.start()
    try:
        code = main(["lemma1", "--rho", rho, "--sigma", sigma, "--n", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2
    assert captured.err == ""
    assert doc["reason"] == f"refusing to build a {shape} operator (cap 2000^2 entries)"
    assert peak < 16 << 20


def test_one_level_registers_do_not_exhaust_numpy_axes(tmp_path, capsys):
    """A 1 x 1 pair at n = 20 gives factors of more than 64 one-level
    registers; they are left out of every reshape."""
    rho, sigma = _product_pair_documents(tmp_path, 1, 1)
    code = main(["lemma1", "--rho", rho, "--sigma", sigma, "--n", "20"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["verdict"] == "verified"


@pytest.mark.parametrize("branches", [1, 2])
def test_wide_ket_is_refused_before_its_amplitudes(branches, tmp_path, capsys):
    """15 + 15 qubit registers, each its own basis factor: the full ket has
    2^30 amplitudes (16 GiB), and the D x k array of the branch kets is
    checked against the cap before one is formed (by ``to_vector`` for one
    branch, by the purity check for two)."""
    layout = RegisterLayout.build(
        [(f"A{i}", 2, ALICE) for i in range(15)] + [(f"B{i}", 2, BOB) for i in range(15)]
    )
    states = [basis_product(layout, [k] * len(layout)) for k in range(branches)]
    doc = QuantumState.from_branches(
        layout,
        [EnsembleBranch(1.0 / branches, s.branches[0].factors) for s in states],
    ).to_json()
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["schmidt", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert captured.err == ""
    assert report["verdict"] == "refused"
    assert report["reason"] == (
        f"refusing to build a {2**30}x{branches} operator (cap 2000^2 entries)"
    )
    assert peak < 16 << 20


def _twice_the_same_product(qubits):
    """Two branches of weight 1/2, both the product ket |0...0>, on ``qubits``
    one-qubit registers split between the parties."""
    layout = RegisterLayout.build(
        [(f"Q{i}", 2, ALICE if i % 2 else BOB) for i in range(qubits)]
    )
    factors = basis_product(layout, [0] * qubits).branches[0].factors
    return QuantumState.from_branches(
        layout, [EnsembleBranch(0.5, factors), EnsembleBranch(0.5, factors)]
    )


def test_two_branch_product_past_the_square_cap_is_verified(tmp_path, capsys):
    """On 11 qubits the D x D matrix is past the cap but the D x 2 kets fit."""
    path = tmp_path / "two.json"
    path.write_text(json.dumps(_twice_the_same_product(11).to_json()))
    code = main(["schmidt", "--input", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "verified"
    values = {q["name"]: q["value"] for q in report["quantities"]}
    assert (values["kind"], values["schmidt-rank"]) == ("pure", 1)


def test_two_branch_product_past_the_kets_cap_is_refused(tmp_path, capsys):
    state = _twice_the_same_product(22)
    message = "refusing to build a 4194304x2 operator (cap 2000^2 entries)"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        state.is_approx_pure()
    path = tmp_path / "two.json"
    path.write_text(json.dumps(state.to_json()))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["schmidt", "--input", str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert captured.err == ""
    assert report["verdict"] == "refused"
    assert report["reason"] == message
    assert elapsed < 1.0
    assert peak < 16 << 20


def test_obs3_seed_count_past_the_cap_is_refused_at_once(capsys):
    start = time.perf_counter()
    code = main(["obs3", "--seeds", "100000000"])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == "refused"
    assert report["reason"] == "refusing to draw 100000000 random catalysts (cap 10000)"
    assert report["quantities"] == []
    assert elapsed < 1.0


def test_obs3_top_benchmark_rung_is_verified(capsys):
    assert main(["obs3", "--seeds", "200"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "verified"


@pytest.mark.parametrize("n, verdict", [(1, "verified"), (2, "falsified"), (3, "falsified")])
def test_corruption_reaches_past_one_level_registers(n, verdict, tmp_path, capsys):
    """On a 1 x 1 pair Alice's first input register has one level, where a
    rotation is only a phase; the hook rotates the first register with more
    than one level (the catalyst's, from n = 2). At n = 1 the input is
    one-dimensional and nothing can be perturbed."""
    rho, sigma = _product_pair_documents(tmp_path, 1, 1)
    argv = ["lemma1", "--rho", rho, "--sigma", sigma, "--n", str(n)]
    code = main(argv + ["--corrupt-epsilon", "0.3"])
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == verdict
    assert code == (0 if verdict == "verified" else 2)


def _one_line_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("qcatalyst: ")


def test_out_into_a_missing_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    _one_line_usage_error(main(["obs1", "--n", "1", "--out", str(target)]), capsys)
    assert os.listdir(tmp_path) == []


def test_out_onto_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    (tmp_path / "somedir").mkdir()
    code = main(["theorem", "--n", "1", "--out", str(tmp_path / "somedir")])
    _one_line_usage_error(code, capsys)
    assert os.listdir(tmp_path) == ["somedir"]
    assert os.listdir(tmp_path / "somedir") == []


@pytest.mark.parametrize(
    "payload",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-100000-deep"],
)
def test_undecodable_state_document_exits_one(payload, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(payload)
    _one_line_usage_error(main(["schmidt", "--input", str(path)]), capsys)


def test_cut_nested_too_deep_exits_one(tmp_path, capsys):
    path = tmp_path / "state.json"
    write_state(path, max_entangled(2, ("A", "B")))
    cut = "[" * 5000 + "]" * 5000
    _one_line_usage_error(main(["schmidt", "--input", str(path), "--cut", cut]), capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_corruption_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as err:
        main(["theorem", "--n", "1", f"--corrupt-epsilon={value}"])
    assert err.value.code == 1
    assert "must be finite" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    argv = ["lemma1", "--n", "4"]  # refused before anything large is built
    assert main(argv) == 2
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 2
    assert main(argv) == 2
    assert built == []

