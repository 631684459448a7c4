"""The copy-cycling catalyst: structure, exactness, sensitivity, dual routes."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    EnsembleBranch,
    Factor,
    ProtocolError,
    QuantumState,
    Register,
    RegisterLayout,
    ValidationError,
    apply_channel,
    build_protocol,
    max_entangled,
    basis_product,
    run_clo,
    run_protocol,
    sn_flagged_blocks,
    tensor_states,
)
from qcatalyst import catalysis, cli, oracle, pipelines, protocols, registers
from qcatalyst.pipelines import (
    pipeline_lemma1,
    pipeline_obs1,
    pipeline_theorem,
    qutrit_pair_states,
)
from qcatalyst.registers import require_dense
from qcatalyst.sampling import random_pure_vector, rng


@pytest.fixture(scope="module")
def pair():
    return qutrit_pair_states()


def random_pair(gen, da=3, db=3):
    lay = RegisterLayout((Register("A", da, ALICE), Register("B", db, BOB)))
    rho = QuantumState.pure(lay, random_pure_vector(da * db, gen))
    sigma = QuantumState.pure(
        lay, np.kron(random_pure_vector(da, gen), random_pure_vector(db, gen))
    )
    return rho, sigma


class TestCatalystStructure:
    def test_stage_count_and_weights(self, pair):
        rho, sigma = pair
        cat = build_protocol(rho, sigma, 3).catalyst
        assert len(cat.branches) == 3
        for br in cat.branches:
            assert br.probability == pytest.approx(1.0 / 3.0)

    def test_single_copy_catalyst_is_trivial(self, pair):
        rho, sigma = pair
        cat = build_protocol(rho, sigma, 1).catalyst
        assert cat.layout.total_dim == 1

    def test_explicit_flags_carry_matching_stage(self, pair):
        rho, sigma = pair
        cat = build_protocol(rho, sigma, 2, "explicit-flags").catalyst
        assert "FA" in cat.layout.labels and "FB" in cat.layout.labels
        for br in cat.branches:
            flags = {
                f.labels[0]: int(np.argmax(np.abs(f.vector)))
                for f in br.factors
                if f.labels[0] in ("FA", "FB")
            }
            assert flags["FA"] == flags["FB"]

    def test_support_mode_needs_orthogonality(self):
        gen = rng(51)
        rho, sigma = random_pair(gen)
        with pytest.raises(ProtocolError):
            build_protocol(rho, sigma, 2, "support-measurement")

    def test_mixed_input_rejected(self, pair):
        from qcatalyst import EnsembleBranch

        rho, sigma = pair
        mixed = QuantumState.from_branches(
            rho.layout,
            (
                EnsembleBranch(0.5, rho.branches[0].factors),
                EnsembleBranch(0.5, sigma.branches[0].factors),
            ),
        )
        with pytest.raises(ValidationError):
            build_protocol(mixed, sigma, 2)


class TestChannels:
    def test_channels_are_trace_preserving(self, pair):
        rho, sigma = pair
        for mode in ("support-measurement", "explicit-flags"):
            for n in (1, 2, 3):
                prot = build_protocol(rho, sigma, n, mode)
                assert prot.alice_channel.trace_preservation_defect() < 1e-12
                assert prot.bob_channel.trace_preservation_defect() < 1e-12

    def test_flag_advances_by_one_stage(self, pair):
        # at n=2 a flag stepping back is the same map, so this takes n=3
        rho, sigma = pair
        prot = build_protocol(rho, sigma, 3, "explicit-flags")
        for channel in (prot.alice_channel, prot.bob_channel):
            lin, lout = channel.layout_in, channel.layout_out
            flag = next(lab for lab in lin.labels if lab.startswith("F"))
            axes = [lout.index_of(flag), len(lout) + lin.index_of(flag)]
            for stage, k in enumerate(channel.kraus):
                t = np.moveaxis(k.reshape(lout.dims + lin.dims), axes, [0, 1])
                hit = np.abs(t).reshape(3, 3, -1).max(axis=2) > 0
                assert np.argwhere(hit).tolist() == [[(stage + 1) % 3, stage]]

    def test_exactness_all_n_support_mode(self, pair):
        rho, sigma = pair
        for n in (1, 2, 3):
            rep = run_clo(build_protocol(rho, sigma, n), rho)
            assert rep.mode == "support-measurement"
            assert rep.output_distance < 1e-10
            assert rep.restoration_distance < 1e-10

    def test_exactness_explicit_flags_random_pair(self):
        gen = rng(52)
        for trial in range(3):
            rho, sigma = random_pair(gen)
            prot = build_protocol(rho, sigma, 2)
            assert prot.mode == "explicit-flags"
            rep = run_clo(prot, rho)
            assert rep.output_distance < 1e-9
            assert rep.restoration_distance < 1e-9

    def test_catalyst_sn_matches_rank_power(self):
        gen = rng(53)
        rho, sigma = random_pair(gen)
        from qcatalyst import schmidt_rank

        r = schmidt_rank(rho).rank
        for n in (2, 3):
            rep = run_clo(build_protocol(rho, sigma, n), rho)
            assert (rep.catalyst_sn.lower, rep.catalyst_sn.upper) == (
                r ** (n - 1),
                r ** (n - 1),
            )

    def test_output_matches_target_fidelity_route(self, pair):
        # second route: fidelity with each pure component of the mixture
        rho, sigma = pair
        n = 2
        rep = run_clo(build_protocol(rho, sigma, n), rho)
        out = rep.output_state
        rho_vec = rho.to_vector()
        pairs = (Factor(("A1", "B1"), rho_vec), Factor(("A2", "B2"), rho_vec))
        comp_rho = QuantumState.from_branches(out.layout, (EnsembleBranch(1.0, pairs),))
        v = comp_rho.to_vector()
        f = sum(br.probability * abs(v.conj() @ out.branch_vector(br)) ** 2 for br in out.branches)
        assert f == pytest.approx(1.0 / n, abs=1e-10)

    def test_dense_and_ensemble_routes_agree(self, pair):
        # explicit flags at n=2 cover the flag advance; with flags, both
        # channels on a qutrit pair output dimension 2916, past the dense cap,
        # so there each channel is checked on its own
        cases = [
            (pair, "auto"),
            (pair, "explicit-flags"),
            (random_pair(rng(61)), "explicit-flags"),
        ]
        for (rho, sigma), mode in cases:
            prot = build_protocol(rho, sigma, 2, mode)
            joint_e = tensor_states(rho, prot.catalyst)
            runs = [[prot.alice_channel], [prot.bob_channel]]
            if mode == "auto":
                runs.append([prot.alice_channel, prot.bob_channel])
            for channels in runs:
                out_e, out_d = joint_e, joint_e.densify()
                for channel in channels:
                    out_e = apply_channel(channel, out_e)
                    ((_, _, out_d),) = oracle.apply_instrument(channel, out_d)
                dense = QuantumState.from_dense_matrix(out_d.entries, out_d.layout_out)
                assert oracle.trace_distance(out_e, dense) < 1e-9


class TestTarget:
    def test_mixture_target_weights(self, pair):
        rho, sigma = pair
        for n in (1, 2, 3):
            tau = build_protocol(rho, sigma, n).target
            probs = sorted(br.probability for br in tau.branches)
            if n == 1:
                assert probs == [pytest.approx(1.0)]
            else:
                assert probs[0] == pytest.approx(1.0 / n)
                assert probs[-1] == pytest.approx((n - 1.0) / n)

    def test_target_fidelity_with_double_pair(self, pair):
        # frozen: the two-copy mixture has fidelity 1/2 with the pure
        # double pair
        rho, sigma = pair
        tau = build_protocol(rho, sigma, 2).target
        rho_vec = rho.to_vector()
        pairs = (Factor(("A1", "B1"), rho_vec), Factor(("A2", "B2"), rho_vec))
        double = QuantumState.from_branches(tau.layout, (EnsembleBranch(1.0, pairs),))
        v = double.to_vector()
        f = sum(br.probability * abs(v.conj() @ tau.branch_vector(br)) ** 2 for br in tau.branches)
        assert f == pytest.approx(0.5, abs=1e-12)


class TestGuards:
    def test_wrong_input_refused(self, pair):
        rho, sigma = pair
        prot = build_protocol(rho, sigma, 2)
        with pytest.raises(ProtocolError):
            run_clo(prot, sigma)

    def test_sensitivity_report_frozen_value(self, pair):
        # running the two-copy cycle on sigma instead of rho leaves the
        # catalyst stuck at the all-sigma stage: distance exactly 1/2
        rho, sigma = pair
        prot = build_protocol(rho, sigma, 2)
        _, _, out_dist, restoration = catalysis._audit(prot, catalysis._execute(prot, sigma))
        assert restoration == pytest.approx(0.5, abs=1e-12)
        assert out_dist > 0.1

    def test_sigma_must_be_product(self, pair):
        rho, _ = pair
        with pytest.raises(ValidationError):
            build_protocol(rho, rho, 2)

    def test_entangled_catalyst_needs_entangled_input(self):
        # a product rho gives a product (rank-1) catalyst
        rho, sigma = qutrit_pair_states()
        lay = rho.layout
        prod = basis_product(lay, (0, 0))
        prot = build_protocol(prod, sigma, 3)
        rep = run_clo(prot, prod)
        assert (rep.catalyst_sn.lower, rep.catalyst_sn.upper) == (1, 1)
        assert rep.output_distance < 1e-10

    def test_larger_embedding_same_protocol(self):
        # the qutrit pair embedded into larger local spaces changes nothing
        layout = RegisterLayout((Register("A", 4, ALICE), Register("B", 4, BOB)))
        vec = np.zeros(16, dtype=np.complex128)
        vec[0] = vec[5] = 1.0 / np.sqrt(2.0)  # |00> + |11>
        big_rho = QuantumState.pure(layout, vec)
        big_sigma = basis_product(layout, (2, 2))
        rep = run_clo(build_protocol(big_rho, big_sigma, 2), big_rho)
        assert rep.output_distance < 1e-10
        assert rep.restoration_distance < 1e-10


def _joint(rho, protocol):
    (leaf,) = run_protocol(protocol.local_protocol, tensor_states(rho, protocol.catalyst)).leaves
    return leaf.state


def test_joint_state_availability(pair):
    rho, sigma = pair
    require_dense(_joint(rho, build_protocol(rho, sigma, 2)).layout.total_dim)
    joint3 = _joint(rho, build_protocol(rho, sigma, 3))
    with pytest.raises(ValidationError, match="cap 2000"):
        require_dense(joint3.layout.total_dim)
    # the joint is still usable as an ensemble even past the dense cap
    margin = joint3.marginal(["A1", "B1"])
    assert margin.layout.total_dim == 9


@pytest.mark.parametrize(
    "report, verdict, analyses",
    [
        (lambda: pipeline_lemma1(n=2), "verified", 1),
        (
            lambda: pipeline_lemma1(n=2, mode="explicit-flags", corruption=0.1),
            "falsified",
            1,
        ),
        (lambda: pipeline_obs1(n=2), "verified", 1),
        (lambda: pipeline_obs1(n=1), "verified", 1),
        (lambda: pipeline_theorem(1), "verified", 1),
    ],
    ids=["lemma1", "lemma1-flags-corrupted", "obs1", "obs1-n1", "theorem"],
)
def test_one_schmidt_analysis_per_protocol(monkeypatch, report, verdict, analyses):
    calls = []
    analyze = catalysis._analyze

    def counted(*args):
        calls.append(args[2:])
        return analyze(*args)

    monkeypatch.setattr(catalysis, "_analyze", counted)
    assert report().verdict == verdict
    assert len(calls) == analyses, calls


@pytest.mark.parametrize(
    "argv", [["theorem", "--n", "3"], ["lemma1", "--n", "4"]], ids=["theorem", "lemma1"]
)
def test_the_output_cap_refuses_before_any_svd(monkeypatch, capsys, argv):
    def no_svd(mat):
        raise AssertionError("an SVD ran before the output cap refused")

    monkeypatch.setattr(registers, "thin_svd", no_svd)
    assert cli.main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "refused"
    assert report["reason"] == "refusing to densify dimension 6561 (cap 2000)"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["explicit-flags", "support-measurement"])
def test_protocol_carries_its_target_and_certificate(pair, mode, n):
    # the target does not depend on how the stage is read
    rho, sigma = pair
    protocol = build_protocol(rho, sigma, n, mode)
    target = build_protocol(rho, sigma, n).target
    assert protocol.target.layout == target.layout
    assert len(protocol.target.branches) == len(target.branches)
    for got, want in zip(protocol.target.branches, target.branches):
        assert got.probability == want.probability
        assert [f.labels for f in got.factors] == [f.labels for f in want.factors]
        for f, g in zip(got.factors, want.factors):
            assert np.array_equal(f.vector, g.vector)
    cert = protocol.catalyst_sn
    if n == 1:
        assert (cert.lower, cert.upper) == (1, 1)
    else:
        assert cert == sn_flagged_blocks(protocol.catalyst)
    # a run reports the protocol's own target and certificate
    report = run_clo(protocol, rho)
    assert report.target_state is protocol.target
    assert report.catalyst_sn is protocol.catalyst_sn


def test_run_clo_has_no_switch_for_its_input_check():
    assert list(inspect.signature(run_clo).parameters) == ["protocol", "input_state"]


def test_corrupted_channel_is_built_and_checked_once(pair, monkeypatch):
    from qcatalyst import Instrument
    from qcatalyst.pipelines import perturbed_channel

    rho, sigma = pair
    channel = build_protocol(rho, sigma, 2, "explicit-flags").alice_channel
    built = []
    init = Instrument.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(Instrument, "__init__", counted)
    perturbed_channel(channel, 0.1)
    assert built == ["KrausChannel"]
    assert perturbed_channel(channel, 0.0) is channel


def test_each_channel_touches_only_its_own_party(pair):
    rho, sigma = pair
    protocol = build_protocol(rho, sigma, 2)
    swapped = dataclasses.replace(
        protocol, alice_channel=protocol.bob_channel, bob_channel=protocol.alice_channel
    )
    with pytest.raises(ProtocolError, match="cannot touch register 'B' owned by Bob"):
        run_clo(swapped, rho)


def _spy_on_protocol_runs(monkeypatch, modules):
    """Record every protocol run through ``run_protocol`` as bound in
    ``modules``."""
    runs = []

    def spy(protocol, *args, **kwargs):
        runs.append(protocol)
        return protocols.run_protocol(protocol, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "run_protocol", spy, raising=False)
    return runs


@pytest.mark.parametrize("mode", ["explicit-flags", "support-measurement"])
def test_clo_run_sends_nothing_and_broadcasts_nothing(pair, monkeypatch, mode):
    rho, sigma = pair
    protocol = build_protocol(rho, sigma, 2, mode)
    runs = _spy_on_protocol_runs(monkeypatch, [catalysis])
    report = run_clo(protocol, rho)
    assert report.output_distance < 1e-10
    (ran,) = runs
    assert [r.name for r in ran.rounds] == ["mix-a", "mix-b"]
    assert [r.kind for r in ran.rounds] == [protocols.LOCAL] * 2
    assert ran.broadcast_rounds == ()
    assert ran.quantum_dimension_used == 1


def test_obs1_runs_the_compiled_preparation_once(monkeypatch):
    runs = _spy_on_protocol_runs(monkeypatch, [catalysis, pipelines])
    assert pipeline_obs1(n=2).verdict == "verified"
    with_send = [p for p in runs if any(r.kind == protocols.SEND for r in p.rounds)]
    assert len(with_send) == 1

