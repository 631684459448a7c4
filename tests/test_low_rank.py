"""The low-rank route for ensemble metrics (QR of the branch kets), checked
against the dense routes of ``oracle``."""

import dataclasses

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    EnsembleBranch,
    Factor,
    QuantumState,
    Register,
    RegisterLayout,
    build_protocol,
    construct_converse,
    eig_hermitian,
    final_state,
    run_protocol,
    sn_orthogonal_mixture,
    trace_distance,
    von_neumann_entropy,
)
from qcatalyst import oracle
from qcatalyst.catalysis import _execute
from qcatalyst.pipelines import (
    perturbed_channel,
    pipeline_lemma1,
    pipeline_theorem,
    qutrit_pair_states,
    separation_family,
)
from qcatalyst.sampling import random_pure_vector, rng
from qcatalyst.registers import eigh_descending
from qcatalyst.states import signed_gram_core

AGREE_ATOL = 1e-12


def _eigen_ensemble(state):
    return QuantumState.from_dense_matrix(state.densify().entries, state.layout)


def _first_branch(state):
    """One branch of an ensemble as a pure state, a nonzero distance away."""
    branch = EnsembleBranch(1.0, state.branches[0].factors)
    return QuantumState(state.layout, branches=(branch,))


def _on(state, reference):
    """The marginal of ``state`` on ``reference``'s registers, in its order."""
    labels = reference.layout.labels
    return state.marginal(labels).permuted(labels)


def _assert_routes_agree(state, others, label):
    """Distances from ``state`` to each of ``others``, and every entropy, agree
    between the ensemble (low-rank) routes and the dense oracle."""
    for i, other in enumerate(others):
        low = trace_distance(state, other)
        ref = oracle.trace_distance(state, other)
        assert abs(low - ref) <= AGREE_ATOL, f"{label} [{i}]: {low!r} vs {ref!r}"
    for i, st in enumerate((state, *others)):
        s_low, s_ref = von_neumann_entropy(st), oracle.von_neumann_entropy(st)
        assert abs(s_low - s_ref) <= AGREE_ATOL, f"{label} [{i}]: entropy"


@pytest.mark.parametrize("corruption", [0.0, 1e-3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["explicit-flags", "support-measurement"])
def test_clo_outputs_and_catalysts_agree_with_dense(mode, n, corruption):
    rho, sigma = qutrit_pair_states()
    protocol = build_protocol(rho, sigma, n, mode)
    if corruption:
        protocol = dataclasses.replace(
            protocol,
            alice_channel=perturbed_channel(protocol.alice_channel, corruption),
        )
    joint = _execute(protocol, rho)
    label = f"{mode} n={n} corruption={corruption}"
    target = protocol.target
    output = _on(joint, target)
    _assert_routes_agree(output, [target, _first_branch(target)], f"{label} output")
    if protocol.catalyst.layout.labels:
        catalyst = protocol.catalyst
        _assert_routes_agree(
            _on(joint, catalyst), [catalyst, _first_branch(catalyst)], f"{label} catalyst"
        )
    if corruption:
        # the comparison saw a nonzero distance
        assert trace_distance(output, target) > 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_theorem_converse_agrees_with_dense(n):
    family = separation_family(n)
    rho, tau = family.protocol.rho, family.protocol.target
    converse = construct_converse(rho, tau, family.d_enough)
    tree = run_protocol(converse.protocol, rho)
    achieved, _ = final_state(tree, converse.postselect)
    target = converse.target
    _assert_routes_agree(achieved, [target, _first_branch(target)], f"converse n={n}")


@pytest.mark.parametrize("n", [1, 2])
def test_orthogonal_mixture_certificate_matches_dense(n):
    tau = separation_family(n).protocol.target
    low = sn_orthogonal_mixture(tau)
    dense = sn_orthogonal_mixture(_eigen_ensemble(tau))
    assert low == dense
    assert (low.lower, low.upper) == (2 ** (n + 1),) * 2


def test_qr_core_spectrum_matches_dense_eigendecomposition():
    gen = rng(20261017)
    layout = RegisterLayout((Register("A", 4, ALICE), Register("B", 5, BOB)))
    state = QuantumState.from_branches(
        layout,
        [
            EnsembleBranch(p, (Factor(layout.labels, random_pure_vector(20, gen)),))
            for p in (0.5, 0.3, 0.2)
        ],
    )
    q, core = signed_gram_core(*state.branch_kets())
    low = eigh_descending(core, basis=q)
    dense = eig_hermitian(state.densify())
    assert low.eigenvalues.shape == (3,)
    assert np.allclose(low.eigenvalues, dense.eigenvalues[:3], atol=AGREE_ATOL)
    assert np.allclose(low.eigenvectors, dense.eigenvectors[:, :3], atol=1e-10)
    assert state.is_approx_pure() is False
    assert _eigen_ensemble(state).is_approx_pure() is False


def test_metrics_never_densify_ensembles(monkeypatch):
    def refuse(self):
        raise AssertionError("densify called on the low-rank route")

    monkeypatch.setattr(QuantumState, "densify", refuse)
    assert pipeline_theorem(2).verdict == "verified"
    assert pipeline_lemma1(n=3).verdict == "verified"


def test_theorem_three_still_refused_at_the_dense_cap():
    report = pipeline_theorem(3)
    assert report.verdict == "refused"
    assert report.reason == "refusing to densify dimension 6561 (cap 2000)"
