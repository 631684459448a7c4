"""One Schmidt-rank rule: every Schmidt and local-support rank counts the
singular values of one cut of a ket above ``TOL.rank_rtol`` (1e-9) of the
largest, so ``schmidt_rank``, the flagged-block rule and the
orthogonal-mixture oracle agree.

The probe is the qutrit-pair ket (|00> + eps|11>) / norm, alone and mixed with
the product |22>, with or without a flag per party. Its second Schmidt
coefficient is eps: at 1e-6 it counts and every route gives 2, at 1e-12 it is
round-off and every route gives 1. A rule on squared singular values or on
marginal eigenvalues would count it only above about 3e-5, and give 1 at
1e-6.

The protocol compilers count at ``TOL.protocol_rank_rtol`` (1e-12) instead,
since a compiled protocol must reproduce every coefficient. At eps = 1e-10,
between the two cutoffs, the certificates give 1 and the compilers 2; one
cut routine serves both only because each call names its cutoff.
"""

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
    compile_catalyst_prep,
    filter_to_max_entangled,
    schmidt_rank,
    sn_flagged_blocks,
    sn_orthogonal_mixture,
)

RANKS = [(1e-6, 2), (1e-12, 1)]
WEIGHTS = [0.5, 0.3]


def _qutrit(k):
    return np.eye(3, dtype=np.complex128)[k]


def _probe(eps):
    vec = np.kron(_qutrit(0), _qutrit(0)) + eps * np.kron(_qutrit(1), _qutrit(1))
    return vec / np.linalg.norm(vec)


def _pair_layout():
    return RegisterLayout((Register("A", 3, ALICE), Register("B", 3, BOB)))


def _pure(eps):
    return QuantumState.pure(_pair_layout(), _probe(eps))


def _mixed(eps, w):
    return QuantumState.from_branches(
        _pair_layout(),
        (
            EnsembleBranch(w, (Factor(("A", "B"), _probe(eps)),)),
            EnsembleBranch(1.0 - w, (Factor(("A", "B"), np.kron(_qutrit(2), _qutrit(2))),)),
        ),
    )


def _flagged(eps, w):
    """The mixture with a qubit flag per party, |0>|0> on the probe branch
    and |1>|1> on the product branch."""
    layout = RegisterLayout(
        (
            Register("A", 3, ALICE),
            Register("FA", 2, ALICE),
            Register("B", 3, BOB),
            Register("FB", 2, BOB),
        )
    )
    branches = []
    for br, flag in zip(_mixed(eps, w).branches, np.eye(2)):
        flags = (Factor(("FA",), flag), Factor(("FB",), flag))
        branches.append(EnsembleBranch(br.probability, br.factors + flags))
    return QuantumState.from_branches(layout, branches)


@pytest.mark.parametrize("eps, rank", RANKS)
def test_pure_routes_agree(eps, rank):
    state = _pure(eps)
    assert schmidt_rank(state).rank == rank
    assert sn_flagged_blocks(state).upper == rank


@pytest.mark.parametrize(
    "route, rank",
    [
        (lambda st: schmidt_rank(st).rank, 1),
        (lambda st: sn_flagged_blocks(st).upper, 1),
        (lambda st: filter_to_max_entangled(st).schmidt_rank, 2),
        (lambda st: compile_catalyst_prep(st).protocol.quantum_dimension_used, 2),
    ],
    ids=["schmidt-rank", "flagged-block", "filtration", "catalyst-prep"],
)
def test_certificates_and_compilers_keep_their_own_cutoffs(route, rank):
    assert route(_pure(1e-10)) == rank


@pytest.mark.parametrize("w", WEIGHTS)
@pytest.mark.parametrize("eps, rank", RANKS)
def test_mixture_routes_agree(eps, rank, w):
    state = _mixed(eps, w)
    certs = {
        "implicit-flags": sn_flagged_blocks(state),
        "explicit-flags": sn_flagged_blocks(_flagged(eps, w)),
        "oracle-ensemble": sn_orthogonal_mixture(state),
        "oracle-eigen-ensemble": sn_orthogonal_mixture(
            QuantumState.from_dense_matrix(state.densify().entries, state.layout)
        ),
    }
    got = {name: (cert.lower, cert.upper) for name, cert in certs.items()}
    assert got == dict.fromkeys(certs, (rank, rank))
