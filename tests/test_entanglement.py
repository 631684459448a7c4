"""Schmidt rank, Schmidt-number certificates, entropies."""

import math
import tracemalloc

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    EnsembleBranch,
    Factor,
    OracleRefusal,
    QuantumState,
    Register,
    RegisterLayout,
    basis_product,
    conditional_entropy,
    max_entangled,
    schmidt_rank,
    sn_flagged_blocks,
    sn_orthogonal_mixture,
    tensor_states,
    von_neumann_entropy,
)
from qcatalyst.entanglement import _pencil_rank_one_elements
from qcatalyst.pipelines import separation_family
from qcatalyst.registers import matricize
from qcatalyst.sampling import random_pure_vector, rng


def _eigen_ensemble(state):
    """The state read back from its density matrix: a second decomposition."""
    return QuantumState.from_dense_matrix(state.densify().entries, state.layout)


def pure_ab(vec, da, db):
    lay = RegisterLayout((Register("A", da, ALICE), Register("B", db, BOB)))
    return QuantumState.pure(lay, vec)


def two_level_pair(p, labels=("A", "B")):
    """p * (|00>+|11>)/sqrt(2) mixture with |22> on a qutrit pair."""
    lay = RegisterLayout(
        (Register(labels[0], 3, ALICE), Register(labels[1], 3, BOB))
    )
    ent = np.zeros(9, dtype=np.complex128)
    ent[0] = ent[4] = 1.0 / math.sqrt(2.0)
    prod = np.zeros(9, dtype=np.complex128)
    prod[8] = 1.0
    return QuantumState.from_branches(
        lay,
        (
            EnsembleBranch(p, (Factor(tuple(labels), ent),)),
            EnsembleBranch(1.0 - p, (Factor(tuple(labels), prod),)),
        ),
    )


class TestSchmidtRank:
    def test_max_entangled_rank(self):
        for d in (2, 3, 4):
            assert schmidt_rank(max_entangled(d)).rank == d

    def test_product_rank_one(self):
        gen = rng(41)
        for _ in range(20):
            v = np.kron(random_pure_vector(3, gen), random_pure_vector(4, gen))
            assert schmidt_rank(pure_ab(v, 3, 4)).rank == 1

    def test_rank_multiplicative_under_tensor(self):
        gen = rng(42)
        for _ in range(30):
            da, db = (int(gen.integers(2, 4)) for _ in range(2))
            s1 = QuantumState.pure(
                RegisterLayout(
                    (Register("A1", da, ALICE), Register("B1", da, BOB))
                ),
                random_pure_vector(da * da, gen),
            )
            s2 = QuantumState.pure(
                RegisterLayout(
                    (Register("A2", db, ALICE), Register("B2", db, BOB))
                ),
                random_pure_vector(db * db, gen),
            )
            joint = tensor_states(s1, s2)
            assert (
                schmidt_rank(joint).rank
                == schmidt_rank(s1).rank * schmidt_rank(s2).rank
            )

    def test_rank_invariant_under_embedding(self):
        gen = rng(43)
        for _ in range(30):
            v = random_pure_vector(6, gen)
            st = pure_ab(v, 2, 3)
            big = pure_ab(np.pad(v.reshape(2, 3), ((0, 3), (0, 1))), 5, 4)
            assert schmidt_rank(big).rank == schmidt_rank(st).rank

    def test_sn_pure_equals_rank(self):
        # a pure state's Schmidt number is its Schmidt rank
        assert schmidt_rank(max_entangled(3)).rank == 3


class TestOrthogonalMixtureOracle:
    def test_half_half_mixture(self):
        cert = sn_orthogonal_mixture(two_level_pair(0.5))
        assert (cert.lower, cert.upper) == (2, 2)

    def test_p_grid(self):
        for p in np.linspace(0.01, 0.99, 99):
            cert = sn_orthogonal_mixture(two_level_pair(float(p)))
            assert (cert.lower, cert.upper) == (2, 2)

    def test_overlapping_supports_refused(self):
        # second component not locally orthogonal to the first
        lay = RegisterLayout((Register("A", 3, ALICE), Register("B", 3, BOB)))
        ent = np.zeros(9, dtype=np.complex128)
        ent[0] = ent[4] = 1.0 / math.sqrt(2.0)
        prod = np.zeros(9, dtype=np.complex128)
        prod[0] = 1.0  # |00> sits inside the entangled component's support
        mix = QuantumState.from_branches(
            lay,
            (
                EnsembleBranch(0.5, (Factor(("A", "B"), ent),)),
                EnsembleBranch(0.5, (Factor(("A", "B"), prod),)),
            ),
        )
        with pytest.raises(OracleRefusal):
            sn_orthogonal_mixture(mix)

    @pytest.mark.parametrize("dense", [False, True])
    def test_two_qubit_overlapping_supports_refused(self, dense):
        # 0.5|00><00| + 0.5|psi+><psi+|: the 2x2 pencil has a single minor
        lay = RegisterLayout((Register("A", 2, ALICE), Register("B", 2, BOB)))
        psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
        mix = QuantumState.from_branches(
            lay,
            (
                EnsembleBranch(0.5, basis_product(lay, (0, 0)).branches[0].factors),
                EnsembleBranch(0.5, (Factor(("A", "B"), psi),)),
            ),
        )
        with pytest.raises(OracleRefusal):
            sn_orthogonal_mixture(_eigen_ensemble(mix) if dense else mix)

    def test_rank_three_state_refused(self):
        with pytest.raises(OracleRefusal):
            sn_orthogonal_mixture(max_entangled(3))


def _orthogonal_components(d, rank, seed):
    """A product ket and a rank-``rank`` ket on a d x d pair whose local
    supports are orthogonal on both sides, both in random local bases."""
    gen = rng(seed)
    ua, ub = (
        np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))[0]
        for _ in range(2)
    )
    prod = np.kron(ua[:, 0], ub[:, 0])
    ent = sum(np.kron(ua[:, k], ub[:, k]) for k in range(1, rank + 1)) / math.sqrt(rank)
    return prod, ent


def _mixture(d, branches):
    lay = RegisterLayout((Register("A", d, ALICE), Register("B", d, BOB)))
    return QuantumState.from_branches(
        lay, tuple(EnsembleBranch(p, (Factor(("A", "B"), v),)) for p, v in branches)
    )


class TestCompressedPencil:
    """The pencil is restricted to the joint supports of its two matrices
    before any minor is formed; the certificates are the uncompressed ones."""

    def test_separation_target_peak_memory(self):
        # 27 x 27 Schmidt matrices: 123201 minor rows and a 17 MB peak
        # uncompressed, a rank <= 9 pencil compressed
        tau = separation_family(2).protocol.target
        tracemalloc.start()
        try:
            sn_orthogonal_mixture(tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize(
        "n, sn, weights", [(1, 4, (0.5, 0.5)), (2, 8, (2 / 3, 1 / 3))]
    )
    def test_separation_certificates_unchanged(self, n, sn, weights, dense):
        tau = separation_family(n).protocol.target
        cert = sn_orthogonal_mixture(_eigen_ensemble(tau) if dense else tau)
        assert (cert.lower, cert.upper, cert.method) == (
            sn,
            sn,
            "orthogonal-mixture-oracle",
        )
        assert cert.details["component_ranks"] == (1, sn)
        assert np.allclose(cert.details["weights"], weights, rtol=0, atol=1e-12)
        assert cert.details["decomposition_defect"] <= 1e-12

    @pytest.mark.parametrize("dense", [False, True])
    def test_rank_two_mixture_in_qudit_nine_registers(self, dense):
        prod, ent = _orthogonal_components(9, 2, seed=91)
        mix = _mixture(9, [(0.3, prod), (0.7, ent)])
        cert = sn_orthogonal_mixture(_eigen_ensemble(mix) if dense else mix)
        assert (cert.lower, cert.upper) == (2, 2)
        assert cert.details["component_ranks"] == (1, 2)
        assert np.allclose(cert.details["weights"], (0.3, 0.7), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dense", [False, True])
    def test_degenerate_weights_read_the_product_off_the_minors(self, dense):
        # p = 1/2: the support eigenbasis is arbitrary, and the branches are
        # (prod +- ent)/sqrt 2, neither of which is product
        prod, ent = _orthogonal_components(5, 3, seed=55)
        plus, minus = (prod + ent) / math.sqrt(2.0), (prod - ent) / math.sqrt(2.0)
        mix = _mixture(5, [(0.5, plus), (0.5, minus)])
        m1, m2 = (matricize(v, (5, 5), [0]) for v in (plus, minus))
        # prod = (plus + minus)/sqrt 2 is the pencil's only rank-one direction
        assert any(
            abs(a - b) <= 1e-9 * max(abs(a), abs(b))
            for a, b in _pencil_rank_one_elements(m1, m2)
        )
        cert = sn_orthogonal_mixture(_eigen_ensemble(mix) if dense else mix)
        assert (cert.lower, cert.upper) == (3, 3)
        assert cert.details["component_ranks"] == (1, 3)
        assert np.allclose(cert.details["weights"], (0.5, 0.5), rtol=0, atol=1e-12)


class TestFlaggedBlocks:
    def test_explicit_flags(self):
        lay = RegisterLayout(
            (
                Register("FA", 2, ALICE),
                Register("A", 2, ALICE),
                Register("FB", 2, BOB),
                Register("B", 2, BOB),
            )
        )
        ent = np.zeros(4, dtype=np.complex128)
        ent[0] = ent[3] = 1.0 / math.sqrt(2.0)
        prod = np.zeros(4, dtype=np.complex128)
        prod[0] = 1.0

        def flag(i):
            v = np.zeros(2, dtype=np.complex128)
            v[i] = 1.0
            return v

        st = QuantumState.from_branches(
            lay,
            (
                EnsembleBranch(
                    0.5,
                    (
                        Factor(("FA",), flag(0)),
                        Factor(("FB",), flag(0)),
                        Factor(("A", "B"), ent),
                    ),
                ),
                EnsembleBranch(
                    0.5,
                    (
                        Factor(("FA",), flag(1)),
                        Factor(("FB",), flag(1)),
                        Factor(("A", "B"), prod),
                    ),
                ),
            ),
        )
        # each flag value is a local support of its own block
        cert = sn_flagged_blocks(st)
        assert (cert.lower, cert.upper) == (2, 2)

    def test_implicit_flags_from_orthogonal_branches(self):
        cert = sn_flagged_blocks(two_level_pair(0.3))
        assert (cert.lower, cert.upper) == (2, 2)

    def test_non_orthogonal_branches_refused(self):
        lay = RegisterLayout((Register("A", 2, ALICE), Register("B", 2, BOB)))
        b00 = basis_product(lay, (0, 0)).branches[0].factors
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        other = (Factor(("A",), plus), Factor(("B",), np.array([1.0, 0.0])))
        st = QuantumState.from_branches(
            lay, (EnsembleBranch(0.5, b00), EnsembleBranch(0.5, other))
        )
        with pytest.raises(OracleRefusal):
            sn_flagged_blocks(st)


class TestEntropies:
    def test_entropy_of_pure_state_is_zero(self):
        assert von_neumann_entropy(max_entangled(2)) == pytest.approx(0.0, abs=1e-12)

    def test_entanglement_entropy_of_max_entangled(self):
        # the entropy of entanglement of a pure state is that of either half
        for d in (2, 3, 4):
            st = max_entangled(d)
            assert von_neumann_entropy(st.marginal(["A"])) == pytest.approx(
                math.log2(d), abs=1e-10
            )

    def test_conditional_entropy_classical_copy(self):
        # R copies B: H(R|B) = 0, H(R) = 1
        lay = RegisterLayout(
            (Register("B", 2, BOB), Register("R", 2, ALICE))
        )
        st = QuantumState.from_branches(
            lay,
            tuple(
                EnsembleBranch(
                    0.5,
                    (
                        Factor(("B",), _basis2(x)),
                        Factor(("R",), _basis2(x)),
                    ),
                )
                for x in (0, 1)
            ),
        )
        assert conditional_entropy(st, ["B"]) == pytest.approx(0.0, abs=1e-10)
        assert von_neumann_entropy(st.marginal(["R"])) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_conditional_entropy_negative_for_entangled(self):
        st = max_entangled(2)
        assert conditional_entropy(st, ["B"]) == pytest.approx(-1.0, abs=1e-10)


def _basis2(i):
    v = np.zeros(2, dtype=np.complex128)
    v[i] = 1.0
    return v
