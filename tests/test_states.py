"""States and their dense cross-checks, channels, instruments, serialization,
metrics."""

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    EnsembleBranch,
    Factor,
    Instrument,
    KrausChannel,
    QuantumState,
    Register,
    RegisterLayout,
    ValidationError,
    apply_channel,
    apply_instrument,
    basis_product,
    coalesce,
    max_entangled,
    partial_trace,
    permute_registers,
    tensor_states,
    trace_distance,
)
from qcatalyst import oracle
from qcatalyst.catalysis import _audit, _execute, build_protocol
from qcatalyst.pipelines import qutrit_pair_states
from qcatalyst.registers import EMPTY_LAYOUT
from qcatalyst.sampling import (
    random_channel,
    random_density_matrix,
    random_instrument,
    random_pure_vector,
    random_unitary,
    rng,
)


def layout_ab(da=2, db=2):
    return RegisterLayout((Register("A", da, ALICE), Register("B", db, BOB)))


def random_mixed_ensemble(layout, gen, branches=3):
    """Mixture of random pure product-factor branches on the layout."""
    probs = gen.dirichlet(np.ones(branches))
    out = []
    for p in probs:
        factors = tuple(
            Factor((r.label,), random_pure_vector(r.dim, gen))
            for r in layout.registers
        )
        out.append(EnsembleBranch(float(p), factors))
    return QuantumState.from_branches(layout, tuple(out))


class TestConstruction:
    def test_pure_normalization_enforced(self):
        lay = layout_ab()
        with pytest.raises(ValidationError):
            QuantumState.pure(lay, np.ones(4))

    def test_branch_probabilities_must_sum_to_one(self):
        lay = layout_ab()
        v = np.array([1, 0, 0, 0], dtype=np.complex128)
        branch = EnsembleBranch(0.7, (Factor(("A", "B"), v),))
        with pytest.raises(ValidationError):
            QuantumState.from_branches(lay, (branch,))

    def test_factor_labels_must_partition_layout(self):
        lay = layout_ab()
        v = np.array([1, 0], dtype=np.complex128)
        branch = EnsembleBranch(1.0, (Factor(("A",), v),))
        with pytest.raises(ValidationError):
            QuantumState.from_branches(lay, (branch,))

    def test_from_dense_requires_psd(self):
        lay = RegisterLayout((Register("A", 2, ALICE),))
        mat = np.diag([1.5, -0.5]).astype(np.complex128)
        with pytest.raises(ValidationError):
            QuantumState.from_dense_matrix(mat, lay)

    def test_max_entangled_marginal_is_uniform(self):
        st = max_entangled(3)
        red = st.marginal(["A"]).densify().entries
        np.testing.assert_allclose(red, np.eye(3) / 3, atol=1e-12)

    def test_basis_product(self):
        st = basis_product(layout_ab(2, 3), (1, 2))
        vec = st.to_vector()
        assert vec[1 * 3 + 2] == pytest.approx(1.0)

    def test_a_write_to_the_callers_array_leaves_the_factor_unchanged(self):
        v = np.zeros(4, dtype=np.complex128)
        v[0] = 1
        view = v[:]
        view.setflags(write=False)  # read-only, but v can still be written
        factors = [Factor(("A", "B"), v), Factor(("A", "B"), view)]
        v[3] = 1
        for f in factors:
            assert f.vector.tolist() == [1, 0, 0, 0]
            assert not f.vector.flags.writeable

    def test_a_read_only_array_is_taken_without_a_copy(self):
        # the package's kets come in read-only, so no hot path copies them
        v = np.zeros(4, dtype=np.complex128)
        v[2] = 1
        v.setflags(write=False)
        assert np.shares_memory(Factor(("A", "B"), v).vector, v)
        unitary = KrausChannel.from_unitary(random_unitary(4, rng(24)), layout_ab())
        (branch,) = apply_channel(unitary, basis_product(layout_ab(), (1, 0))).branches
        base = branch.factors[0].vector
        assert base.base is not None  # a view of the kernel's output, not a copy
        while isinstance(base, np.ndarray):
            assert not base.flags.writeable
            base = base.base


class TestRepresentations:
    def test_densify_matches_branch_mixture(self):
        gen = rng(21)
        lay = layout_ab(2, 3)
        st = random_mixed_ensemble(lay, gen)
        dense = st.densify().entries
        manual = np.zeros((6, 6), dtype=np.complex128)
        for br in st.branches:
            v = st.branch_vector(br)
            manual += br.probability * np.outer(v, v.conj())
        np.testing.assert_allclose(dense, manual, atol=1e-12)

    def test_as_ensemble_round_trip(self):
        gen = rng(22)
        lay = layout_ab(2, 2)
        mat = random_density_matrix(4, gen)
        st = QuantumState.from_dense_matrix(mat, lay)
        back = st.densify().entries  # st is the eigen-ensemble
        np.testing.assert_allclose(back, mat, atol=1e-10)

    def test_permuted_ensemble_matches_dense(self):
        gen = rng(23)
        lay = RegisterLayout(
            (
                Register("A", 2, ALICE),
                Register("B", 3, BOB),
                Register("C", 2, ALICE),
            )
        )
        st = random_mixed_ensemble(lay, gen)
        lhs = st.permuted(["C", "A", "B"]).densify().entries
        rhs = permute_registers(st.densify(), ["C", "A", "B"]).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_marginal_ensemble_matches_dense(self):
        gen = rng(24)
        lay = RegisterLayout(
            (
                Register("A", 2, ALICE),
                Register("B", 2, BOB),
                Register("C", 3, ALICE),
            )
        )
        for _ in range(10):
            # entangled factor straddling the kept/discarded split
            st = QuantumState.from_branches(
                lay,
                (
                    EnsembleBranch(
                        1.0,
                        (
                            Factor(("A", "C"), random_pure_vector(6, gen)),
                            Factor(("B",), random_pure_vector(2, gen)),
                        ),
                    ),
                ),
            )
            keep = ["A", "B"]
            lhs = st.marginal(keep).densify().entries
            rhs = partial_trace(st.densify(), ["C"]).entries
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_marginal_on_the_small_side_of_a_wide_split(self):
        # a 9 x 81 split of one 729-dim factor, factored through its
        # transpose, densifies to the dense route's partial trace
        gen = rng(25)
        lay = RegisterLayout((Register("A", 9, ALICE), Register("B", 81, BOB)))
        for _ in range(3):
            st = QuantumState.pure(lay, random_pure_vector(729, gen))
            lhs = st.marginal(["A"]).densify().entries
            rhs = partial_trace(st.densify(), ["B"]).entries
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


class TestSplitRoute:
    """A factor split goes through the reduced state of its short side, or of
    the side of its first register when the cut is square."""

    @staticmethod
    def single_factor(kept, dropped, rank, gen):
        lay = RegisterLayout((Register("K", kept, ALICE), Register("D", dropped, BOB)))
        if rank == "one":
            vec = np.kron(random_pure_vector(kept, gen), random_pure_vector(dropped, gen))
        else:
            vec = random_pure_vector(kept * dropped, gen)
        return QuantumState.pure(lay, vec)

    @staticmethod
    def check_options(marginal, rank, kept, dropped):
        probs = [br.probability for br in marginal.branches]
        assert len(probs) == (1 if rank == "one" else min(kept, dropped))
        assert probs == sorted(probs, reverse=True)

    @pytest.mark.parametrize("rank", ["one", "full"])
    @pytest.mark.parametrize("kept, dropped", [(27, 54), (54, 27)])
    def test_marginal_matches_the_dense_partial_trace(self, kept, dropped, rank):
        st = self.single_factor(kept, dropped, rank, rng(26))
        marg = st.marginal(["K"])
        self.check_options(marg, rank, kept, dropped)
        rhs = partial_trace(st.densify(), ["D"]).entries
        np.testing.assert_allclose(marg.densify().entries, rhs, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "kept, dropped, rank",
        [
            (81, 729, "one"),
            (81, 729, "full"),
            (729, 81, "one"),
            (729, 81, "full"),
            (729, 729, "one"),
        ],
    )
    def test_benchmark_shaped_splits_match_the_reduced_state(self, kept, dropped, rank):
        # the whole state is past the dense cap, so the reference is the
        # reduced state summed over the dropped index of the ket; 729 x 729 of
        # rank one is the explicit-flags n=3 split
        st = self.single_factor(kept, dropped, rank, rng(27))
        marg = st.marginal(["K"])
        self.check_options(marg, rank, kept, dropped)
        psi = st.branches[0].factors[0].vector.reshape(kept, dropped)
        rhs = np.einsum("id,jd->ij", psi, psi.conj())
        np.testing.assert_allclose(marg.densify().entries, rhs, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kept, dropped", [(3, 5), (5, 3), (5, 5)])
    def test_weights_are_cut_at_the_probability_floor(self, kept, dropped):
        # Schmidt weights 1e-11 and 1e-13 sit either side of the 1e-12 floor,
        # on the decomposed side of the cut and on the side mapped from it
        gen = rng(28)
        weights = np.array([1 - 1e-11 - 1e-13, 1e-11, 1e-13])
        core = np.zeros((kept, dropped), dtype=np.complex128)
        core[range(3), range(3)] = np.sqrt(weights)
        psi = random_unitary(kept, gen) @ core @ random_unitary(dropped, gen).T
        lay = RegisterLayout((Register("K", kept, ALICE), Register("D", dropped, BOB)))
        st = QuantumState.pure(lay, psi.reshape(-1))
        for side in ("K", "D"):
            probs = np.array([br.probability for br in st.marginal([side]).branches])
            np.testing.assert_allclose(probs, weights[:2], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rank", ["one", "full"])
    def test_a_marginal_keeps_no_decomposition_alive(self, rank):
        # a ket views at most the kept options of its cut: at rank one, no
        # array larger than itself
        st = self.single_factor(27, 27, rank, rng(29))
        for side in ("K", "D"):
            marg = st.marginal([side])
            for br in marg.branches:
                vec = base = br.factors[0].vector
                while isinstance(base, np.ndarray):
                    assert base.nbytes <= vec.nbytes * len(marg.branches)
                    base = base.base

    @pytest.mark.parametrize("kept, dropped, calls", [(9, 81, 0), (81, 9, 0)])
    def test_only_square_splits_call_thin_svd(self, monkeypatch, kept, dropped, calls):
        # no split calls it, nor any SVD; the square case is in TestShortSideReuse
        seen = []
        real = np.linalg.svd

        def counting(mat, **kwargs):
            seen.append(mat.shape)
            return real(mat, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        self.single_factor(kept, dropped, "full", rng(30)).marginal(["K"])
        assert len(seen) == calls


class TestShortSideReuse:
    """A rectangular factor's short-side reduced state is decomposed once per
    cut; both marginals across that cut read its eigenpairs."""

    @staticmethod
    def counting_eigh(monkeypatch):
        seen = []
        real = np.linalg.eigh

        def counting(mat):
            seen.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return seen

    def check_either_order(self, monkeypatch, short_dim, long_dim):
        # "S" is the short side, or the first register of a square factor
        psi = random_pure_vector(short_dim * long_dim, rng(31))
        lay = RegisterLayout((Register("S", short_dim, ALICE), Register("L", long_dim, BOB)))
        mat = psi.reshape(short_dim, long_dim)
        reduced = {"S": mat @ mat.conj().T, "L": mat.T @ mat.conj()}
        seen = self.counting_eigh(monkeypatch)

        def split_both(order):
            st = QuantumState.pure(lay, psi)  # a fresh state, so a fresh factor
            seen.clear()
            margs = {side: st.marginal([side]) for side in order}
            assert seen == [(short_dim, short_dim)]  # one decomposition per cut
            return margs

        got, other = split_both(["L", "S"]), split_both(["S", "L"])
        for side, want in reduced.items():
            for a, b in zip(got[side].branches, other[side].branches, strict=True):
                assert a.probability == b.probability
                assert np.array_equal(a.factors[0].vector, b.factors[0].vector)
            for margs in (got, other):
                np.testing.assert_allclose(
                    margs[side].densify().entries, want, rtol=0, atol=1e-14
                )
        # the decomposed side's options are the eigenpairs of S S^dagger as they are
        lam, vecs = np.linalg.eigh(reduced["S"])
        for j, br in enumerate(got["S"].branches):
            assert br.probability == float(lam[::-1][j])
            assert np.array_equal(br.factors[0].vector, vecs[:, ::-1][:, j])
        return QuantumState.pure(lay, psi), got

    def test_either_order_gives_the_same_marginals(self, monkeypatch):
        self.check_either_order(monkeypatch, 27, 243)

    def test_a_square_factor_takes_one_eigh_for_both_sides(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("a square split ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        st, margs = self.check_either_order(monkeypatch, 27, 27)
        for side, dropped in (("S", ["L"]), ("L", ["S"])):
            want = partial_trace(st.densify(), dropped).entries
            np.testing.assert_allclose(margs[side].densify().entries, want, rtol=0, atol=1e-14)

    def test_the_cut_is_told_apart_by_its_register_dims(self):
        # one factor on the same labels, read under two layouts of the same size
        psi = random_pure_vector(36, rng(32))
        factor = Factor(("K", "D"), psi)
        for kept, dropped in [(2, 18), (3, 12)]:
            lay = RegisterLayout((Register("K", kept, ALICE), Register("D", dropped, BOB)))
            st = QuantumState.from_branches(lay, (EnsembleBranch(1.0, (factor,)),))
            mat = psi.reshape(kept, dropped)
            for side, want in (("K", mat @ mat.conj().T), ("D", mat.T @ mat.conj())):
                got = st.marginal([side]).densify().entries
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_a_catalytic_audit_decomposes_each_short_side_once(self, monkeypatch):
        # three branches after the n=3 run, each split for the output and
        # again for the catalyst across the same cut
        rho, sigma = qutrit_pair_states()
        protocol = build_protocol(rho, sigma, 3, "support-measurement")
        joint = _execute(protocol, rho)
        seen = self.counting_eigh(monkeypatch)
        out_dist, restoration = _audit(protocol, joint)
        assert len(seen) == 3
        assert out_dist <= 1e-12 and restoration <= 1e-12


class TestSerialization:
    def test_ensemble_json_round_trip(self):
        gen = rng(26)
        lay = layout_ab(2, 3)
        st = random_mixed_ensemble(lay, gen)
        back = QuantumState.from_json(st.to_json())
        assert trace_distance(st, back) < 1e-10
        assert back.layout == lay

    def test_dense_json_round_trip(self):
        gen = rng(27)
        lay = layout_ab(2, 2)
        mat = random_density_matrix(4, gen)
        st = QuantumState.from_dense_matrix(mat, lay)
        back = QuantumState.from_json(st.to_json())
        np.testing.assert_allclose(back.densify().entries, mat, atol=1e-12)

    def test_channel_json_round_trip(self):
        gen = rng(28)
        lay = layout_ab(2, 2)
        ch = random_channel(lay, lay, gen)
        back = Instrument.from_json(ch.to_json())
        assert type(back) is Instrument and back.layout_in == ch.layout_in
        ((label, kraus),) = back.branches
        assert label == "ok"
        for k1, k2 in zip(ch.kraus, kraus):
            np.testing.assert_allclose(k1, k2, atol=1e-12)

    def test_instrument_json_round_trip(self):
        gen = rng(29)
        lay = RegisterLayout((Register("A", 3, ALICE),))
        inst = random_instrument(lay, gen, outcomes=3)
        back = Instrument.from_json(inst.to_json())
        assert [o for o, _ in back.branches] == [o for o, _ in inst.branches]


class TestChannels:
    def test_trace_preservation_enforced(self):
        lay = RegisterLayout((Register("A", 2, ALICE),))
        half = np.eye(2) * 0.5
        with pytest.raises(ValidationError):
            KrausChannel([half], lay, lay)

    def test_unitary_channel_on_dense_and_ensemble(self):
        gen = rng(30)
        lay = layout_ab(2, 2)
        u = random_unitary(2, gen)
        reg_a = RegisterLayout((Register("A", 2, ALICE),))
        ch = KrausChannel.from_unitary(u, reg_a)
        st = QuantumState.pure(lay, random_pure_vector(4, gen))
        out_e = apply_channel(ch, st)
        ((_, _, out_d),) = oracle.apply_instrument(ch, st.densify())
        ordered = out_e.permuted(out_d.layout_out.labels)
        np.testing.assert_allclose(ordered.densify().entries, out_d.entries, atol=1e-10)

    def test_random_channel_routes_agree(self):
        gen = rng(31)
        for _ in range(20):
            lay = RegisterLayout(
                (
                    Register("A", int(gen.integers(2, 4)), ALICE),
                    Register("B", int(gen.integers(2, 4)), BOB),
                )
            )
            st = random_mixed_ensemble(lay, gen)
            target = RegisterLayout((lay.registers[0],))
            out_lay = RegisterLayout((Register("A2", 2, ALICE),))
            ch = random_channel(target, out_lay, gen, kraus_count=3)
            lhs = apply_channel(ch, st)
            ((_, _, rhs),) = oracle.apply_instrument(ch, st.densify())
            np.testing.assert_allclose(
                lhs.permuted(rhs.layout_out.labels).densify().entries,
                rhs.entries,
                atol=1e-9,
            )

    def test_preparation_channel(self):
        lay = RegisterLayout((Register("X", 2, ALICE),))
        ch = KrausChannel.preparation(np.array([0, 1.0]), lay)
        st = apply_channel(ch, QuantumState.empty(), targets=())
        assert st.to_vector()[1] == pytest.approx(1.0)

    def test_destructive_measurement_channel(self):
        # trace out a register by a complete row-vector Kraus family
        lay = RegisterLayout((Register("A", 2, ALICE),))
        from qcatalyst.registers import EMPTY_LAYOUT

        kraus = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        ch = KrausChannel(kraus, lay, EMPTY_LAYOUT)
        st = max_entangled(2, ("A", "B"))
        out = apply_channel(ch, st, targets=("A",))
        red = out.densify().entries
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-12)


class TestInstruments:
    def test_outcome_probabilities_sum_to_one(self):
        gen = rng(32)
        lay = RegisterLayout((Register("A", 4, ALICE),))
        st = QuantumState.pure(lay, random_pure_vector(4, gen))
        inst = random_instrument(lay, gen, outcomes=3)
        results = apply_instrument(inst, st)
        total = sum(p for _, p, _ in results)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_projective_measurement_statistics(self):
        lay = RegisterLayout((Register("A", 2, ALICE),))
        v = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=np.complex128)
        st = QuantumState.pure(lay, v)
        proj = [
            ("0", [np.diag([1.0, 0.0]).astype(np.complex128)]),
            ("1", [np.diag([0.0, 1.0]).astype(np.complex128)]),
        ]
        inst = Instrument(proj, lay, lay)
        results = dict(
            (label, p) for label, p, _ in apply_instrument(inst, st)
        )
        assert results["0"] == pytest.approx(0.3, abs=1e-12)
        assert results["1"] == pytest.approx(0.7, abs=1e-12)

    def test_incomplete_instrument_rejected(self):
        lay = RegisterLayout((Register("A", 2, ALICE),))
        with pytest.raises(ValidationError):
            Instrument(
                [("0", [np.diag([1.0, 0.0]).astype(np.complex128)])], lay, lay
            )


class TestMetrics:
    def test_fidelity_of_mixture_with_component(self):
        # mixture of two orthogonal products against one of them
        lay = layout_ab(2, 2)
        b00 = basis_product(lay, (0, 0))
        b11 = basis_product(lay, (1, 1))
        mix = QuantumState.from_branches(
            lay,
            (
                EnsembleBranch(0.25, b00.branches[0].factors),
                EnsembleBranch(0.75, b11.branches[0].factors),
            ),
        )
        v = b00.to_vector()
        f = sum(br.probability * abs(v.conj() @ mix.branch_vector(br)) ** 2 for br in mix.branches)
        assert f == pytest.approx(0.25, abs=1e-12)

    def test_to_vector_reads_several_branches_through_their_core(self):
        # one ket written as two equal-phase branches is pure; two distinct
        # kets are not
        gen = rng(38)
        lay = layout_ab(2, 3)
        v = random_pure_vector(6, gen)
        twice = tuple(EnsembleBranch(p, (Factor(("A", "B"), v),)) for p in (0.4, 0.6))
        got = QuantumState.from_branches(lay, twice).to_vector()
        np.testing.assert_allclose(
            np.outer(got, got.conj()), np.outer(v, v.conj()), rtol=0, atol=1e-12
        )
        mixed = random_mixed_ensemble(lay, gen, branches=2)
        with pytest.raises(ValidationError, match="not pure"):
            mixed.to_vector()

    @pytest.mark.parametrize("eps, pure", [(6e-10, False), (1e-11, True)])
    def test_to_vector_and_is_approx_pure_share_one_rule(self, eps, pure):
        # weights (1 - eps, eps) on |00> and |11>: the top eigenvalue 1 - eps
        # is within purity_atol of 1 at both eps, but tr rho^2 ~ 1 - 2 eps,
        # the quantity purity_atol bounds, is not at eps = 6e-10
        lay = layout_ab(2, 2)
        st = QuantumState.from_branches(
            lay,
            (
                EnsembleBranch(1.0 - eps, basis_product(lay, (0, 0)).branches[0].factors),
                EnsembleBranch(eps, basis_product(lay, (1, 1)).branches[0].factors),
            ),
        )
        assert st.is_approx_pure() is pure
        if pure:
            assert abs(st.to_vector()[0]) == pytest.approx(1.0, abs=1e-10)
        else:
            with pytest.raises(ValidationError, match="not pure"):
                st.to_vector()

    def test_trace_distance_extremes(self):
        lay = layout_ab(2, 2)
        b00 = basis_product(lay, (0, 0))
        b11 = basis_product(lay, (1, 1))
        assert trace_distance(b00, b00) < 1e-12
        assert trace_distance(b00, b11) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_states_probability_product(self):
        gen = rng(33)
        lay1 = RegisterLayout((Register("A", 2, ALICE),))
        lay2 = RegisterLayout((Register("B", 2, BOB),))
        s1 = random_mixed_ensemble(lay1, gen, branches=2)
        s2 = random_mixed_ensemble(lay2, gen, branches=2)
        joint = tensor_states(s1, s2)
        dense = np.kron(s1.densify().entries, s2.densify().entries)
        np.testing.assert_allclose(joint.densify().entries, dense, atol=1e-12)


class TestCoalesce:
    """``coalesce`` merges branches equal up to a phase on each factor,
    deciding by the factors' vector gaps, never by overlaps."""

    def _two_factor_branch(self, p, a, b):
        return EnsembleBranch(p, (Factor(("A",), a), Factor(("B",), b)))

    def test_phase_rotated_copies_merge_and_add_probabilities(self):
        gen = rng(34)
        lay = layout_ab(3, 2)
        a, b = random_pure_vector(3, gen), random_pure_vector(2, gen)
        other = random_pure_vector(3, gen)
        st = QuantumState.from_branches(
            lay,
            (
                self._two_factor_branch(0.2, a, b),
                self._two_factor_branch(0.3, other, b),
                self._two_factor_branch(0.5, np.exp(0.3j) * a, np.exp(-1.1j) * b),
            ),
        )
        merged = coalesce(st)
        assert [br.probability for br in merged.branches] == pytest.approx([0.7, 0.3])
        assert merged.branches[0].factors is st.branches[0].factors
        assert trace_distance(merged, st) < 1e-14

    def test_factor_off_by_1e8_is_kept_apart(self):
        gen = rng(35)
        lay = layout_ab(4, 2)
        a, b = random_pure_vector(4, gen), random_pure_vector(2, gen)
        tilt = random_pure_vector(4, gen)
        tilt = tilt - np.vdot(a, tilt) * a
        near = a + 1e-8 * tilt / np.linalg.norm(tilt)
        near /= np.linalg.norm(near)
        # an overlap test cannot see this factor move: |<a|near>| = 1 - 5e-17
        assert abs(np.vdot(a, near)) > 1 - 1e-15
        st = QuantumState.from_branches(
            lay,
            (self._two_factor_branch(0.5, a, b), self._two_factor_branch(0.5, near, b)),
        )
        assert len(coalesce(st).branches) == 2

    def test_different_factor_groupings_never_merge(self):
        gen = rng(36)
        lay = layout_ab(2, 3)
        a, b = random_pure_vector(2, gen), random_pure_vector(3, gen)
        # one state under three groupings: a product, one joint factor, and
        # the product with its factors in the other order
        st = QuantumState.from_branches(
            lay,
            (
                self._two_factor_branch(0.3, a, b),
                EnsembleBranch(0.3, (Factor(("A", "B"), np.kron(a, b)),)),
                EnsembleBranch(0.4, (Factor(("B",), b), Factor(("A",), a))),
            ),
        )
        assert coalesce(st) is st

    def test_interleaved_classes_keep_their_first_branch_and_order(self):
        gen = rng(38)
        lay = layout_ab(3, 2)
        a, c = random_pure_vector(3, gen), random_pure_vector(3, gen)
        b = random_pure_vector(2, gen)
        st = QuantumState.from_branches(
            lay,
            (
                self._two_factor_branch(0.1, c, b),
                self._two_factor_branch(0.2, a, b),
                self._two_factor_branch(0.3, 1j * c, b),
                self._two_factor_branch(0.4, -a, b),
            ),
        )
        merged = coalesce(st)
        assert [br.probability for br in merged.branches] == pytest.approx([0.4, 0.6])
        assert merged.branches[0].factors is st.branches[0].factors
        assert merged.branches[1].factors is st.branches[1].factors

    def test_branches_without_factors_are_one_branch(self):
        st = QuantumState(EMPTY_LAYOUT, (EnsembleBranch(0.25, ()), EnsembleBranch(0.75, ())))
        (only,) = coalesce(st).branches
        assert only.probability == pytest.approx(1.0, abs=1e-15)

    def test_dense_state_passes_through(self):
        gen = rng(37)
        lay = layout_ab(2, 2)
        dense = QuantumState.from_dense_matrix(random_density_matrix(4, gen), lay)
        assert coalesce(dense) is dense
