"""Layouts, dense operators, register permutation, partial trace, SVD cuts."""

import time

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    REFEREE,
    EnsembleBranch,
    Factor,
    LayoutError,
    MultipartiteOperator,
    QuantumState,
    Register,
    RegisterLayout,
    ValidationError,
    eig_hermitian,
    partial_trace,
    permute_registers,
    resolve_cut,
    svd_across_cut,
)
from qcatalyst.oracle import tensor_product
from qcatalyst.registers import TOL, require_dense, thin_svd
from qcatalyst.sampling import random_density_matrix, random_pure_vector, rng


def layout_ab(da=2, db=3):
    return RegisterLayout((Register("A", da, ALICE), Register("B", db, BOB)))


class TestLayouts:
    def test_basic_accessors(self):
        lay = layout_ab(2, 3)
        assert lay.labels == ("A", "B")
        assert lay.dims == (2, 3)
        assert lay.total_dim == 6
        assert lay.index_of("B") == 1
        assert lay.party_of("A") == ALICE
        assert lay.party_labels(BOB) == ("B",)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout((Register("A", 2, ALICE), Register("A", 2, BOB)))

    def test_bad_dim_rejected(self):
        with pytest.raises(LayoutError):
            Register("A", 0, ALICE)

    def test_numpy_integer_dims_do_not_wrap_at_64_bits(self):
        regs = tuple(Register(lab, np.int64(2**32), ALICE) for lab in ("A", "B"))
        assert all(type(r.dim) is int for r in regs)
        total = RegisterLayout(regs).total_dim
        assert total == 2**64
        with pytest.raises(ValidationError, match=f"densify dimension {2**64}"):
            require_dense(total)

    def test_refusals_name_a_size_up_to_2_64_in_full(self):
        with pytest.raises(ValidationError) as square:
            require_dense(2**64)
        assert str(square.value) == (
            "refusing to densify dimension 18446744073709551616 (cap 2000)"
        )
        with pytest.raises(ValidationError) as power:
            require_dense(3, 50)
        assert str(power.value) == "refusing to densify dimension 3^50 (cap 2000)"

    def test_refusals_never_print_an_integer_past_2_64(self):
        # 2^15000 has 4516 digits, past Python's int-to-str limit of 4300
        huge = 2**15000
        with pytest.raises(ValidationError) as square:
            require_dense(huge)
        assert str(square.value) == (
            "refusing to densify dimension <15001 bits> (cap 2000)"
        )
        with pytest.raises(ValidationError) as cols:
            require_dense(huge, cols=1)
        assert str(cols.value) == (
            "refusing to build a <15001 bits>x1 operator (cap 2000^2 entries)"
        )
        with pytest.raises(ValidationError) as power:
            require_dense(2**70, 3, cols=huge)
        assert str(power.value) == (
            "refusing to build a <71 bits>^3x<15001 bits> operator "
            "(cap 2000^2 entries)"
        )

    def test_unknown_party_rejected(self):
        with pytest.raises(LayoutError):
            Register("A", 2, "Charlie")

    def test_subset_keeps_layout_order(self):
        lay = RegisterLayout(
            (
                Register("X", 2, ALICE),
                Register("Y", 2, BOB),
                Register("Z", 2, ALICE),
            )
        )
        assert lay.subset(["Z", "X"]).labels == ("X", "Z")

    def test_permuted(self):
        lay = layout_ab()
        assert lay.permuted(["B", "A"]).labels == ("B", "A")
        with pytest.raises(LayoutError):
            lay.permuted(["A"])

    def test_json_round_trip(self):
        lay = RegisterLayout(
            (
                Register("A", 2, ALICE),
                Register("R", 5, REFEREE),
            )
        )
        assert RegisterLayout.from_json(lay.to_json()) == lay

    def test_unknown_label_lookups_are_refused(self):
        lay = layout_ab()
        assert "C" not in lay and "B" in lay
        with pytest.raises(LayoutError, match="no register labelled 'C'"):
            lay["C"]
        with pytest.raises(LayoutError, match="no register labelled 'C'"):
            lay.index_of("C")

    def test_label_lookups_do_not_scan_the_layout(self):
        # from_branches looks up every factor label once; with a scan per
        # lookup, 20 000 one-qubit registers take tens of seconds
        lay = RegisterLayout(
            tuple(Register(f"q{i}", 2, ALICE) for i in range(20_000))
        )
        zero = np.array([1.0, 0.0])
        branch = EnsembleBranch(1.0, tuple(Factor((lab,), zero) for lab in lay.labels))
        start = time.perf_counter()
        QuantumState.from_branches(lay, (branch,))
        assert time.perf_counter() - start < 2.0


class TestPermuteAndTrace:
    def test_permute_ket_matches_manual_reshape(self):
        gen = rng(3)
        lay = RegisterLayout(
            (
                Register("A", 2, ALICE),
                Register("B", 3, BOB),
                Register("C", 4, ALICE),
            )
        )
        v = random_pure_vector(24, gen)
        ket = MultipartiteOperator.ket(v, lay)
        moved = permute_registers(ket, ["C", "A", "B"])
        manual = v.reshape(2, 3, 4).transpose(2, 0, 1).reshape(-1)
        np.testing.assert_allclose(moved.entries.reshape(-1), manual, atol=1e-12)

    def test_permute_square_is_conjugation(self):
        gen = rng(4)
        lay = layout_ab(2, 3)
        mat = random_density_matrix(6, gen)
        op = MultipartiteOperator.square(mat, lay)
        back = permute_registers(permute_registers(op, ["B", "A"]), ["A", "B"])
        np.testing.assert_allclose(back.entries, mat, atol=1e-12)

    def test_partial_trace_of_product(self):
        gen = rng(5)
        a = random_density_matrix(2, gen)
        b = random_density_matrix(3, gen)
        op = MultipartiteOperator.square(np.kron(a, b), layout_ab(2, 3))
        red = partial_trace(op, ["B"])
        np.testing.assert_allclose(red.entries, a, atol=1e-12)
        red_b = partial_trace(op, ["A"])
        np.testing.assert_allclose(red_b.entries, b, atol=1e-12)

    def test_partial_trace_keeps_trace(self):
        gen = rng(6)
        lay = RegisterLayout(
            (
                Register("A", 2, ALICE),
                Register("B", 2, BOB),
                Register("C", 3, ALICE),
            )
        )
        mat = random_density_matrix(12, gen)
        op = MultipartiteOperator.square(mat, lay)
        red = partial_trace(op, ["A", "C"])
        assert abs(red.trace() - 1.0) < 1e-12

    def test_tensor_product_labels_disjoint(self):
        a = MultipartiteOperator.square(np.eye(2) / 2, RegisterLayout((Register("A", 2, ALICE),)))
        with pytest.raises(LayoutError):
            tensor_product(a, a)


class TestEig:
    def test_eigendecomposition_reconstructs(self):
        gen = rng(7)
        for _ in range(25):
            d = int(gen.integers(2, 9))
            mat = random_density_matrix(d, gen)
            lay = RegisterLayout((Register("A", d, ALICE),))
            spec = eig_hermitian(MultipartiteOperator.square(mat, lay))
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            np.testing.assert_allclose(rebuilt, mat, atol=1e-9)
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_non_hermitian_rejected(self):
        lay = RegisterLayout((Register("A", 2, ALICE),))
        mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        with pytest.raises(ValidationError):
            eig_hermitian(MultipartiteOperator.square(mat, lay))


class TestCuts:
    def test_default_cut_by_party(self):
        lay = RegisterLayout(
            (
                Register("B", 2, BOB),
                Register("A", 2, ALICE),
                Register("C", 2, ALICE),
            )
        )
        left, right = resolve_cut(lay, None)
        assert left == ["A", "C"] and right == ["B"]

    def test_referee_needs_explicit_side(self):
        lay = RegisterLayout(
            (
                Register("A", 2, ALICE),
                Register("B", 2, BOB),
                Register("R", 2, REFEREE),
            )
        )
        with pytest.raises(LayoutError):
            resolve_cut(lay, None)
        left, right = resolve_cut(lay, {"R": "right"})
        assert right == ["B", "R"]

    def test_svd_reconstructs_ket(self):
        gen = rng(8)
        for _ in range(25):
            da = int(gen.integers(2, 5))
            db = int(gen.integers(2, 5))
            lay = layout_ab(da, db)
            v = random_pure_vector(da * db, gen)
            dec = svd_across_cut(v, lay, rtol=TOL.rank_rtol)
            rebuilt = np.zeros(da * db, dtype=np.complex128)
            for k, s in enumerate(dec.singular_values):
                rebuilt += s * np.kron(dec.left_basis[:, k], dec.right_basis[:, k])
            np.testing.assert_allclose(rebuilt, v, atol=1e-10)

    def test_svd_of_product_is_rank_one(self):
        gen = rng(9)
        lay = layout_ab(3, 3)
        v = np.kron(random_pure_vector(3, gen), random_pure_vector(3, gen))
        dec = svd_across_cut(v, lay, rtol=TOL.rank_rtol)
        assert dec.singular_values[0] == pytest.approx(1.0, abs=1e-12)
        assert dec.singular_values[1] < 1e-12

    def test_unnormalized_ket_rejected(self):
        lay = layout_ab(2, 2)
        with pytest.raises(ValidationError):
            svd_across_cut(np.ones(4), lay, rtol=TOL.rank_rtol)

    def test_ket_of_the_wrong_size_rejected(self):
        with pytest.raises(ValidationError, match="3 amplitudes"):
            svd_across_cut(np.ones(3) / np.sqrt(3), layout_ab(2, 2), rtol=TOL.rank_rtol)


class TestThinSvd:
    """``thin_svd`` factors every matrix in its tall orientation."""

    SHAPES = [(1, 7), (7, 1), (1, 1), (3, 11), (11, 3), (6, 6), (9, 81), (81, 9)]

    @staticmethod
    def random_matrix(shape, gen):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    def test_factors_rebuild_the_matrix(self):
        gen = rng(90)
        for shape in self.SHAPES:
            mat = self.random_matrix(shape, gen)
            u, s, vh = thin_svd(mat)
            k = min(shape)
            assert u.shape == (shape[0], k) and s.shape == (k,)
            assert vh.shape == (k, shape[1])
            err = np.max(np.abs((u * s) @ vh - mat))
            assert err <= TOL.reconstruction_atol
            np.testing.assert_allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
            np.testing.assert_allclose(vh @ vh.conj().T, np.eye(k), atol=1e-12)
            ref = np.linalg.svd(mat, compute_uv=False)
            np.testing.assert_allclose(s, ref, rtol=0, atol=1e-13)

    def test_square_and_tall_inputs_keep_the_direct_call(self):
        gen = rng(91)
        for shape in [(7, 1), (1, 1), (6, 6), (11, 3), (81, 9)]:
            mat = self.random_matrix(shape, gen)
            for got, ref in zip(thin_svd(mat), np.linalg.svd(mat, full_matrices=False)):
                np.testing.assert_array_equal(got, ref)

    def test_wide_input_is_factored_through_its_transpose(self):
        gen = rng(92)
        for shape in [(1, 7), (3, 11), (9, 81)]:
            mat = self.random_matrix(shape, gen)
            u, s, vh = thin_svd(mat)
            u_t, s_t, vh_t = np.linalg.svd(mat.T, full_matrices=False)
            np.testing.assert_array_equal(u, vh_t.T)
            np.testing.assert_array_equal(s, s_t)
            np.testing.assert_array_equal(vh, u_t.T)

    def test_wide_cut_keeps_phase_convention(self):
        # a 2 x 27 cut: the left factors' largest entries are real positive
        # up to the rounding of the phase product, and the decomposition
        # rebuilds the ket
        gen = rng(93)
        lay = RegisterLayout((Register("A", 2, ALICE), Register("B", 27, BOB)))
        v = random_pure_vector(54, gen)
        dec = svd_across_cut(v, lay, rtol=TOL.rank_rtol)
        for k in range(dec.left_basis.shape[1]):
            col = dec.left_basis[:, k]
            top = col[np.argmax(np.abs(col))]
            assert top.real > 0 and abs(top.imag) < 1e-15
        rebuilt = sum(
            s * np.kron(dec.left_basis[:, k], dec.right_basis[:, k])
            for k, s in enumerate(dec.singular_values)
        )
        np.testing.assert_allclose(rebuilt, v, atol=1e-12)
