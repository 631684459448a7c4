"""Schmidt structure, Schmidt-number certificates, and entropies.

Schmidt number of a mixed state is a minimum over all pure decompositions, so
general computation is out of reach; this module instead provides exact
oracles for the structured families the protocols actually produce. Every
certificate records the method that produced it.

The block oracle has one rule: a mixture whose branches have pairwise
orthogonal local supports on both sides has the largest branch Schmidt rank
as its Schmidt number, since local projections cannot raise it (Terhal and
Horodecki, PRA 61, 040301 (2000)). Explicit flag registers hold one basis
value per block, which is such a support, so flagged catalysts and those
read by a support measurement are certified by the same rule.

Every Schmidt rank and local support of a ket is read off one
``registers.svd_across_cut``, counted at ``TOL.rank_rtol`` (the product test
of a pencil element at ``TOL.product_rtol``).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Mapping, Sequence

import numpy as np

from .errors import OracleRefusal, ValidationError
from .registers import (
    TOL,
    eigh_descending,
    matricize,
    numerical_rank,
    resolve_cut,
    svd_across_cut,
    thin_svd,
)
from .states import QuantumState, signed_gram_core


@dataclasses.dataclass(frozen=True)
class SchmidtReport:
    coefficients: np.ndarray
    rank: int
    left_labels: tuple[str, ...]
    right_labels: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class SNCertificate:
    """Bounds on the Schmidt number with the certifying method."""

    lower: int
    upper: int
    method: str  # orthogonal-mixture-oracle | flagged-block-oracle | ledger
    details: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.lower < 1 or self.upper < self.lower:
            raise ValidationError(
                f"inconsistent certificate bounds ({self.lower}, {self.upper})"
            )


def schmidt_rank(
    state: QuantumState, cut: Mapping[str, str] | None = None
) -> SchmidtReport:
    """Schmidt coefficients and rank of a pure state across a party cut.

    Rank counts singular values above ``TOL.rank_rtol`` times the largest one.
    """
    dec = svd_across_cut(state.to_vector(), state.layout, cut, rtol=TOL.rank_rtol)
    s = dec.singular_values
    if dec.rank < 1:
        raise ValidationError("pure state has vanishing Schmidt spectrum")
    total = float(np.sum(s**2))
    if abs(total - 1.0) > TOL.norm_atol:
        raise ValidationError(f"Schmidt coefficients squared sum to {total!r}")
    return SchmidtReport(
        coefficients=s,
        rank=dec.rank,
        left_labels=dec.left_labels,
        right_labels=dec.right_labels,
    )


# -- exact oracle for rank-2 mixtures with a product component -------------


def _pencil_rank_one_elements(M1: np.ndarray, M2: np.ndarray):
    """Rank-one elements a*M1 + b*M2 of a two-dimensional matrix pencil.

    The pencil is first restricted to the joint column span of ``[M1 M2]``
    and the joint row span of ``[M1; M2]``: with orthonormal bases L and R of
    these spans, a*M1 + b*M2 = L (a*M1' + b*M2') R^T, so every element keeps
    its rank, and the compressed matrices are at most r x r with
    r <= rank M1 + rank M2. All 2x2 minors of a*M1' + b*M2' are quadratic
    forms in (a, b); collecting their C(r, 2)^2 coefficient rows, a rank-one
    element corresponds to a null vector (a^2, a*b, b^2), so the largest
    array is O(r^4) whatever the register dimensions. Working on the span
    rather than individual eigenvectors keeps this stable when the mixture
    weights are degenerate and the eigenbasis is arbitrary.

    Returns the candidate (a, b) pairs (empty when no element is rank one),
    or None when none can be read off: every element is rank <= 1 (a
    compressed side of dimension < 2), or the pencil is degenerate.
    """

    def span(stacked):
        u, s, _ = thin_svd(stacked)
        return u[:, : numerical_rank(s, TOL.rank_rtol)]

    left = span(np.hstack([M1, M2]))
    right = span(np.hstack([M1.T, M2.T]))
    M1, M2 = (left.conj().T @ M @ right.conj() for M in (M1, M2))
    ra, rb = M1.shape
    if ra < 2 or rb < 2:
        return None
    ri, rj = np.triu_indices(ra, k=1)
    ck, cl = np.triu_indices(rb, k=1)

    def cross(X, Y):
        return (
            X[np.ix_(ri, ck)] * Y[np.ix_(rj, cl)]
            - X[np.ix_(ri, cl)] * Y[np.ix_(rj, ck)]
        )

    q11 = cross(M1, M1).ravel()
    q22 = cross(M2, M2).ravel()
    q12 = (cross(M1, M2) + cross(M2, M1)).ravel()
    rows = np.stack([q11, q12, q22], axis=1)
    # fewer than three minors (two qubits): zero rows keep the null space and
    # give the SVD all three right singular vectors
    rows = np.vstack([rows, np.zeros((max(0, 3 - len(rows)), 3))])
    u, s, vh = thin_svd(rows)
    if s[0] <= 0:
        return None
    null = [vh[i].conj() for i in range(numerical_rank(s, TOL.rank_rtol), 3)]
    candidates: list[tuple[complex, complex]] = []

    def from_veronese(vec):
        u0, u1, u2 = vec
        if abs(u0) >= abs(u2):
            if abs(u0) > 0:
                candidates.append((1.0, u1 / u0))
        else:
            candidates.append((u1 / u2, 1.0))

    if len(null) == 0:
        return []
    if len(null) == 1:
        from_veronese(null[0])
        # the single null vector may fail the Veronese constraint numerically;
        # the axes are cheap extra candidates and the sigma_2 test arbitrates
        candidates.append((1.0, 0.0))
        candidates.append((0.0, 1.0))
    elif len(null) == 2:
        n1, n2 = null
        a = n1[1] ** 2 - n1[0] * n1[2]
        b = 2 * n1[1] * n2[1] - n1[0] * n2[2] - n2[0] * n1[2]
        c = n2[1] ** 2 - n2[0] * n2[2]
        coeffs = np.array([a, b, c])
        scale = float(np.max(np.abs(coeffs)))
        if scale == 0.0:
            return None
        cutoff = TOL.pencil_coeff_rtol * scale
        roots = np.roots(coeffs) if abs(a) > cutoff else []
        for t in roots:
            from_veronese(t * n1 + n2)
        if abs(a) <= cutoff:
            from_veronese(n1)
            if abs(c) > cutoff and abs(b) > cutoff:
                from_veronese((-c / b) * n1 + n2)
    else:
        return None  # the whole pencil is rank one; preconditions cannot hold
    return candidates


def sn_orthogonal_mixture(
    state: QuantumState, cut: Mapping[str, str] | None = None
) -> SNCertificate:
    """Exact Schmidt number for a rank-2 mixture of one product state and one
    further pure state whose local supports are orthogonal on both sides.

    Any decomposition of such a state lives in the two-dimensional support;
    in local bases separating the two orthogonal support blocks every support
    vector is block diagonal, so its Schmidt rank is the sum of the block
    contributions and the minimum over decompositions is attained by the
    structural one: the Schmidt number equals the rank of the non-product
    component.

    The state is analysed through the QR of its branch kets: the support
    eigenpairs come from the k x k core, the component weights from the
    branch overlaps, and the decomposition defect from the core of
    ``[x, y, kets]`` with weights ``(w_x, w_y, -p)``.
    """
    kets, probs = state.branch_kets()
    q, core = signed_gram_core(kets, probs)
    spec = eigh_descending(core, basis=q)

    def weight(x):
        return float(np.sum(probs * np.abs(kets.conj().T @ x) ** 2))

    def defect_of(x, y, w_x, w_y):
        # a Gram-sum difference would cancel to noise of the bound's size
        stacked = np.column_stack([x, y, kets])
        signed = np.concatenate([[w_x, w_y], -probs])
        return float(np.linalg.norm(signed_gram_core(stacked, signed)[1]))

    vals = spec.eigenvalues
    if vals.size < 2 or vals[1] <= TOL.prob_floor:
        raise OracleRefusal("not a rank-2 mixture: second eigenvalue vanishes")
    if numerical_rank(vals, TOL.rank_rtol) > 2:
        raise OracleRefusal(f"not a rank-2 mixture: third eigenvalue {vals[2]:.2e}")
    rows = [state.layout.index_of(lab) for lab in resolve_cut(state.layout, cut)[0]]

    def as_matrix(vec):
        return matricize(vec, state.layout.dims, rows)

    v1 = spec.eigenvectors[:, 0]
    v2 = spec.eigenvectors[:, 1]

    # candidate orthogonal pairs inside the support span: the eigenvectors
    # (the only valid pair when the spectrum is not degenerate) and, for the
    # degenerate case, the pencil's product directions with their
    # orthocomplements
    pairs = []
    candidates = _pencil_rank_one_elements(as_matrix(v1), as_matrix(v2))
    for a, b in candidates or ():
        w = a * v1 + b * v2
        nrm = np.linalg.norm(w)
        if nrm < TOL.pencil_norm_floor:
            continue
        w = w / nrm
        if svd_across_cut(w, state.layout, cut, rtol=TOL.product_rtol).rank != 1:
            continue
        comp = v1 - (w.conj() @ v1) * w
        if np.linalg.norm(comp) < TOL.complement_floor:
            comp = v2 - (w.conj() @ v2) * w
        pairs.append((w, comp / np.linalg.norm(comp)))
    pairs.append((v1, v2))

    reasons = []
    for x, y in pairs:
        w_x = weight(x)
        w_y = weight(y)
        if min(w_x, w_y) < TOL.prob_floor:
            reasons.append("a component carries no weight")
            continue
        # the pair must actually decompose the state, not merely span it
        defect = defect_of(x, y, w_x, w_y)
        if not defect <= TOL.decomposition_atol:
            reasons.append(f"pair is not a decomposition (defect {defect:.2e})")
            continue
        dx, dy = (
            svd_across_cut(vec, state.layout, cut, rtol=TOL.rank_rtol) for vec in (x, y)
        )
        overlaps = [
            f"{name} local supports overlap ({ov:.2e})"
            for name, bx, by in zip(("left", "right"), dx.supports, dy.supports)
            if (ov := float(np.linalg.norm(bx.conj().T @ by, 2)))
            > TOL.support_overlap_atol
        ]
        if overlaps:
            reasons.append(overlaps[0])
            continue
        ranks = (dx.rank, dy.rank)
        rank = max(ranks)
        return SNCertificate(
            rank,
            rank,
            "orthogonal-mixture-oracle",
            {
                "weights": (w_x, w_y),
                "component_ranks": tuple(ranks),
                "decomposition_defect": defect,
            },
        )
    raise OracleRefusal(
        "no orthogonal decomposition with two-sided locally orthogonal "
        "supports found: " + "; ".join(reasons or ["support holds no product"])
    )


# -- flagged block oracle --------------------------------------------------


def sn_flagged_blocks(
    state: QuantumState, cut: Mapping[str, str] | None = None
) -> SNCertificate:
    """Schmidt number of a block ensemble: the largest branch Schmidt rank.

    The branches must have pairwise orthogonal local supports on both sides,
    so a local support measurement reads the block classically; flag
    registers holding one basis value per block are such a support. Two-sided
    local projections cannot increase Schmidt rank, so the branch maximum is
    exact. The support check is sound on any decomposition of the state.
    """
    # one cut per branch gives its supports and its rank
    cuts = [
        svd_across_cut(state.branch_vector(br), state.layout, cut, rtol=TOL.rank_rtol)
        for br in state.branches
    ]
    for (i, di), (j, dj) in itertools.combinations(enumerate(cuts), 2):
        for name, bi, bj in zip(("left", "right"), di.supports, dj.supports):
            ov = float(np.linalg.norm(bi.conj().T @ bj, 2))
            if ov > TOL.support_overlap_atol:
                raise OracleRefusal(
                    f"branches {i} and {j} have overlapping {name} supports "
                    f"({ov:.2e}); blocks are not classically readable"
                )
    rank = max(dec.rank for dec in cuts)
    return SNCertificate(rank, rank, "flagged-block-oracle")


# -- entropies -------------------------------------------------------------


def _entropy_from_eigenvalues(vals: np.ndarray) -> float:
    vals = np.real(vals)
    vals = vals[vals > TOL.entropy_eig_floor]
    return float(-np.sum(vals * np.log2(vals)))


def von_neumann_entropy(state: QuantumState) -> float:
    """Entropy in bits; eigenvalues below the floor are treated as zero."""
    return _entropy_from_eigenvalues(state.eigenvalues())


def conditional_entropy(state: QuantumState, condition_on: Sequence[str]) -> float:
    """H(rest | condition_on) = S(joint) - S(condition marginal), in bits."""
    cond = list(condition_on)
    if not cond:
        raise ValidationError("conditional entropy needs conditioning registers")
    rest = [lab for lab in state.layout.labels if lab not in set(cond)]
    if not rest:
        raise ValidationError("conditioning on every register leaves nothing")
    return von_neumann_entropy(state) - von_neumann_entropy(state.marginal(cond))
