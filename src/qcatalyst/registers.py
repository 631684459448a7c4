"""Register-labelled dense linear algebra, and the package's numerical contract.

Operators carry an ordered list of named registers on each side; the leftmost
register is the most significant index of the row-major matrix. Everything in
here is dense numpy; ``require_dense``, the one size rule, refuses any array
past ``DENSE_CAP`` squared entries before it is allocated. The D x D layer
(``MultipartiteOperator``, and ``partial_trace``, ``permute_registers`` and
``eig_hermitian`` on square operators) serves ``oracle`` and the tests; the
benchmark's tracer patches it by name, which keeps it here. ``TOL`` holds
every tolerance, floor and relative rank cutoff the package compares against,
``numerical_rank`` is the one place a relative rank cutoff is applied, and
``thin_svd`` the one place a matrix is factored by SVD: ket cuts, the pencil
and square marginal splits. A rectangular marginal split needs no SVD;
``states`` takes it from the reduced state of the short side.
``svd_across_cut`` is the one cut of a ket: it takes the ket and its layout,
and counts the Schmidt rank at the ``TOL`` entry its caller names
(``rank_rtol`` in certificates, ``protocol_rank_rtol`` in protocol compilers,
``product_rtol`` in the product test of a pencil element).
"""

from __future__ import annotations

import dataclasses
import math
import reprlib
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import LayoutError, ValidationError

ALICE = "Alice"
BOB = "Bob"
REFEREE = "Referee"
PARTIES = (ALICE, BOB, REFEREE)

DENSE_CAP = 2000
MAX_SEEDS = 10_000  # random catalysts one obs3 report may draw, one check each


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Every numerical cutoff of the package, each written once: ``*_atol``
    bounds an absolute defect, ``*_floor`` drops what lies below it, and
    ``*_rtol`` is relative to the largest value (see ``numerical_rank``)."""

    # validity of states, kets and maps
    hermiticity_atol: float = 1e-10  # dense operator Hermitian, unit trace, PSD
    norm_atol: float = 1e-10  # a ket or factor has unit norm
    prob_sum_atol: float = 1e-12  # ensemble branch probabilities sum to 1
    trace_preservation_atol: float = 1e-9  # sum of K^dagger K is the identity
    outcome_sum_atol: float = 1e-9  # outcome or component probabilities sum to 1
    channel_trace_atol: float = 1e-10  # a channel keeps the trace
    gate_residual_atol: float = 1e-12  # catalytic stage gates cover the input
    reconstruction_atol: float = 1e-9  # a decomposition rebuilds its input
    purity_atol: float = 1e-9  # a state counts as pure
    coalesce_atol: float = 1e-13  # ensemble branches equal up to factor phases
    # floors
    prob_floor: float = 1e-12  # a branch, outcome or mixture weight below is zero
    entropy_eig_floor: float = 1e-14  # eigenvalues below count as zero in an entropy
    # relative rank cutoffs; a certificate must not count round-off as Schmidt
    # rank, a protocol compiler must keep every coefficient it reproduces
    rank_rtol: float = 1e-9  # Schmidt and support ranks in certificates
    protocol_rank_rtol: float = 1e-12  # Schmidt ranks in protocol compilers
    product_rtol: float = 1e-8  # a pencil element is a product vector
    # Schmidt-number certificates
    pencil_coeff_rtol: float = 1e-12  # a pencil quadratic's coefficient vanishes
    pencil_norm_floor: float = 1e-9  # a pencil element vanishes
    complement_floor: float = 1e-6  # an eigenvector is parallel to the product
    decomposition_atol: float = 1e-8  # a candidate pair rebuilds the state
    support_overlap_atol: float = 1e-8  # local supports are orthogonal
    # catalytic protocol set-up
    input_match_atol: float = 1e-9  # the input equals the protocol's rho
    orthogonality_atol: float = 1e-9  # rho and sigma have orthogonal local supports
    # report checks
    distance_exact_atol: float = 1e-10  # distance of an exact construction
    distance_compiled_atol: float = 1e-8  # distance of a compiled protocol
    entropy_atol: float = 1e-9  # a conditional entropy
    entropy_gap_atol: float = 1e-6  # the conditional-entropy gap
    success_prob_atol: float = 1e-9  # a deterministic protocol succeeds


TOL = Tolerances()


def require_dense(dim: int, copies: int = 1, cols: int | None = None) -> None:
    """Refuse a dense array with ``dim ** copies`` rows and ``cols`` columns
    (square by default) past ``DENSE_CAP`` squared entries, before anything
    of that size is allocated; the one place the cap is compared. A square
    array passes when its dimension is within ``DENSE_CAP``. The power is
    formed only when it is small: past the bit length of the cap's entries in
    copies, any ``dim`` above 1 is over. The refusal names each size through
    ``_size_name``, so it never prints an integer past 2^64."""
    if dim <= 1 or copies <= (DENSE_CAP**2).bit_length():
        rows = dim**copies
        if rows * (rows if cols is None else cols) <= DENSE_CAP**2:
            return
    if cols is not None:
        raise ValidationError(
            f"refusing to build a {_size_name(dim, copies)}x{_size_name(cols)} "
            f"operator (cap {DENSE_CAP}^2 entries)"
        )
    raise ValidationError(
        f"refusing to densify dimension {_size_name(dim, copies)} (cap {DENSE_CAP})"
    )


def _size_name(dim: int, copies: int = 1) -> str:
    """``dim ** copies`` for a message: in full up to 2^64; past that as
    ``dim^copies``, or by its bit length when ``copies`` is 1. The power is
    formed only when it is small, and no integer past 2^64 is printed (Python
    refuses to print one of more than 4300 digits)."""
    if copies * (dim.bit_length() - 1) <= 64 and dim**copies <= 2**64:
        return str(dim**copies)

    def name(x: int) -> str:
        return str(x) if x <= 2**64 else f"<{x.bit_length()} bits>"

    return name(dim) if copies == 1 else f"{name(dim)}^{name(copies)}"


def numerical_rank(values: np.ndarray, rtol: float) -> int:
    """Number of ``values`` above ``rtol`` times the largest one; 0 when none
    is positive."""
    top = float(np.max(values, initial=0.0))
    if not top > 0:
        return 0
    return int(np.sum(values > rtol * top))


def thin_svd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``mat = (u * s) @ vh``, always factored in its tall orientation.

    A matrix with at least as many rows as columns goes to
    ``np.linalg.svd(mat, full_matrices=False)`` unchanged. A wide one is
    factored through its transpose, ``mat.T = u' s vh'``, and returned as
    ``(vh'.T, s, u'.T)``. LAPACK reduces a tall matrix by QR and a wide one
    by LQ before it bidiagonalizes; with OpenBLAS the QR-first tall path is
    measured faster for wide ket cuts. The README gives timings.
    """
    if mat.shape[0] >= mat.shape[1]:
        return np.linalg.svd(mat, full_matrices=False)
    u, s, vh = np.linalg.svd(mat.T, full_matrices=False)
    return vh.T, s, u.T


_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 2
_BRIEF_CHARS = 60


def _brief(value) -> str:
    """A repr of untrusted input cut to a bounded length, for error messages:
    containers show their first items only and any repr stops after
    ``_BRIEF_CHARS`` characters, with the value's type named."""
    text = _BRIEF.repr(value)
    if len(text) <= _BRIEF_CHARS:
        return text
    return f"{text[:_BRIEF_CHARS]}... ({type(value).__name__})"


def is_positive_int(value) -> bool:
    """Whether ``value`` is an integer >= 1: no bool, float or string is one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


@dataclasses.dataclass(frozen=True)
class Register:
    """A named subsystem with a dimension and an owning party."""

    label: str
    dim: int
    party: str

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise LayoutError(
                f"register label must be a non-empty string, got {_brief(self.label)}"
            )
        if not is_positive_int(self.dim):
            raise LayoutError(
                f"register {_brief(self.label)} has invalid dim {_brief(self.dim)}"
            )
        # a Python int, so that products of dims never wrap at 64 bits
        object.__setattr__(self, "dim", int(self.dim))
        if self.party not in PARTIES:
            raise LayoutError(
                f"register {_brief(self.label)} has unknown party "
                f"{_brief(self.party)}; expected one of {PARTIES}"
            )


@dataclasses.dataclass(frozen=True)
class RegisterLayout:
    """Ordered collection of registers; order fixes the index convention.

    One label -> position index, built with the layout, serves every lookup
    by label."""

    registers: tuple[Register, ...]

    def __post_init__(self):
        index = {r.label: i for i, r in enumerate(self.registers)}
        if len(index) != len(self.registers):
            raise LayoutError(
                f"duplicate register labels in layout: {list(self.labels)}"
            )
        object.__setattr__(self, "_index", index)

    @classmethod
    def build(cls, specs: Iterable[tuple[str, int, str]]) -> "RegisterLayout":
        return cls(tuple(Register(label, dim, party) for label, dim, party in specs))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def total_dim(self) -> int:
        out = 1
        for r in self.registers:
            out *= r.dim
        return out

    def __len__(self) -> int:
        return len(self.registers)

    def __getitem__(self, label: str) -> Register:
        return self.registers[self.index_of(label)]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LayoutError(
                f"no register labelled {label!r} in layout {self.labels}"
            ) from None

    def party_of(self, label: str) -> str:
        return self[label].party

    def party_labels(self, party: str) -> tuple[str, ...]:
        if party not in PARTIES:
            raise LayoutError(f"unknown party {party!r}")
        return tuple(r.label for r in self.registers if r.party == party)

    def subset(self, labels: Sequence[str]) -> "RegisterLayout":
        """Sub-layout of the given labels, keeping this layout's order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise LayoutError(f"labels {sorted(missing)} not in layout {self.labels}")
        return RegisterLayout(tuple(r for r in self.registers if r.label in wanted))

    def concat(self, other: "RegisterLayout") -> "RegisterLayout":
        return RegisterLayout(self.registers + other.registers)

    def permuted(self, new_order: Sequence[str]) -> "RegisterLayout":
        if sorted(new_order) != sorted(self.labels):
            raise LayoutError(
                f"permutation {list(new_order)} is not a rearrangement of {self.labels}"
            )
        return RegisterLayout(tuple(self[label] for label in new_order))

    def with_party(self, label: str, party: str) -> "RegisterLayout":
        if party not in PARTIES:
            raise LayoutError(f"unknown party {party!r}")
        regs = tuple(
            Register(r.label, r.dim, party) if r.label == label else r
            for r in self.registers
        )
        if label not in self:
            raise LayoutError(f"no register labelled {label!r}")
        return RegisterLayout(regs)

    def to_json(self) -> list[dict]:
        return [
            {"label": r.label, "dim": r.dim, "party": r.party} for r in self.registers
        ]

    @classmethod
    def from_json(cls, data: list) -> "RegisterLayout":
        try:
            return cls.build((d["label"], d["dim"], d["party"]) for d in data)
        except (KeyError, TypeError) as exc:
            raise LayoutError(f"malformed layout JSON: {exc}") from exc


EMPTY_LAYOUT = RegisterLayout(())


class MultipartiteOperator:
    """Dense complex matrix between two register layouts.

    Rectangular shapes are first class: a channel's Kraus operator may consume
    and emit different registers.
    """

    def __init__(self, entries, layout_out: RegisterLayout, layout_in: RegisterLayout):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValidationError(f"operator entries must be 2-D, got shape {arr.shape}")
        expected = (layout_out.total_dim, layout_in.total_dim)
        if arr.shape != expected:
            raise ValidationError(
                f"entries shape {arr.shape} does not match layouts {expected}"
            )
        arr.setflags(write=False)
        self.entries = arr
        self.layout_out = layout_out
        self.layout_in = layout_in

    # -- constructors ------------------------------------------------------

    @classmethod
    def square(cls, entries, layout: RegisterLayout) -> "MultipartiteOperator":
        return cls(entries, layout, layout)

    # -- basic structure ---------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.layout_in == self.layout_out


def matricize(vec: np.ndarray, dims: Sequence[int], row_axes: Sequence[int]) -> np.ndarray:
    """Flat tensor over ``dims`` as a matrix: the axes ``row_axes``, in that
    order, index the rows and the other axes, in their own order, the columns.

    A reshape/transpose view; numpy copies only when the transpose leaves the
    data non-contiguous. One-level axes are left out, so any number of
    one-level registers fits numpy's 64 axes.
    """
    rows = list(row_axes)
    order = rows + [a for a in range(len(dims)) if a not in rows]
    d_rows = math.prod(dims[a] for a in rows)
    if 1 in dims:
        order = [a for a in order if dims[a] > 1]
        rank = {a: i for i, a in enumerate(sorted(order))}
        order = [rank[a] for a in order]
        dims = [d for d in dims if d > 1]
    return vec.reshape(tuple(dims)).transpose(order).reshape(d_rows, -1)


def permute_registers(x: MultipartiteOperator, new_order: Sequence[str]) -> MultipartiteOperator:
    """Reorder registers of a square operator.

    Pure index bookkeeping (reshape/transpose/reshape); applying the inverse
    permutation recovers the original operator bit-exactly.
    """
    if not x.is_square:
        raise ValidationError("permute_registers handles square operators")
    layout = x.layout_out
    new_layout = layout.permuted(new_order)
    perm = [layout.index_of(lab) for lab in new_order]
    n = len(layout)
    if n == 0:
        return x
    arr = x.entries.reshape(layout.dims + layout.dims)
    arr = arr.transpose(perm + [n + p for p in perm])
    d = new_layout.total_dim
    return MultipartiteOperator(arr.reshape(d, d), new_layout, new_layout)


def partial_trace(x: MultipartiteOperator, discard: Sequence[str]) -> MultipartiteOperator:
    """Trace out the named registers of a square operator: the discarded
    registers are moved last and contracted by one ``einsum``."""
    if not x.is_square:
        raise ValidationError("partial trace requires a square operator")
    layout = x.layout_out
    discard = list(discard)
    for label in discard:
        if label not in layout:
            raise LayoutError(f"cannot trace out unknown register {label!r}")
    if len(set(discard)) != len(discard):
        raise LayoutError(f"repeated labels in discard list: {discard}")
    keep = layout.subset([lab for lab in layout.labels if lab not in discard])
    moved = permute_registers(x, keep.labels + tuple(discard)).entries
    d, rest = keep.total_dim, layout.total_dim // keep.total_dim
    reduced = np.einsum("ikjk->ij", moved.reshape(d, rest, d, rest))
    return MultipartiteOperator(reduced, keep, keep)


@dataclasses.dataclass(frozen=True)
class SpectralResult:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, matching eigenvalue order


def _canonical_phases(columns: np.ndarray) -> np.ndarray:
    """Per-column unit phases that make each column's largest-magnitude entry
    real positive (1 for a zero column)."""
    cols = np.asarray(columns, dtype=np.complex128)
    top = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    mag = np.abs(top)
    phases = np.ones_like(top)
    np.divide(mag, top, out=phases, where=mag > 0)
    return phases


def eigh_descending(sym: np.ndarray, basis: np.ndarray | None = None) -> SpectralResult:
    """Descending eigendecomposition of a Hermitian array, checked by
    reconstructing ``sym``.

    With ``basis`` (orthonormal columns) the eigenvectors are mapped through
    it, giving the eigenpairs of ``basis @ sym @ basis^dagger`` on its support.
    Eigenvectors carry canonical phases.
    """
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    recon = (vecs * vals) @ vecs.conj().T
    err = float(np.max(np.abs(recon - sym), initial=0.0))
    if not err <= TOL.reconstruction_atol:
        raise ValidationError(f"eigendecomposition reconstruction error {err:.2e}")
    if basis is not None:
        vecs = basis @ vecs
    return SpectralResult(vals, vecs * _canonical_phases(vecs))


def eig_hermitian(x: MultipartiteOperator) -> SpectralResult:
    """Descending eigendecomposition with a reconstruction guarantee."""
    if not x.is_square:
        raise ValidationError("eig_hermitian requires a square operator")
    defect = float(np.max(np.abs(x.entries - x.entries.conj().T), initial=0.0))
    if defect > TOL.hermiticity_atol:
        raise ValidationError(f"operator is not Hermitian (defect {defect:.2e})")
    return eigh_descending((x.entries + x.entries.conj().T) / 2.0)


@dataclasses.dataclass(frozen=True)
class CutDecomposition:
    """SVD of a ket across a left/right register bipartition, with its
    Schmidt rank at the relative cutoff the caller named."""

    singular_values: np.ndarray
    left_basis: np.ndarray  # columns in the left-side product space
    right_basis: np.ndarray  # columns in the right-side product space
    left_labels: tuple[str, ...]
    right_labels: tuple[str, ...]
    rank: int  # singular values above the cutoff times the largest

    @property
    def supports(self) -> tuple[np.ndarray, np.ndarray]:
        """The (left, right) local supports: the first ``rank`` columns of
        either basis."""
        return self.left_basis[:, : self.rank], self.right_basis[:, : self.rank]


def resolve_cut(
    layout: RegisterLayout, cut: Mapping[str, str] | None
) -> tuple[list[str], list[str]]:
    """Split the layout's labels into (left, right) halves.

    Default cut: Alice left, Bob right. Referee registers must be assigned
    explicitly via ``cut={label: "left"|"right"}``.
    """
    left, right = [], []
    cut = dict(cut or {})
    for r in layout.registers:
        side = cut.get(r.label)
        if side is None:
            if r.party == ALICE:
                side = "left"
            elif r.party == BOB:
                side = "right"
            else:
                raise LayoutError(
                    f"register {r.label!r} belongs to {REFEREE}; assign it a side"
                )
        if side not in ("left", "right"):
            raise LayoutError(f"cut side for {r.label!r} must be 'left' or 'right'")
        (left if side == "left" else right).append(r.label)
    unknown = set(cut) - set(layout.labels)
    if unknown:
        raise LayoutError(f"cut mentions unknown registers {sorted(unknown)}")
    if not left or not right:
        raise LayoutError("cut must put at least one register on each side")
    return left, right


def svd_across_cut(
    vector, layout: RegisterLayout, cut: Mapping[str, str] | None = None, *, rtol: float
) -> CutDecomposition:
    """Schmidt data of a normalized ket over ``layout`` across a register
    bipartition (``resolve_cut``), the one cut of a ket in the package. Its
    rank counts the singular values above ``rtol`` times the largest; each
    caller names the ``TOL`` entry it decides by."""
    vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if vec.size != layout.total_dim:
        raise ValidationError(
            f"ket has {vec.size} amplitudes, layout has dimension {layout.total_dim}"
        )
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > TOL.norm_atol:
        raise ValidationError(f"ket is not normalized (norm {norm!r})")
    left, right = resolve_cut(layout, cut)
    mat = matricize(vec, layout.dims, [layout.index_of(lab) for lab in left])
    u, s, vh = thin_svd(mat)
    # Fix phases on the left factors, compensate on the right so the
    # reconstruction sum_k s_k |l_k>|r_k> is untouched.
    phases = _canonical_phases(u)
    u = u * phases
    vh = vh / phases[:, None]
    recon = (u * s) @ vh
    err = float(np.max(np.abs(recon - mat), initial=0.0))
    if err > TOL.reconstruction_atol:
        raise ValidationError(f"SVD reconstruction error {err:.2e}")
    # Right Schmidt vectors are the rows of vh taken as kets (no conjugate):
    # v = sum_k s_k u[:,k] (x) vh[k,:].
    return CutDecomposition(
        singular_values=s,
        left_basis=u,
        right_basis=vh.T.copy(),
        left_labels=tuple(left),
        right_labels=tuple(right),
        rank=numerical_rank(s, rtol),
    )
