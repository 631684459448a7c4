"""Quantum states, channels, and instruments over register layouts.

A state is an ensemble: a list of branches, each a probability together
with a product of pure factors over register groups, the carrier for protocol
simulations whose joint dimension is far beyond the dense cap. A density
matrix (``from_dense_matrix``, or a ``"dense"`` JSON document) is checked as
a raw array and read into its eigen-ensemble, and is written back as that
ensemble.

Maps are instruments: labelled lists of Kraus operators, checked once in the
``Instrument`` constructor, through which ``Instrument.from_json`` reads every
map; a ``KrausChannel`` is the one-outcome instrument, in JSON as well.
``apply_instrument`` is the single application path and ``apply_channel`` its
one-outcome case. The factors of a branch that touch the targets are merged
and matricized once per instrument, and every Kraus operator of every outcome
maps that matrix to a pure branch on the merged register group. A widening
operator (more output than input levels) is first weighed through its
``K^dagger K``, formed once per instrument, and its product is not formed
when that weight is below the floor. ``coalesce`` merges branches that are
equal up to a phase on each factor, deciding by the factors' vector gaps
(``TOL.coalesce_atol``).

Spectral metrics of ensembles (trace distance, entropy, purity, support
spectra) never form a D x D matrix. An ensemble with branch kets ``V`` (D x k)
and weights ``w`` has density matrix ``V diag(w) V^dagger``; with the reduced
QR factorization ``V = Q R`` its nonzero spectrum is the spectrum of the k x k
core ``R diag(w) R^dagger``, and its eigenvectors are ``Q`` times those of the
core (``signed_gram_core``). Signed weights give differences of states.
``densify`` builds the D x D matrix for the dense routes of ``oracle``, the
independent cross-check of these routes, which only the tests use.
``require_dense`` refuses either array past the dense cap before it is
formed: the kets as D x k, the matrix as D x D. Every cutoff used here (norms,
probability sums, trace preservation, purity, the floor below which a branch
or outcome is dropped) is an entry of ``TOL``.

A marginal splits each factor that straddles the kept and dropped registers
(``_split_factor``). A rectangular split goes through the reduced state of
its short side, decomposed once per factor and cut and kept on the factor,
so the marginals on the two sides of one cut share one ``eigh``; a square
split calls ``thin_svd`` each time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError, ValidationError
from .registers import (
    ALICE,
    BOB,
    EMPTY_LAYOUT,
    MultipartiteOperator,
    RegisterLayout,
    TOL,
    _brief,
    _size_name,
    eigh_descending,
    matricize,
    require_dense,
    thin_svd,
)

@dataclasses.dataclass(frozen=True)
class Factor:
    """Pure vector over an ordered group of register labels."""

    labels: tuple[str, ...]
    vector: np.ndarray
    # short-side eigenpairs per cut, kept by ``QuantumState._split_factor``
    _cuts: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.complex128).reshape(-1)
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclasses.dataclass(frozen=True)
class EnsembleBranch:
    probability: float
    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


class QuantumState:
    """A state over a register layout: an ensemble of pure product branches."""

    # read by the benchmark's layer tracer; no state is dense-represented
    is_dense = False

    def __init__(self, layout, branches):
        # Use the classmethod constructors; this initializer trusts its input.
        self.layout = layout
        self.branches = tuple(branches)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense_matrix(cls, entries, layout: RegisterLayout) -> "QuantumState":
        """The eigen-ensemble of a checked density matrix over ``layout``: one
        branch per eigenvalue above ``TOL.prob_floor``, weights not
        renormalized. The PSD check and the ensemble come from one
        eigendecomposition of the symmetrized matrix."""
        mat = np.array(entries, dtype=np.complex128)
        d = layout.total_dim
        if mat.shape != (d, d):
            raise ValidationError(
                f"density matrix has shape {mat.shape}, expected {_size_name(d)}x{_size_name(d)}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValidationError("density matrix has non-finite entries")
        defect = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
        if not defect <= TOL.hermiticity_atol:
            raise ValidationError(f"density matrix not Hermitian (defect {defect:.2e})")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TOL.hermiticity_atol:
            raise ValidationError(f"density matrix trace {tr!r} is not 1")
        spec = eigh_descending((mat + mat.conj().T) / 2.0)
        lo = float(spec.eigenvalues[-1])
        if not lo >= -TOL.hermiticity_atol:
            raise ValidationError(f"density matrix has negative eigenvalue {lo:.2e}")
        return cls(
            layout,
            tuple(
                EnsembleBranch(float(p), (Factor(layout.labels, spec.eigenvectors[:, k]),))
                for k, p in enumerate(spec.eigenvalues)
                if p > TOL.prob_floor
            ),
        )

    @classmethod
    def from_branches(
        cls, layout: RegisterLayout, branches: Iterable[EnsembleBranch]
    ) -> "QuantumState":
        branches = tuple(branches)
        if not branches:
            raise ValidationError("ensemble needs at least one branch")
        total = 0.0
        for br in branches:
            if not (np.isfinite(br.probability) and br.probability > 0):
                raise ValidationError(
                    f"branch probability {br.probability} is not a positive number"
                )
            total += br.probability
            seen: list[str] = []
            for f in br.factors:
                seen.extend(f.labels)
                want = math.prod(layout[lab].dim for lab in f.labels)
                if f.vector.size != want:
                    raise ValidationError(
                        f"factor on {f.labels} has {f.vector.size} amplitudes, "
                        f"expected {want}"
                    )
                if not np.all(np.isfinite(f.vector)):
                    raise ValidationError(
                        f"factor on {f.labels} has non-finite amplitudes"
                    )
                nrm = float(np.linalg.norm(f.vector))
                if not abs(nrm - 1.0) <= TOL.norm_atol:
                    raise ValidationError(
                        f"factor on {f.labels} is not normalized (norm {nrm!r})"
                    )
            if sorted(seen) != sorted(layout.labels):
                raise ValidationError(
                    f"branch factors cover {sorted(seen)}, layout has "
                    f"{sorted(layout.labels)}"
                )
        if not abs(total - 1.0) <= TOL.prob_sum_atol:
            raise ValidationError(f"branch probabilities sum to {total!r}")
        return cls(layout, branches=branches)

    @classmethod
    def pure(cls, layout: RegisterLayout, vector) -> "QuantumState":
        vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if len(layout) == 0:
            if vec.size != 1:
                raise ValidationError("empty layout takes a single amplitude")
            return cls(layout, branches=(EnsembleBranch(1.0, ()),))
        return cls.from_branches(
            layout, (EnsembleBranch(1.0, (Factor(layout.labels, vec),)),)
        )

    @classmethod
    def empty(cls) -> "QuantumState":
        return cls(EMPTY_LAYOUT, branches=(EnsembleBranch(1.0, ()),))

    # -- representation ----------------------------------------------------

    def branch_vector(self, branch: EnsembleBranch) -> np.ndarray:
        """Full ket of a branch, indexed in layout order; refused past the
        dense cap as a D x 1 array before any amplitude is formed."""
        if not branch.factors:
            return np.ones(1, dtype=np.complex128)
        require_dense(self.layout.total_dim, cols=1)
        vec = branch.factors[0].vector
        labels = list(branch.factors[0].labels)
        for f in branch.factors[1:]:
            vec = np.kron(vec, f.vector)
            labels.extend(f.labels)
        dims = [self.layout[lab].dim for lab in labels]
        order = [labels.index(lab) for lab in self.layout.labels if lab in labels]
        return matricize(vec, dims, order).reshape(-1)

    def densify(self) -> MultipartiteOperator:
        """The D x D density matrix, for the dense routes of ``oracle``."""
        d = self.layout.total_dim
        require_dense(d)
        acc = np.zeros((d, d), dtype=np.complex128)
        for br in self.branches:
            v = self.branch_vector(br)
            acc += br.probability * np.outer(v, v.conj())
        return MultipartiteOperator.square(acc, self.layout)

    def branch_kets(self) -> tuple[np.ndarray, np.ndarray]:
        """Branch kets of an ensemble as the columns of a D x k matrix, and
        the branch probabilities; the density matrix is kets diag(p) kets^dagger.
        The D x k array is refused past the dense cap before it is formed."""
        require_dense(self.layout.total_dim, cols=len(self.branches))
        kets = np.stack([self.branch_vector(br) for br in self.branches], axis=1)
        return kets, np.array([br.probability for br in self.branches])

    def eigenvalues(self) -> np.ndarray:
        """The at most k nonzero eigenvalues of the density matrix, from the QR
        core of the branch kets."""
        return np.linalg.eigvalsh(signed_gram_core(*self.branch_kets())[1])

    def to_vector(self) -> np.ndarray:
        """Ket of a pure state; raises if the state is not pure by the rule of
        ``is_approx_pure``. Several branches are read through the top
        eigenpair of their QR core."""
        if len(self.branches) == 1:
            return self.branch_vector(self.branches[0])
        q, core = signed_gram_core(*self.branch_kets())
        if not _is_pure_core(core):
            raise ValidationError(f"state is not pure (purity {_purity(core)!r})")
        return eigh_descending(core, basis=q).eigenvectors[:, 0].copy()

    def is_approx_pure(self) -> bool:
        """The purity rule of ``to_vector``; ``branch_kets`` refuses past the cap."""
        if len(self.branches) == 1:
            return True
        return _is_pure_core(signed_gram_core(*self.branch_kets())[1])

    # -- reshaping ---------------------------------------------------------

    def permuted(self, new_order: Sequence[str]) -> "QuantumState":
        return QuantumState(self.layout.permuted(new_order), self.branches)

    def with_party(self, label: str, party: str) -> "QuantumState":
        return QuantumState(self.layout.with_party(label, party), self.branches)

    def marginal(self, keep: Sequence[str]) -> "QuantumState":
        """Partial trace onto the named registers (layout order preserved)."""
        keep_set = set(keep)
        unknown = keep_set - set(self.layout.labels)
        if unknown:
            raise LayoutError(f"marginal onto unknown registers {sorted(unknown)}")
        if keep_set == set(self.layout.labels):
            return self
        new_layout = self.layout.subset(keep_set)
        out: list[EnsembleBranch] = []
        for br in self.branches:
            kept_whole: list[Factor] = []
            splits: list[list[tuple[float, Factor]]] = []
            for f in br.factors:
                f_keep = [lab for lab in f.labels if lab in keep_set]
                f_drop = [lab for lab in f.labels if lab not in keep_set]
                if not f_drop:
                    kept_whole.append(f)
                elif not f_keep:
                    continue  # traced out entirely; factor is normalized
                else:
                    splits.append(self._split_factor(f, f_keep))
            combos: list[tuple[float, tuple[Factor, ...]]] = [(1.0, ())]
            for options in splits:
                combos = [
                    (w * wo, fs + (fo,)) for (w, fs) in combos for (wo, fo) in options
                ]
            for w, fs in combos:
                p = br.probability * w
                if p < TOL.prob_floor:
                    continue
                out.append(EnsembleBranch(p, tuple(kept_whole) + fs))
        if not out:
            raise ValidationError("marginal lost all probability mass")
        return QuantumState(new_layout, out)

    def _split_factor(self, f: Factor, keep: list[str]):
        """Marginal of one pure factor: weighted pure sub-factors on ``keep``,
        heaviest first, each of weight at least ``TOL.prob_floor``.

        The factor's K x D matricization ``M`` (kept rows, dropped columns)
        has the reduced state ``M M^dagger``. A square ``M`` is split by
        ``thin_svd``: weights ``s_j^2``, kets the left singular vectors. A
        rectangular one goes through the reduced state of its short side,
        which carries every nonzero weight (Schmidt). That state is ``S
        S^dagger`` for ``S`` the matricization with the short side as rows;
        it is decomposed once per factor and cut, whichever side is asked for
        first, and its eigenpairs of eigenvalue at least the floor are kept on
        the factor. With K < D they are the options. With K > D, ``M = S^T``
        up to a row order, so each kept eigenvector ``w_j`` maps to the kept
        ket ``M conj(w_j)``, normalized, of weight ``||M conj(w_j)||^2``. No
        square root is taken.
        """
        dims = [self.layout[lab].dim for lab in f.labels]
        rows = math.prod(self.layout[lab].dim for lab in keep)
        cols = f.vector.size // rows
        if rows == cols:
            mat = matricize(f.vector, dims, [f.labels.index(lab) for lab in keep])
            kets, s, _ = thin_svd(mat)
            weights = s**2
        else:
            short = keep if rows < cols else [lab for lab in f.labels if lab not in keep]
            key = (tuple(short), tuple(dims))
            if key not in f._cuts:
                s_mat = matricize(f.vector, dims, [f.labels.index(lab) for lab in short])
                lam, vecs = np.linalg.eigh(s_mat @ s_mat.conj().T)
                del s_mat  # a long side matricizes again; hold one copy at a time
                top = lam >= TOL.prob_floor
                f._cuts[key] = (lam[top][::-1], vecs[:, top][:, ::-1])
            weights, kets = f._cuts[key]
            if rows > cols:
                mat = matricize(f.vector, dims, [f.labels.index(lab) for lab in keep])
                kets = mat @ kets.conj()
                weights = np.linalg.norm(kets, axis=0) ** 2
                kets = kets / np.sqrt(weights)
        return [
            (float(w), Factor(tuple(keep), kets[:, j]))
            for j, w in enumerate(weights)
            if w >= TOL.prob_floor
        ]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "layout": self.layout.to_json(),
            "ensemble": [
                {
                    "p": float(br.probability),
                    "factors": [
                        {
                            "labels": list(f.labels),
                            "vector": [[float(z.real), float(z.imag)] for z in f.vector],
                        }
                        for f in br.factors
                    ],
                }
                for br in self.branches
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "QuantumState":
        if not isinstance(doc, dict) or "layout" not in doc:
            raise ValidationError("state JSON needs a 'layout' field")
        layout = RegisterLayout.from_json(doc["layout"])
        if ("dense" in doc) == ("ensemble" in doc):
            raise ValidationError("state JSON needs exactly one of 'dense'/'ensemble'")
        with malformed_json("state"):
            if "dense" in doc:
                flat = _vector_from_json(doc["dense"])
            else:
                branches = [
                    EnsembleBranch(
                        _json_number(item["p"]),
                        tuple(_factor_from_json(f) for f in item["factors"]),
                    )
                    for item in doc["ensemble"]
                ]
        if "ensemble" in doc:
            return cls.from_branches(layout, branches)
        d = layout.total_dim
        if flat.size != d * d:
            raise ValidationError(
                f"dense payload has {flat.size} entries, expected {_size_name(d, 2)}"
            )
        return cls.from_dense_matrix(flat.reshape(d, d), layout)


@contextlib.contextmanager
def malformed_json(what: str):
    """Refuse a malformed ``what`` document in one line: the Python errors of
    reading it become a ``ValidationError``; the package's own pass through."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"malformed {what} JSON: {type(exc).__name__}: {exc}"
        ) from exc


def decode_json(text: str):
    """``text`` parsed as JSON. A document nested deeper than the parser can
    recurse is undecodable like any other malformed document."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("JSON nested too deep", text, 0) from None


def read_json(path):
    """The JSON document in the UTF-8 file ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return decode_json(fh.read())


# -- canonical constructors ------------------------------------------------


def max_entangled_vector(d: int) -> np.ndarray:
    """The ket sum_k |k>|k> / sqrt(d), flattened with the first register as
    the most significant index."""
    return np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)


def max_entangled(
    d: int,
    labels: tuple[str, str] = ("A", "B"),
    parties: tuple[str, str] = (ALICE, BOB),
) -> QuantumState:
    """Rank-d maximally entangled pure state on two d-dimensional registers."""
    if d < 1:
        raise ValidationError(f"max_entangled needs d >= 1, got {d}")
    layout = RegisterLayout.build(
        [(labels[0], d, parties[0]), (labels[1], d, parties[1])]
    )
    return QuantumState.pure(layout, max_entangled_vector(d))


def basis_product(layout: RegisterLayout, indices: Sequence[int]) -> QuantumState:
    """Computational basis product state |i1 i2 ...> over the layout."""
    if len(indices) != len(layout):
        raise ValidationError(
            f"{len(indices)} indices for {len(layout)} registers"
        )
    factors = []
    for r, idx in zip(layout.registers, indices):
        if not 0 <= idx < r.dim:
            raise ValidationError(
                f"basis index {idx} out of range for register {r.label!r} (dim {r.dim})"
            )
        v = np.zeros(r.dim, dtype=np.complex128)
        v[idx] = 1.0
        factors.append(Factor((r.label,), v))
    return QuantumState.from_branches(layout, (EnsembleBranch(1.0, tuple(factors)),))


def tensor_states(a: QuantumState, b: QuantumState) -> QuantumState:
    """Product of two states on disjoint registers."""
    shared = set(a.layout.labels) & set(b.layout.labels)
    if shared:
        raise LayoutError(f"tensor of states sharing registers {sorted(shared)}")
    branches = []
    for ba in a.branches:
        for bb in b.branches:
            p = ba.probability * bb.probability
            if p < TOL.prob_floor:
                continue
            branches.append(EnsembleBranch(p, ba.factors + bb.factors))
    return QuantumState(a.layout.concat(b.layout), branches)


def coalesce(state: QuantumState) -> QuantumState:
    """Merge the branches of an ensemble that are equal up to a phase on each
    factor, adding their probabilities.

    Two branches merge when they hold the same factor groups in the same order
    and ``sum_g min_phi ||a_g - e^{i phi} b_g|| <= TOL.coalesce_atol``. The
    vector gaps bound the change of any trace distance linearly, which an
    overlap does not: an overlap of 1 - 1e-16 hides a gap of up to 1.4e-8.
    A merged branch keeps the factors of the first branch of its class.
    """
    kept: list[list] = []  # [probability, representative branch]
    by_groups: dict[tuple, list[list]] = {}
    for br in state.branches:
        peers = by_groups.setdefault(tuple(f.labels for f in br.factors), [])
        for slot in peers:
            if _phase_gap(slot[1], br) <= TOL.coalesce_atol:
                slot[0] += br.probability
                break
        else:
            peers.append([br.probability, br])
            kept.append(peers[-1])
    if len(kept) == len(state.branches):
        return state
    return QuantumState(
        state.layout, tuple(EnsembleBranch(p, br.factors) for p, br in kept)
    )


def _phase_gap(a: EnsembleBranch, b: EnsembleBranch) -> float:
    """``sum_g ||a_g - e^{i phi_g} b_g||`` over the factors, each phase the
    one that minimizes its term; ``inf`` once it is surely past
    ``TOL.coalesce_atol``.

    The Gram form ``|a|^2 + |b|^2 - 2|<b|a>|`` of a squared term is exact up
    to rounding below ``8 n eps (|a|^2 + |b|^2)``. Past that margin the term
    surely exceeds the cutoff, so distinct factors are turned away by three
    dot products; only near-parallel ones form their difference vector.
    """
    gap = 0.0
    for fa, fb in zip(a.factors, b.factors):
        va, vb = fa.vector, fb.vector
        overlap = np.vdot(vb, va)
        norms = np.vdot(va, va).real + np.vdot(vb, vb).real
        slack = 8 * va.size * np.finfo(np.float64).eps * norms
        if norms - 2 * abs(overlap) > TOL.coalesce_atol**2 + slack:
            return math.inf
        phase = overlap / abs(overlap) if overlap else 1.0
        gap += float(np.linalg.norm(va - phase * vb))
        if gap > TOL.coalesce_atol:
            return math.inf
    return gap


# -- channels and instruments ----------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _json_number(value) -> float:
    """A JSON number as a float; a string or a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{value!r} is not a JSON number")
    return float(value)


def _vector_from_json(pairs: list) -> np.ndarray:
    """Complex entries from a list of ``[re, im]`` pairs of JSON numbers."""
    return np.array(
        [complex(_json_number(re), _json_number(im)) for re, im in pairs],
        dtype=np.complex128,
    )


def _factor_from_json(doc: dict) -> Factor:
    labels = doc["labels"]
    if not (isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)):
        raise ValidationError(f"factor labels {labels!r} are not a list of strings")
    return Factor(tuple(labels), _vector_from_json(doc["vector"]))


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([_vector_from_json(row) for row in rows])


class Instrument:
    """A finite list of labelled CP branches that together preserve trace.

    This constructor is the one place Kraus operators are checked (shape,
    finite entries, trace preservation) and made read-only; a channel is the
    one-outcome case (``KrausChannel``).
    """

    def __init__(
        self,
        branches: Iterable[tuple[str, Iterable]],
        layout_in: RegisterLayout,
        layout_out: RegisterLayout,
    ):
        shape = (layout_out.total_dim, layout_in.total_dim)
        parsed = []
        for label, kraus in branches:
            if not isinstance(label, str):
                raise ValidationError(f"outcome label {_brief(label)} is not a string")
            ops = []
            for k in kraus:
                arr = np.array(k, dtype=np.complex128)
                if arr.shape != shape:
                    raise ValidationError(
                        f"outcome {label!r}: Kraus operator shape {arr.shape}, "
                        f"expected {shape}"
                    )
                if not np.all(np.isfinite(arr)):
                    raise ValidationError(
                        f"outcome {label!r}: Kraus operator has non-finite entries"
                    )
                arr.setflags(write=False)
                ops.append(arr)
            if not ops:
                raise ValidationError(f"outcome {label!r} has no Kraus operator")
            parsed.append((label, tuple(ops)))
        labels = [lab for lab, _ in parsed]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate instrument outcome labels: {labels}")
        if not parsed:
            raise ValidationError("instrument needs at least one branch")
        self.branches = tuple(parsed)
        self.layout_in = layout_in
        self.layout_out = layout_out
        self._grams = None  # see ``_widening_grams``
        defect = self.trace_preservation_defect()
        if not defect <= TOL.trace_preservation_atol:
            raise ValidationError(
                f"Kraus operators are not trace preserving (defect {defect:.2e})"
            )

    def trace_preservation_defect(self) -> float:
        """Largest entry of sum K^dagger K - I, as S^dagger S for S the stacked Kraus operators."""
        s = np.concatenate([k for _, kraus in self.branches for k in kraus])
        return float(np.max(np.abs(s.conj().T @ s - np.eye(self.layout_in.total_dim))))

    def _widening_grams(self) -> tuple[tuple[np.ndarray | None, ...], ...]:
        """``K^dagger K`` of each widening Kraus operator (more output than
        input levels), ``None`` for the others, per outcome; formed on the
        first call. A square or narrowing operator gets none: its Gram would
        be as large as the operator or larger."""
        if self._grams is None:
            self._grams = tuple(
                tuple(k.conj().T @ k if k.shape[0] > k.shape[1] else None for k in kraus)
                for _, kraus in self.branches
            )
        return self._grams

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.branches)

    def to_json(self) -> dict:
        return {
            "layout_in": self.layout_in.to_json(),
            "layout_out": self.layout_out.to_json(),
            "branches": [
                {"outcome": label, "kraus": [_matrix_to_json(k) for k in kraus]}
                for label, kraus in self.branches
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "Instrument":
        """An ``Instrument``, whatever class this is called on."""
        with malformed_json("instrument"):
            return Instrument(
                [
                    (b["outcome"], [_matrix_from_json(k) for k in b["kraus"]])
                    for b in doc["branches"]
                ],
                RegisterLayout.from_json(doc["layout_in"]),
                RegisterLayout.from_json(doc["layout_out"]),
            )


class KrausChannel(Instrument):
    """Completely positive trace-preserving map given by Kraus operators: the
    instrument with the single outcome ``"ok"``."""

    def __init__(self, kraus: Iterable, layout_in: RegisterLayout, layout_out: RegisterLayout):
        super().__init__([("ok", kraus)], layout_in, layout_out)

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return self.branches[0][1]

    @classmethod
    def from_unitary(cls, u, layout: RegisterLayout) -> "KrausChannel":
        return cls([u], layout, layout)

    @classmethod
    def preparation(cls, vector, layout_out: RegisterLayout) -> "KrausChannel":
        col = np.asarray(vector, dtype=np.complex128).reshape(-1, 1)
        return cls([col], EMPTY_LAYOUT, layout_out)


# -- applying maps ---------------------------------------------------------


def _resolve_targets(layout: RegisterLayout, layout_in: RegisterLayout, targets):
    if targets is None:
        targets = layout_in.labels
    targets = list(targets)
    if len(targets) != len(layout_in):
        raise LayoutError(
            f"{len(targets)} targets for a map with {len(layout_in)} input registers"
        )
    for t, r in zip(targets, layout_in.registers):
        if t not in layout:
            raise LayoutError(f"target register {t!r} not in state layout")
        if layout[t].dim != r.dim:
            raise LayoutError(
                f"target {t!r} has dim {layout[t].dim}, map expects {r.dim}"
            )
    if len(set(targets)) != len(targets):
        raise LayoutError(f"repeated target labels: {targets}")
    return targets


def _output_layout(layout: RegisterLayout, targets, layout_out: RegisterLayout):
    untouched = [r for r in layout.registers if r.label not in set(targets)]
    clash = {r.label for r in untouched} & set(layout_out.labels)
    if clash:
        raise LayoutError(
            f"map output registers {sorted(clash)} collide with untouched registers"
        )
    return RegisterLayout(tuple(untouched) + layout_out.registers)


def _target_matrix(state: QuantumState, branch: EnsembleBranch, targets: list[str]):
    """Merge the factors of ``branch`` that touch ``targets`` into one ket and
    matricize it: rows run over the targets in order, columns over the rest of
    the merged group. Returns (untouched factors, matrix, labels of the rest).
    """
    target_set = set(targets)
    overlapping = [f for f in branch.factors if set(f.labels) & target_set]
    rest = tuple(f for f in branch.factors if not (set(f.labels) & target_set))
    merged = np.ones(1, dtype=np.complex128)
    labels: list[str] = []
    for f in overlapping:
        merged = np.kron(merged, f.vector) if labels else f.vector
        labels.extend(f.labels)
    extras = tuple(lab for lab in labels if lab not in target_set)
    dims = [state.layout[lab].dim for lab in labels]
    mat = matricize(merged, dims, [labels.index(lab) for lab in targets])
    return rest, mat, extras


def apply_instrument(
    instrument: Instrument, state: QuantumState, targets: Sequence[str] | None = None
) -> list[tuple[str, float, QuantumState]]:
    """Apply an instrument; returns (outcome, probability, normalized state) per
    outcome with probability above the branch floor.

    Each branch has its target factors merged and matricized once
    (``_target_matrix``); every Kraus operator of every outcome then acts on
    that matrix. A widening operator's weight ``<mat, K^dagger K mat>`` is
    read first, and below the floor its product is skipped; a kept product
    is formed and weighed as any other. Output layout: untouched registers in
    their original order, then the instrument's output registers. The outcome
    probabilities must sum to 1 within ``TOL.outcome_sum_atol``; a channel,
    the one-outcome instrument, must keep the trace within
    ``TOL.channel_trace_atol``.
    """
    targets = _resolve_targets(state.layout, instrument.layout_in, targets)
    new_layout = _output_layout(state.layout, targets, instrument.layout_out)
    # branch by branch, so one merged matrix is alive at a time; each
    # outcome still collects its branches in state order
    collected: list[list] = [[] for _ in instrument.branches]
    grams = instrument._widening_grams()
    for br in state.branches:
        rest, mat, extras = _target_matrix(state, br, targets)
        labels = instrument.layout_out.labels + extras
        for hits, (_, kraus), gram in zip(collected, instrument.branches, grams):
            for k, g in zip(kraus, gram):
                if g is not None:  # weigh a widening product before forming it
                    ahead = float(np.vdot(mat, g @ mat).real)
                    if ahead < TOL.prob_floor or br.probability * ahead < TOL.prob_floor:
                        continue
                out = k @ mat
                weight = float(np.linalg.norm(out) ** 2)
                w = br.probability * weight
                if weight < TOL.prob_floor or w < TOL.prob_floor:
                    continue
                if labels:
                    vec = (out / np.sqrt(weight)).reshape(-1)
                    hits.append((w, rest + (Factor(labels, vec),)))
                else:  # a map into the trivial space leaves only a weight
                    hits.append((w, rest))
    results = []
    for (label, _), hits in zip(instrument.branches, collected):
        p = sum(w for w, _ in hits)
        if p < TOL.prob_floor:
            continue
        branches = tuple(EnsembleBranch(w / p, factors) for w, factors in hits)
        results.append((label, p, QuantumState(new_layout, branches)))
    total = sum(p for _, p, _ in results)
    one = len(instrument.branches) == 1
    atol = TOL.channel_trace_atol if one else TOL.outcome_sum_atol
    if not abs(total - 1.0) <= atol:
        raise ValidationError(f"instrument outcome probabilities sum to {total!r}")
    return results


def apply_channel(
    channel: KrausChannel, state: QuantumState, targets: Sequence[str] | None = None
) -> QuantumState:
    """Apply a channel to the named registers: the one-outcome case of
    ``apply_instrument``."""
    ((_, _, out),) = apply_instrument(channel, state, targets)
    return out


# -- comparisons -----------------------------------------------------------


def _require_same_layout(a: QuantumState, b: QuantumState):
    if a.layout != b.layout:
        raise LayoutError(
            f"states live on different layouts: {a.layout.labels} vs {b.layout.labels}"
        )


def signed_gram_core(
    kets: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank form of ``kets @ diag(weights) @ kets^dagger``.

    ``kets`` is D x k and ``weights`` are k real (possibly negative) numbers.
    With the reduced QR factorization ``kets = Q R`` the operator equals
    ``Q C Q^dagger`` for the Hermitian r x r core ``C = R diag(weights)
    R^dagger`` (r = min(D, k)). ``Q`` has orthonormal columns, so ``C`` carries
    the operator's nonzero spectrum and Frobenius norm, and its eigenvectors
    map to the operator's through ``Q``. Returns ``(Q, C)`` with ``C``
    symmetrized.
    """
    q, r = np.linalg.qr(kets)
    core = (r * weights) @ r.conj().T
    return q, (core + core.conj().T) / 2


def _purity(core: np.ndarray) -> float:
    """tr(rho^2): the squared Frobenius norm of the Hermitian QR core."""
    return float(np.linalg.norm(core) ** 2)


def _is_pure_core(core: np.ndarray) -> bool:
    """The one purity rule: tr(rho^2) within ``TOL.purity_atol`` of 1."""
    return _purity(core) >= 1.0 - TOL.purity_atol


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    """Half the trace norm of the difference of the two density matrices.

    It goes through the QR core of the stacked branch kets with weights
    ``[p, -q]``.
    """
    _require_same_layout(a, b)
    kets_a, p = a.branch_kets()
    kets_b, q = b.branch_kets()
    kets = np.hstack([kets_a, kets_b])
    vals = np.linalg.eigvalsh(signed_gram_core(kets, np.concatenate([p, -q]))[1])
    return float(0.5 * np.sum(np.abs(vals)))


def distance_to(
    state: QuantumState, reference: QuantumState
) -> tuple[QuantumState, float]:
    """The marginal of ``state`` on the registers of ``reference``, in the
    reference's order, and its trace distance to ``reference``. Every state
    meets a reference on no registers exactly."""
    labels = reference.layout.labels
    if not labels:
        return QuantumState.empty(), 0.0
    marginal = state.marginal(labels).permuted(labels)
    return marginal, trace_distance(marginal, reference)
