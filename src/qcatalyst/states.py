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
Every map reaches a state through one kernel, ``_products``. The factors of a
branch that touch the targets are merged and matricized once
(``_target_matrix``), and the Kraus operators, stacked once per instrument
(``Instrument._stacked``), map that matrix to pure branches on the merged
register group in one product. An output is kept when its weight and its
probability reach the floor. Widening operators (more output than input
levels) are weighed first, through their ``K^dagger K``, stacked once per
instrument, and only the products that pass are formed.
``apply_instrument`` calls the kernel once per branch and returns one state
per outcome; ``apply_channel`` is its one-outcome case.
``measure_and_correct`` runs a measurement, the correction its outcome
selects and the forgetting of both outcomes as one step of two kernel calls
per branch: the measurement, then one batched product for the corrections of
all its kept outputs. It gives the state that merging the per-outcome states
of ``apply_instrument`` gives, through ``coalesce``, which merges branches
that are equal up to a phase on each factor, deciding by the factors' vector
gaps (``TOL.coalesce_atol``).

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
(``_split_factor``) through one ``eigh`` per factor and cut, of the reduced
state of its short side or, on a square cut, of its first register's side,
kept on the factor for the marginals on both sides of the cut.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
from typing import Callable, Iterable, Sequence

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
)

@dataclasses.dataclass(frozen=True)
class Factor:
    """Pure vector over an ordered group of register labels, copied unless read-only."""

    labels: tuple[str, ...]
    vector: np.ndarray
    # short-side eigenpairs per cut, kept by ``QuantumState._split_factor``
    _cuts: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        vec = base = np.asarray(self.vector, dtype=np.complex128).reshape(-1)
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        vec = _frozen(vec.copy()) if isinstance(base, np.ndarray) else vec
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclasses.dataclass(frozen=True)
class EnsembleBranch:
    probability: float
    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, read-only with every array it views: a ``Factor`` takes it as is."""
    base = arr
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return arr


def _merged(factors: Sequence[Factor]) -> tuple[np.ndarray, list[str]]:
    """The Kronecker product of the factors' kets, in their order, and the
    labels it runs over; no factors merge to the one-amplitude ket."""
    vec = np.ones(1, dtype=np.complex128)
    labels: list[str] = []
    for f in factors:
        vec = np.kron(vec, f.vector) if labels else f.vector
        labels.extend(f.labels)
    return vec, labels


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
        require_dense(self.layout.total_dim, cols=1)
        vec, labels = _merged(branch.factors)
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

        One side of the cut, the short one or on a square cut the one holding
        ``f.labels[0]``, has its reduced state ``S S^dagger`` (``S`` the
        matricization with that side as rows) decomposed once per factor and
        cut; its eigenpairs of eigenvalue at least the floor, kept on the
        factor, are that side's options (Schmidt). The other side's
        matricization ``M`` is ``S^T`` up to a row order, so each eigenvector
        ``w_j`` gives the ket ``M conj(w_j)``, normalized, of weight ``||M
        conj(w_j)||^2``. No square root is taken, and the kets are read-only
        columns of an array that holds the kept options only.
        """
        dims = [self.layout[lab].dim for lab in f.labels]
        rows = math.prod(self.layout[lab].dim for lab in keep)
        cols = f.vector.size // rows
        drop = [lab for lab in f.labels if lab not in keep]
        short = keep if rows < cols or (rows == cols and f.labels[0] in keep) else drop
        key = (tuple(short), tuple(dims))
        if key not in f._cuts:
            s_mat = matricize(f.vector, dims, [f.labels.index(lab) for lab in short])
            lam, vecs = np.linalg.eigh(s_mat @ s_mat.conj().T)
            del s_mat  # a long side matricizes again; hold one copy at a time
            top = lam >= TOL.prob_floor
            f._cuts[key] = (lam[top][::-1], _frozen(vecs[:, top][:, ::-1]))
        weights, kets = f._cuts[key]
        if short is drop:
            kets = matricize(f.vector, dims, [f.labels.index(lab) for lab in keep]) @ kets.conj()
            weights = np.linalg.norm(kets, axis=0) ** 2
            kets = _frozen(kets / np.sqrt(weights))
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
    A branch joins the first earlier class whose first branch is within the
    cutoff of it (``_phase_gaps``), or starts its own; the classes are formed
    one at a time, each against every branch not yet placed, which gives the
    same classes as visiting the branches in order. A merged branch keeps the
    factors of the first branch of its class.
    """
    branches = state.branches
    groups: dict[tuple, list[int]] = {}
    for i, br in enumerate(branches):
        groups.setdefault(tuple(f.labels for f in br.factors), []).append(i)
    first = list(range(len(branches)))
    for members in groups.values():
        # rows[g][j] is the ket of factor g of the j-th member
        rows = [
            [branches[i].factors[g].vector for i in members]
            for g in range(len(branches[members[0]].factors))
        ]
        todo = np.arange(len(members))
        while todo.size > 1:
            lead, todo = todo[0], todo[1:]
            same = _phase_gaps([r[lead] for r in rows], rows, todo) <= TOL.coalesce_atol
            for j in todo[same].tolist():
                first[members[j]] = members[lead]
            todo = todo[~same]
    if first == list(range(len(branches))):
        return state
    probs = [0.0] * len(branches)
    for i, lead in enumerate(first):
        probs[lead] += branches[i].probability
    return QuantumState(
        state.layout,
        tuple(
            EnsembleBranch(probs[i], br.factors)
            for i, br in enumerate(branches)
            if first[i] == i
        ),
    )


def _phase_gaps(ref: Sequence[np.ndarray], rows: Sequence, among: np.ndarray) -> np.ndarray:
    """``sum_g ||a_g - e^{i phi_g} b_g||`` over the factors, for ``a`` the
    branch with factor kets ``ref`` and ``b`` each branch ``among`` those of
    ``rows`` (factor ``g`` of branch ``i`` is ``rows[g][i]``), each phase the
    one that minimizes its term; ``inf`` where it is surely past
    ``TOL.coalesce_atol``.

    The Gram form ``|a|^2 + |b|^2 - 2|<b|a>|`` of a squared term is exact up
    to rounding below ``8 n eps (|a|^2 + |b|^2)``. Past that margin the term
    surely exceeds the cutoff, so distinct factors are turned away by their
    dot products, taken one by one so that distinct large kets are never
    copied; only near-parallel ones form their difference vectors.
    """
    gap = np.zeros(len(among))
    alive = np.arange(len(among))
    for va, vb in zip(ref, rows):
        at = among[alive]
        overlap = np.array([np.vdot(vb[i], va) for i in at], dtype=np.complex128)
        norms = np.array([np.vdot(vb[i], vb[i]).real for i in at]) + np.vdot(va, va).real
        slack = 8 * va.size * np.finfo(np.float64).eps * norms
        near = np.flatnonzero(norms - 2 * np.abs(overlap) <= TOL.coalesce_atol**2 + slack)
        if not near.size:
            return np.full(len(among), math.inf)
        alive, overlap, at = alive[near], overlap[near], at[near]
        size = np.abs(overlap)
        phase = overlap / np.where(size > 0, size, 1.0)  # a zero overlap is never near
        diff = np.array([vb[i] for i in at])
        diff *= -phase[:, None]
        diff += va
        gap[alive] += np.sqrt(_sq_norms(diff))
        alive = alive[gap[alive] <= TOL.coalesce_atol]
    out = np.full(len(among), math.inf)
    out[alive] = gap[alive]
    return out


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
                arr = np.asarray(k, dtype=np.complex128)
                if arr.shape != shape:
                    raise ValidationError(
                        f"outcome {label!r}: Kraus operator shape {arr.shape}, "
                        f"expected {shape}"
                    )
                if not np.all(np.isfinite(arr)):
                    raise ValidationError(
                        f"outcome {label!r}: Kraus operator has non-finite entries"
                    )
                ops.append(arr)
            if not ops:
                raise ValidationError(f"outcome {label!r} has no Kraus operator")
            parsed.append((label, tuple(ops)))
        labels = [lab for lab, _ in parsed]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate instrument outcome labels: {labels}")
        if not parsed:
            raise ValidationError("instrument needs at least one branch")
        # one read-only stack holds every operator; the outcomes hold views
        stack = np.stack([k for _, ops in parsed for k in ops])
        stack.setflags(write=False)
        views = iter(stack)
        self.branches = tuple((label, tuple(next(views) for _ in ops)) for label, ops in parsed)
        self.layout_in = layout_in
        self.layout_out = layout_out
        self._stack = (stack, np.repeat(np.arange(len(parsed)), [len(ops) for _, ops in parsed]))
        self._grams = None  # see ``_stacked``
        defect = self.trace_preservation_defect()
        if not defect <= TOL.trace_preservation_atol:
            raise ValidationError(
                f"Kraus operators are not trace preserving (defect {defect:.2e})"
            )

    def trace_preservation_defect(self) -> float:
        """Largest entry of sum K^dagger K - I, as S^dagger S for S the stacked Kraus operators."""
        s = self._stack[0].reshape(-1, self.layout_in.total_dim)
        return float(np.max(np.abs(s.conj().T @ s - np.eye(self.layout_in.total_dim))))

    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Every Kraus operator, outcome by outcome, as one (operators, out,
        in) array, the outcome index of each, and, if the operators widen
        (more output than input levels), their ``K^dagger K`` stacked the same
        way, else ``None`` (a square or narrowing operator's Gram would be as
        large as the operator or larger); the Grams are formed on the first
        call."""
        ops, owner = self._stack
        if self._grams is None and ops.shape[1] > ops.shape[2]:
            self._grams = ops.conj().transpose(0, 2, 1) @ ops
        return ops, owner, self._grams

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
    merged, labels = _merged(overlapping)
    extras = tuple(lab for lab in labels if lab not in target_set)
    dims = [state.layout[lab].dim for lab in labels]
    mat = matricize(merged, dims, [labels.index(lab) for lab in targets])
    return rest, mat, extras


def _products(ops: np.ndarray, grams: np.ndarray | None, mats: np.ndarray, prob):
    """The one rule by which a map reaches a state. Operator ``ops[i]`` of a
    stack (operators, out, in) acts on the target matrix ``mats`` (in x c) of
    a branch of probability ``prob``, or, given one matrix per operator, on
    ``mats[i]`` of probability ``prob[i]``. Returns the indices of the kept
    products, their probabilities ``prob * weight`` and their kets,
    normalized, one per row; the kets hold the kept rows only.

    A product is kept when its weight and its probability both reach
    ``TOL.prob_floor``. Widening operators (``grams``, their stacked ``K^dagger
    K``) are weighed first, as ``<mat, K^dagger K mat>``, and only the products
    of those that pass are formed.
    """
    floor = TOL.prob_floor
    idx = None
    if grams is not None:
        ahead = np.einsum("...ij,...ij->...", mats.conj(), grams @ mats).real
        idx = np.flatnonzero((ahead >= floor) & (prob * ahead >= floor))
        ops, prob = ops[idx], prob if np.isscalar(prob) else prob[idx]
        mats = mats[idx] if mats.ndim == 3 else mats
    if mats.ndim == 2:  # one matrix for every operator: one product
        out = ops.reshape(-1, ops.shape[2]) @ mats
    else:
        out = np.matmul(ops, mats)
    out = out.reshape(len(ops), ops.shape[1] * mats.shape[-1])
    weight = _sq_norms(out)
    w = prob * weight
    kept = np.flatnonzero((weight >= floor) & (w >= floor))
    kets = out if len(kept) == len(out) else out[kept]
    kets *= (1 / np.sqrt(weight[kept]))[:, None]  # a real scale, not a complex division
    return kept if idx is None else idx[kept], w[kept], _frozen(kets)


def apply_instrument(
    instrument: Instrument, state: QuantumState, targets: Sequence[str] | None = None
) -> list[tuple[str, float, QuantumState]]:
    """Apply an instrument; returns (outcome, probability, normalized state) per
    outcome with probability above the branch floor.

    Each branch has its target factors merged and matricized once
    (``_target_matrix``), and the kernel ``_products`` applies every Kraus
    operator of every outcome to that matrix, under its floor rule. Output
    layout: untouched registers in their original order, then the
    instrument's output registers. The outcome probabilities are checked by
    ``_kept_outcomes``.
    """
    targets = _resolve_targets(state.layout, instrument.layout_in, targets)
    new_layout = _output_layout(state.layout, targets, instrument.layout_out)
    ops, owner, grams = instrument._stacked()
    rows = []  # (outcome, probability, factors) of each kept output
    for br in state.branches:  # branch by branch: one merged matrix is alive at a time
        rest, mat, extras = _target_matrix(state, br, targets)
        labels = instrument.layout_out.labels + extras
        kept, w, kets = _products(ops, grams, mat, br.probability)
        for i, wi, ket in zip(owner[kept].tolist(), w.tolist(), kets):
            # a map into the trivial space leaves only a weight
            rows.append((i, wi, rest + (Factor(labels, ket),) if labels else rest))
    p = _kept_outcomes(rows, [instrument])
    rows.sort(key=lambda r: r[0])  # stable: each outcome's branches in state order
    return [
        (
            instrument.branches[i][0],
            p[i],
            QuantumState(new_layout, tuple(EnsembleBranch(w / p[i], f) for _, w, f in group)),
        )
        for i, group in itertools.groupby(rows, key=lambda r: r[0])
        if p[i]
    ]


def _kept_outcomes(rows: Sequence[tuple], instruments: Sequence[Instrument]) -> list[float]:
    """The probability of each outcome of ``instruments``, numbered across
    them in order, summed over the ``rows`` (outcome, probability, ...) in
    their order, with every outcome below ``TOL.prob_floor`` dropped (0). The
    kept outcomes of each instrument must sum to 1 within
    ``TOL.outcome_sum_atol``, or, for a channel, ``TOL.channel_trace_atol``."""
    p = [0.0] * sum(len(inst.branches) for inst in instruments)
    for i, w, *_ in rows:
        p[i] += w
    p = [x if x >= TOL.prob_floor else 0.0 for x in p]
    outcomes = iter(p)
    for inst in instruments:
        total = sum(itertools.islice(outcomes, len(inst.branches)))
        atol = TOL.channel_trace_atol if len(inst.branches) == 1 else TOL.outcome_sum_atol
        if not abs(total - 1.0) <= atol:
            raise ValidationError(f"instrument outcome probabilities sum to {total!r}")
    return p


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a complex matrix, read off its real
    view, so that no product array is formed."""
    real = np.ascontiguousarray(rows).view(np.float64)
    return np.einsum("ij,ij->i", real, real)


def apply_channel(
    channel: KrausChannel, state: QuantumState, targets: Sequence[str] | None = None
) -> QuantumState:
    """Apply a channel to the named registers: the one-outcome case of
    ``apply_instrument``."""
    ((_, _, out),) = apply_instrument(channel, state, targets)
    return out


def measure_and_correct(
    measurement: Instrument,
    corrections_for: Callable[[list[str], RegisterLayout], list[Instrument]],
    state: QuantumState,
    measure_targets: Sequence[str],
    correct_targets: Sequence[str],
) -> tuple[float, QuantumState]:
    """Measure, correct by the outcome, and forget both outcomes, in one step.

    Gives what ``apply_instrument`` of ``measurement`` on ``measure_targets``,
    then of each kept outcome's correction on ``correct_targets`` of that
    outcome's state, gives once the leaves of all kept outcome pairs are
    merged: their summed probability and their mixture, coalesced when there
    are two or more leaves. Measuring, correcting and forgetting the outcome
    is one channel (deferred measurement, Nielsen & Chuang sec. 4.4).
    ``corrections_for(outcomes, layout)`` is called once, with the kept
    outcomes in order and the layout of their states, and returns their
    corrections, which share their input dimensions and output layout, as the
    instruments of one adaptive round do.

    Each branch takes two calls of the kernel ``_products``: the
    measurement on its merged target matrix, then one batched product for the
    corrections its kept outputs select, each on its own output. The outputs
    are listed as the per-outcome path lists them.
    """
    m_targets = _resolve_targets(state.layout, measurement.layout_in, measure_targets)
    mid = _output_layout(state.layout, m_targets, measurement.layout_out)
    ops, owner, grams = measurement._stacked()
    measured = []  # per branch: untouched factors, extras, kept operators, probabilities, kets
    for br in state.branches:
        rest, mat, extras = _target_matrix(state, br, m_targets)
        measured.append((rest, extras, *_products(ops, grams, mat, br.probability)))
    p = np.array(
        _kept_outcomes(
            [r for _, _, kept, w, _ in measured for r in zip(owner[kept].tolist(), w.tolist())],
            [measurement],
        )
    )
    live = np.flatnonzero(p)

    chosen = corrections_for([measurement.branches[m][0] for m in live], mid)
    c_targets = _resolve_targets(mid, chosen[0].layout_in, correct_targets)
    new_layout = _output_layout(mid, c_targets, chosen[0].layout_out)
    stacks = [inst._stacked() for inst in chosen]
    c_ops = np.concatenate([s[0] for s in stacks])
    c_grams = None if stacks[0][2] is None else np.concatenate([s[2] for s in stacks])
    # each correction operator's measurement outcome m, and its outcome pair
    # (m, o), numbered in the order of the kept m and then of o
    sizes = [len(inst.branches) for inst in chosen]
    served = np.repeat(live, [len(s[0]) for s in stacks])
    pair = np.concatenate([s[1] + b for s, b in zip(stacks, np.cumsum(sizes) - sizes)])
    cset = set(c_targets)
    rows = []  # (pair, probability, factors) of each kept output
    for rest, extras, kept, w, kets in measured:
        if not len(kept):
            continue
        ms = owner[kept]  # every kept operator's outcome is kept: p[m] >= w
        mid_labels = measurement.layout_out.labels + extras
        fixed, labels = _merged([f for f in rest if set(f.labels) & cset])
        corrected = bool(set(mid_labels) & cset)  # the measured ket is corrected
        # each row's target matrix, merged as the per-outcome path merges it
        merged = fixed[None, :, None] * (kets if corrected else np.ones((len(kets), 1)))[:, None, :]
        labels += mid_labels if corrected else ()
        dims = [len(kets)] + [mid[lab].dim for lab in labels]
        axes = [0] + [labels.index(t) + 1 for t in c_targets]
        mats = matricize(merged.reshape(-1), dims, axes).reshape(
            len(kets), chosen[0].layout_in.total_dim, -1
        )
        row, op = np.nonzero(ms[:, None] == served)  # row by row, in operator order
        c_kept, wc, out = _products(
            c_ops[op], None if c_grams is None else c_grams[op], mats[row], (w / p[ms])[row]
        )
        untouched = tuple(f for f in rest if not set(f.labels) & cset)
        out_labels = chosen[0].layout_out.labels + tuple(lab for lab in labels if lab not in cset)
        for r, k, wj, ket in zip(row[c_kept].tolist(), pair[op[c_kept]].tolist(), wc.tolist(), out):
            # copies, so that a kept ket does not hold the whole array alive
            factors = untouched
            if mid_labels and not corrected:
                factors += (Factor(mid_labels, _frozen(kets[r].copy())),)
            if out_labels:
                factors += (Factor(out_labels, _frozen(ket.copy())),)
            rows.append((k, wj, factors))
    q = _kept_outcomes(rows, chosen)
    # each kept pair's rows in input order, as the per-outcome path lists them
    rows = sorted((r for r in rows if q[r[0]]), key=lambda r: r[0])
    pq = (p[np.repeat(live, sizes)] * q).tolist()  # each pair's leaf probability
    leaves = np.flatnonzero(q)
    total = sum(pq[k] for k in leaves)  # one leaf: pq / total is 1, and a leaf is not coalesced
    out = QuantumState(
        new_layout, tuple(EnsembleBranch(pq[k] / total * (w / q[k]), f) for k, w, f in rows)
    )
    return total, out if len(leaves) == 1 else coalesce(out)


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


def distance_to(state: QuantumState, reference: QuantumState) -> float:
    """The trace distance of ``state``'s marginal on the registers of
    ``reference``, in the reference's order, to ``reference``. Every state
    meets a reference on no registers exactly."""
    labels = reference.layout.labels
    if not labels:
        return 0.0
    return trace_distance(state.marginal(labels).permuted(labels), reference)
