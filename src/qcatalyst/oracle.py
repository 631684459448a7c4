"""Dense reference routes, the independent cross-check of the ensemble routes.

Every state is an ensemble of pure product branches, and the package computes
on it without forming a D x D matrix. The routes here do form it, through
``QuantumState.densify``, and compute the same quantities the textbook way:
an instrument acts by contracting each Kraus operator with the target axes of
a density matrix on both sides, a trace distance or an entropy reads the
spectrum of a dense matrix, and ``tensor_product`` forms the Kronecker product
of two operators. Only the tests compare against them; no module of the
package imports this one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .entanglement import _entropy_from_eigenvalues
from .errors import LayoutError
from .registers import TOL, MultipartiteOperator, require_dense
from .states import (
    Instrument,
    QuantumState,
    _output_layout,
    _require_same_layout,
    _resolve_targets,
)


def tensor_product(x: MultipartiteOperator, y: MultipartiteOperator) -> MultipartiteOperator:
    """Kronecker product; labels of the two operands must be disjoint."""
    shared = set(x.layout_out.labels + x.layout_in.labels) & set(
        y.layout_out.labels + y.layout_in.labels
    )
    if shared:
        raise LayoutError(f"tensor product with shared labels {sorted(shared)}")
    return MultipartiteOperator(
        np.kron(x.entries, y.entries),
        x.layout_out.concat(y.layout_out),
        x.layout_in.concat(y.layout_in),
    )


def _kraus_action(rho: np.ndarray, pos: list[int], kraus: np.ndarray) -> np.ndarray:
    """``K rho K^dagger`` with ``K`` contracted on the register axes ``pos``.

    ``rho`` is a density matrix reshaped to one ket axis then one bra axis per
    register. The result is a matrix over the untouched registers, in order,
    then ``K``'s output; the cost is O(D^2 d) for d the output dimension of K.
    """
    m = rho.ndim // 2 - len(pos)
    k = kraus.reshape((kraus.shape[0],) + tuple(rho.shape[p] for p in pos))
    k_in = list(range(1, len(pos) + 1))
    # axes (out, untouched kets, all bras), then (..., untouched bras, out bra)
    left = np.tensordot(k, rho, axes=(k_in, pos))
    both = np.tensordot(left, k.conj(), axes=([1 + m + p for p in pos], k_in))
    both = np.moveaxis(both, 0, m)
    return both.reshape(math.prod(both.shape[: m + 1]), -1)


def apply_instrument(
    instrument: Instrument,
    rho: MultipartiteOperator,
    targets: Sequence[str] | None = None,
) -> list[tuple[str, float, MultipartiteOperator]]:
    """(outcome, probability, normalized density matrix) per outcome with
    probability above the branch floor, on the layout ``states.apply_instrument``
    gives: untouched registers in order, then the instrument's outputs."""
    layout = rho.layout_out
    targets = _resolve_targets(layout, instrument.layout_in, targets)
    new_layout = _output_layout(layout, targets, instrument.layout_out)
    require_dense(new_layout.total_dim)
    arr = rho.entries.reshape(layout.dims * 2)
    pos = [layout.index_of(lab) for lab in targets]
    results = []
    for label, kraus in instrument.branches:
        acc = sum(_kraus_action(arr, pos, k) for k in kraus)
        p = float(np.real(np.trace(acc)))
        if p < TOL.prob_floor:
            continue
        results.append((label, p, MultipartiteOperator.square(acc / p, new_layout)))
    return results


def von_neumann_entropy(state: QuantumState) -> float:
    """Entropy in bits from the full spectrum of the density matrix."""
    op = state.densify().entries
    return _entropy_from_eigenvalues(np.linalg.eigvalsh((op + op.conj().T) / 2))


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    """Half the trace norm of the difference of the two density matrices."""
    _require_same_layout(a, b)
    diff = a.densify().entries - b.densify().entries
    vals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.sum(np.abs(vals)))
