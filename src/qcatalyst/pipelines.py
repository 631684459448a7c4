"""End-to-end verification pipelines producing machine-checkable reports.

Each pipeline builds its scenario from scratch, measures a fixed list of
quantities, compares them against declared expectations, and emits a report
whose verdict is "verified" only when every check passes. A small corruption
hook lets every pipeline be rerun with a deliberately perturbed channel; the
perturbation is far above the tolerances, so a corrupted run must come back
"falsified". Inputs that violate a pipeline's preconditions give "refused".
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import platform

import numpy as np

from . import __version__
from .errors import QcatError, ValidationError
from .registers import (
    ALICE,
    BOB,
    MAX_SEEDS,
    REFEREE,
    Register,
    RegisterLayout,
    TOL,
)
from .states import (
    EnsembleBranch,
    Instrument,
    KrausChannel,
    QuantumState,
    basis_product,
    coalesce,
    distance_to,
    max_entangled,
    tensor_states,
)
from .entanglement import (
    conditional_entropy,
    schmidt_rank,
    sn_flagged_blocks,
    sn_orthogonal_mixture,
)
from .catalysis import (
    CatalyticProtocol,
    _audit,
    build_protocol,
    run_clo,
)
from .protocols import (
    SloccqProtocol,
    compile_catalyst_prep,
    construct_converse,
    final_state,
    ledger_bound,
    local_round,
    adaptive_round,
    run_protocol,
)
from .sampling import random_density_matrix, rng

VERIFIED = "verified"
FALSIFIED = "falsified"
REFUSED = "refused"


# -- report documents -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Quantity:
    name: str
    value: object
    comparison: str  # "le" | "eq" | "approx" | "info"
    expected: object = None
    tolerance: float | None = None
    provenance: str = "measured"
    ok: bool = True

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def q_info(name, value, provenance="measured") -> Quantity:
    return Quantity(name, value, "info", provenance=provenance)


def q_le(name, value, bound, provenance="measured") -> Quantity:
    value = float(value)
    return Quantity(
        name, value, "le", None, float(bound), provenance, value <= float(bound)
    )


def q_eq(name, value, expected, provenance="measured") -> Quantity:
    return Quantity(name, value, "eq", expected, None, provenance, value == expected)


def q_approx(name, value, expected, tol, provenance="measured") -> Quantity:
    value = float(value)
    ok = abs(value - float(expected)) <= float(tol)
    return Quantity(name, value, "approx", float(expected), float(tol), provenance, ok)


@dataclasses.dataclass(frozen=True)
class ReportDocument:
    pipeline: str
    inputs: dict
    quantities: tuple[Quantity, ...]
    verdict: str
    reason: str | None
    corruption: float | None
    versions: dict
    timestamp: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    def to_text(self) -> str:
        lines = [f"pipeline: {self.pipeline}"]
        for key, val in sorted(self.inputs.items()):
            lines.append(f"  input {key} = {val}")
        if self.corruption:
            lines.append(f"  corruption epsilon = {self.corruption}")
        for q in self.quantities:
            if q.comparison == "info":
                lines.append(f"  {q.name} = {q.value}  [{q.provenance}]")
                continue
            mark = "ok" if q.ok else "FAIL"
            if q.comparison == "le":
                goal = f"<= {q.tolerance}"
            elif q.comparison == "eq":
                goal = f"== {q.expected}"
            else:
                goal = f"== {q.expected} +/- {q.tolerance}"
            lines.append(f"  {q.name} = {q.value}  ({goal})  [{q.provenance}]  {mark}")
        if self.reason:
            lines.append(f"reason: {self.reason}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _finish(pipeline, inputs, quantities, corruption, reason=None) -> ReportDocument:
    if reason is not None:
        verdict = REFUSED
    elif all(q.ok for q in quantities):
        verdict = VERIFIED
    else:
        verdict = FALSIFIED
    return ReportDocument(
        pipeline=pipeline,
        inputs=dict(inputs),
        quantities=tuple(quantities),
        verdict=verdict,
        reason=reason,
        corruption=corruption or None,
        versions={
            "qcatalyst": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


# -- corruption hooks -------------------------------------------------------


CORRUPTION_SEED = 7  # seeds the one rotation every corrupted run composes


def _local_rotation(dim: int, epsilon: float) -> np.ndarray:
    gen = rng(CORRUPTION_SEED)
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h /= max(1.0, float(np.linalg.norm(h, 2)))
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * epsilon * vals)) @ vecs.conj().T


def _input_rotation(layout_in: RegisterLayout, epsilon: float) -> np.ndarray | None:
    """A small rotation of the first input register with more than one
    level, on the whole input; the registers before it have one level, so
    the rotation leads the Kronecker product. None when ``epsilon`` is 0 or
    the input has dimension 1 (a one-level pair at n = 1), which holds
    nothing to perturb."""
    d0 = next((r.dim for r in layout_in.registers if r.dim > 1), 1)
    if not epsilon or d0 == 1:
        return None
    return np.kron(_local_rotation(d0, epsilon), np.eye(layout_in.total_dim // d0))


def perturbed_channel(channel: KrausChannel, epsilon: float) -> KrausChannel:
    """The channel with ``_input_rotation`` composed into every Kraus
    operator; a channel with nothing to perturb is returned as it is. Every
    corrupted control (``_corrupted``, obs3's flips) goes through here."""
    big = _input_rotation(channel.layout_in, epsilon)
    if big is None:
        return channel
    # one product at a time: the constructor keeps its own copy of each
    kraus = (k @ big for k in channel.kraus)
    return KrausChannel(kraus, channel.layout_in, channel.layout_out)


def _corrupted(protocol: CatalyticProtocol, epsilon: float) -> CatalyticProtocol:
    """The protocol with Alice's channel perturbed (the corruption hook)."""
    return dataclasses.replace(
        protocol, alice_channel=perturbed_channel(protocol.alice_channel, epsilon)
    )


# -- the standard two-family of states --------------------------------------


@dataclasses.dataclass(frozen=True)
class SeparationFamily:
    """The separation at ``n``: the catalytic protocol on m = n + 1 copies of
    the qutrit pair, whose target is tau, and the message dimensions that
    suffice (2^n) and that fall one short."""

    protocol: CatalyticProtocol
    d_enough: int
    d_short: int


def qutrit_pair_states() -> tuple[QuantumState, QuantumState]:
    """Rank-2 maximally entangled state and an orthogonal product state,
    both embedded in a qutrit pair."""
    layout = RegisterLayout(
        (Register("A", 3, ALICE), Register("B", 3, BOB))
    )
    vec = np.zeros(9, dtype=np.complex128)
    vec[0] = vec[4] = 1.0 / math.sqrt(2.0)  # |00> + |11>
    rho = QuantumState.pure(layout, vec)
    sigma = basis_product(layout, (2, 2))
    return rho, sigma


def separation_family(n: int) -> SeparationFamily:
    if n < 1:
        raise QcatError(f"separation parameter must be >= 1, got {n}")
    protocol = build_protocol(*qutrit_pair_states(), n + 1)
    return SeparationFamily(protocol=protocol, d_enough=2**n, d_short=2**n - 1)


# -- pipeline: exact catalytic mixing ---------------------------------------


def pipeline_lemma1(
    rho: QuantumState | None = None,
    sigma: QuantumState | None = None,
    n: int = 2,
    mode: str = "auto",
    corruption: float = 0.0,
) -> ReportDocument:
    """One catalytic round: output hits the mixture exactly and the catalyst
    comes back exactly."""
    name = "catalytic-mixing"
    if rho is None or sigma is None:
        rho, sigma = qutrit_pair_states()
    inputs = {
        "n": n,
        "mode": mode,
        "rho_registers": list(rho.layout.labels),
        "sigma_registers": list(sigma.layout.labels),
    }
    quantities: list[Quantity] = []
    try:
        protocol = _corrupted(build_protocol(rho, sigma, n, mode), corruption)
        out_dist, restoration = run_clo(protocol, rho)
        rank = schmidt_rank(rho).rank
        quantities.append(q_info("mode", protocol.mode, "construction"))
        quantities.append(
            q_le(
                "output-distance",
                out_dist,
                TOL.distance_exact_atol,
                "trace distance to the analytic mixture",
            )
        )
        quantities.append(
            q_le(
                "catalyst-restoration-distance",
                restoration,
                TOL.distance_exact_atol,
                "trace distance catalyst out vs in",
            )
        )
        quantities.append(
            q_eq(
                "catalyst-sn",
                (protocol.catalyst_sn.lower, protocol.catalyst_sn.upper),
                (rank ** (n - 1), rank ** (n - 1)),
                "flagged-block certificate vs rank^(n-1)",
            )
        )
    except QcatError as exc:
        return _finish(name, inputs, quantities, corruption, reason=str(exc))
    return _finish(name, inputs, quantities, corruption)


# -- pipeline: the separation ------------------------------------------------


def pipeline_theorem(n: int, corruption: float = 0.0) -> ReportDocument:
    """Catalytic protocols beat every bounded-message protocol: the catalytic
    route makes the target exactly, the Schmidt-number ledger rules out any
    protocol one dimension short, and a single message of the certified size
    suffices."""
    name = "separation"
    inputs = {"n": n}
    quantities: list[Quantity] = []
    try:
        family = separation_family(n)
        protocol = family.protocol
        rho, tau, m = protocol.rho, protocol.target, protocol.n
        # input and target Schmidt data, each certified two independent ways
        in_rank = schmidt_rank(rho).rank
        quantities.append(q_eq("input-schmidt-rank", in_rank, 2, "svd"))
        oracle = sn_orthogonal_mixture(tau)
        quantities.append(
            q_eq(
                "target-sn-oracle",
                (oracle.lower, oracle.upper),
                (2**m, 2**m),
                "orthogonal-mixture oracle",
            )
        )
        blocks = sn_flagged_blocks(tau)
        quantities.append(
            q_eq(
                "target-sn-blocks",
                (blocks.lower, blocks.upper),
                (2**m, 2**m),
                "flagged-block oracle",
            )
        )

        # the catalytic protocol reaches the target exactly
        out_dist, restoration = run_clo(_corrupted(protocol, corruption), rho)
        quantities.append(
            q_le("clo-output-distance", out_dist, TOL.distance_exact_atol)
        )
        quantities.append(
            q_le(
                "clo-catalyst-restoration",
                restoration,
                TOL.distance_exact_atol,
            )
        )
        quantities.append(
            q_eq(
                "catalyst-sn",
                (protocol.catalyst_sn.lower, protocol.catalyst_sn.upper),
                (2**n, 2**n),
                "flagged-block certificate",
            )
        )

        # no protocol with the smaller message can reach the target
        cap = ledger_bound(in_rank, family.d_short).upper
        quantities.append(
            q_eq(
                "impossible-with-message-dim",
                (family.d_short, cap < oracle.lower),
                (family.d_short, True),
                f"ledger: sn cap {cap} < target {oracle.lower}",
            )
        )

        # one dimension more is enough: run the explicit protocol
        converse = construct_converse(rho, tau, family.d_enough)
        tree = run_protocol(
            converse.protocol,
            rho,
            keep=[name for name, _ in converse.postselect],
        )
        achieved, prob = final_state(tree, converse.postselect)
        sent = converse.protocol.quantum_dimension_used
        bound = ledger_bound(in_rank, sent)
        quantities.append(
            q_le(
                "converse-distance",
                distance_to(achieved, converse.target),
                TOL.distance_compiled_atol,
                f"explicit protocol with one message of dimension {family.d_enough}",
            )
        )
        quantities.append(
            q_approx("converse-success-probability", prob, 1.0, TOL.success_prob_atol)
        )
        quantities.append(
            q_eq(
                "converse-message-dimension",
                sent,
                family.d_enough,
                "ledger",
            )
        )
        quantities.append(
            q_eq(
                "ledger-allows-target",
                bound.upper >= oracle.lower,
                True,
                "consistency: certified cap vs certified need",
            )
        )
    except QcatError as exc:
        return _finish(name, inputs, quantities, corruption, reason=str(exc))
    return _finish(name, inputs, quantities, corruption)


# -- pipeline: classical-bit task and entropy obstruction --------------------


def _bit_flip_task():
    layout = RegisterLayout(
        (
            Register("A", 2, ALICE),
            Register("B", 2, BOB),
            Register("R", 2, REFEREE),
        )
    )
    branches = []
    for x in (0, 1):
        branches.append((0.5, (0, x, x)))
    start = QuantumState.from_branches(
        layout,
        tuple(
            _product_branch(layout, p, idx) for p, idx in branches
        ),
    )
    goal = QuantumState.from_branches(
        layout,
        tuple(
            _product_branch(layout, 0.5, (x, 0, x)) for x in (0, 1)
        ),
    )
    return layout, start, goal


def _product_branch(layout, p, indices):
    return EnsembleBranch(p, basis_product(layout, indices).branches[0].factors)


def _flip_protocol(corruption: float = 0.0) -> SloccqProtocol:
    qubit_a = RegisterLayout((Register("A", 2, ALICE),))
    qubit_b = RegisterLayout((Register("B", 2, BOB),))
    proj0 = np.diag([1.0, 0.0]).astype(np.complex128)
    proj1 = np.diag([0.0, 1.0]).astype(np.complex128)
    measure = Instrument([("x0", [proj0]), ("x1", [proj1])], qubit_b, qubit_b)
    eye = np.eye(2, dtype=np.complex128)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    def conditional(layout):
        return {
            "x0": KrausChannel.from_unitary(eye, layout),
            "x1": KrausChannel.from_unitary(flip, layout),
        }
    alice_fix = conditional(qubit_a)
    if corruption:
        alice_fix = {
            k: perturbed_channel(v, corruption) for k, v in alice_fix.items()
        }
    rounds = (
        local_round("read-bit", BOB, measure, broadcast=True),
        adaptive_round("alice-flip", ALICE, alice_fix, select_by="read-bit"),
        adaptive_round("bob-flip", BOB, conditional(qubit_b), select_by="read-bit"),
    )
    return SloccqProtocol(rounds, 1)


def pipeline_obs3(seeds: int = 10, corruption: float = 0.0) -> ReportDocument:
    """Ferrying a classical bit needs communication: one broadcast bit does
    it, while no amount of shared catalyst alone can, because the referee's
    entropy conditioned on the receiving side cannot drop."""
    name = "classical-bit-task"
    inputs = {"seeds": seeds}
    quantities: list[Quantity] = []
    try:
        if seeds > MAX_SEEDS:
            raise ValidationError(
                f"refusing to draw {seeds} random catalysts (cap {MAX_SEEDS})"
            )
        _, start, goal = _bit_flip_task()
        protocol = _flip_protocol(corruption)
        tree = run_protocol(protocol, start)
        achieved, _ = final_state(tree)
        quantities.append(
            q_le(
                "locc-distance",
                distance_to(achieved, goal),
                TOL.distance_exact_atol,
                "one broadcast bit plus conditioned flips",
            )
        )
        quantities.append(
            q_eq("message-dimension", protocol.quantum_dimension_used, 1, "ledger")
        )
        quantities.append(
            q_eq(
                "broadcast-rounds",
                list(protocol.broadcast_rounds),
                ["read-bit"],
                "ledger",
            )
        )

        # the target demands H(R|A side) = 0
        target_cond = conditional_entropy(goal.marginal(["A", "R"]), ["A"])
        quantities.append(
            q_approx(
                "target-conditional-entropy",
                target_cond,
                0.0,
                TOL.entropy_atol,
                "analytic: referee copies the receiver",
            )
        )

        # with any catalyst but no communication it stays 1
        candidates: list[tuple[str, QuantumState]] = []
        cat_layout = RegisterLayout(
            (Register("CA", 2, ALICE), Register("CB", 2, BOB))
        )
        candidates.append(("max-entangled", max_entangled(2, ("CA", "CB"))))
        candidates.append(("product", basis_product(cat_layout, (0, 0))))
        gen = rng(20260823)
        for i in range(seeds):
            mat = random_density_matrix(4, gen)
            candidates.append(
                (
                    f"random-{i}",
                    QuantumState.from_dense_matrix(mat, cat_layout),
                )
            )
        worst_gap = None
        for label, omega in candidates:
            joint = tensor_states(start, omega)
            value = conditional_entropy(
                joint.marginal(["A", "R", "CA"]), ["A", "CA"]
            )
            quantities.append(
                q_approx(
                    f"conditional-entropy[{label}]",
                    value,
                    1.0,
                    TOL.entropy_atol,
                    "referee vs receiver-plus-catalyst",
                )
            )
            gap = value - target_cond
            worst_gap = gap if worst_gap is None else min(worst_gap, gap)
        quantities.append(
            q_approx(
                "entropy-gap",
                worst_gap,
                1.0,
                TOL.entropy_gap_atol,
                "local processing cannot close a conditional-entropy gap",
            )
        )
    except QcatError as exc:
        return _finish(name, inputs, quantities, corruption, reason=str(exc))
    return _finish(name, inputs, quantities, corruption)


# -- pipeline: catalytic protocols fit in a bounded-message class ------------


def pipeline_obs1(
    n: int = 2, product_rho: bool = False, corruption: float = 0.0
) -> ReportDocument:
    """A catalytic protocol whose catalyst has Schmidt number s is simulated
    exactly by a protocol that sends one quantum message of dimension s."""
    name = "containment"
    inputs = {"n": n, "product_rho": product_rho}
    quantities: list[Quantity] = []
    try:
        rho, sigma = qutrit_pair_states()
        if product_rho:
            rho = basis_product(rho.layout, (0, 0))
        protocol = _corrupted(build_protocol(rho, sigma, n, "auto"), corruption)
        cert = protocol.catalyst_sn
        rank = schmidt_rank(rho).rank if not product_rho else 1
        expected_sn = rank ** (n - 1)
        quantities.append(
            q_eq(
                "catalyst-sn",
                (cert.lower, cert.upper),
                (expected_sn, expected_sn),
                "flagged-block certificate",
            )
        )
        plan = compile_catalyst_prep(protocol.catalyst)
        quantities.append(
            q_eq(
                "message-dimension",
                plan.protocol.quantum_dimension_used,
                expected_sn,
                "compiled catalyst preparation",
            )
        )
        prepared, _ = final_state(run_protocol(plan.protocol, rho))
        quantities.append(
            q_le(
                "prepared-catalyst-distance",
                distance_to(prepared, plan.catalyst),
                TOL.distance_compiled_atol,
                "compiled preparation vs catalyst",
            )
        )

        # the catalytic channels, as their zero-message rounds, on that state
        achieved, _ = final_state(run_protocol(protocol.local_protocol, prepared))
        out_dist, restoration = _audit(protocol, achieved)
        quantities.append(
            q_le(
                "output-distance",
                out_dist,
                TOL.distance_compiled_atol,
                "simulated catalytic protocol vs analytic mixture",
            )
        )
        quantities.append(
            q_le(
                "catalyst-restoration-distance",
                restoration,
                TOL.distance_compiled_atol,
                "catalyst after the simulated run",
            )
        )
    except QcatError as exc:
        return _finish(name, inputs, quantities, corruption, reason=str(exc))
    return _finish(name, inputs, quantities, corruption)


# -- report of Schmidt structure for a stored state -------------------------


def pipeline_schmidt(
    state: QuantumState, cut: dict | None = None
) -> ReportDocument:
    name = "schmidt-analysis"
    inputs = {"registers": list(state.layout.labels)}
    quantities: list[Quantity] = []
    try:
        if state.is_approx_pure():
            rep = schmidt_rank(state, cut)
            quantities.append(q_info("kind", "pure"))
            quantities.append(q_info("schmidt-rank", rep.rank, "svd"))
            quantities.append(
                q_info(
                    "schmidt-coefficients",
                    [round(float(c), 12) for c in rep.singular_values],
                    "svd",
                )
            )
        else:
            # copies of one branch would read as overlapping blocks
            cert = sn_flagged_blocks(coalesce(state), cut=cut)
            quantities.append(q_info("kind", "mixed"))
            quantities.append(q_info("sn-lower", cert.lower, cert.method))
            quantities.append(q_info("sn-upper", cert.upper, cert.method))
    except QcatError as exc:
        return _finish(name, inputs, quantities, 0.0, reason=str(exc))
    return _finish(name, inputs, quantities, 0.0)
