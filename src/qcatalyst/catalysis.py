"""Catalytic local operations: the copy-cycling catalyst and its channels.

The protocol turns one copy of a bipartite pure state ``rho`` into the mixture
(1/n) rho^(x)n + ((n-1)/n) sigma^(x)n on n output register pairs, with no
communication at all, while returning the shared catalyst exactly. The
catalyst is a classically correlated cycle over loading stages: stage i holds
i copies of rho and n-1-i copies of the product state sigma. Each party's
channel, conditioned on the stage, shifts its half of the system register into
the catalyst, releases one displaced sigma half plus n-1 freshly prepared
sigma halves as output, and advances the stage; at the last stage the
accumulated rho copies are released instead and fresh sigma halves refill the
catalyst.

The stage label is either carried by explicit flag registers on both sides or,
when rho and sigma have locally orthogonal supports, read off by a local
support measurement of the catalyst slots. Either way a stage's Kraus operator
is a gate (the flag value, or the slots' local supports), then the n-1 fresh
sigma halves, then a relabelling of registers, built as one axis transpose.
In both modes the stages have locally orthogonal supports (a flag value is
one), so ``entanglement.sn_flagged_blocks`` certifies every catalyst by one
rule.

``build_protocol`` is the one constructor. One Schmidt analysis of rho and
sigma names every register and yields the local data from which the
protocol's catalyst, both channels, its target mixture and the catalyst's
certificate are all formed; the catalyst and the target follow one pair rule
(a register pair holds rho, or sigma's two halves). The analysis refuses an
n-copy output past the dense cap before its first SVD; the catalyst, and each
stage operator against a dense matrix at the cap, are checked before anything
that grows with n is built. The two channels run as a zero-message protocol
of two local rounds (``CatalyticProtocol.local_protocol``) through
``protocols.run_protocol``, which checks that each channel touches only its
own party's registers and that it keeps the trace. One audit measures every
run against the protocol's target and catalyst (``states.distance_to``).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import ProtocolError, ValidationError
from .registers import (
    ALICE,
    BOB,
    Register,
    RegisterLayout,
    TOL,
    matricize,
    require_dense,
    svd_across_cut,
)
from .states import (
    EnsembleBranch,
    Factor,
    KrausChannel,
    QuantumState,
    distance_to,
    tensor_states,
    trace_distance,
)
from .entanglement import SNCertificate, sn_flagged_blocks
from .protocols import SloccqProtocol, local_round, run_protocol

EXPLICIT_FLAGS = "explicit-flags"
SUPPORT_MEASUREMENT = "support-measurement"


@dataclasses.dataclass(frozen=True)
class _Scheme:
    """Register naming and Schmidt data shared by the catalyst, the channels
    and the target.

    The per-copy label tuples are formed on first use, so a size check can
    run on a scheme before anything that grows with n exists."""

    n: int
    mode: str
    sys_label: dict  # party -> system register label
    dim: dict  # party -> local dimension
    flag_label: dict  # party -> flag label, or empty dict
    rho_vector: np.ndarray
    rho_local_basis: dict  # party -> orthonormal columns spanning local support
    sigma_local: dict  # party -> local pure vector

    @functools.cached_property
    def out_labels(self) -> dict:  # party -> tuple of output labels
        return {
            p: tuple(f"{self.sys_label[p]}{j}" for j in range(1, self.n + 1))
            for p in (ALICE, BOB)
        }

    @functools.cached_property
    def slot_labels(self) -> dict:  # party -> tuple of catalyst slot labels
        return {
            p: tuple(f"C{self.sys_label[p]}{j}" for j in range(1, self.n))
            for p in (ALICE, BOB)
        }


def _analyze(rho: QuantumState, sigma: QuantumState, n: int, mode: str) -> _Scheme:
    if n < 1:
        raise ValidationError(f"copy count must be >= 1, got {n}")
    for name, st in (("rho", rho), ("sigma", sigma)):
        if len(st.layout) != 2:
            raise ValidationError(f"{name} must live on exactly two registers")
        parties = {r.party for r in st.layout.registers}
        if parties != {ALICE, BOB}:
            raise ValidationError(f"{name} needs one register per party")
        if not st.is_approx_pure():
            raise ValidationError(f"{name} must be pure for the copy-cycling protocol")
    if rho.layout != sigma.layout:
        raise ValidationError("rho and sigma must share a register layout")
    # the n-copy output is held to the square dense cap, the catalytic
    # pipelines' size rule; once it fits, a pair of dimension above 1 has n
    # small enough to form every power below
    require_dense(rho.layout.total_dim, n)

    rho_vector = rho.to_vector()
    rho_cut = svd_across_cut(rho_vector, rho.layout, rtol=TOL.rank_rtol)
    sig_cut = svd_across_cut(sigma.to_vector(), sigma.layout, rtol=TOL.rank_rtol)
    if sig_cut.rank > 1:
        raise ValidationError("sigma must be a product state across the party cut")
    rho_basis = dict(zip((ALICE, BOB), rho_cut.supports))
    sigma_local = {p: half[:, 0] for p, half in zip((ALICE, BOB), sig_cut.supports)}

    a_label = rho.layout.party_labels(ALICE)[0]
    b_label = rho.layout.party_labels(BOB)[0]
    sys_label = {ALICE: a_label, BOB: b_label}
    dim = {ALICE: rho.layout[a_label].dim, BOB: rho.layout[b_label].dim}

    orthogonal = all(
        float(np.max(np.abs(rho_basis[p].conj().T @ sigma_local[p]), initial=0.0))
        <= TOL.orthogonality_atol
        for p in (ALICE, BOB)
    )
    if mode == "auto":
        mode = SUPPORT_MEASUREMENT if (orthogonal or n == 1) else EXPLICIT_FLAGS
    if mode == SUPPORT_MEASUREMENT and n > 1 and not orthogonal:
        raise ProtocolError(
            "support-measurement mode needs rho and sigma with locally "
            "orthogonal supports on both sides; use explicit flags instead"
        )
    if mode not in (EXPLICIT_FLAGS, SUPPORT_MEASUREMENT):
        raise ValidationError(f"unknown flag mode {mode!r}")

    flag_label = {}
    if mode == EXPLICIT_FLAGS:
        flag_label = {ALICE: f"F{a_label}", BOB: f"F{b_label}"}
    return _Scheme(
        n=n,
        mode=mode,
        sys_label=sys_label,
        dim=dim,
        flag_label=flag_label,
        rho_vector=rho_vector,
        rho_local_basis=rho_basis,
        sigma_local=sigma_local,
    )


def _pair_mixture(
    scheme: _Scheme, labels: dict, flag_label: dict, branches
) -> QuantumState:
    """A mixture over the register pairs of ``labels`` (party -> tuple of
    labels, paired in order), after the flag registers ``flag_label`` (party
    -> label). A branch (weight, stage, k) holds both flags at ``stage``, rho
    on its first k pairs and sigma's two halves on the rest."""
    regs: list[Register] = []
    for p in (ALICE, BOB):
        if flag_label:
            regs.append(Register(flag_label[p], scheme.n, p))
        regs.extend(Register(lab, scheme.dim[p], p) for lab in labels[p])
    layout = RegisterLayout(tuple(regs))
    if len(layout) == 0:
        return QuantumState.empty()
    mixture = []
    for weight, stage, k in branches:
        factors = [
            Factor((flag_label[p],), np.eye(1, scheme.n, stage, dtype=np.complex128))
            for p in flag_label
        ]
        for j, (a, b) in enumerate(zip(labels[ALICE], labels[BOB])):
            if j < k:
                factors.append(Factor((a, b), scheme.rho_vector))
            else:
                factors.append(Factor((a,), scheme.sigma_local[ALICE]))
                factors.append(Factor((b,), scheme.sigma_local[BOB]))
        mixture.append(EnsembleBranch(weight, tuple(factors)))
    return QuantumState.from_branches(layout, tuple(mixture))


def _party_channel(scheme: _Scheme, party: str) -> KrausChannel:
    """One party's copy-cycling channel, one Kraus operator per stage.

    Stage k's operator is its gate on the input registers, the n-1 fresh
    sigma halves appended, and a relabelling of registers: slot k's sigma half
    and the fresh halves are output and the system half takes slot k, or, at
    the last stage, the system half and every slot are output and the fresh
    halves refill the slots. With flags, the flag then advances by one. A
    completion operator covers the inputs no gate accepts; it never fires on
    protocol states.
    """
    n = scheme.n
    d = scheme.dim[party]
    levels = n if scheme.flag_label else 1
    # a stage operator maps (system, flag, slots) to (outputs, flag, slots)
    require_dense(levels * d ** (2 * n - 1), cols=levels * d**n)
    sys = scheme.sys_label[party]
    slots = list(scheme.slot_labels[party])
    outs = list(scheme.out_labels[party])
    flag = scheme.flag_label.get(party)
    flags = [flag] if flag else []
    fresh = [f"_fresh{j}" for j in range(1, n)]

    def layout(labels):
        return RegisterLayout(
            tuple(Register(lab, n if lab == flag else d, party) for lab in labels)
        )

    layout_in = layout([sys] + flags + slots)
    layout_out = layout(outs + flags + slots)
    ext_labels = list(layout_in.labels) + fresh
    ext_dims = list(layout_in.dims) + [d] * len(fresh)

    sig = scheme.sigma_local[party]
    fresh_col = np.ones((1, 1), dtype=np.complex128)
    for _ in fresh:
        fresh_col = np.kron(fresh_col, sig.reshape(-1, 1))
    rho_proj = scheme.rho_local_basis[party] @ scheme.rho_local_basis[party].conj().T
    sig_proj = np.outer(sig, sig.conj())

    gates = []
    kraus = []
    for stage in range(n):
        gate = np.eye(d)
        if flag:
            gate = np.kron(gate, np.diag(np.eye(n)[stage]))
        for j in range(n - 1):
            slot_gate = rho_proj if j < stage else sig_proj
            gate = np.kron(gate, np.eye(d) if flag else slot_gate)
        gates.append(gate)

        if stage < n - 1:
            # displaced sigma half and fresh halves out, system half into the slot
            sources = [slots[stage]] + fresh + flags
            sources += [slots[j] if j != stage else sys for j in range(n - 1)]
        else:
            sources = [sys] + slots + flags + fresh
        k = matricize(
            np.kron(gate, fresh_col).reshape(-1),
            ext_dims + [layout_in.total_dim],
            [ext_labels.index(lab) for lab in sources] + [len(ext_dims)],
        ).reshape(layout_out.total_dim, layout_in.total_dim)
        if flag:  # the output flag follows the n outputs
            k = np.roll(k.reshape(d**n, n, -1), 1, axis=1).reshape(k.shape)
        kraus.append(k)
    residual = np.eye(layout_in.total_dim) - sum(gates)
    if float(np.max(np.abs(residual))) > TOL.gate_residual_atol:
        embed = np.zeros((layout_out.total_dim, layout_in.total_dim))
        embed[: layout_in.total_dim, :] = np.eye(layout_in.total_dim)
        kraus.append(embed @ residual)
    return KrausChannel(kraus, layout_in, layout_out)


@dataclasses.dataclass(frozen=True)
class CatalyticProtocol:
    """The copy-cycling protocol with the target it must reach and its
    catalyst's Schmidt-number certificate."""

    n: int
    mode: str
    rho: QuantumState
    sigma: QuantumState
    catalyst: QuantumState
    alice_channel: KrausChannel
    bob_channel: KrausChannel
    target: QuantumState
    catalyst_sn: SNCertificate

    @property
    def local_protocol(self) -> SloccqProtocol:
        """The two channels as a protocol with no message and no broadcast:
        Alice's round, then Bob's."""
        rounds = (
            local_round("mix-a", ALICE, self.alice_channel),
            local_round("mix-b", BOB, self.bob_channel),
        )
        return SloccqProtocol(rounds, 1)


def build_protocol(
    rho: QuantumState, sigma: QuantumState, n: int, mode: str = "auto"
) -> CatalyticProtocol:
    """The copy-cycling protocol turning rho into (1/n) rho^(x)n + ((n-1)/n)
    sigma^(x)n, its stage-cycle catalyst (a uniform mixture over loading
    stages; stage i holds rho in its first i slot pairs) and its target."""
    scheme = _analyze(rho, sigma, n, mode)
    # the catalyst is held to the square dense cap like the output
    pair = scheme.dim[ALICE] * scheme.dim[BOB]
    require_dense((n if scheme.flag_label else 1) ** 2 * pair ** (n - 1))
    alice, bob = (_party_channel(scheme, p) for p in (ALICE, BOB))
    stages = [(1.0 / n, stage, stage) for stage in range(n)]
    catalyst = _pair_mixture(scheme, scheme.slot_labels, scheme.flag_label, stages)
    if n == 1:
        # no quantum slots at all (single-stage cycle): shared randomness only
        sn = SNCertificate(1, 1, "flagged-block-oracle")
    else:
        sn = sn_flagged_blocks(catalyst)
    mix = [(1.0 / n, None, n)] + ([((n - 1.0) / n, None, 0)] if n > 1 else [])
    return CatalyticProtocol(
        n=n,
        mode=scheme.mode,
        rho=rho,
        sigma=sigma,
        catalyst=catalyst,
        alice_channel=alice,
        bob_channel=bob,
        target=_pair_mixture(scheme, scheme.out_labels, {}, mix),
        catalyst_sn=sn,
    )


@dataclasses.dataclass(frozen=True)
class CloRunReport:
    n: int
    mode: str
    output_state: QuantumState
    target_state: QuantumState
    catalyst_state: QuantumState
    restoration_distance: float
    output_distance: float
    catalyst_sn: SNCertificate


def _execute(protocol: CatalyticProtocol, input_state: QuantumState) -> QuantumState:
    """The one leaf of ``protocol.local_protocol`` run on input (x) catalyst:
    Alice's outputs and catalyst registers, then Bob's."""
    joint = tensor_states(input_state, protocol.catalyst)
    (leaf,) = run_protocol(protocol.local_protocol, joint).leaves
    return leaf.state


def _audit(
    protocol: CatalyticProtocol, state: QuantumState
) -> tuple[QuantumState, QuantumState, float, float]:
    """The output and catalyst marginals of ``state`` after a run and their
    trace distances to ``protocol.target`` and ``protocol.catalyst``."""
    output, out_dist = distance_to(state, protocol.target)
    catalyst, restoration = distance_to(state, protocol.catalyst)
    return output, catalyst, out_dist, restoration


def run_clo(protocol: CatalyticProtocol, input_state: QuantumState) -> CloRunReport:
    """Run both local channels on input (x) catalyst and audit the result."""
    dist = trace_distance(input_state, protocol.rho)
    if dist > TOL.input_match_atol:
        raise ProtocolError(
            f"input is {dist:.3e} away from the protocol's rho; the catalyst "
            f"is only guaranteed for the declared input"
        )
    joint = _execute(protocol, input_state)
    output, catalyst, out_dist, restoration = _audit(protocol, joint)
    return CloRunReport(
        n=protocol.n,
        mode=protocol.mode,
        output_state=output,
        target_state=protocol.target,
        catalyst_state=catalyst,
        restoration_distance=restoration,
        output_distance=out_dist,
        catalyst_sn=protocol.catalyst_sn,
    )

