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
support measurement of the catalyst slots.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ProtocolError, ValidationError
from .registers import (
    ALICE,
    BOB,
    DENSE_CAP,
    MultipartiteOperator,
    Register,
    RegisterLayout,
    TOL,
    numerical_rank,
    svd_across_cut,
)
from .states import (
    EnsembleBranch,
    Factor,
    KrausChannel,
    QuantumState,
    apply_channel,
    tensor_states,
    trace_distance,
)
from .entanglement import SNCertificate, sn_flagged_blocks

EXPLICIT_FLAGS = "explicit-flags"
SUPPORT_MEASUREMENT = "support-measurement"


@dataclasses.dataclass(frozen=True)
class _Scheme:
    """Register naming and Schmidt data shared by catalyst and channels."""

    n: int
    mode: str
    sys_label: dict  # party -> system register label
    dim: dict  # party -> local dimension
    out_labels: dict  # party -> tuple of output labels
    slot_labels: dict  # party -> tuple of catalyst slot labels
    flag_label: dict  # party -> flag label, or empty dict
    rho_vector: np.ndarray
    rho_local_basis: dict  # party -> orthonormal columns spanning local support
    sigma_local: dict  # party -> local pure vector


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

    rho_dec = svd_across_cut(MultipartiteOperator.ket(rho.to_vector(), rho.layout))
    sig_dec = svd_across_cut(MultipartiteOperator.ket(sigma.to_vector(), sigma.layout))
    if numerical_rank(sig_dec.singular_values, TOL.rank_rtol) > 1:
        raise ValidationError("sigma must be a product state across the party cut")
    rank = numerical_rank(rho_dec.singular_values, TOL.rank_rtol)
    rho_basis = {
        ALICE: rho_dec.left_basis[:, :rank],
        BOB: rho_dec.right_basis[:, :rank],
    }
    sigma_local = {ALICE: sig_dec.left_basis[:, 0], BOB: sig_dec.right_basis[:, 0]}

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

    out_labels = {
        p: tuple(f"{sys_label[p]}{j}" for j in range(1, n + 1)) for p in (ALICE, BOB)
    }
    slot_labels = {
        p: tuple(f"C{sys_label[p]}{j}" for j in range(1, n)) for p in (ALICE, BOB)
    }
    flag_label = {}
    if mode == EXPLICIT_FLAGS:
        flag_label = {ALICE: f"F{a_label}", BOB: f"F{b_label}"}
    return _Scheme(
        n=n,
        mode=mode,
        sys_label=sys_label,
        dim=dim,
        out_labels=out_labels,
        slot_labels=slot_labels,
        flag_label=flag_label,
        rho_vector=rho.to_vector(),
        rho_local_basis=rho_basis,
        sigma_local=sigma_local,
    )


def _catalyst_layout(scheme: _Scheme) -> RegisterLayout:
    regs: list[Register] = []
    for p in (ALICE, BOB):
        if scheme.flag_label:
            regs.append(Register(scheme.flag_label[p], scheme.n, p))
        regs.extend(
            Register(lab, scheme.dim[p], p) for lab in scheme.slot_labels[p]
        )
    return RegisterLayout(tuple(regs))


def _catalyst_branches(scheme: _Scheme, layout: RegisterLayout):
    n = scheme.n
    branches = []
    for stage in range(n):
        factors = []
        if scheme.flag_label:
            for p in (ALICE, BOB):
                v = np.zeros(n, dtype=np.complex128)
                v[stage] = 1.0
                factors.append(Factor((scheme.flag_label[p],), v))
        for j in range(n - 1):
            a_slot = scheme.slot_labels[ALICE][j]
            b_slot = scheme.slot_labels[BOB][j]
            if j < stage:
                factors.append(Factor((a_slot, b_slot), scheme.rho_vector))
            else:
                factors.append(Factor((a_slot,), scheme.sigma_local[ALICE]))
                factors.append(Factor((b_slot,), scheme.sigma_local[BOB]))
        branches.append(EnsembleBranch(1.0 / n, tuple(factors)))
    return tuple(branches)


def build_catalyst(
    rho: QuantumState, sigma: QuantumState, n: int, mode: str = "auto"
) -> QuantumState:
    """The stage-cycle catalyst: uniform mixture over loading stages."""
    scheme = _analyze(rho, sigma, n, mode)
    layout = _catalyst_layout(scheme)
    if len(layout) == 0:
        return QuantumState.empty()
    return QuantumState.from_branches(layout, _catalyst_branches(scheme, layout))


def _register_move_matrix(layout: RegisterLayout, sources: list[str]) -> np.ndarray:
    """Permutation matrix sending register ``sources[k]`` to output slot k."""
    dims_old = layout.dims
    d = layout.total_dim
    idx = np.arange(d)
    digits = np.array(np.unravel_index(idx, dims_old))
    src_pos = [layout.index_of(lab) for lab in sources]
    new_dims = [dims_old[p] for p in src_pos]
    new_flat = np.ravel_multi_index([digits[p] for p in src_pos], new_dims)
    mat = np.zeros((d, d))
    mat[new_flat, idx] = 1.0
    return mat


def _party_channel(scheme: _Scheme, party: str) -> KrausChannel:
    n = scheme.n
    d = scheme.dim[party]
    sys = scheme.sys_label[party]
    slots = list(scheme.slot_labels[party])
    outs = list(scheme.out_labels[party])
    flag = scheme.flag_label.get(party)

    in_regs = [Register(sys, d, party)]
    if flag:
        in_regs.append(Register(flag, n, party))
    in_regs += [Register(lab, d, party) for lab in slots]
    layout_in = RegisterLayout(tuple(in_regs))

    out_regs = [Register(lab, d, party) for lab in outs]
    if flag:
        out_regs.append(Register(flag, n, party))
    out_regs += [Register(lab, d, party) for lab in slots]
    layout_out = RegisterLayout(tuple(out_regs))

    fresh = [f"_fresh{j}" for j in range(1, n)]
    ext = RegisterLayout(
        layout_in.registers + tuple(Register(lab, d, party) for lab in fresh)
    )

    # injection of n-1 freshly prepared local sigma halves
    sig = scheme.sigma_local[party]
    inject_col = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n - 1):
        inject_col = np.kron(inject_col, sig.reshape(-1, 1))
    inject = np.kron(np.eye(layout_in.total_dim), inject_col)

    # flag advance, positioned after the move (flag sits between outs and slots)
    if flag:
        shift = np.zeros((n, n))
        for f in range(n):
            shift[(f + 1) % n, f] = 1.0
        advance = np.kron(
            np.kron(np.eye(d**n), shift), np.eye(d ** (n - 1) if n > 1 else 1)
        )
    else:
        advance = None

    # stage gates on the input space
    gates = []
    if flag:
        for stage in range(n):
            proj = np.zeros((n, n))
            proj[stage, stage] = 1.0
            gates.append(
                np.kron(np.kron(np.eye(d), proj), np.eye(d ** (n - 1) if n > 1 else 1))
            )
    else:
        rho_proj = scheme.rho_local_basis[party] @ scheme.rho_local_basis[party].conj().T
        sig_proj = np.outer(sig, sig.conj())
        for stage in range(n):
            g = np.eye(d)
            for j in range(n - 1):
                g = np.kron(g, rho_proj if j < stage else sig_proj)
            gates.append(g)

    kraus = []
    for stage in range(n):
        if stage < n - 1:
            sources = [slots[stage]] + fresh  # displaced sigma half, then fresh
            sources += ([flag] if flag else [])
            sources += [slots[j] if j != stage else sys for j in range(n - 1)]
        else:
            sources = [sys] + slots
            sources += ([flag] if flag else [])
            sources += fresh
        move = _register_move_matrix(ext, sources)
        k = move @ inject @ gates[stage]
        if advance is not None:
            k = advance @ k
        kraus.append(k)
    total = sum(g for g in gates)
    residual = np.eye(layout_in.total_dim) - total
    if float(np.max(np.abs(residual))) > TOL.gate_residual_atol:
        # complete to a channel; this Kraus never fires on protocol states
        embed = np.zeros((layout_out.total_dim, layout_in.total_dim))
        embed[: layout_in.total_dim, :] = np.eye(layout_in.total_dim)
        kraus.append(embed @ residual)
    return KrausChannel(kraus, layout_in, layout_out)


def build_clo_channels(
    rho: QuantumState, sigma: QuantumState, n: int, mode: str = "auto"
) -> tuple[KrausChannel, KrausChannel]:
    """The two local channels of the copy-cycling protocol."""
    scheme = _analyze(rho, sigma, n, mode)
    return _party_channel(scheme, ALICE), _party_channel(scheme, BOB)


def mixture_target(rho: QuantumState, sigma: QuantumState, n: int) -> QuantumState:
    """(1/n) rho^(x)n + ((n-1)/n) sigma^(x)n on the protocol's output labels."""
    scheme = _analyze(rho, sigma, n, "auto")
    regs = [
        Register(lab, scheme.dim[ALICE], ALICE) for lab in scheme.out_labels[ALICE]
    ] + [Register(lab, scheme.dim[BOB], BOB) for lab in scheme.out_labels[BOB]]
    layout = RegisterLayout(tuple(regs))
    rho_factors = tuple(
        Factor(
            (scheme.out_labels[ALICE][j], scheme.out_labels[BOB][j]), scheme.rho_vector
        )
        for j in range(n)
    )
    branches = [EnsembleBranch(1.0 / n, rho_factors)]
    if n > 1:
        sig_factors = []
        for j in range(n):
            sig_factors.append(
                Factor((scheme.out_labels[ALICE][j],), scheme.sigma_local[ALICE])
            )
            sig_factors.append(
                Factor((scheme.out_labels[BOB][j],), scheme.sigma_local[BOB])
            )
        branches.append(EnsembleBranch((n - 1.0) / n, tuple(sig_factors)))
    return QuantumState.from_branches(layout, tuple(branches))


@dataclasses.dataclass(frozen=True)
class CatalyticProtocol:
    n: int
    mode: str
    rho: QuantumState
    sigma: QuantumState
    catalyst: QuantumState
    alice_channel: KrausChannel
    bob_channel: KrausChannel
    output_labels: tuple[str, ...]
    catalyst_labels: tuple[str, ...]
    flag_labels: tuple[str, str] | None


def build_protocol(
    rho: QuantumState, sigma: QuantumState, n: int, mode: str = "auto"
) -> CatalyticProtocol:
    scheme = _analyze(rho, sigma, n, mode)
    catalyst = build_catalyst(rho, sigma, n, scheme.mode)
    alice = _party_channel(scheme, ALICE)
    bob = _party_channel(scheme, BOB)
    flags = None
    if scheme.flag_label:
        flags = (scheme.flag_label[ALICE], scheme.flag_label[BOB])
    return CatalyticProtocol(
        n=n,
        mode=scheme.mode,
        rho=rho,
        sigma=sigma,
        catalyst=catalyst,
        alice_channel=alice,
        bob_channel=bob,
        output_labels=scheme.out_labels[ALICE] + scheme.out_labels[BOB],
        catalyst_labels=catalyst.layout.labels,
        flag_labels=flags,
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
    joint_available: bool
    joint_state: QuantumState


@dataclasses.dataclass(frozen=True)
class SensitivityReport:
    restoration_distance: float
    output_distance: float


def _execute(protocol: CatalyticProtocol, input_state: QuantumState) -> QuantumState:
    joint = tensor_states(input_state.as_ensemble(), protocol.catalyst)
    joint = apply_channel(protocol.alice_channel, joint)
    joint = apply_channel(protocol.bob_channel, joint)
    n = protocol.n
    half = len(protocol.output_labels) // 2
    a_outs = list(protocol.output_labels[:half])
    b_outs = list(protocol.output_labels[half:])
    a_cat = [
        lab
        for lab in protocol.catalyst_labels
        if protocol.catalyst.layout.party_of(lab) == ALICE
    ]
    b_cat = [lab for lab in protocol.catalyst_labels if lab not in set(a_cat)]
    return joint.permuted(a_outs + a_cat + b_outs + b_cat)


def catalyst_sn_certificate(protocol: CatalyticProtocol, state: QuantumState) -> SNCertificate:
    if len(state.layout) == 0 or not any(
        state.layout.party_of(lab) == ALICE and lab not in (protocol.flag_labels or ())
        for lab in state.layout.labels
    ):
        # no quantum slots at all (single-stage cycle): shared randomness only
        return SNCertificate(1, 1, "flagged-block-oracle", {"blocks": {}})
    return sn_flagged_blocks(state, protocol.flag_labels)


def run_clo(
    protocol: CatalyticProtocol,
    input_state: QuantumState,
    enforce_input: bool = True,
) -> CloRunReport:
    """Run both local channels on input (x) catalyst and audit the result."""
    if enforce_input:
        dist = trace_distance(input_state, protocol.rho)
        if dist > TOL.input_match_atol:
            raise ProtocolError(
                f"input is {dist:.3e} away from the protocol's rho; the catalyst "
                f"is only guaranteed for the declared input"
            )
    joint = _execute(protocol, input_state)
    output = joint.marginal(list(protocol.output_labels))
    catalyst_out = (
        joint.marginal(list(protocol.catalyst_labels))
        if protocol.catalyst_labels
        else QuantumState.empty()
    )
    target = mixture_target(protocol.rho, protocol.sigma, protocol.n)
    restoration = (
        trace_distance(catalyst_out, protocol.catalyst)
        if protocol.catalyst_labels
        else 0.0
    )
    out_dist = trace_distance(output, target)
    cert = catalyst_sn_certificate(protocol, protocol.catalyst)
    return CloRunReport(
        n=protocol.n,
        mode=protocol.mode,
        output_state=output,
        target_state=target,
        catalyst_state=catalyst_out,
        restoration_distance=restoration,
        output_distance=out_dist,
        catalyst_sn=cert,
        joint_available=joint.layout.total_dim <= DENSE_CAP,
        joint_state=joint,
    )


def verify_input_sensitivity(
    protocol: CatalyticProtocol, wrong_input: QuantumState
) -> SensitivityReport:
    """Run the channels on a non-declared input and report how badly the
    catalyst restoration and the output fail."""
    joint = _execute(protocol, wrong_input)
    target = mixture_target(protocol.rho, protocol.sigma, protocol.n)
    output = joint.marginal(list(protocol.output_labels))
    restoration = 0.0
    if protocol.catalyst_labels:
        catalyst_out = joint.marginal(list(protocol.catalyst_labels))
        restoration = trace_distance(catalyst_out, protocol.catalyst)
    return SensitivityReport(
        restoration_distance=restoration,
        output_distance=trace_distance(output, target),
    )
