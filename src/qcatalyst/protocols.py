"""Round-based simulator for local protocols with bounded quantum messages.

A protocol is a sequence of rounds. A local round applies an instrument to
registers owned by one party; its classical outcome may be broadcast, and a
later round may select its instrument by the outcome of an earlier broadcast
round. A send round hands a register to the other party; the product of the
dimensions of all sent registers is capped by the protocol's quantum budget.
Protocols with budget 1 are purely classical communication (LOCC), and
local rounds alone, with no broadcast and no message, are catalytic local
operations: ``catalysis`` runs its two channels as such a protocol, so every
protocol of the package goes through ``run_protocol`` and its ownership
checks.

A channel is the one-outcome instrument and is passed to a round as it is;
protocol JSON writes every round map in the instrument format.

A run is planned, then executed. Every leaf of a run shares the input's
layout as the rounds change it, so ``_plan`` checks each round once, on that
layout, before any map runs: ownership of what it touches and sends, the
registers it creates, and an instrument for every outcome its selector can
give. It lists the run's steps: a round, or a measurement whose outcome only
the next round reads and which is retired there, paired with that round
(``states.measure_and_correct``), so that its outcomes form no leaves. The
execution then enumerates every outcome path exactly, producing a tree of
leaves (path, probability, pure-or-ensemble state), unless ``keep`` names the
rounds whose outcomes the caller reads: then each other outcome is retired
once no later round selects by it, and the leaves that only it told apart
merge into one, coalesced, carrying their summed probability. Every map goes
through the one kernel of ``states``, which weighs a widening operator before
forming its product: once per branch for a round, twice for a combined step
(the measurement, then the corrections it selects). Every round runs on
every leaf, so what a run sends and broadcasts is read off the protocol
itself (``quantum_dimension_used``, ``broadcast_rounds``). Schmidt number
cannot grow under local processing and classical talk, and grows by at most
a factor of the total sent dimension, which ``ledger_bound`` turns into the
certified cap.

Two compilers build protocols that ship a mixture state of bipartite pure
branches: the converse (filter the input to a maximally entangled pair,
extend it by a transmitted link, teleport a sampled branch) and the catalyst
preparation (sample a catalyst branch and send Bob's half in one message).
Both split the mixture the same way (``_split_mixture``: one cut per branch,
its rank counted at ``TOL.protocol_rank_rtol`` so that no coefficient the
protocol must reproduce is dropped) and ship a branch through one step,
``_ship``: Alice samples it, prepares it with Bob's half on the first levels
of a message register, and Bob decompresses that half.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
from collections.abc import Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .errors import ProtocolError, ValidationError
from .registers import (
    ALICE,
    BOB,
    EMPTY_LAYOUT,
    CutDecomposition,
    Register,
    RegisterLayout,
    TOL,
    _brief,
    is_positive_int,
    svd_across_cut,
)
from .states import (
    EnsembleBranch,
    Instrument,
    KrausChannel,
    QuantumState,
    _output_layout,
    _resolve_targets,
    apply_instrument,
    coalesce,
    malformed_json,
    max_entangled_vector,
    measure_and_correct,
)
from .entanglement import SNCertificate

LOCAL = "local"
SEND = "send"
MAX_LEAVES = 200_000


# -- rounds and protocols ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ProtocolRound:
    """One local or send round; every builder, ``from_json`` included, goes
    through these checks."""

    name: str
    kind: str
    party: str
    targets: Sequence[str] | None = None  # None: the instruments' inputs
    instrument: Instrument | None = None
    instruments_by_outcome: Mapping[str, Instrument] | None = None
    select_by: str | None = None
    broadcast: bool = False
    register: str | None = None
    to_party: str | None = None
    dim: int | None = None

    def __post_init__(self):
        if self.kind == LOCAL:
            self._check_local()
        elif self.kind == SEND:
            if not self.register or not self.to_party or not is_positive_int(self.dim):
                raise ValidationError(
                    f"send round {self.name!r} needs register, to_party and an "
                    f"integer dim >= 1, got dim {_brief(self.dim)}"
                )
            if self.to_party == self.party:
                raise ValidationError(f"round {self.name!r} sends to the sender")
        else:
            raise ValidationError(f"unknown round kind {_brief(self.kind)}")
        if not isinstance(self.broadcast, bool):
            raise ValidationError(f"round {self.name!r}: broadcast is not a boolean")

    def _check_local(self) -> None:
        """One instrument, or one per outcome of ``select_by`` on the same
        input dimensions and output layout, and string targets."""
        fixed = self.instrument is not None
        if fixed == (self.instruments_by_outcome is not None):
            raise ValidationError(
                f"round {self.name!r} needs exactly one of instrument / "
                f"instruments_by_outcome"
            )
        if fixed == bool(self.select_by):
            raise ValidationError(
                f"round {self.name!r}: select_by goes with instruments_by_outcome"
            )
        maps = [self.instrument] if fixed else list(self.instruments_by_outcome.values())
        if not maps:
            raise ValidationError(f"round {self.name!r} has no instruments")
        for inst in maps[1:]:
            if inst.layout_in.dims != maps[0].layout_in.dims:
                raise ValidationError(
                    f"round {self.name!r}: instruments disagree on input dimensions"
                )
            if inst.layout_out != maps[0].layout_out:
                raise ValidationError(
                    f"round {self.name!r}: instruments disagree on output registers"
                )
        targets = maps[0].layout_in.labels if self.targets is None else self.targets
        if isinstance(targets, str) or not (
            isinstance(targets, Sequence) and all(isinstance(t, str) for t in targets)
        ):
            raise ValidationError(
                f"round {self.name!r}: targets {_brief(targets)} are not a list "
                f"of register labels"
            )
        object.__setattr__(self, "targets", tuple(targets))


def local_round(
    name: str,
    party: str,
    instrument: Instrument,
    targets: Sequence[str] | None = None,
    broadcast: bool = False,
) -> ProtocolRound:
    return ProtocolRound(
        name=name,
        kind=LOCAL,
        party=party,
        targets=targets,
        instrument=instrument,
        broadcast=broadcast,
    )


def adaptive_round(
    name: str,
    party: str,
    instruments_by_outcome: Mapping[str, Instrument],
    select_by: str,
    targets: Sequence[str] | None = None,
    broadcast: bool = False,
) -> ProtocolRound:
    return ProtocolRound(
        name=name,
        kind=LOCAL,
        party=party,
        targets=targets,
        instruments_by_outcome=types.MappingProxyType(dict(instruments_by_outcome)),
        select_by=select_by,
        broadcast=broadcast,
    )


def send_round(
    name: str, party: str, register: str, to_party: str, dim: int
) -> ProtocolRound:
    return ProtocolRound(
        name=name,
        kind=SEND,
        party=party,
        register=register,
        to_party=to_party,
        dim=dim,
    )


def _round_from_json(entry: Mapping) -> ProtocolRound:
    name, kind, party = entry["name"], entry["kind"], entry["party"]
    if kind == SEND:
        return send_round(name, party, entry["register"], entry["to_party"], entry["dim"])
    if kind != LOCAL:
        raise ValidationError(f"unknown round kind {_brief(kind)}")
    targets, broadcast = entry["targets"], entry.get("broadcast", False)
    if "instrument" in entry:
        instrument = Instrument.from_json(entry["instrument"])
        return local_round(name, party, instrument, targets, broadcast)
    maps = {k: Instrument.from_json(v) for k, v in entry["instruments_by_outcome"].items()}
    return adaptive_round(name, party, maps, entry["select_by"], targets, broadcast)


@dataclasses.dataclass(frozen=True)
class SloccqProtocol:
    """Protocol with a hard cap on total transmitted quantum dimension."""

    rounds: tuple[ProtocolRound, ...]
    dimension_budget: int

    def __post_init__(self):
        if not is_positive_int(self.dimension_budget):
            budget = _brief(self.dimension_budget)
            raise ValidationError(f"dimension budget {budget} is not an integer >= 1")
        seen: set[str] = set()
        broadcast_before: set[str] = set()
        for rnd in self.rounds:
            if rnd.name in seen:
                raise ValidationError(f"duplicate round name {rnd.name!r}")
            if rnd.select_by is not None and rnd.select_by not in broadcast_before:
                raise ValidationError(
                    f"round {rnd.name!r} selects by {rnd.select_by!r}, which is "
                    f"not an earlier broadcast round"
                )
            seen.add(rnd.name)
            if rnd.kind == LOCAL and rnd.broadcast:
                broadcast_before.add(rnd.name)
        used = self.quantum_dimension_used
        if used > self.dimension_budget:
            raise ProtocolError(
                f"protocol sends total quantum dimension {used}, over the "
                f"budget {self.dimension_budget}"
            )

    @property
    def quantum_dimension_used(self) -> int:
        return math.prod(r.dim for r in self.rounds if r.kind == SEND)

    @property
    def broadcast_rounds(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rounds if r.kind == LOCAL and r.broadcast)

    def to_json(self) -> dict:
        rounds = []
        for r in self.rounds:
            entry: dict = {"name": r.name, "kind": r.kind, "party": r.party}
            if r.kind == LOCAL:
                entry["targets"] = list(r.targets)
                entry["broadcast"] = r.broadcast
                if r.instrument is not None:
                    entry["instrument"] = r.instrument.to_json()
                else:
                    entry["select_by"] = r.select_by
                    entry["instruments_by_outcome"] = {
                        k: v.to_json()
                        for k, v in r.instruments_by_outcome.items()
                    }
            else:
                entry["register"] = r.register
                entry["to_party"] = r.to_party
                entry["dim"] = r.dim
            rounds.append(entry)
        return {"dimension_budget": self.dimension_budget, "rounds": rounds}

    @classmethod
    def from_json(cls, data: Mapping) -> "SloccqProtocol":
        """Built round by round through the round helpers, so it refuses what
        they refuse, and a malformed document in one line."""
        with malformed_json("protocol"):
            rounds = tuple(_round_from_json(entry) for entry in data["rounds"])
            return cls(rounds, data["dimension_budget"])


# -- execution --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BranchLeaf:
    path: tuple[tuple[str, str], ...]
    probability: float
    state: QuantumState


@dataclasses.dataclass(frozen=True)
class BranchTree:
    leaves: tuple[BranchLeaf, ...]
    retired: tuple[str, ...] = ()  # rounds whose outcomes no path records


class _Step(NamedTuple):
    """One step of a planned run: a round, or a fixed measurement with the
    adaptive round that alone reads it (``then``), which applies
    ``corrections[m]`` after the measurement's ``m``-th outcome; the most
    outcomes a leaf branches into; and the rounds whose outcomes are spent
    once the step has run."""

    rnd: ProtocolRound
    then: ProtocolRound | None
    corrections: list[Instrument] | None
    fan_out: int
    spent: tuple[str, ...]


def _plan(
    protocol: SloccqProtocol, layout: RegisterLayout, keep: Sequence[str] | None
) -> tuple[list[_Step], RegisterLayout]:
    """Check a run of ``protocol`` on an input over ``layout`` before any map
    runs, each round once, on the layout all leaves share (the maps of a
    round share their output layout), and return its steps and the layout
    it ends on. An outcome is spent once no later round selects by it,
    unless ``keep`` names its round (``keep=None`` spends none)."""
    rounds = protocol.rounds
    if keep is not None:
        unknown = sorted(set(keep) - {rnd.name for rnd in rounds})
        if unknown:
            raise ProtocolError(f"keep names rounds the protocol does not have: {unknown}")
    last_read: dict[str, int] = {}
    for i, rnd in enumerate(rounds):
        if rnd.kind == LOCAL:
            last_read[rnd.name] = i
        if rnd.select_by is not None:
            last_read[rnd.select_by] = i
    spent: list[set[str]] = [set() for _ in rounds]
    for name, i in last_read.items():
        if keep is not None and name not in keep:
            spent[i].add(name)
    outcomes: dict[str, list[str]] = {}  # the outcomes each local round can give
    steps: list[_Step] = []
    for i, rnd in enumerate(rounds):
        if rnd.kind == SEND:
            if rnd.register not in layout:
                raise ProtocolError(
                    f"round {rnd.name!r} sends unknown register {rnd.register!r}"
                )
            reg = layout[rnd.register]
            if reg.party != rnd.party:
                raise ProtocolError(
                    f"round {rnd.name!r}: {rnd.party} does not own {rnd.register!r}"
                )
            if reg.dim != rnd.dim:
                raise ProtocolError(
                    f"round {rnd.name!r} declared dimension {rnd.dim} but "
                    f"{rnd.register!r} has dimension {reg.dim}"
                )
            layout = layout.with_party(rnd.register, rnd.to_party)
            steps.append(_Step(rnd, None, None, 1, ()))
            continue
        for lab in rnd.targets:
            owner = layout.party_of(lab)
            if owner != rnd.party:
                raise ProtocolError(
                    f"round {rnd.name!r}: party {rnd.party} cannot touch register "
                    f"{lab!r} owned by {owner}"
                )
        if rnd.instrument is not None:
            maps = [rnd.instrument]
        else:
            maps = []
            for outcome in outcomes[rnd.select_by]:
                if outcome not in rnd.instruments_by_outcome:
                    raise ProtocolError(
                        f"round {rnd.name!r} has no instrument for outcome "
                        f"{outcome!r} of {rnd.select_by!r}"
                    )
                maps.append(rnd.instruments_by_outcome[outcome])
        for reg in maps[0].layout_out.registers:  # shared by the round's maps
            if reg.party != rnd.party:
                raise ProtocolError(
                    f"round {rnd.name!r} would create register "
                    f"{reg.label!r} for {reg.party}"
                )
        targets = _resolve_targets(layout, maps[0].layout_in, rnd.targets)
        layout = _output_layout(layout, targets, maps[0].layout_out)
        outcomes[rnd.name] = list(dict.fromkeys(o for inst in maps for o in inst.outcome_labels))
        prev = steps[-1].rnd if steps else None
        if (
            prev is not None
            and prev.instrument is not None
            and rnd.select_by == prev.name
            and spent[i] == {prev.name, rnd.name}
        ):
            steps[-1] = _Step(prev, rnd, maps, 1, tuple(sorted(spent[i])))
        else:
            fan_out = max(len(inst.branches) for inst in maps)
            steps.append(_Step(rnd, None, None, fan_out, tuple(sorted(spent[i]))))
    return steps, layout


def _retire(leaves: list[BranchLeaf], spent: Sequence[str]) -> list[BranchLeaf]:
    """Forget the outcomes of the ``spent`` rounds: the leaves left with the
    same path merge into one (measuring and forgetting an outcome is the
    same channel as never reading it)."""
    groups: dict[tuple, list[BranchLeaf]] = {}
    for leaf in leaves:
        path = tuple(step for step in leaf.path if step[0] not in spent)
        groups.setdefault(path, []).append(leaf)
    merged = []
    for path, group in groups.items():
        one = group[0]
        state, probability = (one.state, one.probability) if len(group) == 1 else _mix_leaves(group)
        merged.append(BranchLeaf(path, probability, state))
    return merged


def run_protocol(
    protocol: SloccqProtocol,
    initial: QuantumState,
    keep: Sequence[str] | None = None,
) -> BranchTree:
    """Enumerate all outcome paths of the protocol on the given input, once
    ``_plan`` has checked the whole run, before any map runs.

    With ``keep=None`` every outcome path is a leaf. Otherwise ``keep`` names
    the rounds whose outcomes the caller reads (a postselection, say), and
    naming a round the protocol does not have is refused. Every other
    outcome is retired once no later round selects by it (see ``_retire``),
    and ``final_state`` refuses to postselect on it. A round whose outcome
    only the next round reads, and which is retired with that round's
    outcome (a teleportation's Bell measurement and correction, say), runs
    with it as one ``measure_and_correct`` step per leaf, which forms no
    leaf per outcome; every other round applies its instrument to each leaf
    through ``apply_instrument``; both go through the one map kernel of
    ``states``. Before a step runs, the leaves it could form (leaves times
    outcomes per leaf; none added by a combined step) are bounded by
    ``MAX_LEAVES``.
    """
    steps, _ = _plan(protocol, initial.layout, keep)
    leaves = [BranchLeaf((), 1.0, initial)]
    retired: list[str] = []
    for rnd, then, corrections, fan_out, spent in steps:
        bound = len(leaves) * fan_out
        if bound > MAX_LEAVES:
            raise ProtocolError(
                f"round {rnd.name!r} would form up to {bound} leaves, over the "
                f"limit of {MAX_LEAVES}"
            )
        new_leaves = []
        for leaf in leaves:
            if rnd.kind == SEND:
                state = leaf.state.with_party(rnd.register, rnd.to_party)
                new_leaves.append(BranchLeaf(leaf.path, leaf.probability, state))
            elif then is not None:
                prob, state = measure_and_correct(
                    rnd.instrument, corrections, leaf.state, rnd.targets, then.targets
                )
                new_leaves.append(BranchLeaf(leaf.path, leaf.probability * prob, state))
            else:
                inst = rnd.instrument
                if inst is None:
                    inst = rnd.instruments_by_outcome[dict(leaf.path)[rnd.select_by]]
                for outcome, prob, state in apply_instrument(inst, leaf.state, rnd.targets):
                    path = leaf.path + ((rnd.name, outcome),)
                    new_leaves.append(BranchLeaf(path, leaf.probability * prob, state))
        leaves = _retire(new_leaves, spent) if spent else new_leaves
        retired.extend(spent)
    return BranchTree(tuple(leaves), tuple(retired))


def _mix_leaves(leaves: Sequence[BranchLeaf]) -> tuple[QuantumState, float]:
    """The probability-weighted mixture of the leaves' states, coalesced, and
    the total probability the leaves carry. The leaves of a run share their
    layout (``_plan``)."""
    total = sum(leaf.probability for leaf in leaves)
    branches = tuple(
        EnsembleBranch(leaf.probability / total * br.probability, br.factors)
        for leaf in leaves
        for br in leaf.state.branches
    )
    return coalesce(QuantumState(leaves[0].state.layout, branches)), total


def final_state(
    tree: BranchTree,
    postselect: Sequence[tuple[str, str]] | None = None,
) -> tuple[QuantumState, float]:
    """Average the leaves (optionally only those matching the postselection).

    Returns the normalized state, coalesced, and the total probability it
    carries. A postselection on a retired round is refused: no path records
    its outcome any more.
    """
    wanted = list(postselect or [])
    retired = sorted({name for name, _ in wanted} & set(tree.retired))
    if retired:
        raise ProtocolError(
            f"postselection on retired rounds {retired}; name them in keep"
        )
    picked = [
        leaf
        for leaf in tree.leaves
        if all(pair in leaf.path for pair in wanted)
    ]
    if not picked or sum(leaf.probability for leaf in picked) <= 0.0:
        raise ProtocolError("postselection removed every branch")
    return _mix_leaves(picked)


# -- ledger bounds ----------------------------------------------------------


def ledger_bound(input_sn_upper: int, quantum_dimension: int) -> SNCertificate:
    """Sound Schmidt-number cap for anything a protocol that sends total
    quantum dimension ``quantum_dimension`` can output from an input of
    Schmidt number at most ``input_sn_upper``; the one place the cap is formed.

    Local processing and classical talk cannot raise Schmidt number, and a
    quantum message of dimension q raises it by a factor of at most q. A
    target whose certified lower bound exceeds the cap is out of reach of
    every protocol in the class.
    """
    return SNCertificate(1, int(input_sn_upper) * int(quantum_dimension), "ledger")


# -- linear-algebra helpers -------------------------------------------------


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def complete_isometry(cols: np.ndarray, dim: int) -> np.ndarray:
    """Unitary on C^dim whose leading columns are the given orthonormal set."""
    cols = np.asarray(cols, dtype=np.complex128).reshape(dim, -1)
    comp = np.eye(dim) - cols @ cols.conj().T
    vals, vecs = np.linalg.eigh(comp)
    extra = vecs[:, vals > 0.5]
    u = np.hstack([cols, extra])
    if u.shape != (dim, dim):
        raise ValidationError("columns are not an orthonormal set of the space")
    return u


# -- filtration to a maximally entangled state ------------------------------


@dataclasses.dataclass(frozen=True)
class FiltrationPlan:
    instrument: Instrument
    other_party_alignment: KrausChannel
    schmidt_rank: int


def filter_to_max_entangled(state: QuantumState) -> FiltrationPlan:
    """Two-outcome local filter taking a bipartite pure state to the uniform
    maximally entangled state on its Schmidt rank.

    The pass Kraus rotates the left Schmidt basis onto the leading
    computational levels while flattening the Schmidt spectrum; the companion
    unitary aligns the other party's basis the same way. Pass probability is
    rank * smallest squared Schmidt coefficient.
    """
    if len(state.layout) != 2:
        raise ValidationError("filtration expects exactly two registers")
    labels = state.layout.labels
    parties = [state.layout.party_of(lab) for lab in labels]
    if set(parties) != {ALICE, BOB}:
        raise ValidationError("filtration expects one register per party")
    if parties[0] == BOB:
        state = state.permuted((labels[1], labels[0]))
        labels = state.layout.labels
    dec = svd_across_cut(state.to_vector(), state.layout, rtol=TOL.protocol_rank_rtol)
    rank = dec.rank
    coeffs = dec.singular_values
    lam_min = float(coeffs[rank - 1] ** 2)
    da = state.layout[labels[0]].dim
    db = state.layout[labels[1]].dim
    if rank > min(da, db):
        raise ValidationError("rank exceeds a local dimension")

    flatten = np.eye(da, rank) * (math.sqrt(lam_min) / coeffs[:rank])
    left, right = dec.supports
    pass_k = flatten @ left.conj().T
    fail_k = _psd_sqrt(np.eye(da) - pass_k.conj().T @ pass_k)
    reg_a = RegisterLayout((Register(labels[0], da, ALICE),))
    instrument = Instrument(
        [("pass", [pass_k]), ("fail", [fail_k])], reg_a, reg_a
    )
    # only the first rank columns act on the passed state; the rest of the
    # basis is rotated anywhere orthonormal
    align = complete_isometry(right, db).conj().T
    reg_b = RegisterLayout((Register(labels[1], db, BOB),))
    return FiltrationPlan(
        instrument=instrument,
        other_party_alignment=KrausChannel.from_unitary(align, reg_b),
        schmidt_rank=rank,
    )


# -- teleportation ----------------------------------------------------------


def shift_clock_unitaries(dim: int) -> np.ndarray:
    """All dim^2 shift-clock unitaries X^q Z^p on C^dim as one (dim^2, dim,
    dim) array indexed by q * dim + p, in closed form: X^q Z^p maps |m> to
    omega^(p m) |m + q>, with omega^(p m) the p-th power of the clock phase
    omega^m."""
    m = np.arange(dim)
    k = np.arange(dim * dim)[:, None]
    q, p = np.divmod(k, dim)
    w = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    w[k, (m + q) % dim, m] = (np.exp(2j * np.pi / dim) ** m) ** p
    return w


def _bell_labels(dim: int) -> list[str]:
    """Outcome labels ``q<q>p<p>`` in the order of ``shift_clock_unitaries``."""
    return [f"q{q}p{p}" for q in range(dim) for p in range(dim)]


def bell_basis(dim: int) -> list[tuple[str, np.ndarray]]:
    """The generalized Bell vectors (W_qp x I)|Phi>, formed as vec(W_qp Phi)
    by one product over ``shift_clock_unitaries(dim)``."""
    phi = max_entangled_vector(dim).reshape(dim, dim)
    rows = (shift_clock_unitaries(dim) @ phi).reshape(dim * dim, -1)
    return list(zip(_bell_labels(dim), rows))


def bell_measurement_instrument(
    message: str, resource: str, dim: int, party: str
) -> Instrument:
    """Destructive measurement in the generalized Bell basis of two registers."""
    layout_in = RegisterLayout(
        (Register(message, dim, party), Register(resource, dim, party))
    )
    branches = [
        (label, [vec.conj().reshape(1, -1)]) for label, vec in bell_basis(dim)
    ]
    return Instrument(branches, layout_in, EMPTY_LAYOUT)


@functools.lru_cache(maxsize=8)  # a process meets few dimensions
def teleport_rounds(
    message: str, resource_here: str, resource_there: str, dim: int
) -> tuple[ProtocolRound, ProtocolRound]:
    """Bell measurement at Alice plus conditioned correction at Bob;
    consumes the shared maximally entangled resource pair. Built and checked
    once per labels and dimension: rounds and instruments are read-only."""
    measure = local_round(
        "teleport-measure",
        ALICE,
        bell_measurement_instrument(message, resource_here, dim, ALICE),
        broadcast=True,
    )
    reg = RegisterLayout((Register(resource_there, dim, BOB),))
    corrections = {
        label: KrausChannel.from_unitary(w, reg)
        for label, w in zip(_bell_labels(dim), shift_clock_unitaries(dim))
    }
    correct = adaptive_round(
        "teleport-correct", BOB, corrections, select_by="teleport-measure"
    )
    return measure, correct


# -- the shipping step shared by both compilers -----------------------------


def _sampling_round(weights: Sequence[float]) -> ProtocolRound:
    """Alice draws outcome ``c<i>`` with probability ``weights[i]`` and
    broadcasts it."""
    sampler = Instrument(
        [
            (f"c{i}", [np.array([[math.sqrt(w)]], dtype=np.complex128)])
            for i, w in enumerate(weights)
        ],
        EMPTY_LAYOUT,
        EMPTY_LAYOUT,
    )
    return local_round("sample", ALICE, sampler, targets=(), broadcast=True)


def _ship(
    parts: Sequence[tuple[float, CutDecomposition]],
    dim: int,
    alice: RegisterLayout,
    bob: RegisterLayout,
    source: str,
) -> tuple[ProtocolRound, ProtocolRound, ProtocolRound]:
    """Sample a pure component and hand Bob his half through a message.

    ``parts`` holds each component's weight and cut decomposition (Alice's
    registers ``alice`` left, Bob's ``bob`` right), whose rank is the one the
    message must carry. Alice
    prepares the sampled component with Bob's half on the first levels of a
    ``dim``-level register ``S``; once the message sits in Bob's register
    ``source``, he decompresses it onto ``bob``. Returns the sampling,
    preparation and decompression rounds.
    """
    sample = _sampling_round([w for w, _ in parts])
    prep_layout = alice.concat(RegisterLayout((Register("S", dim, ALICE),)))
    msg_layout = RegisterLayout((Register(source, dim, BOB),))
    preps, decos = {}, {}
    for outcome, (_, dec) in zip(sample.instrument.outcome_labels, parts):
        preps[outcome] = KrausChannel.preparation(_far_half_on_levels(dec, dim), prep_layout)
        # columns past the Schmidt vectors complete the isometry, never fire
        cols = complete_isometry(dec.supports[1], bob.total_dim)[:, :dim]
        decos[outcome] = KrausChannel([cols], msg_layout, bob)
    return (
        sample,
        adaptive_round("prepare", ALICE, preps, select_by=sample.name, targets=()),
        adaptive_round("decompress", BOB, decos, select_by=sample.name),
    )


def _split_mixture(mixture: QuantumState):
    """A mixture as both compilers ship it: its ensemble with Alice's
    registers first, the layouts of her registers and of Bob's, and each
    branch's weight and cut decomposition (Alice's half left, so its left
    basis is indexed like her registers), ranked at ``TOL.protocol_rank_rtol``
    so that a shipped branch keeps every coefficient."""
    labels_a = mixture.layout.party_labels(ALICE)
    labels_b = mixture.layout.party_labels(BOB)
    if not labels_a or not labels_b:
        raise ValidationError("a shipped mixture must span both parties")
    mix = mixture.permuted(labels_a + labels_b)
    parts = [
        (
            br.probability,
            svd_across_cut(
                mix.branch_vector(br), mix.layout, rtol=TOL.protocol_rank_rtol
            ),
        )
        for br in mix.branches
    ]
    return mix, mix.layout.subset(labels_a), mix.layout.subset(labels_b), parts


def _far_half_on_levels(dec: CutDecomposition, dim: int) -> np.ndarray:
    """The ket sum_m s_m |left_m>|m> of a cut decomposition: its leading
    ``dec.rank`` Schmidt terms with the far half moved onto the first levels
    of a ``dim``-level message register."""
    mat = np.zeros((dec.left_basis.shape[0], dim), dtype=np.complex128)
    mat[:, : dec.rank] = dec.supports[0] * dec.singular_values[: dec.rank]
    return mat.reshape(-1)


# -- the converse construction ----------------------------------------------


def _compress_channel(
    layout_in: RegisterLayout,
    support: np.ndarray,
    out_label: str,
    party: str,
) -> KrausChannel:
    """Partial isometry onto a smaller register spanning the given support.

    ``support`` holds orthonormal columns of the input space; column m maps to
    level m of the output register. A measure-and-reset completion handles the
    orthocomplement so the map is a channel on the whole space.
    """
    d_in = layout_in.total_dim
    k = support.shape[1]
    layout_out = RegisterLayout((Register(out_label, k, party),))
    kraus = [support.conj().T]  # (k, d_in)
    for col in complete_isometry(support, d_in)[:, k:].T:
        k_m = np.zeros((k, d_in), dtype=np.complex128)
        k_m[0, :] = col.conj()
        kraus.append(k_m)
    return KrausChannel(kraus, layout_in, layout_out)


@dataclasses.dataclass(frozen=True)
class ConverseProtocol:
    protocol: SloccqProtocol
    target: QuantumState
    postselect: tuple[tuple[str, str], ...]


def construct_converse(
    rho: QuantumState, mixture: QuantumState, quantum_dimension: int
) -> ConverseProtocol:
    """Protocol reaching a mixture of bipartite pure branches from one copy
    of ``rho`` with a single quantum message of the given dimension.

    The input is filtered to a maximally entangled state of its Schmidt rank
    k, extended by a locally prepared and partly transmitted pair into a
    maximally entangled resource of dimension k*q, and each branch of the
    mixture is then created by the sampling party and teleported across.
    Every branch must have Schmidt rank at most k*q across the party cut.
    The target is the mixture with Alice's registers first.
    """
    d = int(quantum_dimension)
    if d < 1:
        raise ValidationError("quantum dimension must be >= 1")
    a_label, b_label = rho.layout.labels
    if rho.layout.party_of(a_label) != ALICE:
        a_label, b_label = b_label, a_label
    plan = filter_to_max_entangled(rho)
    dk = plan.schmidt_rank * d
    link = RegisterLayout((Register("E1", d, ALICE), Register("E2", d, ALICE)))
    rounds = [
        local_round("filter", ALICE, plan.instrument, broadcast=True),
        local_round("align", BOB, plan.other_party_alignment),
        local_round(
            "prep-link",
            ALICE,
            KrausChannel.preparation(max_entangled_vector(d), link),
            targets=(),
        ),
        send_round("send-link", ALICE, "E2", BOB, d),
    ]
    # compress (system half, link half) into one register per side: the
    # filtered pair and the link occupy the leading k*d joint levels
    for party, label, half, out in (
        (ALICE, a_label, "E1", "RA"),
        (BOB, b_label, "E2", "RB"),
    ):
        lay = RegisterLayout(
            (Register(label, rho.layout[label].dim, party), Register(half, d, party))
        )
        support = np.eye(lay.total_dim, dk, dtype=np.complex128)
        rounds.append(
            local_round(
                f"compress-{out}", party, _compress_channel(lay, support, out, party)
            )
        )

    target, alice, bob, parts = _split_mixture(mixture)
    for i, (_, dec) in enumerate(parts):
        if dec.rank > dk:
            raise ProtocolError(
                f"component {i} has Schmidt rank {dec.rank}, beyond the "
                f"teleportable dimension {dk}"
            )
    sample, prepare, decompress = _ship(parts, dk, alice, bob, "RB")
    rounds += [sample, prepare]
    rounds += teleport_rounds("S", "RA", "RB", dk)
    rounds.append(decompress)
    return ConverseProtocol(
        protocol=SloccqProtocol(tuple(rounds), d),
        target=target,
        postselect=(("filter", "pass"),),
    )


# -- preparing a catalyst with a small quantum message ----------------------


@dataclasses.dataclass(frozen=True)
class CatalystPrepPlan:
    protocol: SloccqProtocol
    catalyst: QuantumState


def compile_catalyst_prep(catalyst: QuantumState) -> CatalystPrepPlan:
    """Protocol that builds a shared catalyst from nothing.

    The catalyst must be a mixture of pure products across the party cut
    (which stage-cycle catalysts are). Alice samples the mixture branch,
    prepares that branch with Bob's half compressed into a message register,
    and sends the message; Bob decompresses. The message dimension is the
    largest branch Schmidt rank, which matches the catalyst's certified
    Schmidt number, so the compiled protocol shows the catalyst costs no more
    quantum communication than its Schmidt number.
    """
    if len(catalyst.layout) == 0:
        # a single-stage cycle shares nothing: no rounds, no message
        return CatalystPrepPlan(SloccqProtocol((), 1), catalyst)
    cat, alice, bob, parts = _split_mixture(catalyst)
    dim_msg = max(dec.rank for _, dec in parts)
    if dim_msg > 1:
        sample, prepare, decompress = _ship(parts, dim_msg, alice, bob, "S")
        send = send_round("send-s", ALICE, "S", BOB, dim_msg)
        rounds = (sample, prepare, send, decompress)
    else:
        # Product branches are prepared by each party locally. A one-level
        # message would be correct too, but Bob's decompression then merges
        # the two halves of every branch into one factor, which made
        # `obs1 --n 3 --product-rho` three times slower (6.4 -> 20 ms, median
        # of 15 in-process runs on a 2-core VM).
        sample = _sampling_round([w for w, _ in parts])
        halves = [
            (ALICE, alice, [dec.left_basis[:, 0] for _, dec in parts]),
            (BOB, bob, [dec.right_basis[:, 0] for _, dec in parts]),
        ]
        rounds = (sample,) + tuple(
            adaptive_round(
                f"prepare-{party}",
                party,
                {
                    outcome: KrausChannel.preparation(vec, lay)
                    for outcome, vec in zip(sample.instrument.outcome_labels, vecs)
                },
                select_by=sample.name,
                targets=(),
            )
            for party, lay, vecs in halves
        )
    return CatalystPrepPlan(
        protocol=SloccqProtocol(rounds, dim_msg),
        catalyst=cat,
    )
