"""Acceptance suite: one test per headline criterion.

Each test measures its own wall-clock budget and prints the key numbers, so a
verbose run gives one pass/fail line per criterion with the quantities behind
it available on demand.
"""

import time

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    QuantumState,
    Register,
    RegisterLayout,
    SloccqProtocol,
    apply_channel,
    apply_instrument,
    build_protocol,
    filter_to_max_entangled,
    local_round,
    run_protocol,
    schmidt_rank,
    send_round,
    sn_orthogonal_mixture,
    tensor_states,
    partial_trace,
)
from qcatalyst import oracle
from qcatalyst.catalysis import _execute
from qcatalyst.pipelines import (
    _bit_flip_task,
    pipeline_lemma1,
    pipeline_obs1,
    pipeline_obs3,
    pipeline_theorem,
    qutrit_pair_states,
    separation_family,
)
from qcatalyst.sampling import random_instrument, random_pure_vector, rng


def q(report, name):
    for item in report.quantities:
        if item.name == name:
            return item
    raise AssertionError(f"report has no quantity {name!r}")


def test_criterion_1_exact_catalytic_mixing_n_1_2_3():
    for n in (1, 2, 3):
        start = time.monotonic()
        report = pipeline_lemma1(n=n)
        elapsed = time.monotonic() - start
        out_dist = q(report, "output-distance").value
        back_dist = q(report, "catalyst-restoration-distance").value
        print(
            f"criterion 1 n={n}: output {out_dist:.3e} restoration "
            f"{back_dist:.3e} ({elapsed:.2f}s)"
        )
        assert report.verdict == "verified"
        assert out_dist <= 1e-10
        assert back_dist <= 1e-10
        assert elapsed < 10.0, f"n={n} took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_separation_smallest_case():
    start = time.monotonic()
    report = pipeline_theorem(1)
    elapsed = time.monotonic() - start
    conv = q(report, "converse-distance").value
    print(
        f"criterion 2: target-sn {q(report, 'target-sn-oracle').value} "
        f"converse {conv:.3e} ({elapsed:.2f}s)"
    )
    assert report.verdict == "verified"
    assert q(report, "input-schmidt-rank").value == 2
    assert q(report, "target-sn-oracle").value == (4, 4)
    assert q(report, "target-sn-blocks").value == (4, 4)
    assert q(report, "catalyst-sn").value == (2, 2)
    assert q(report, "impossible-with-message-dim").value == (1, True)
    assert q(report, "converse-message-dimension").value == 2
    assert conv <= 1e-8
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


def test_criterion_3_separation_next_case():
    start = time.monotonic()
    report = pipeline_theorem(2)
    elapsed = time.monotonic() - start
    conv = q(report, "converse-distance").value
    print(
        f"criterion 3: target-sn {q(report, 'target-sn-oracle').value} "
        f"converse {conv:.3e} ({elapsed:.2f}s)"
    )
    assert report.verdict == "verified"
    assert q(report, "target-sn-oracle").value == (8, 8)
    assert q(report, "target-sn-blocks").value == (8, 8)
    assert q(report, "impossible-with-message-dim").value == (3, True)
    assert q(report, "converse-message-dimension").value == 4
    assert conv <= 1e-8
    assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"


def test_criterion_4_one_bit_task_and_entropy_certificate():
    report = pipeline_obs3(seeds=10)
    assert report.verdict == "verified"
    assert q(report, "locc-distance").value <= 1e-10
    assert abs(q(report, "target-conditional-entropy").value - 0.0) <= 1e-9
    labels = ["max-entangled", "product"] + [f"random-{i}" for i in range(10)]
    values = []
    for label in labels:
        value = q(report, f"conditional-entropy[{label}]").value
        values.append(value)
        assert abs(value - 1.0) <= 1e-9, f"catalyst {label}: H = {value!r}"
    print(
        f"criterion 4: locc {q(report, 'locc-distance').value:.3e} "
        f"entropies [{min(values):.12f}, {max(values):.12f}] over {len(labels)}"
    )


def test_criterion_5_bounded_message_simulation_desk_scale():
    for n, dim in ((2, 2), (3, 4)):
        start = time.monotonic()
        report = pipeline_obs1(n)
        elapsed = time.monotonic() - start
        out_dist = q(report, "output-distance").value
        print(
            f"criterion 5 n={n}: message dim "
            f"{q(report, 'message-dimension').value} output {out_dist:.3e} "
            f"({elapsed:.2f}s)"
        )
        assert report.verdict == "verified"
        assert q(report, "message-dimension").value == dim
        assert q(report, "prepared-catalyst-distance").value <= 1e-8
        assert out_dist <= 1e-8
        assert q(report, "catalyst-restoration-distance").value <= 1e-8


def _random_bounded_message_protocol(gen):
    """Three rounds, one quantum message, dims up to 4."""
    da = int(gen.integers(2, 5))
    dm = int(gen.integers(2, 5))
    db = int(gen.integers(2, 5))
    layout = RegisterLayout(
        (
            Register("A1", da, ALICE),
            Register("A2", dm, ALICE),
            Register("B", db, BOB),
        )
    )
    state = QuantumState.pure(layout, random_pure_vector(da * dm * db, gen))
    rounds = (
        local_round(
            "a-op", ALICE, random_instrument(layout.subset(["A1", "A2"]), gen),
            broadcast=True,
        ),
        send_round("move", ALICE, "A2", BOB, dm),
        local_round(
            "b-op",
            BOB,
            random_instrument(
                layout.subset(["A2", "B"]).with_party("A2", BOB), gen
            ),
        ),
    )
    return state, dm, SloccqProtocol(rounds, dm)


def test_criterion_6_property_suites():
    # (a) ledger soundness over random bounded-message protocols
    gen = rng(20260601)
    trials = 200
    for _ in range(trials):
        state, dm, protocol = _random_bounded_message_protocol(gen)
        r0 = schmidt_rank(state).rank
        tree = run_protocol(protocol, state)
        for leaf in tree.leaves:
            rank = schmidt_rank(leaf.state).rank
            assert rank <= r0 * dm, f"rank {rank} beats ledger cap {r0 * dm}"
    print(f"criterion 6a: ledger sound over {trials} random protocols")

    # (b) classical communication alone never raises Schmidt rank
    gen = rng(20260602)
    for _ in range(trials):
        da = int(gen.integers(2, 5))
        db = int(gen.integers(2, 5))
        layout = RegisterLayout(
            (Register("A", da, ALICE), Register("B", db, BOB))
        )
        state = QuantumState.pure(layout, random_pure_vector(da * db, gen))
        r0 = schmidt_rank(state).rank
        rounds = []
        for k in range(int(gen.integers(2, 4))):
            party, lab = ((ALICE, "A"), (BOB, "B"))[k % 2]
            rounds.append(
                local_round(
                    f"op{k}", party, random_instrument(layout.subset([lab]), gen),
                    broadcast=True,
                )
            )
        tree = run_protocol(SloccqProtocol(tuple(rounds), 1), state)
        for leaf in tree.leaves:
            assert schmidt_rank(leaf.state).rank <= r0
    print(f"criterion 6b: rank monotone over {trials} classical protocols")

    # (c) ensemble and dense representations agree on every pipeline state
    # small enough for a dense cross-check
    rho, sigma = qutrit_pair_states()
    fam1 = separation_family(1)
    fam2 = separation_family(2)
    prot1 = build_protocol(rho, sigma, 1, "auto")
    prot2 = build_protocol(rho, sigma, 2, "support-measurement")
    joint1, joint2 = _execute(prot1, rho), _execute(prot2, rho)
    labels1, labels2 = prot1.target.layout.labels, prot2.target.layout.labels
    out1 = joint1.marginal(labels1).permuted(labels1)
    out2 = joint2.marginal(labels2).permuted(labels2)
    _, flip_start, flip_goal = _bit_flip_task()
    states = [
        ("rho", rho),
        ("sigma", sigma),
        ("target-m2", fam1.protocol.target),
        ("target-m3", fam2.protocol.target),
        ("catalyst-n2", prot2.catalyst),
        ("clo-output-n1", out1),
        ("clo-output-n2", out2),
        ("clo-joint-n2", joint2),
        ("flip-start", flip_start),
        ("flip-goal", flip_goal),
    ]
    for name, st in states:
        assert st.layout.total_dim <= 729, name
        dense = st.densify()
        round_trip = QuantumState.from_dense_matrix(dense.entries, dense.layout_out)
        assert oracle.trace_distance(st, round_trip) <= 1e-9, name
        for party in (ALICE, BOB):
            side = [r.label for r in st.layout.registers if r.party == party]
            if not side or len(side) == len(st.layout):
                continue
            branch_route = st.marginal(side)
            rest = [lab for lab in st.layout.labels if lab not in side]
            reduced = partial_trace(dense, rest)
            dense_route = QuantumState.from_dense_matrix(reduced.entries, reduced.layout_out)
            assert oracle.trace_distance(branch_route, dense_route) <= 1e-9, name
    # channel application through both representations
    for n, prot in ((1, prot1), (2, prot2)):
        joint_in = (
            tensor_states(rho, prot.catalyst)
            if len(prot.catalyst.layout)
            else rho
        )
        ens = apply_channel(
            prot.bob_channel, apply_channel(prot.alice_channel, joint_in)
        )
        ((_, _, mid),) = oracle.apply_instrument(prot.alice_channel, joint_in.densify())
        ((_, _, den),) = oracle.apply_instrument(prot.bob_channel, mid)
        gap = oracle.trace_distance(
            ens.permuted(den.layout_out.labels),
            QuantumState.from_dense_matrix(den.entries, den.layout_out),
        )
        assert gap <= 1e-9, f"n={n} route disagreement {gap:.3e}"
    print(f"criterion 6c: {len(states)} states + 2 channel runs, routes agree")

    # (d) filtration success probability
    gen = rng(20260603)
    worst = 0.0
    for _ in range(100):
        da = int(gen.integers(2, 6))
        db = int(gen.integers(2, 6))
        layout = RegisterLayout(
            (Register("A", da, ALICE), Register("B", db, BOB))
        )
        state = QuantumState.pure(layout, random_pure_vector(da * db, gen))
        rep = schmidt_rank(state)
        lam_min = float(rep.singular_values[rep.rank - 1] ** 2)
        plan = filter_to_max_entangled(state)
        measured = {
            o: p for o, p, _ in apply_instrument(plan.instrument, state)
        }["pass"]
        gap = abs(measured - rep.rank * lam_min)
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(f"criterion 6d: filtration probability gap <= {worst:.3e} over 100")

    # (e) negative controls: corruption must flip every pipeline verdict
    corrupted = {
        "lemma1": pipeline_lemma1(n=2, corruption=1e-3),
        "theorem": pipeline_theorem(1, corruption=1e-3),
        "obs1": pipeline_obs1(2, corruption=1e-3),
        "obs3": pipeline_obs3(seeds=2, corruption=1e-3),
    }
    for name, report in corrupted.items():
        assert report.verdict == "falsified", f"{name} not flipped"
    print("criterion 6e: corruption flips all 4 pipelines")


def test_criterion_7_schmidt_analytics():
    # rank multiplicativity under tensoring
    gen = rng(20260604)
    for _ in range(100):
        da1, db1, da2, db2 = (int(gen.integers(2, 4)) for _ in range(4))
        s1 = QuantumState.pure(
            RegisterLayout((Register("A1", da1, ALICE), Register("B1", db1, BOB))),
            random_pure_vector(da1 * db1, gen),
        )
        s2 = QuantumState.pure(
            RegisterLayout((Register("A2", da2, ALICE), Register("B2", db2, BOB))),
            random_pure_vector(da2 * db2, gen),
        )
        both = tensor_states(s1, s2)
        assert (
            schmidt_rank(both).rank
            == schmidt_rank(s1).rank * schmidt_rank(s2).rank
        )

    # rank invariance under embedding into larger local spaces
    gen = rng(20260605)
    for _ in range(100):
        da = int(gen.integers(2, 5))
        db = int(gen.integers(2, 5))
        vec = random_pure_vector(da * db, gen)
        st = QuantumState.pure(
            RegisterLayout((Register("A", da, ALICE), Register("B", db, BOB))), vec
        )
        pa, pb = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        big = QuantumState.pure(
            RegisterLayout((Register("A", da + pa, ALICE), Register("B", db + pb, BOB))),
            np.pad(vec.reshape(da, db), ((0, pa), (0, pb))),
        )
        assert schmidt_rank(big).rank == schmidt_rank(st).rank

    # mixture oracle pins the two-level family across the whole weight grid
    from qcatalyst import EnsembleBranch, Factor

    base, _ = qutrit_pair_states()  # the rank-2 pair on two qutrits
    spike = np.zeros(3, dtype=np.complex128)
    spike[2] = 1.0
    for p100 in range(1, 100):
        p = p100 / 100.0
        mix = QuantumState.from_branches(
            base.layout,
            (
                EnsembleBranch(p, base.branches[0].factors),
                EnsembleBranch(
                    1.0 - p,
                    (Factor(("A",), spike), Factor(("B",), spike)),
                ),
            ),
        )
        cert = sn_orthogonal_mixture(mix)
        assert (cert.lower, cert.upper) == (2, 2), f"p={p}"
    print("criterion 7: multiplicativity, embedding, 99-point oracle grid all pass")
