"""Round-based protocols: validation, execution, ledger bounds, teleportation."""

import math

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    EnsembleBranch,
    Factor,
    Instrument,
    KrausChannel,
    ProtocolError,
    QcatError,
    QuantumState,
    Register,
    RegisterLayout,
    SloccqProtocol,
    ValidationError,
    adaptive_round,
    apply_channel,
    apply_instrument,
    basis_product,
    bell_measurement_instrument,
    build_protocol,
    complete_isometry,
    compile_catalyst_prep,
    construct_converse,
    filter_to_max_entangled,
    final_state,
    ledger_bound,
    local_round,
    max_entangled,
    run_protocol,
    schmidt_rank,
    send_round,
    teleport_rounds,
    tensor_states,
    trace_distance,
)
from qcatalyst.pipelines import (
    _bit_flip_task,
    _flip_protocol,
    qutrit_pair_states,
    separation_family,
)
from qcatalyst import protocols
from qcatalyst import states as states_module
from qcatalyst.protocols import shift_clock_unitaries
from qcatalyst.registers import EMPTY_LAYOUT
from qcatalyst.sampling import random_channel, random_instrument, random_pure_vector, rng


def qubit_reg(label, party):
    return RegisterLayout((Register(label, 2, party),))


def identity_round(name, label, party, dim=2):
    lay = RegisterLayout((Register(label, dim, party),))
    return local_round(name, party, KrausChannel.from_unitary(np.eye(dim), lay))


class TestRoundValidation:
    def test_budget_enforced_at_construction(self):
        rounds = (
            send_round("s1", ALICE, "X", BOB, 3),
            send_round("s2", BOB, "Y", ALICE, 2),
        )
        with pytest.raises(ProtocolError):
            SloccqProtocol(rounds, 5)
        SloccqProtocol(rounds, 6)

    def test_duplicate_names_rejected(self):
        r = identity_round("same", "A", ALICE)
        with pytest.raises(ValidationError):
            SloccqProtocol((r, r), 1)

    def test_select_by_requires_earlier_broadcast(self):
        lay = qubit_reg("A", ALICE)
        inst = KrausChannel.from_unitary(np.eye(2), lay)
        adaptive = adaptive_round(
            "fix", ALICE, {"ok": inst}, select_by="missing"
        )
        with pytest.raises(ValidationError):
            SloccqProtocol((adaptive,), 1)

    def test_send_to_self_rejected(self):
        with pytest.raises(ValidationError):
            send_round("s", ALICE, "X", ALICE, 2)

    def test_party_ownership_enforced_at_run(self):
        st = max_entangled(2, ("A", "B"))
        bad = identity_round("touch", "B", ALICE)  # Alice touching Bob's register
        with pytest.raises(ProtocolError):
            run_protocol(SloccqProtocol((bad,), 1), st)

    def test_send_changes_ownership(self):
        st = max_entangled(2, ("A", "B"))
        prot = SloccqProtocol(
            (
                send_round("give", ALICE, "A", BOB, 2),
                identity_round("use", "A", BOB),
            ),
            2,
        )
        tree = run_protocol(prot, st)
        assert tree.leaves[0].state.layout.party_of("A") == BOB

    def test_send_dim_mismatch_caught(self):
        st = max_entangled(3, ("A", "B"))
        prot = SloccqProtocol((send_round("give", ALICE, "A", BOB, 2),), 2)
        with pytest.raises(ProtocolError):
            run_protocol(prot, st)

    def test_json_round_trip(self):
        st = max_entangled(2, ("A", "B"))
        lay = qubit_reg("A", ALICE)
        meas = Instrument(
            [
                ("0", [np.diag([1.0, 0.0]).astype(np.complex128)]),
                ("1", [np.diag([0.0, 1.0]).astype(np.complex128)]),
            ],
            lay,
            lay,
        )
        fix = {
            "0": KrausChannel.from_unitary(np.eye(2), qubit_reg("B", BOB)),
            "1": KrausChannel.from_unitary(
                np.array([[0.0, 1.0], [1.0, 0.0]]), qubit_reg("B", BOB)
            ),
        }
        prot = SloccqProtocol(
            (
                local_round("m", ALICE, meas, broadcast=True),
                adaptive_round("c", BOB, fix, select_by="m"),
            ),
            1,
        )
        back = SloccqProtocol.from_json(prot.to_json())
        t1 = run_protocol(prot, st)
        t2 = run_protocol(back, st)
        s1, _ = final_state(t1)
        s2, _ = final_state(t2)
        assert trace_distance(s1.permuted(s2.layout.labels), s2) < 1e-12


class TestBranching:
    def test_measurement_splits_probability(self):
        st = max_entangled(2, ("A", "B"))
        lay = qubit_reg("A", ALICE)
        meas = Instrument(
            [
                ("0", [np.diag([1.0, 0.0]).astype(np.complex128)]),
                ("1", [np.diag([0.0, 1.0]).astype(np.complex128)]),
            ],
            lay,
            lay,
        )
        tree = run_protocol(
            SloccqProtocol((local_round("m", ALICE, meas, broadcast=True),), 1), st
        )
        assert len(tree.leaves) == 2
        total = sum(leaf.probability for leaf in tree.leaves)
        assert total == pytest.approx(1.0, abs=1e-12)
        for leaf in tree.leaves:
            assert leaf.probability == pytest.approx(0.5, abs=1e-12)

    def test_postselection(self):
        st = max_entangled(2, ("A", "B"))
        lay = qubit_reg("A", ALICE)
        meas = Instrument(
            [
                ("0", [np.diag([1.0, 0.0]).astype(np.complex128)]),
                ("1", [np.diag([0.0, 1.0]).astype(np.complex128)]),
            ],
            lay,
            lay,
        )
        tree = run_protocol(
            SloccqProtocol((local_round("m", ALICE, meas, broadcast=True),), 1), st
        )
        picked, prob = final_state(tree, [("m", "1")])
        assert prob == pytest.approx(0.5, abs=1e-12)
        vec = picked.to_vector()
        assert abs(vec[3]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_postselection_raises(self):
        st = max_entangled(2, ("A", "B"))
        tree = run_protocol(
            SloccqProtocol((identity_round("id", "A", ALICE),), 1), st
        )
        with pytest.raises(ProtocolError):
            final_state(tree, [("id", "nope")])


class TestFiltration:
    """The pass probability is read off the instrument and refereed by the
    Schmidt coefficients of the state, never by the plan's own numbers."""

    def test_known_success_probability(self):
        # frozen: coefficients sqrt(0.8), sqrt(0.2) filter at probability 0.4
        lay = RegisterLayout((Register("A", 2, ALICE), Register("B", 2, BOB)))
        v = np.array([math.sqrt(0.8), 0.0, 0.0, math.sqrt(0.2)])
        st = QuantumState.pure(lay, v)
        plan = filter_to_max_entangled(st)
        assert plan.schmidt_rank == 2
        p_pass = {o: p for o, p, _ in apply_instrument(plan.instrument, st)}["pass"]
        assert p_pass == pytest.approx(0.4, abs=1e-12)

    def test_filter_output_is_max_entangled(self):
        gen = rng(61)
        for _ in range(20):
            da = int(gen.integers(2, 5))
            db = int(gen.integers(2, 5))
            lay = RegisterLayout(
                (Register("A", da, ALICE), Register("B", db, BOB))
            )
            st = QuantumState.pure(lay, random_pure_vector(da * db, gen))
            plan = filter_to_max_entangled(st)
            k = plan.schmidt_rank
            dec = schmidt_rank(st)
            assert dec.rank == k
            # the referee: rank times the smallest squared Schmidt coefficient
            lam_min = float(dec.singular_values[dec.rank - 1] ** 2)
            outcomes = {
                o: (p, s) for o, p, s in apply_instrument(plan.instrument, st)
            }
            assert "pass" in outcomes
            p_pass, passed = outcomes["pass"]
            assert p_pass == pytest.approx(dec.rank * lam_min, abs=1e-9)
            aligned = apply_channel(plan.other_party_alignment, passed)
            phi = np.zeros(da * db, dtype=np.complex128)
            for j in range(k):
                phi[j * db + j] = 1.0 / math.sqrt(k)
            got = aligned.permuted(["A", "B"]).to_vector()
            overlap = abs(np.vdot(phi, got))
            assert overlap == pytest.approx(1.0, abs=1e-8)


class TestTeleportation:
    def test_bell_instrument_is_complete(self):
        for d in (2, 3):
            inst = bell_measurement_instrument("S", "RA", d, ALICE)
            total = sum(
                k.conj().T @ k for _, kraus in inst.branches for k in kraus
            )
            np.testing.assert_allclose(total, np.eye(d * d), atol=1e-12)

    def test_teleport_moves_arbitrary_state(self):
        gen = rng(62)
        for d in (2, 3, 4):
            msg = QuantumState.pure(
                RegisterLayout((Register("S", d, ALICE),)),
                random_pure_vector(d, gen),
            )
            resource = max_entangled(d, ("RA", "RB"))
            start = tensor_states(msg, resource)
            rounds = teleport_rounds("S", "RA", "RB", d)
            tree = run_protocol(SloccqProtocol(tuple(rounds), 1), start)
            assert len(tree.leaves) == d * d
            for leaf in tree.leaves:
                assert leaf.probability == pytest.approx(1.0 / d**2, abs=1e-10)
                got = leaf.state.to_vector()
                overlap = abs(np.vdot(msg.to_vector(), got))
                assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_shift_clock_unitaries(self):
        for d in (2, 3, 5):
            for q in range(d):
                for p in range(d):
                    w = shift_clock_unitaries(d)[q * d + p]
                    np.testing.assert_allclose(
                        w.conj().T @ w, np.eye(d), atol=1e-12
                    )

    def test_shift_clock_closed_form_matches_matrix_powers(self):
        # the reference builds X and Z as matrices and multiplies their powers;
        # its BLAS products may round the clock phases differently from the
        # closed form's scalar powers, so values are held to one ulp and the
        # permutation pattern exactly
        for d in (2, 3, 4, 5, 6, 8):
            omega = np.exp(2j * np.pi / d)
            x = np.zeros((d, d), dtype=np.complex128)
            x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
            z = np.diag(omega ** np.arange(d))
            for q in range(d):
                for p in range(d):
                    ref = np.linalg.matrix_power(x, q) @ np.linalg.matrix_power(z, p)
                    w = shift_clock_unitaries(d)[q * d + p]
                    np.testing.assert_array_equal(w != 0, ref != 0)
                    np.testing.assert_allclose(w, ref, rtol=0, atol=np.finfo(float).eps)

    def test_bell_round_merges_each_branch_once(self, monkeypatch):
        # the factors touching the targets are merged once per branch and
        # shared by all d*d outcomes
        calls = []
        real = states_module._target_matrix

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(states_module, "_target_matrix", counting)
        gen = rng(67)
        d = 3
        lay = RegisterLayout((Register("S", d, ALICE),))
        msg = QuantumState.from_branches(
            lay,
            [
                EnsembleBranch(w, (Factor(("S",), random_pure_vector(d, gen)),))
                for w in (0.2, 0.3, 0.5)
            ],
        )
        start = tensor_states(msg, max_entangled(d, ("RA", "RB")))
        outcomes = apply_instrument(
            bell_measurement_instrument("S", "RA", d, ALICE), start
        )
        assert len(outcomes) == d * d
        assert len(calls) == len(start.branches) == 3

    def test_complete_isometry(self):
        gen = rng(63)
        for _ in range(10):
            d = int(gen.integers(2, 7))
            k = int(gen.integers(1, d + 1))
            cols = np.linalg.qr(
                gen.standard_normal((d, k)) + 1j * gen.standard_normal((d, k))
            )[0]
            u = complete_isometry(cols, d)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)
            np.testing.assert_allclose(u[:, :k], cols, atol=1e-12)


class TestRetirement:
    """``run_protocol(..., keep=...)`` forgets outcomes no later round reads:
    the leaves they alone told apart merge."""

    def test_teleport_tree_retires_to_one_leaf(self):
        # keep=() runs the Bell measurement and its correction as one step;
        # keep=None forms a leaf per outcome, the reference
        gen = rng(68)
        for d in (2, 3, 4):
            lay = RegisterLayout((Register("S", d, ALICE),))
            for weights in ((1.0,), (0.2, 0.3, 0.5)):
                msg = QuantumState.from_branches(
                    lay,
                    [
                        EnsembleBranch(w, (Factor(("S",), random_pure_vector(d, gen)),))
                        for w in weights
                    ],
                )
                start = tensor_states(msg, max_entangled(d, ("RA", "RB")))
                prot = SloccqProtocol(tuple(teleport_rounds("S", "RA", "RB", d)), 1)
                every = run_protocol(prot, start)
                retired = run_protocol(prot, start, keep=())
                assert len(every.leaves) == d * d
                assert len(retired.leaves) == 1
                assert retired.retired == ("teleport-correct", "teleport-measure")
                _assert_same_mixture(retired, every)
                # the d * d phase-equal copies of each message branch coalesce
                assert len(retired.leaves[0].state.branches) == len(weights)

    @pytest.mark.parametrize("n", [1, 2])
    def test_converse_teleport_matches_the_per_outcome_path(self, n):
        fam = separation_family(n)
        conv = construct_converse(fam.protocol.rho, fam.protocol.target, fam.d_enough)
        keep = [name for name, _ in conv.postselect]
        every = run_protocol(conv.protocol, fam.protocol.rho)
        tree = run_protocol(conv.protocol, fam.protocol.rho, keep=keep)
        _assert_same_mixture(tree, every, conv.postselect)
        per_leaf = run_protocol(conv.protocol, fam.protocol.rho, keep=keep + ["teleport-correct"])
        _assert_same_leaves(tree, per_leaf, "teleport-correct")

    @pytest.mark.parametrize("seed", range(10))
    def test_random_measure_and_correct_matches_the_per_outcome_path(self, seed, monkeypatch):
        # seeds 8 and 9 measure M in a state where one outcome alone is kept
        gen = rng(700 + seed)
        prot, start = _measure_correct_protocol(gen, lone=seed >= 8)
        every = run_protocol(prot, start)
        # keeping the correction's outcome retires only the measurement's,
        # leaf by leaf: with channel corrections, the same leaves
        per_leaf = run_protocol(prot, start, keep=("sample", "correct"))
        calls = _count_instrument_calls(monkeypatch)
        tree = run_protocol(prot, start, keep=("sample",))
        assert len(calls) == 1  # the sampling round; the pair ran as one step
        assert len(tree.leaves) == 2
        for outcome in ("c0", "c1"):
            _assert_same_mixture(tree, every, [("sample", outcome)])
        (correct,) = [r for r in prot.rounds if r.name == "correct"]
        if all(len(m.branches) == 1 for m in correct.instruments_by_outcome.values()):
            _assert_same_leaves(tree, per_leaf, "correct")

    @pytest.mark.parametrize("seed", range(6))
    def test_both_routes_keep_the_same_rows_at_the_floor(self, seed, monkeypatch):
        # an operator sqrt(2e-11) |0><0| on the first outcome of the
        # measurement and of every correction puts rows on either side of the
        # 1e-12 floor at both steps; the combined step (keep=("sample",))
        # hands the kernel the same rows as the per-outcome path (keep=None)
        # and keeps the same ones
        prot, start = _measure_correct_protocol(rng(720 + seed))
        sample, measure, correct = prot.rounds
        fixes = {k: _edged(v, 2e-11) for k, v in correct.instruments_by_outcome.items()}
        prot = SloccqProtocol(
            (
                sample,
                local_round("measure", ALICE, _edged(measure.instrument, 2e-11), broadcast=True),
                adaptive_round("correct", BOB, fixes, select_by="measure"),
            ),
            1,
        )
        calls = []
        real = states_module._products

        def recording(ops, *args):
            kept = real(ops, *args)
            calls.append((len(ops), kept[1]))
            return kept

        monkeypatch.setattr(states_module, "_products", recording)
        every = run_protocol(prot, start)
        offered, kept = sum(n for n, _ in calls), np.sort(np.concatenate([w for _, w in calls]))
        calls.clear()
        tree = run_protocol(prot, start, keep=("sample",))
        assert sum(n for n, _ in calls) == offered > len(kept)
        assert kept[0] < 1e-11  # rows just above the floor are kept
        np.testing.assert_allclose(
            np.sort(np.concatenate([w for _, w in calls])), kept, rtol=1e-12, atol=0
        )
        for outcome in ("c0", "c1"):
            _assert_same_mixture(tree, every, [("sample", outcome)])

    def test_converse_teleport_forms_no_leaf_per_outcome(self, monkeypatch):
        # at n=2 the per-outcome path makes 140 apply_instrument calls and
        # forms 2 * 8**2 leaves at the Bell round; every round's leaf bound,
        # which no leaf list exceeds, now fits in one leaf per component
        fam = separation_family(2)
        conv = construct_converse(fam.protocol.rho, fam.protocol.target, fam.d_enough)
        (sample,) = [r for r in conv.protocol.rounds if r.name == "sample"]
        monkeypatch.setattr(protocols, "MAX_LEAVES", len(sample.instrument.branches))
        calls = _count_instrument_calls(monkeypatch)
        tree = run_protocol(conv.protocol, fam.protocol.rho, keep=["filter"])
        assert len(calls) <= 16
        achieved, prob = final_state(tree, conv.postselect)
        assert prob == pytest.approx(1.0, abs=1e-9)
        assert trace_distance(achieved, conv.target) < 1e-10

    @pytest.mark.parametrize(
        "break_it, message",
        [
            ("leaky", "sum to"),
            ("missing", "has no instrument for outcome"),
            ("foreign", "cannot touch register"),
            ("creates", "would create register"),
        ],
    )
    def test_a_measure_and_correct_step_keeps_the_round_checks(self, break_it, message):
        d = 2
        msg = QuantumState.pure(RegisterLayout((Register("S", d, ALICE),)), [0.6, 0.8])
        start = tensor_states(msg, max_entangled(d, ("RA", "RB")))
        measure, correct = teleport_rounds("S", "RA", "RB", d)
        fixes = dict(correct.instruments_by_outcome)
        targets = None
        if break_it == "leaky":  # loses 5e-10 of the trace: past the channel rule
            fixes = {
                k: KrausChannel([math.sqrt(1.0 - 5e-10) * v.kraus[0]], v.layout_in, v.layout_out)
                for k, v in fixes.items()
            }
        elif break_it == "missing":
            del fixes["q1p1"]
        elif break_it == "foreign":  # Bob's correction on Alice's register
            msg = tensor_states(msg, max_entangled(d, ("X", "Y")))
            start = tensor_states(msg, max_entangled(d, ("RA", "RB")))
            targets = ("X",)
        else:  # Bob's correction prepares a register for Alice
            out = RegisterLayout((Register("RB", d, BOB), Register("O", 1, ALICE)))
            fixes = {k: KrausChannel([v.kraus[0]], v.layout_in, out) for k, v in fixes.items()}
        correct = adaptive_round(correct.name, BOB, fixes, select_by=measure.name, targets=targets)
        prot = SloccqProtocol((measure, correct), 1)
        errors = []
        for keep in (None, ()):
            with pytest.raises(QcatError, match=message) as err:
                run_protocol(prot, start, keep=keep)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_converse_tree_ends_with_few_leaves(self, n):
        fam = separation_family(n)
        conv = construct_converse(fam.protocol.rho, fam.protocol.target, fam.d_enough)
        keep = [name for name, _ in conv.postselect]
        every = run_protocol(conv.protocol, fam.protocol.rho)
        tree = run_protocol(conv.protocol, fam.protocol.rho, keep=keep)
        assert len(tree.leaves) <= 4 < len(every.leaves)
        achieved, prob = final_state(tree, conv.postselect)
        assert prob == pytest.approx(1.0, abs=1e-9)
        assert trace_distance(achieved, conv.target) < 1e-10

    def test_unknown_keep_names_are_refused(self):
        st = max_entangled(2, ("A", "B"))
        prot = SloccqProtocol((identity_round("filter", "A", ALICE),), 1)
        with pytest.raises(ProtocolError) as err:
            run_protocol(prot, st, keep=["filtre", "filter", "align"])
        assert str(err.value) == (
            "keep names rounds the protocol does not have: ['align', 'filtre']"
        )

    def test_a_round_fan_out_is_refused_before_it_is_formed(self, monkeypatch):
        st = max_entangled(2, ("A", "B"))
        lay = qubit_reg("A", ALICE)
        four = random_instrument(lay, rng(69), outcomes=4)
        prot = SloccqProtocol((local_round("m4", ALICE, four),), 1)
        monkeypatch.setattr(protocols, "MAX_LEAVES", 3)
        calls = _count_instrument_calls(monkeypatch)
        with pytest.raises(ProtocolError) as err:
            run_protocol(prot, st)
        assert str(err.value) == (
            "round 'm4' would form up to 4 leaves, over the limit of 3"
        )
        assert not calls
        monkeypatch.setattr(protocols, "MAX_LEAVES", 4)
        assert len(run_protocol(prot, st).leaves) == 4

    def test_postselecting_a_retired_round_is_refused(self):
        st = max_entangled(2, ("A", "B"))
        lay = qubit_reg("A", ALICE)
        meas = Instrument(
            [
                ("0", [np.diag([1.0, 0.0]).astype(np.complex128)]),
                ("1", [np.diag([0.0, 1.0]).astype(np.complex128)]),
            ],
            lay,
            lay,
        )
        prot = SloccqProtocol((local_round("m", ALICE, meas, broadcast=True),), 1)
        tree = run_protocol(prot, st, keep=())
        assert len(tree.leaves) == 1
        with pytest.raises(ProtocolError, match="retired"):
            final_state(tree, [("m", "1")])
        kept = run_protocol(prot, st, keep=("m",))
        assert final_state(kept, [("m", "1")])[1] == pytest.approx(0.5, abs=1e-12)


class TestPlan:
    """``run_protocol`` checks a run once, on the layout all its leaves
    share, before any map runs."""

    @pytest.mark.parametrize("keep", [None, ["filter"]])
    @pytest.mark.parametrize(
        "last, message",
        [
            (
                identity_round("bad", "B1", ALICE, dim=3),
                "round 'bad': party Alice cannot touch register 'B1' owned by Bob",
            ),
            (
                send_round("bad", ALICE, "nowhere", BOB, 2),
                "round 'bad' sends unknown register 'nowhere'",
            ),
        ],
        ids=["foreign", "unknown-send"],
    )
    def test_a_run_is_refused_before_any_map_runs(self, last, message, keep, monkeypatch):
        protocol, rho = _class_run("converse", 1)
        bad = SloccqProtocol(protocol.rounds + (last,), 2 * protocol.dimension_budget)
        calls = _count_kernel_calls(monkeypatch)
        with pytest.raises(ProtocolError) as err:
            run_protocol(bad, rho, keep=keep)
        assert str(err.value) == message
        assert not calls

    @pytest.mark.parametrize("keep", [None, ("sample",)])
    def test_an_outcome_of_probability_zero_needs_an_instrument(self, keep, monkeypatch):
        # the lone measurement never gives o1 on this input, yet a correction
        # round with no instrument for o1 is refused
        prot, start = _measure_correct_protocol(rng(708), lone=True)
        assert all(("measure", "o1") not in leaf.path for leaf in run_protocol(prot, start).leaves)
        sample, measure, correct = prot.rounds
        fixes = dict(correct.instruments_by_outcome)
        del fixes["o1"]
        prot = SloccqProtocol(
            (sample, measure, adaptive_round("correct", BOB, fixes, select_by="measure")), 1
        )
        calls = _count_kernel_calls(monkeypatch)
        with pytest.raises(ProtocolError) as err:
            run_protocol(prot, start, keep=keep)
        assert str(err.value) == "round 'correct' has no instrument for outcome 'o1' of 'measure'"
        assert not calls

    @pytest.mark.parametrize(
        "name, n, keep",
        [
            ("converse", 1, None),
            ("converse", 1, ["filter"]),
            ("converse", 2, None),
            ("converse", 2, ["filter"]),
            ("obs1-prep", 2, None),
            ("obs1-prep", 3, None),
            ("obs3-flip", 0, None),
            ("catalytic", 2, None),
        ],
    )
    def test_every_leaf_ends_on_the_planned_layout(self, name, n, keep):
        # _retire groups leaves by path alone and _mix_leaves mixes them on
        # one layout: both rely on this
        protocol, start = _class_run(name, n)
        _, layout = protocols._plan(protocol, start.layout, keep)
        tree = run_protocol(protocol, start, keep=keep)
        assert tree.leaves
        assert all(leaf.state.layout == layout for leaf in tree.leaves)


def _class_run(name, n):
    """A protocol the package runs and its input: the converse of ``theorem
    --n n``, the obs1 catalyst preparation, obs3's flip protocol, or the
    catalytic channels of the copy-cycling protocol on rho and its
    catalyst."""
    if name == "converse":
        fam = separation_family(n)
        conv = construct_converse(fam.protocol.rho, fam.protocol.target, fam.d_enough)
        protocol, start = conv.protocol, fam.protocol.rho
    elif name == "obs3-flip":
        protocol, start = _flip_protocol(), _bit_flip_task()[1]
    else:
        rho, sigma = qutrit_pair_states()
        cat = build_protocol(rho, sigma, n)
        if name == "obs1-prep":
            protocol, start = compile_catalyst_prep(cat.catalyst).protocol, rho
        else:
            protocol, start = cat.local_protocol, tensor_states(rho, cat.catalyst)
    return protocol, start


def _count_kernel_calls(monkeypatch):
    """The calls of the map kernel ``states._products`` from here on."""
    calls = []
    real = states_module._products

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(states_module, "_products", counting)
    return calls


def _assert_same_mixture(tree, reference, postselect=None):
    """The two trees give the same (postselected) state and probability."""
    state, prob = final_state(tree, postselect)
    ref_state, ref_prob = final_state(reference, postselect)
    assert prob == pytest.approx(ref_prob, abs=1e-14)
    assert trace_distance(state, ref_state) < 1e-14


def _assert_same_leaves(tree, per_leaf, kept):
    """``tree`` has the leaves of ``per_leaf``, the tree whose channel round
    ``kept`` was kept, so that the round before it was retired leaf by leaf:
    the same paths but for ``kept``, probabilities, branch counts and
    states."""
    assert len(tree.leaves) == len(per_leaf.leaves)
    for leaf, ref in zip(tree.leaves, per_leaf.leaves):
        assert leaf.path == tuple(step for step in ref.path if step != (kept, "ok"))
        assert leaf.probability == pytest.approx(ref.probability, abs=1e-14)
        assert len(leaf.state.branches) == len(ref.state.branches)
        assert trace_distance(leaf.state, ref.state) < 1e-14


def _count_instrument_calls(monkeypatch):
    """The engine's ``apply_instrument`` calls from here on, one entry each."""
    calls = []
    real = protocols.apply_instrument

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocols, "apply_instrument", counting)
    return calls


def _faint_instrument(gen, layout_in, layout_out, counts, faint):
    """A random instrument with ``counts[i]`` Kraus operators for outcome
    ``o<i>``, plus, if ``faint``, an outcome of probability about 1e-16,
    below ``TOL.prob_floor``."""
    din, dout = layout_in.total_dim, layout_out.total_dim
    raw = [
        [gen.normal(size=(dout, din)) + 1j * gen.normal(size=(dout, din)) for _ in range(c)]
        for c in counts
    ]
    if faint:
        raw.append([1e-8 * gen.normal(size=(dout, din)).astype(np.complex128)])
    gram = sum(k.conj().T @ k for ops in raw for k in ops)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Instrument(
        [(f"o{i}", [k @ inv_sqrt for k in ops]) for i, ops in enumerate(raw)],
        layout_in,
        layout_out,
    )


def _edged(inst, eps):
    """``inst`` with one more Kraus operator on its first outcome, ``sqrt(eps)
    |0><0|``, and every operator scaled by ``sqrt(1 - eps)`` on ``|0>``, so that
    the trace is kept."""
    edge = np.zeros((inst.layout_out.total_dim, inst.layout_in.total_dim), dtype=np.complex128)
    edge[0, 0] = math.sqrt(eps)
    scale = np.ones(inst.layout_in.total_dim)
    scale[0] = math.sqrt(1 - eps)
    branches = [(label, [k * scale for k in kraus]) for label, kraus in inst.branches]
    branches[0][1].append(edge)
    return Instrument(branches, inst.layout_in, inst.layout_out)


def _ket(gen, dims, zero_m):
    """A random ket over registers of ``dims``; with ``zero_m``, |0> on the
    first register times a random ket on the rest."""
    if zero_m:
        return np.kron(np.eye(dims[0])[0], random_pure_vector(math.prod(dims[1:]), gen))
    return random_pure_vector(math.prod(dims), gen)


def _measure_correct_protocol(gen, lone=False):
    """A kept two-outcome sampling round, Alice's broadcast measurement of M
    (kept, discarded or moved to a new register), and Bob's correction of T
    or of T and Y, selected by her outcome: a channel of one to three Kraus
    operators, or a two-outcome instrument. The input mixes three branches of
    different factor structures, and at some seeds a fourth of weight 2e-12.
    With ``lone``, M is in |0> and measured in {|0>, its complement}, so one
    outcome alone is kept."""
    regs = {"M": (3, ALICE), "X": (2, ALICE), "T": (2, BOB), "Y": (2, BOB)}
    layout = RegisterLayout(tuple(Register(k, d, p) for k, (d, p) in regs.items()))
    structures = [
        (("M", "T"), ("X",), ("Y",)),
        (("M",), ("T", "Y"), ("X",)),
        (("M", "X", "T", "Y"),),
    ]
    weights = gen.dirichlet(np.ones(3))
    if gen.integers(2):  # a branch whose outputs fall below the floor at either step
        structures.append(structures[0])
        weights = np.append(weights * (1 - 2e-12), 2e-12)
    start = QuantumState.from_branches(
        layout,
        [
            EnsembleBranch(
                float(w),
                tuple(
                    Factor(g, _ket(gen, [regs[k][0] for k in g], zero_m=lone and g[0] == "M"))
                    for g in groups
                ),
            )
            for w, groups in zip(weights, structures)
        ],
    )
    sample = local_round(
        "sample",
        ALICE,
        Instrument(
            [("c0", [np.array([[0.6]])]), ("c1", [np.array([[0.8]])])], EMPTY_LAYOUT, EMPTY_LAYOUT
        ),
        targets=(),
        broadcast=True,
    )
    m_in = RegisterLayout((Register("M", 3, ALICE),))
    m_out = [m_in, EMPTY_LAYOUT, RegisterLayout((Register("O", 2, ALICE),))][int(gen.integers(3))]
    counts = [int(c) for c in gen.integers(1, 3, size=int(gen.integers(2, 4)))]
    while sum(counts) * m_out.total_dim < 3:  # the operators must span M
        counts.append(1)
    if lone:
        zero = np.diag([1.0, 0.0, 0.0]).astype(np.complex128)
        lone_inst = Instrument([("o0", [zero]), ("o1", [np.eye(3) - zero])], m_in, m_in)
    measure = local_round(
        "measure",
        ALICE,
        lone_inst if lone else _faint_instrument(gen, m_in, m_out, counts, faint=True),
        broadcast=True,
    )
    # on T alone, or on T and Y, which some branches hold in two factors
    t = RegisterLayout(tuple(Register(k, 2, BOB) for k in ("T", "Y")[: 1 + int(gen.integers(2))]))
    fixes = {}
    for label in measure.instrument.outcome_labels:
        if gen.integers(4) == 0:
            fixes[label] = _faint_instrument(gen, t, t, [1, 2], faint=False)
        else:
            fixes[label] = random_channel(t, t, gen, kraus_count=int(gen.integers(1, 4)))
    correct = adaptive_round("correct", BOB, fixes, select_by="measure")
    return SloccqProtocol((sample, measure, correct), 1), start


class TestLedger:
    def test_impossibility_certificate(self):
        cap = ledger_bound(2, 3)
        assert cap.upper == 6 < 8 and cap.method == "ledger"
        assert not ledger_bound(2, 4).upper < 8

    def test_ledger_soundness_random_protocols(self):
        # random bounded-message protocols never beat the ledger cap
        gen = rng(64)
        for trial in range(60):
            da = int(gen.integers(2, 4))
            dm = int(gen.integers(2, 4))
            db = int(gen.integers(2, 4))
            lay = RegisterLayout(
                (
                    Register("A1", da, ALICE),
                    Register("A2", dm, ALICE),
                    Register("B", db, BOB),
                )
            )
            st = QuantumState.pure(lay, random_pure_vector(da * dm * db, gen))
            r0 = schmidt_rank(st).rank
            rounds = [
                local_round(
                    "a-op",
                    ALICE,
                    random_instrument(lay.subset(["A1", "A2"]), gen),
                    broadcast=True,
                ),
                local_round("b-op", BOB, random_instrument(lay.subset(["B"]), gen)),
                send_round("move", ALICE, "A2", BOB, dm),
                local_round(
                    "b-op2", BOB, random_instrument(lay.subset(["A2", "B"]).with_party("A2", BOB), gen)
                ),
            ]
            protocol = SloccqProtocol(tuple(rounds), dm)
            tree = run_protocol(protocol, st)
            cap = ledger_bound(r0, protocol.quantum_dimension_used)
            assert cap.upper == r0 * dm
            for leaf in tree.leaves:
                rank = schmidt_rank(leaf.state).rank
                assert rank <= cap.upper

    def test_classical_only_never_raises_rank(self):
        gen = rng(65)
        for trial in range(60):
            da = int(gen.integers(2, 5))
            db = int(gen.integers(2, 5))
            lay = RegisterLayout(
                (Register("A", da, ALICE), Register("B", db, BOB))
            )
            st = QuantumState.pure(lay, random_pure_vector(da * db, gen))
            r0 = schmidt_rank(st).rank
            rounds = []
            for k in range(4):
                party, lab = ((ALICE, "A"), (BOB, "B"))[k % 2]
                rounds.append(
                    local_round(
                        f"op{k}",
                        party,
                        random_instrument(lay.subset([lab]), gen),
                        broadcast=True,
                    )
                )
            protocol = SloccqProtocol(tuple(rounds), 1)
            tree = run_protocol(protocol, st)
            assert protocol.quantum_dimension_used == 1
            for leaf in tree.leaves:
                assert schmidt_rank(leaf.state).rank <= r0


class TestConverse:
    def test_reaches_target_exactly(self):
        fam = separation_family(1)
        conv = construct_converse(fam.protocol.rho, fam.protocol.target, fam.d_enough)
        tree = run_protocol(conv.protocol, fam.protocol.rho)
        achieved, prob = final_state(tree, conv.postselect)
        assert prob == pytest.approx(1.0, abs=1e-9)
        assert trace_distance(achieved, conv.target) < 1e-10

    def test_budget_too_small_refused(self):
        fam = separation_family(1)
        with pytest.raises(ProtocolError):
            construct_converse(fam.protocol.rho, fam.protocol.target, fam.d_short)


class TestCatalystCompilation:
    def test_two_stage_catalyst_costs_its_schmidt_number(self):
        rho, sigma = qutrit_pair_states()
        prot = build_protocol(rho, sigma, 2)
        plan = compile_catalyst_prep(prot.catalyst)
        assert plan.protocol.quantum_dimension_used == 2
        tree = run_protocol(plan.protocol, QuantumState.empty())
        prepared, _ = final_state(tree)
        labels = list(plan.catalyst.layout.labels)
        dist = trace_distance(prepared.permuted(labels), plan.catalyst)
        assert dist < 1e-10

    def test_product_catalyst_needs_no_quantum_message(self):
        rho, sigma = qutrit_pair_states()
        prod = basis_product(rho.layout, (0, 0))
        prot = build_protocol(prod, sigma, 3)
        plan = compile_catalyst_prep(prot.catalyst)
        assert plan.protocol.quantum_dimension_used == 1


class TestProtocolJson:
    """Compiled protocols hold channels; their JSON writes every map in the
    instrument format, so it loads back and runs to the same state."""

    def _same_final_state(self, protocol, initial, postselect=None):
        back = SloccqProtocol.from_json(protocol.to_json())
        s1, p1 = final_state(run_protocol(protocol, initial), postselect)
        s2, p2 = final_state(run_protocol(back, initial), postselect)
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert trace_distance(s1, s2.permuted(s1.layout.labels)) < 1e-12

    def test_channel_round_round_trip(self):
        u = shift_clock_unitaries(2)[1 * 2 + 1]
        prot = SloccqProtocol(
            (local_round("u", ALICE, KrausChannel.from_unitary(u, qubit_reg("A", ALICE))),),
            1,
        )
        self._same_final_state(prot, max_entangled(2, ("A", "B")))

    def test_converse_round_trip(self):
        fam = separation_family(1)
        conv = construct_converse(fam.protocol.rho, fam.protocol.target, fam.d_enough)
        self._same_final_state(conv.protocol, fam.protocol.rho, conv.postselect)

    def test_catalyst_preparation_round_trip(self):
        rho, sigma = qutrit_pair_states()
        plan = compile_catalyst_prep(build_protocol(rho, sigma, 2).catalyst)
        self._same_final_state(plan.protocol, QuantumState.empty())

    @pytest.mark.parametrize("corruption", [0.0, 0.3])
    def test_flip_protocol_round_trip(self, corruption):
        _, start, _ = _bit_flip_task()
        self._same_final_state(_flip_protocol(corruption), start)

    def test_catalytic_local_protocol_round_trip(self):
        rho, sigma = qutrit_pair_states()
        protocol = build_protocol(rho, sigma, 2)
        self._same_final_state(
            protocol.local_protocol, tensor_states(rho, protocol.catalyst)
        )


def _flip_document():
    """``_flip_protocol`` (rounds ``read-bit``, ``alice-flip`` selecting by it
    with outcomes ``x0``/``x1``, ``bob-flip``) and a send round ``give`` of
    Alice's qubit, as a document."""
    flip = _flip_protocol()
    give = send_round("give", ALICE, "A", BOB, 2)
    return SloccqProtocol(flip.rounds + (give,), 2).to_json()


_DROP = object()


@pytest.mark.parametrize(
    "edits",
    [
        pytest.param({("rounds", 3, "dim"): 2.7}, id="send-dim-float"),
        pytest.param({("rounds", 3, "dim"): "2"}, id="send-dim-string"),
        pytest.param({("dimension_budget",): 2.9}, id="budget-float"),
        pytest.param(
            {("rounds", 3): _DROP, ("dimension_budget",): True}, id="budget-bool"
        ),
        pytest.param({("rounds", 0, "targets"): "AB"}, id="targets-string"),
        pytest.param({("rounds", 0, "broadcast"): "yes"}, id="broadcast-string"),
        pytest.param(
            {("rounds", 1, "instruments_by_outcome", "x1", "layout_out", 0, "label"): "X"},
            id="adaptive-outputs-disagree",
        ),
        pytest.param({("rounds", 1, "instruments_by_outcome"): {}}, id="no-instruments"),
        pytest.param({("rounds", 1, "instruments_by_outcome"): []}, id="outcome-map-list"),
        pytest.param({("rounds", 0, "targets"): _DROP}, id="targets-missing"),
        pytest.param(
            {("rounds", 0, "instrument", "branches", 0, "kraus", 0, 1): [[0.0, 0.0]]},
            id="ragged-kraus-row",
        ),
        pytest.param({("rounds", 0, "kind"): "teleport"}, id="unknown-kind"),
        *(
            pytest.param(
                {
                    ("rounds", 2, "instruments_by_outcome", x, "branches", 0, "outcome"): label
                    for x in ("x0", "x1")
                },
                id=f"outcome-{name}",
            )
            for name, label in (("int", 5), ("list", [1, 2]))
        ),
    ],
)
def test_malformed_protocol_document_is_refused_in_one_line(edits):
    doc = _flip_document()
    SloccqProtocol.from_json(doc)  # the document as written loads
    for (*parents, last), value in edits.items():
        node = doc
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    with pytest.raises(QcatError) as err:
        SloccqProtocol.from_json(doc)
    assert "\n" not in str(err.value)


def test_adaptive_outputs_of_another_dimension_are_refused_in_one_line():
    """Outcome ``x0`` prepares register O at dimension 2 and ``x1`` at
    dimension 3: the same output labels, but not the same output layout, so
    no run could hand back one state for both outcomes."""

    def prepare(dim):
        lay = RegisterLayout((Register("O", dim, ALICE),))
        return KrausChannel.preparation(np.eye(dim)[0], lay)

    read_bit = _flip_protocol().rounds[0]
    preps = {"x0": prepare(2), "x1": prepare(2)}
    prep = adaptive_round("prep", ALICE, preps, select_by=read_bit.name, targets=())
    doc = SloccqProtocol((read_bit, prep), 1).to_json()
    SloccqProtocol.from_json(doc)  # the document as written loads
    doc["rounds"][1]["instruments_by_outcome"]["x1"] = prepare(3).to_json()
    with pytest.raises(ValidationError) as err:
        SloccqProtocol.from_json(doc)
    assert str(err.value) == "round 'prep': instruments disagree on output registers"


@pytest.mark.parametrize("label", [5, [1, 2]], ids=["int", "list"])
def test_non_string_outcome_label_is_refused_in_one_line(label):
    lay = RegisterLayout((Register("A", 2, ALICE),))
    doc = KrausChannel.from_unitary(np.eye(2), lay).to_json()
    doc["branches"][0]["outcome"] = label
    for build in (
        lambda: Instrument([(label, [np.eye(2)])], lay, lay),
        lambda: Instrument.from_json(doc),
    ):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == f"outcome label {label!r} is not a string"


def test_product_catalyst_halves_stay_separate_factors():
    """Without a message each party prepares its own half, so no branch of
    the prepared product catalyst joins Alice's and Bob's registers in one
    factor (a one-level message would merge them at Bob's decompression)."""
    rho, sigma = qutrit_pair_states()
    prod = basis_product(rho.layout, (0, 0))
    plan = compile_catalyst_prep(build_protocol(prod, sigma, 3).catalyst)
    tree = run_protocol(plan.protocol, QuantumState.empty())
    for leaf in tree.leaves:
        layout = leaf.state.layout
        for branch in leaf.state.branches:
            for factor in branch.factors:
                assert len({layout.party_of(lab) for lab in factor.labels}) == 1


def test_a_channel_round_keeps_the_channel_trace_rule():
    # a channel losing 5e-10 of the trace passes the Kraus check (1e-9) but
    # not the channel trace rule (1e-10), in a protocol round as well
    lay = qubit_reg("A", ALICE)
    leaky = KrausChannel([math.sqrt(1.0 - 5e-10) * np.eye(2)], lay, lay)
    st = max_entangled(2, ("A", "B"))
    with pytest.raises(ValidationError):
        apply_channel(leaky, st)
    with pytest.raises(ValidationError, match="sum to"):
        run_protocol(SloccqProtocol((local_round("leak", ALICE, leaky),), 1), st)
    # an instrument with two outcomes keeps the looser outcome-sum rule
    split = Instrument(
        [
            ("0", [math.sqrt(1.0 - 5e-10) * np.diag([1.0, 0.0])]),
            ("1", [math.sqrt(1.0 - 5e-10) * np.diag([0.0, 1.0])]),
        ],
        lay,
        lay,
    )
    tree = run_protocol(SloccqProtocol((local_round("m", ALICE, split),), 1), st)
    total = sum(leaf.probability for leaf in tree.leaves)
    assert total == pytest.approx(1.0 - 5e-10, abs=1e-15)

