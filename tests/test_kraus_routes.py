"""One Kraus-application path: ``apply_instrument`` agrees with the dense
oracle outcome by outcome on targets given out of layout order, and a channel
is the one-outcome instrument."""

import tracemalloc

import numpy as np
import pytest

from qcatalyst import (
    ALICE,
    BOB,
    EnsembleBranch,
    Factor,
    Instrument,
    KrausChannel,
    QuantumState,
    Register,
    RegisterLayout,
    ValidationError,
    apply_channel,
    apply_instrument,
    permute_registers,
)
from qcatalyst import oracle
from qcatalyst.protocols import bell_measurement_instrument
from qcatalyst.registers import EMPTY_LAYOUT
from qcatalyst.sampling import random_channel, random_pure_vector, random_unitary, rng

TARGETS = ("C", "A")  # out of layout order, and not the trailing registers


def abc_state(gen):
    """Two-branch ensemble on A, B, C whose factors straddle the targets and
    list their labels out of layout order."""
    layout = RegisterLayout(
        (Register("A", 2, ALICE), Register("B", 3, BOB), Register("C", 2, ALICE))
    )
    first = (
        Factor(("A", "B"), random_pure_vector(6, gen)),
        Factor(("C",), random_pure_vector(2, gen)),
    )
    second = (
        Factor(("C", "A"), random_pure_vector(4, gen)),
        Factor(("B",), random_pure_vector(3, gen)),
    )
    return QuantumState.from_branches(
        layout, (EnsembleBranch(0.35, first), EnsembleBranch(0.65, second))
    )


def target_layout():
    return RegisterLayout((Register("tC", 2, ALICE), Register("tA", 2, ALICE)))


def reference(state, kraus_ops, targets):
    """sum_k (1 (x) K) rho (1 (x) K)^dagger after moving the targets last."""
    rest = [lab for lab in state.layout.labels if lab not in targets]
    rho = permute_registers(state.densify(), rest + list(targets)).entries
    eye = np.eye(state.layout.subset(rest).total_dim)
    return sum(np.kron(eye, k) @ rho @ np.kron(eye, k).conj().T for k in kraus_ops)


def assert_routes_agree(instrument, state):
    ens = apply_instrument(instrument, state, TARGETS)
    den = oracle.apply_instrument(instrument, state.densify(), TARGETS)
    assert [o for o, _, _ in ens] == [o for o, _, _ in den]
    for (label, p_e, s_e), (_, p_d, s_d), (_, kraus) in zip(ens, den, instrument.branches):
        assert s_e.layout == s_d.layout_out
        assert p_e == pytest.approx(p_d, abs=1e-12)
        want = reference(state, kraus, TARGETS)
        np.testing.assert_allclose(p_d * s_d.entries, want, atol=1e-12)
        np.testing.assert_allclose(s_e.densify().entries, s_d.entries, atol=1e-12)
    return ens


def test_rectangular_instrument_routes_agree():
    gen = rng(41)
    state = abc_state(gen)
    out = RegisterLayout((Register("X", 3, ALICE),))
    k0, k1, k2 = random_channel(target_layout(), out, gen, kraus_count=3).kraus
    inst = Instrument([("one", [k0]), ("two", [k1, k2])], target_layout(), out)
    results = assert_routes_agree(inst, state)
    assert results[0][2].layout.labels == ("B", "X")


def test_instrument_into_empty_layout_routes_agree():
    gen = rng(42)
    state = abc_state(gen)
    u = random_unitary(4, gen)
    inst = Instrument(
        [(f"m{j}", [u[j : j + 1, :]]) for j in range(4)], target_layout(), EMPTY_LAYOUT
    )
    results = assert_routes_agree(inst, state)
    assert results[0][2].layout.labels == ("B",)


@pytest.mark.parametrize("out_dims", [(3,), ()])
def test_channel_routes_agree(out_dims):
    gen = rng(43)
    state = abc_state(gen)
    out = RegisterLayout(tuple(Register(f"X{i}", d, ALICE) for i, d in enumerate(out_dims)))
    ch = random_channel(target_layout(), out, gen, kraus_count=4)
    ens = apply_channel(ch, state, TARGETS)
    ((_, _, den),) = oracle.apply_instrument(ch, state.densify(), TARGETS)
    assert ens.layout == den.layout_out == RegisterLayout((state.layout["B"],) + out.registers)
    want = reference(state, ch.kraus, TARGETS)
    np.testing.assert_allclose(den.entries, want, atol=1e-12)
    np.testing.assert_allclose(ens.densify().entries, want, atol=1e-12)


@pytest.mark.parametrize("dense", [False, True])
def test_channel_is_the_sole_outcome_of_its_instrument(dense):
    gen = rng(44)
    state = abc_state(gen)
    if dense:  # the eigen-ensemble, a second decomposition of the state
        state = QuantumState.from_dense_matrix(state.densify().entries, state.layout)
    out = RegisterLayout((Register("X", 3, ALICE),))
    ch = random_channel(target_layout(), out, gen, kraus_count=2)
    direct = apply_channel(ch, state, TARGETS)
    ((label, p, via),) = apply_instrument(ch, state, TARGETS)
    assert label == "ok"
    assert p == pytest.approx(1.0, abs=1e-12)
    assert via.layout == direct.layout
    np.testing.assert_allclose(
        via.densify().entries, direct.densify().entries, atol=1e-12
    )


def test_channel_checks_run_in_the_instrument_constructor():
    lay = RegisterLayout((Register("A", 2, ALICE),))
    for bad in ([np.eye(2) * 0.5], [np.eye(3)], [np.full((2, 2), np.nan)], []):
        with pytest.raises(ValidationError) as chan_err:
            KrausChannel(bad, lay, lay)
        with pytest.raises(ValidationError) as inst_err:
            Instrument([("ok", bad)], lay, lay)
        assert str(chan_err.value) == str(inst_err.value)


class _Formed(np.ndarray):
    """An operator stack that logs the operators of every product formed
    from it (``np.matmul`` and ``@`` are ufuncs, so they come here)."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Formed.log.append(np.asarray(inputs[0]))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def test_widening_products_are_weighed_before_they_are_formed(monkeypatch):
    # outcome weights 2e-12 and 5e-13 sit either side of the 1e-12 floor, and
    # "nil" annihilates the state; every operator widens A (2) to X (3). The
    # kernel forms the products of "small" and "bulk" only: no product of
    # "tiny" or "nil" is formed, not even to be dropped
    layout = RegisterLayout((Register("A", 2, ALICE), Register("B", 3, BOB)))
    gen = rng(45)
    factors = (Factor(("A",), np.array([1.0, 0.0])), Factor(("B",), random_pure_vector(3, gen)))
    state = QuantumState.from_branches(layout, (EnsembleBranch(1.0, factors),))
    out = RegisterLayout((Register("X", 3, ALICE),))

    def ket_bra(i, j):
        return np.outer(np.eye(3)[i], np.eye(2)[j])

    inst = Instrument(
        [
            ("small", [np.sqrt(2e-12) * ket_bra(0, 0)]),
            ("tiny", [np.sqrt(5e-13) * ket_bra(1, 0)]),
            ("nil", [ket_bra(2, 1)]),
            ("bulk", [np.sqrt(1 - 2.5e-12) * ket_bra(1, 0)]),
        ],
        RegisterLayout((Register("A", 2, ALICE),)),
        out,
    )
    ops, owner, grams = inst._stacked()
    monkeypatch.setattr(inst, "_stacked", lambda: (ops.view(_Formed), owner, grams))
    monkeypatch.setattr(_Formed, "log", [])
    ens = apply_instrument(inst, state, ["A"])
    formed = [
        i
        for k in _Formed.log
        for product in k.reshape(-1, *ops.shape[1:])
        for i, op in enumerate(ops)
        if np.array_equal(product, op)
    ]
    assert formed == [0, 3]
    den = oracle.apply_instrument(inst, state.densify(), ["A"])
    assert [o for o, _, _ in ens] == [o for o, _, _ in den] == ["small", "bulk"]
    for (_, p_e, s_e), (_, p_d, s_d) in zip(ens, den):
        assert p_e == pytest.approx(p_d, rel=0, abs=1e-14)
        np.testing.assert_allclose(s_e.densify().entries, s_d.entries, rtol=0, atol=1e-14)


def test_the_bell_measurement_forms_no_per_operator_matrix():
    # a Gram of one 1 x 256 row is 256 x 256 (1 MiB); the 256 rows would
    # take 256 MiB, and the Bell rows narrow, so none is formed
    inst = bell_measurement_instrument("S", "R", 16, ALICE)
    layout = RegisterLayout((Register("S", 16, ALICE), Register("R", 16, ALICE)))
    state = QuantumState.pure(layout, random_pure_vector(256, rng(46)))
    tracemalloc.start()
    try:
        results = apply_instrument(inst, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 256
    assert peak < 16 * 2**20
