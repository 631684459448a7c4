"""Seeded input generator for the qcatalyst benchmark.

``build(workload, seed, workdir)`` writes the ``--rho``, ``--sigma`` and
``--input`` state documents a workload needs into ``workdir`` and returns the
argv of every report in one pass of the workload's mix, plus a short warm-up
list. The same seed gives the same documents and the same order.

The seed changes amplitudes, corruption strengths, the order of the pass and
the split of the obs3 ``--seeds`` ladder, but not the work a pass asks for.
Inputs that the program is known to refuse or crash on stay in the mix
(marked ``known_defect``); the benchmark reports them as failed instead of
filtering them out.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

VERIFIED = "verified"
FALSIFIED = "falsified"

WORKLOADS = ("catalytic", "separation", "oracles", "frontier")


@dataclasses.dataclass(frozen=True)
class Case:
    """One report: the CLI argv (without --out/--format) and its expected verdict."""

    label: str
    argv: tuple[str, ...]
    expected: str = VERIFIED
    known_defect: str | None = None


@dataclasses.dataclass(frozen=True)
class Workload:
    cases: tuple[Case, ...]  # one pass of the mix, in seeded order
    warmup: tuple[Case, ...]  # untimed, once, before the first timed report


# -- state documents -------------------------------------------------------


def _pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec).reshape(-1)]


def _layout(*regs) -> list:
    return [{"label": lab, "dim": dim, "party": party} for lab, dim, party in regs]


def _ensemble(layout, branches) -> dict:
    """branches: list of (p, [(labels, vector), ...])."""
    return {
        "layout": layout,
        "ensemble": [
            {
                "p": float(p),
                "factors": [
                    {"labels": list(labels), "vector": _pairs(vec)}
                    for labels, vec in factors
                ],
            }
            for p, factors in branches
        ],
    }


def _unit(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return v / np.linalg.norm(v)


def _unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


QUTRIT_PAIR = _layout(("A", 3, "Alice"), ("B", 3, "Bob"))


def _schmidt_pair(gen, coeffs) -> np.ndarray:
    """(U_A (x) U_B) sum_k c_k |kk> on a qutrit pair, random local unitaries."""
    ua, ub = _unitary(gen, 3), _unitary(gen, 3)
    core = np.zeros((3, 3), dtype=np.complex128)
    for k, c in enumerate(coeffs):
        core[k, k] = c * np.exp(1j * gen.uniform(0, 2 * math.pi))
    return (ua @ core @ ub.T).reshape(-1), ua, ub


def orthogonal_pair(gen):
    """Rank-2 rho on levels {0,1} and product sigma on level 2, both rotated
    by the same random local unitaries: locally orthogonal supports, so the
    support-measurement mode applies."""
    theta = gen.uniform(0.35, math.pi / 2 - 0.35)
    rho, ua, ub = _schmidt_pair(gen, (math.cos(theta), math.sin(theta)))
    sigma = [(("A",), ua[:, 2]), (("B",), ub[:, 2])]
    return _ensemble(QUTRIT_PAIR, [(1.0, [(("A", "B"), rho)])]), _ensemble(
        QUTRIT_PAIR, [(1.0, sigma)]
    )


def full_rank_pair(gen):
    """Full Schmidt rank rho (coefficients bounded away from 0) and a random
    product sigma: supports overlap, so explicit flags are needed."""
    c = gen.uniform(0.3, 1.0, size=3)
    rho, _, _ = _schmidt_pair(gen, c / np.linalg.norm(c))
    sigma = [(("A",), _unit(gen, 3)), (("B",), _unit(gen, 3))]
    return _ensemble(QUTRIT_PAIR, [(1.0, [(("A", "B"), rho)])]), _ensemble(
        QUTRIT_PAIR, [(1.0, sigma)]
    )


def pure_document(gen, regs):
    vec = _unit(gen, math.prod(d for _, d, _ in regs))
    labels = [lab for lab, _, _ in regs]
    return _ensemble(_layout(*regs), [(1.0, [(labels, vec)])])


def flagged_document(gen, blocks: int):
    """Mixture of random pure (A, B) states tagged by basis flags on both sides."""
    layout = _layout(
        ("FA", blocks, "Alice"), ("A", 2, "Alice"), ("FB", blocks, "Bob"), ("B", 2, "Bob")
    )
    p = gen.uniform(0.5, 1.5, size=blocks)
    p /= p.sum()
    branches = []
    for i in range(blocks):
        flag = np.eye(blocks)[i]
        branches.append(
            (p[i], [(("FA",), flag), (("FB",), flag), (("A", "B"), _unit(gen, 4))])
        )
    return _ensemble(layout, branches)


def dense_classical_document(gen, dim: int):
    """Dense sum_i p_i |ii><ii|: classically correlated, mixed."""
    p = gen.uniform(0.5, 1.5, size=dim)
    p /= p.sum()
    rho = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for i in range(dim):
        rho[i * dim + i, i * dim + i] = p[i]
    layout = _layout(("A", dim, "Alice"), ("B", dim, "Bob"))
    return {"layout": layout, "dense": _pairs(rho)}


# -- workload mixes --------------------------------------------------------


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def __call__(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _eps(gen) -> str:
    """Corruption strength, far above every pipeline tolerance."""
    return repr(float(gen.uniform(0.02, 0.2)))


def _lemma1(write, name, pair, n, mode, gen=None) -> Case:
    rho, sigma = pair
    argv = ["lemma1", "--rho", write(f"{name}-rho", rho), "--sigma",
            write(f"{name}-sigma", sigma), "--n", str(n), "--mode", mode]
    if gen is None:
        return Case(f"lemma1 {mode} n={n}", tuple(argv))
    argv += ["--corrupt-epsilon", _eps(gen)]
    return Case(f"lemma1 {mode} n={n} corrupted", tuple(argv), FALSIFIED)


def _plain(cmd, n, gen=None, defect=None) -> Case:
    argv = [cmd, "--n", str(n)]
    if gen is None:
        return Case(f"{cmd} n={n}", tuple(argv), known_defect=defect)
    argv += ["--corrupt-epsilon", _eps(gen)]
    return Case(f"{cmd} n={n} corrupted", tuple(argv), FALSIFIED)


def _obs3(seeds, rung, gen=None) -> Case:
    argv = ["obs3", "--seeds", str(seeds)]
    if gen is None:
        return Case(f"obs3 seeds~{rung}", tuple(argv))
    argv += ["--corrupt-epsilon", _eps(gen)]
    return Case(f"obs3 seeds~{rung} corrupted", tuple(argv), FALSIFIED)


def _schmidt(write, name, doc, cut=None, defect=None) -> Case:
    argv = ["schmidt", "--input", write(name, doc)]
    if cut is not None:
        argv += ["--cut", json.dumps(cut)]
    return Case(f"schmidt {name}", tuple(argv), known_defect=defect)


SM, EF = "support-measurement", "explicit-flags"


def _catalytic(write, gen):
    # n=3 reports are the majority of the pass, so the median and the tail
    # both sit on the n=3 class (the dense trace_distance hot spot).
    pairs = [orthogonal_pair(gen) for _ in range(3)]
    flags = full_rank_pair(gen)
    mix = [
        _lemma1(write, "sm0", pairs[0], 1, SM),
        _lemma1(write, "sm1", pairs[1], 2, SM),
        _plain("obs1", 2),
        _lemma1(write, "ef0", flags, 1, EF),
        _lemma1(write, "ef0", flags, 2, EF),
        _lemma1(write, "ef0", flags, 2, EF, gen),
        _lemma1(write, "sm0", pairs[0], 3, SM),
        _lemma1(write, "sm1", pairs[1], 3, SM),
        _lemma1(write, "sm2", pairs[2], 3, SM),
        _lemma1(write, "sm0", pairs[0], 3, SM, gen),
        _lemma1(write, "sm2", pairs[2], 3, SM, gen),
        _plain("obs1", 3),
        _plain("obs1", 3),
        _plain("obs1", 3, gen),
    ]
    warm = [
        _lemma1(write, "sm0", pairs[0], 1, SM),
        _lemma1(write, "sm0", pairs[0], 1, SM, gen),
        _lemma1(write, "ef0", flags, 1, EF),
        _lemma1(write, "ef0", flags, 1, EF, gen),
        _plain("obs1", 2),
        _plain("obs1", 2, gen),
    ]
    return mix, warm


def _separation(write, gen):
    # theorem n=2 is 9 of the 14 reports, so the median and the tail sit on
    # it. A pass takes about 11 s, so a 15 s run holds two passes even when
    # the machine runs a third faster or slower, and the sample count (which
    # picks the tail percentile) does not change with the machine's speed.
    mix = [
        *(_plain("theorem", 1) for _ in range(3)),
        *(_plain("theorem", 1, gen) for _ in range(2)),
        *(_plain("theorem", 2) for _ in range(6)),
        *(_plain("theorem", 2, gen) for _ in range(3)),
    ]
    warm = [_plain("theorem", 1), _plain("theorem", 1, gen)]
    return mix, warm


DENSE_SCHMIDT_DEFECT = "flagged-block oracle refuses dense states (no as_ensemble())"


def _oracles(write, gen):
    # obs3's only input is its --seeds count and its cost is linear in it.
    # The seed moves the three lower rungs but keeps their sum and the top
    # rung, so every seed asks for the same work. schmidt documents are most
    # of the reports: the median sits on them, the tail on obs3 at 200.
    rungs = (25, 50, 100, 200)
    shift = [int(x) for x in gen.integers(-5, 6, size=2)]
    ladder = [25 + shift[0], 50 + shift[1], 100 - shift[0] - shift[1], 200]
    docs = [
        ("pure2-", pure_document(gen, [("A", 3, "Alice"), ("B", 3, "Bob")]), None),
        ("pure3-", pure_document(gen, [("A", 2, "Alice"), ("B", 3, "Bob"), ("R", 2, "Referee")]),
         {"R": "left"}),
        ("pure4-", pure_document(gen, [("A1", 2, "Alice"), ("A2", 3, "Alice"),
                                       ("B1", 3, "Bob"), ("B2", 2, "Bob")]), None),
    ]
    mix = [_obs3(s, r) for s, r in zip(ladder, rungs)] + [_obs3(ladder[0], 25, gen)]
    for rep in range(2):
        mix += [_schmidt(write, f"{kind}{rep}", doc, cut) for kind, doc, cut in docs]
    for blocks in (2, 3):
        mix.append(_schmidt(write, f"flagged{blocks}", flagged_document(gen, blocks)))
    for dim in (2, 3):
        mix.append(_schmidt(write, f"dense{dim}", dense_classical_document(gen, dim),
                            defect=DENSE_SCHMIDT_DEFECT))
    one_of_each = ("schmidt pure2-0", "schmidt pure3-0", "schmidt pure4-0",
                   "schmidt flagged2", "schmidt dense2")
    warm = [_obs3(2, 2), _obs3(2, 2, gen)] + [c for c in mix if c.label in one_of_each]
    return mix, warm


def _frontier(write, gen):
    # The size ladder's edges: explicit flags at n=3 (verified), n=4 (refused
    # after a long dense build), n=5/6 (MemoryError under the child's address
    # space cap), theorem n=3 (refused at once), and obs1 at the bottom rung.
    # The four n=3 reports put the median on the verified n=3 class.
    pairs = [full_rank_pair(gen) for _ in range(3)]
    dense_build = "densify 6561 > DENSE_CAP, refused after the dense build"
    mix = [
        *(_lemma1(write, f"ef{i}", pair, 3, EF) for i, pair in enumerate(pairs)),
        _lemma1(write, "ef0", pairs[0], 3, EF, gen),
        _plain("lemma1", 4, defect=dense_build),
        _plain("obs1", 4, defect=dense_build),
        _plain("theorem", 3, defect="densify 6561 > DENSE_CAP"),
        _plain("lemma1", 5, defect="dense Kraus construction: MemoryError"),
        _plain("obs1", 5, defect="dense Kraus construction: MemoryError"),
        _plain("lemma1", 6, defect="dense Kraus construction: MemoryError"),
        _plain("obs1", 1, defect="compile_catalyst_prep rejects the trivial catalyst"),
    ]
    warm = [
        _lemma1(write, "ef0", pairs[0], 1, EF),
        _lemma1(write, "ef0", pairs[0], 1, EF, gen),
        _plain("lemma1", 1),
        _plain("obs1", 2),
        _plain("theorem", 1),
    ]
    return mix, warm


_BUILDERS = {
    "catalytic": _catalytic,
    "separation": _separation,
    "oracles": _oracles,
    "frontier": _frontier,
}


def build(workload: str, seed: int, workdir: str) -> Workload:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    gen = np.random.default_rng([seed, WORKLOADS.index(workload)])
    mix, warm = _BUILDERS[workload](_Writer(workdir), gen)
    order = gen.permutation(len(mix))
    return Workload(tuple(mix[i] for i in order), tuple(warm))
