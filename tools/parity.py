"""Record the CLI parity set of a checkout, or compare two recordings.

The parity set is 43 CLI runs: ``lemma1`` n=1..3 in auto and explicit-flags
modes, ``obs1`` n=1..3 with and without ``--product-rho``, ``theorem``
n=1..3, ``obs3 --seeds 10``, ``lemma1 --rho/--sigma`` on two seeded qutrit
pairs (a locally rotated pair with orthogonal supports at n=3 in
support-measurement mode, a full Schmidt rank pair at n=2 with explicit
flags), and one refusal per pipeline past its size limit (``lemma1 --n 4``,
``obs1 --n 4``, ``obs3 --seeds 10001``; ``theorem --n 3`` is above), each
clean and with ``--corrupt-epsilon 0.3``; plus one small-epsilon control,
``lemma1 --n 2 --corrupt-epsilon 1e-6``, which must still be falsified. A
change that is meant to keep every report must keep this set.

    python3 tools/parity.py --write OUT [--src CHECKOUT/src]
    python3 tools/parity.py --compare A B --atol 1e-14

``--write`` writes the two pairs' state documents into ``OUT/states`` from
a fixed numpy seed, runs each case in a fresh interpreter inside OUT against
the package under ``--src`` (default: the ``src`` next to this script) and
writes ``OUT/<case>.json`` with the argv, the exit code, stderr and the JSON
report without its ``timestamp`` (``null`` when no report was printed).

``--compare`` exits 1 when a case is missing on one side, or differs in exit
code, stderr, verdict, structure, any string or boolean, or any number by
more than ``--atol``; otherwise it exits 0. It lists every difference and
names the cases whose reports are identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORRUPTION = ("--corrupt-epsilon", "0.3")
RUNNER = "import sys; from qcatalyst.cli import main; sys.exit(main())"
PAIR_SEED = 1729
PAIR_RUNS = {  # pair -> (n, mode) of its lemma1 run
    "rotated": (3, "support-measurement"),
    "full-rank": (2, "explicit-flags"),
}


def _unitary(gen, dim: int):
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(factors) -> dict:
    """A one-branch state document on the qutrit pair (A Alice, B Bob)."""
    return {
        "layout": [
            {"label": "A", "dim": 3, "party": "Alice"},
            {"label": "B", "dim": 3, "party": "Bob"},
        ],
        "ensemble": [
            {
                "p": 1.0,
                "factors": [
                    {"labels": labels, "vector": [[z.real, z.imag] for z in vec.tolist()]}
                    for labels, vec in factors
                ],
            }
        ],
    }


def pair_states() -> dict[str, dict]:
    """State documents by file stem, from the fixed seed ``PAIR_SEED``.

    ``rotated``: rho = cos t |00> + sin t |11> and sigma = |22>, both under the
    same random local unitaries, so their local supports are orthogonal.
    ``full-rank``: a rotated rho of full Schmidt rank and a random product
    sigma, whose supports overlap.
    """
    gen = np.random.default_rng(PAIR_SEED)
    ua, ub = _unitary(gen, 3), _unitary(gen, 3)
    t = gen.uniform(0.4, 1.1)
    rotated = ua[:, :2] @ np.diag([np.cos(t), np.sin(t)]) @ ub[:, :2].T
    coeffs = gen.uniform(0.3, 1.0, size=3)
    va, vb = _unitary(gen, 3), _unitary(gen, 3)
    full = va @ np.diag(coeffs / np.linalg.norm(coeffs)) @ vb.T
    sa, sb = _unitary(gen, 3)[:, 0], _unitary(gen, 3)[:, 0]
    return {
        "rotated-rho": _state([(["A", "B"], rotated.reshape(-1))]),
        "rotated-sigma": _state([(["A"], ua[:, 2]), (["B"], ub[:, 2])]),
        "full-rank-rho": _state([(["A", "B"], full.reshape(-1))]),
        "full-rank-sigma": _state([(["A"], sa), (["B"], sb)]),
    }


def cases() -> dict[str, list[str]]:
    """The 43 parity runs by name; the pairs' state files are named relative
    to OUT, inside which ``write`` runs every case."""
    clean = {}
    for n in (1, 2, 3):
        clean[f"lemma1-auto-n{n}"] = ["lemma1", "--n", str(n)]
        clean[f"lemma1-explicit-flags-n{n}"] = [
            "lemma1", "--n", str(n), "--mode", "explicit-flags",
        ]
        clean[f"obs1-n{n}"] = ["obs1", "--n", str(n)]
        clean[f"obs1-product-rho-n{n}"] = ["obs1", "--n", str(n), "--product-rho"]
        clean[f"theorem-n{n}"] = ["theorem", "--n", str(n)]
    clean["obs3-seeds10"] = ["obs3", "--seeds", "10"]
    clean["lemma1-auto-n4"] = ["lemma1", "--n", "4"]
    clean["obs1-n4"] = ["obs1", "--n", "4"]
    clean["obs3-seeds10001"] = ["obs3", "--seeds", "10001"]
    for pair, (n, mode) in PAIR_RUNS.items():
        clean[f"lemma1-{pair}-{mode}-n{n}"] = [
            "lemma1", "--rho", f"states/{pair}-rho.json",
            "--sigma", f"states/{pair}-sigma.json",
            "--n", str(n), "--mode", mode,
        ]
    out = {}
    for name, argv in clean.items():
        out[name] = argv
        out[f"{name}-corrupted"] = argv + list(CORRUPTION)
    out["lemma1-auto-n2-small-epsilon"] = ["lemma1", "--n", "2", "--corrupt-epsilon", "1e-6"]
    return out


def write(out_dir: pathlib.Path, src: pathlib.Path) -> None:
    (out_dir / "states").mkdir(parents=True, exist_ok=True)
    for stem, doc in pair_states().items():
        (out_dir / "states" / f"{stem}.json").write_text(json.dumps(doc) + "\n")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    for name, argv in cases().items():
        proc = subprocess.run(
            [sys.executable, "-c", RUNNER, *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=out_dir,
        )
        report = json.loads(proc.stdout) if proc.stdout.strip() else None
        if isinstance(report, dict):
            report.pop("timestamp", None)
        record = {
            "argv": argv,
            "exit": proc.returncode,
            "stderr": proc.stderr,
            "report": report,
        }
        (out_dir / f"{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        print(f"{name}: exit {proc.returncode}", flush=True)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(a, b, atol: float, path: str = "") -> tuple[list[str], float]:
    """Differences between two decoded JSON values, and the largest gap
    between two numbers at the same place."""
    if _is_number(a) and _is_number(b):
        if a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)):
            return [], 0.0
        gap = abs(a - b)
        if not math.isfinite(gap) or gap > atol:
            return [f"{path}: {a!r} vs {b!r}"], gap
        return [], gap
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys {sorted(a)} vs {sorted(b)}"], 0.0
        items = [(a[k], b[k], f"{path}.{k}") for k in sorted(a)]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} vs {len(b)}"], 0.0
        items = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return ([] if a == b and type(a) is type(b) else [f"{path}: {a!r} vs {b!r}"]), 0.0
    found, worst = [], 0.0
    for x, y, where in items:
        d, gap = diff(x, y, atol, where)
        found += d
        worst = max(worst, gap)
    return found, worst


def compare(dir_a: pathlib.Path, dir_b: pathlib.Path, atol: float) -> int:
    names_a = {p.stem for p in dir_a.glob("*.json")}
    names_b = {p.stem for p in dir_b.glob("*.json")}
    problems = [f"{n}: only in {dir_a}" for n in sorted(names_a - names_b)]
    problems += [f"{n}: only in {dir_b}" for n in sorted(names_b - names_a)]
    identical, worst = [], 0.0
    for name in sorted(names_a & names_b):
        a = json.loads((dir_a / f"{name}.json").read_text())
        b = json.loads((dir_b / f"{name}.json").read_text())
        if a["exit"] != b["exit"]:
            problems.append(f"{name}: exit {a['exit']} vs {b['exit']}")
        if a["stderr"] != b["stderr"]:
            problems.append(f"{name}: stderr {a['stderr']!r} vs {b['stderr']!r}")
        verdicts = [(r or {}).get("verdict") for r in (a["report"], b["report"])]
        if verdicts[0] != verdicts[1]:
            problems.append(f"{name}: verdict {verdicts[0]} vs {verdicts[1]}")
        found, gap = diff(a["report"], b["report"], atol, "report")
        problems += [f"{name}: {d}" for d in found]
        worst = max(worst, gap)
        if json.dumps(a["report"]) == json.dumps(b["report"]):
            identical.append(name)
    for line in problems:
        print(line)
    print(f"{len(names_a & names_b)} common cases; largest number gap {worst:.3g}")
    print(f"identical reports ({len(identical)}): {', '.join(identical)}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", type=pathlib.Path, metavar="OUT")
    mode.add_argument("--compare", type=pathlib.Path, nargs=2, metavar=("A", "B"))
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src")
    parser.add_argument("--atol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.write:
        write(args.write, args.src.resolve())
        return 0
    return compare(*args.compare, args.atol)


if __name__ == "__main__":
    sys.exit(main())
