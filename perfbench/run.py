"""qcatalyst benchmark: end-to-end report metrics and a traced per-layer run.

    python3 perfbench/run.py --workload catalytic --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
One client drives ``qcatalyst.cli.main`` in a closed loop inside a fresh child
process (see child.py). With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` an untraced child and then a traced child run the
same number of passes, and the per-layer metrics plus the tracing overhead
are printed. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when a
report comes back with a wrong verdict (falsified on a clean input, verified
on a corrupted one) or when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # every child is killed after this, so a run ends within 180 s
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    threads = str(len(os.sched_getaffinity(0)))  # no more BLAS threads than cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(role, args, workdir, deadline, **extra):
    """Run one child; return its result with "setup_s", the seconds from
    process start to the end of its set-up (CLOCK_MONOTONIC is system-wide)."""
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, "--result", result]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    with open(os.path.join(workdir, "stderr.txt"), "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=_child_env(), cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{role} child exceeded the run deadline") from None
        if proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"{role} child exited with {proc.returncode}:\n"
                             f"{err.read()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - start
    return res


def tail_latency(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    with that percentile and count. Below 2 * TAIL_BEYOND + 1 samples that
    percentile would not lie above the median, so the maximum is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def _pass_seconds(res) -> float:
    """Time of one pass of the mix, each case at its median latency over the
    run's passes, so a transient slowdown of the machine moves it little."""
    k = res["reports_per_pass"]
    lat = res["latencies"]
    return sum(statistics.median(lat[i::k]) for i in range(k))


def _failed(res) -> int:
    return sum(n for outcome, n in res["outcomes"].items() if outcome != "expected")


def end_to_end(args, workdir, deadline):
    setups = [_spawn("setup", args, os.path.join(workdir, f"setup{i}"), deadline)["setup_s"]
              for i in range(SETUP_REPEATS - 1)]
    res = _spawn("measure", args, os.path.join(workdir, "measure"), deadline,
                 seconds=args.seconds)
    setups.append(res["setup_s"])
    lat = res["latencies"]
    n = len(lat)
    tail, pct, beyond = tail_latency(lat)
    crashed = res["outcomes"].get("crashed", 0)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "reports_per_s": (res["reports_per_pass"] / _pass_seconds(res), "1/s",
                          f"one pass from each case's median over {res['passes']} passes; "
                          f"{n} reports in {sum(lat):.2f} s timed"),
        "report_s_p50": (statistics.median(lat), "s", f"{n} samples"),
        "report_s_tail": (tail, "s", f"p{pct:.1f}, {beyond} of {n} samples beyond"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB", "ru_maxrss of the run's child"),
    }
    info = {
        "failed_ratio": (_failed(res) / n, "ratio", f"{_failed(res)} of {n}"),
        "crashed_ratio": (crashed / n, "ratio", f"{crashed} of {n}"),
    }
    return res, metrics, info


def traced(args, workdir, deadline):
    plain = _spawn("measure", args, os.path.join(workdir, "plain"), deadline,
                   seconds=args.seconds)
    res = _spawn("trace", args, os.path.join(workdir, "traced"), deadline,
                 passes=plain["passes"])
    metrics = {name: (value, unit, "per pass" if unit != "ratio" else "")
               for name, (value, unit) in res["layers"].items()}
    overhead = sum(res["latencies"]) / sum(plain["latencies"])
    metrics["trace.overhead_ratio"] = (
        overhead, "ratio", f"traced / untraced timed time over {res['passes']} passes")
    return res, metrics, {}


def _print_summary(name, args, res, metrics, info):
    n = len(res["latencies"])
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']} x {res['reports_per_pass']} reports = {n}")
    for metric, (value, unit, note) in {**metrics, **info}.items():
        print(f"  {metric:42s} {value:14.6g} {unit:6s} {note}")
    k = res["reports_per_pass"]
    by_label: dict[str, list] = {}
    for i, label in enumerate(res["labels"]):
        by_label.setdefault(label, []).extend(res["latencies"][i::k])
    for label, lat in sorted(by_label.items()):
        print(f"  case  {label:40s} median {statistics.median(lat):10.4f} s  ({len(lat)} samples)")
    print(f"  outcomes {res['outcomes']}  crashes {res['crashes']}")
    for label, counts in sorted(res["failures"].items()):
        defect = res["known_defects"].get(label)
        note = f"known defect: {defect}" if defect else "NOT A KNOWN DEFECT"
        print(f"  failed  {label}: {counts}  ({note})")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "qcatalyst", "__init__.py")):
        print(f"run.py: no qcatalyst sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = os.path.join(ROOT, f".perfbench-run-{os.getpid()}")
    deadline = time.monotonic() + DEADLINE_S * len(names)
    attempted = failed = 0
    wrong = False
    merged = {}
    try:
        for name in names:
            args.workload = name
            measure = traced if args.trace else end_to_end
            res, metrics, info = measure(args, os.path.join(workdir, name), deadline)
            _print_summary(name, args, res, metrics, info)
            attempted += len(res["latencies"])
            failed += _failed(res)
            wrong |= res["outcomes"].get("wrong", 0) > 0
            prefix = f"{name}." if len(names) > 1 else ""
            merged.update({prefix + m: {"value": v, "unit": u}
                           for m, (v, u, _) in metrics.items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
