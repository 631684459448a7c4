"""One benchmark process: set up, then run the workload's reports in a closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``. Roles:

* ``setup``: import qcatalyst, write the seeded inputs, run the untimed
  warm-up, record the CLOCK_MONOTONIC time it ended and exit. run.py
  subtracts the time it started the process.
* ``measure``: the same set-up, then whole passes of the mix until the timed
  time reaches ``--seconds`` (or exactly ``--passes`` passes).
* ``trace``: as ``measure`` with spans installed around every layer, for
  exactly ``--passes`` passes.

Each report is one ``qcatalyst.cli.main(argv)`` call, timed alone; its
``--out`` file is read and classified after the timer stops. The result goes
to ``--result`` as JSON; stdout is not used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

import workloads

# The address-space cap turns the dense n>=5 frontier cases into a MemoryError
# within milliseconds inside this process, instead of exhausting the machine's
# memory. The n=4 cases (about 1 GB resident) still run to their refusal.
ADDRESS_SPACE_CAP = 2 << 30

EXPECTED, REFUSED, USAGE, CRASHED, WRONG = "expected", "refused", "usage", "crashed", "wrong"


def classify(case: workloads.Case, code, crash: str | None, report: dict | None) -> str:
    """Map one report's exit code and --out document to an outcome."""
    if crash is not None:
        return CRASHED
    if report is None:
        # QcatError raised to the CLI boundary: exit 2 with no report
        return {2: REFUSED, 1: USAGE}.get(code, WRONG if code == 0 else CRASHED)
    verdict = report.get("verdict")
    all_ok = all(q.get("ok") for q in report.get("quantities", ()))
    consistent = (code == 0) == (verdict == workloads.VERIFIED) and (
        verdict != workloads.VERIFIED or all_ok
    )
    if not consistent:
        return WRONG
    if verdict == case.expected:
        return EXPECTED
    if verdict == "refused":
        return REFUSED
    return WRONG  # falsified on a clean input, or verified on a corrupted one


def run_report(cli, case: workloads.Case, out: str):
    argv = [*case.argv, "--out", out, "--format", "json"]
    crash = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # MemoryError or a traceback: counted, run goes on
        code, crash = None, type(exc).__name__
    latency = time.perf_counter() - start
    report = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(out)
    return latency, classify(case, code, crash, report), crash


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    args = p.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    import qcatalyst
    from qcatalyst import cli

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(qcatalyst.__file__).startswith(src + os.sep):
        print(f"qcatalyst imported from {qcatalyst.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.workdir)
    out = os.path.join(args.workdir, "report.json")
    for case in wl.warmup:
        run_report(cli, case, out)
    ready = time.monotonic()
    if args.role == "setup":
        _write(args.result, {"ready": ready})
        return 0

    tracer = None
    if args.role == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies: list[float] = []
    failures: dict[str, Counter] = {}
    outcomes: Counter = Counter()
    crashes: Counter = Counter()
    passes = 0
    while (passes < args.passes) if args.passes else (
        passes == 0 or sum(latencies) < args.seconds
    ):
        for case in wl.cases:
            if tracer is not None:
                tracer.report = len(latencies)
            latency, outcome, crash = run_report(cli, case, out)
            latencies.append(latency)
            outcomes[outcome] += 1
            if crash:
                crashes[crash] += 1
            if outcome != EXPECTED:
                failures.setdefault(case.label, Counter())[outcome] += 1
        passes += 1

    result = {
        "ready": ready,
        "passes": passes,
        "reports_per_pass": len(wl.cases),
        "labels": [c.label for c in wl.cases],
        "latencies": latencies,
        "outcomes": dict(outcomes),
        "crashes": dict(crashes),
        "failures": {label: dict(c) for label, c in failures.items()},
        "known_defects": {c.label: c.known_defect for c in wl.cases if c.known_defect},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, passes)
    _write(args.result, result)
    return 0


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
