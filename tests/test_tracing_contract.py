"""The benchmark's layer tracer still finds what it wraps and what it reads.

``perfbench/tracing.py`` patches qcatalyst functions by name, and reads the
Kraus operators of both channels off every protocol that ``build_protocol``
returns. A refactor that renames a traced function or drops
``alice_channel.kraus`` breaks the benchmark's trace without failing any
other test. This runs one small report per pipeline under that tracer, in a
fresh interpreter so that its patches stay there, and checks that the
catalytic and marginal layers were seen. The tracer is only imported.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

REPORTS = (
    (["lemma1", "--n", "2"], 0),
    (["lemma1", "--n", "2", "--mode", "explicit-flags", "--corrupt-epsilon", "0.1"], 2),
    (["obs1", "--n", "2"], 0),
    (["theorem", "--n", "1"], 0),
    (["obs3", "--seeds", "2"], 0),
    (["schmidt", "--input", "{state}"], 0),
)

SCRIPT = """
import json, os, sys
workdir, reports = sys.argv[1], json.loads(sys.argv[2])
import qcatalyst
from qcatalyst import cli
import tracing

state = os.path.join(workdir, "state.json")
with open(state, "w") as fh:
    json.dump(qcatalyst.max_entangled(2).to_json(), fh)
tracer = tracing.Tracer()
tracing.install(tracer)
codes = []
for argv in reports:
    argv = [a.format(state=state) for a in argv]
    codes.append(cli.main(argv + ["--out", os.path.join(workdir, "report.json")]))
metrics = {k: v for k, (v, _) in tracing.layer_metrics(tracer, 1).items()}
print(json.dumps({"codes": codes, "metrics": metrics}))
"""


def test_benchmark_tracer_sees_every_layer(tmp_path):
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(paths),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    argvs = [argv for argv, _ in REPORTS]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(argvs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in REPORTS]
    metrics = result["metrics"]
    assert metrics["catalysis.kraus_bytes"] > 0
    assert metrics["states.marginal.calls"] > 0
