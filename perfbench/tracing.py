"""Spans around the public functions of each qcatalyst layer, from outside.

``install(tracer)`` wraps every function in ``TRACED``. A module-level
function is replaced in its defining module and in every qcatalyst module that
bound it by name (``from .states import trace_distance``), so calls through
either binding are seen. Methods are replaced on the class. Nothing is
restored: the traced pass runs in a child process of its own.

Each span records its name, start, end, parent span and report id. A span's
self time is its duration minus the durations of its direct children (one
thread, so children nest inside their parent). Counts are computed from the
arguments and results at the same boundary; byte counts are computed from
array sizes, not measured.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None, report]
        self.stack: list[int] = []
        self.report = None
        self.sums: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, 0.0, 0.0, parent, self.report]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self.stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time and call count per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += (end - start) - covered[i]
        calls[name] += 1
    return total, calls


# -- counts at layer boundaries --------------------------------------------


def _kraus_bytes(tr, args, protocol):
    ops = protocol.alice_channel.kraus + protocol.bob_channel.kraus
    tr.sums["catalysis.kraus_bytes"] += sum(k.nbytes for k in ops)


def _leaves(tr, args, tree):
    tr.sums["protocols.run_protocol.leaves"] += len(tree.leaves)


def _final_branches(tr, args, result):
    tr.sums["protocols.final_state.branches"] += len(result[0].branches)


def _channel_kept(tr, args, out):
    channel, state = args[0], args[1]
    if not state.is_dense:
        tr.sums["states.apply_channel.tried"] += len(state.branches) * len(channel.kraus)
        tr.sums["states.apply_channel.kept"] += len(out.branches)


def _instrument_kept(tr, args, results):
    instrument, state = args[0], args[1]
    if not state.is_dense:
        kraus = sum(len(ops) for _, ops in instrument.branches)
        tr.sums["states.apply_instrument.tried"] += len(state.branches) * kraus
        tr.sums["states.apply_instrument.kept"] += sum(len(s.branches) for _, _, s in results)


def _marginal_factor(tr, args, out):
    state = args[0]
    if state.is_dense:
        dim = state.layout.total_dim
    else:
        dim = max((f.vector.size for br in state.branches for f in br.factors), default=1)
    tr.peak("states.marginal.max_factor_dim", dim)


def _densify_size(tr, args, op):
    dim = args[0].layout.total_dim
    tr.peak("states.densify.max_dim", dim)
    if not args[0].is_dense:  # a dense state hands back its own matrix
        tr.sums["states.densify.bytes"] += op.entries.nbytes


PIPELINES = ("pipeline_lemma1", "pipeline_theorem", "pipeline_obs1",
             "pipeline_obs3", "pipeline_schmidt")

# (module, attribute, counter); "Class.method" patches the class attribute.
TRACED = (
    ("cli", "main", None),
    *(("pipelines", name, None) for name in PIPELINES),
    ("catalysis", "build_protocol", _kraus_bytes),
    ("catalysis", "run_clo", None),
    ("protocols", "run_protocol", _leaves),
    ("protocols", "final_state", _final_branches),
    ("protocols", "construct_converse", None),
    ("protocols", "compile_catalyst_prep", None),
    ("states", "QuantumState.from_json", None),
    ("states", "QuantumState.marginal", _marginal_factor),
    ("states", "QuantumState.densify", _densify_size),
    ("states", "apply_channel", _channel_kept),
    ("states", "apply_instrument", _instrument_kept),
    ("states", "trace_distance", None),
    ("states", "tensor_states", None),
    ("entanglement", "sn_orthogonal_mixture", None),
    ("entanglement", "sn_flagged_blocks", None),
    ("entanglement", "schmidt_rank", None),
    ("entanglement", "conditional_entropy", None),
    ("registers", "eig_hermitian", None),
    ("registers", "partial_trace", None),
    ("registers", "permute_registers", None),
    ("registers", "svd_across_cut", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED; qcatalyst must already be imported."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "qcatalyst" or n.startswith("qcatalyst.")]
    for layer, attr, count in TRACED:
        module = sys.modules[f"qcatalyst.{layer}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, count))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(f"{layer}.{attr}", original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# -- per-layer metrics -----------------------------------------------------

SELF_TIMED = (
    "cli.main", "states.from_json", "pipelines",
    "catalysis.build_protocol", "catalysis.run_clo",
    "protocols.run_protocol", "protocols.final_state", "protocols.construct_converse",
    "protocols.compile_catalyst_prep",
    "states.apply_channel", "states.apply_instrument", "states.marginal",
    "states.densify", "states.trace_distance", "states.tensor_states",
    "entanglement.sn_orthogonal_mixture", "entanglement.sn_flagged_blocks",
    "entanglement.schmidt_rank", "entanglement.conditional_entropy",
    "registers.eig_hermitian", "registers.partial_trace",
    "registers.permute_registers", "registers.svd_across_cut",
)
COUNTED_CALLS = (
    "states.apply_channel", "states.apply_instrument", "states.marginal",
    "states.densify", "states.trace_distance", "registers.eig_hermitian",
)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass of the workload mix: self seconds, call
    counts and sums per pass; peaks and ratios over the whole traced run."""
    total, calls = self_times(tracer.spans)
    for name in PIPELINES:  # one layer, five entry points
        total["pipelines"] += total.pop(f"pipelines.{name}", 0.0)
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (total.get(name, 0.0) / passes, "s")
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0) / passes, "count")
    sums, peaks = tracer.sums, tracer.peaks
    out["catalysis.kraus_bytes"] = (sums["catalysis.kraus_bytes"] / passes, "B")
    out["protocols.run_protocol.leaves"] = (
        sums["protocols.run_protocol.leaves"] / passes, "count")
    out["protocols.final_state.branches"] = (
        sums["protocols.final_state.branches"] / passes, "count")
    for name in ("states.apply_channel", "states.apply_instrument"):
        tried = sums[f"{name}.tried"]
        out[f"{name}.kept_ratio"] = (sums[f"{name}.kept"] / tried if tried else 0.0, "ratio")
    out["states.marginal.max_factor_dim"] = (peaks["states.marginal.max_factor_dim"], "count")
    out["states.densify.max_dim"] = (peaks["states.densify.max_dim"], "count")
    out["states.densify.bytes"] = (sums["states.densify.bytes"] / passes, "B")
    return out
