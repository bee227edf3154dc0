"""Span tracing for the traced benchmark run.

The tracer wraps the public functions and methods of each cdlora module from
outside the package: every module-level name bound to a wrapped function is
rebound to the wrapper, and every wrapped method is replaced on its class.
`uninstall` puts the original objects back. Nothing under `src/` is edited.

Each wrapped call records a span (name, start, end, parent span, op id) in
flat in-memory lists. Spans are aggregated, and optionally written out, only
when the run ends. A span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import tracemalloc
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

SETUP_OP = -1   # op id of spans recorded while a workload sets up
AFTER_OP = -2   # op id of spans recorded by the one-off checks after the loop

TENSOR_PRIMS = ("matmul", "transpose", "add", "sub", "mul", "neg", "silu", "square",
                "sqrt", "sum_all", "mean_all", "sum_rows", "add_bias", "scale_rows",
                "embed_rows", "concat_cols", "stopgrad")
REPORTED_PRIMS = ("matmul", "transpose", "silu", "add", "add_bias", "scale_rows",
                  "concat_cols", "embed_rows")

# (module, attribute) pairs wrapped in the traced run; "Class.method" names a method
TRACED = {
    "tensor": [*TENSOR_PRIMS, "GradTape.backward"],
    "denoiser": ["DenoiserNet.forward", "consistency_forward"],
    "solvers": ["cfg_target"],
    "lora": ["attach", "merge", "combine", "LoraAdapter.detached_clone"],
    "training": ["Adam.step", "ema_update", "diffusion_loss",
                 "consistency_distance"],
    "rng": ["RandomStream.uniform", "RandomStream.normal", "RandomStream.integers"],
    "schedule": ["add_noise"],
    "sampling_eval": ["lcm_multistep_sample", "ddim_sample", "mmd2", "median_bandwidth"],
    "persist": ["save_net", "load_net"],
    "datasets": ["make_dataset"],
}

# top-level spans of a training step, by the phase of the step they belong to
PHASE_OF = {
    "rng.RandomStream.uniform": "data", "rng.RandomStream.normal": "data",
    "rng.RandomStream.integers": "data", "schedule.add_noise": "data",
    "solvers.cfg_target": "teacher_target",
    "training.diffusion_loss": "fwd_bwd", "training.consistency_distance": "fwd_bwd",
    "tensor.GradTape.backward": "fwd_bwd", "denoiser.DenoiserNet.forward": "fwd_bwd",
    "training.Adam.step": "optimizer", "training.ema_update": "optimizer",
    "persist.save_net": "checkpoint",
}
PHASES = ("data", "teacher_target", "ema_target", "fwd_bwd", "optimizer", "checkpoint", "other")

# callers that a denoiser forward is attributed to, nearest ancestor first
FORWARD_CALLERS = ("solvers.cfg_target", "denoiser.consistency_forward",
                   "training.diffusion_loss", "sampling_eval.ddim_sample")

# per-layer metrics reported per call of the layer instead of per op; they
# run mostly in set-up or once every few ops
PER_CALL = {
    "lora.merge_ms": "lora.merge", "lora.combine_ms": "lora.combine",
    "persist.save_ms": "persist.save_net", "persist.load_ms": "persist.load_net",
    "datasets.make_ms": "datasets.make_dataset",
}

PER_LAYER_METRICS = (
    ["tensor.backward_ms", "tensor.nodes_per_step"]
    + [f"tensor.{p}_ms" for p in REPORTED_PRIMS]
    + ["tensor.transpose_bytes", "tensor.bwd_useful_ratio",
       "denoiser.forward_ms", "denoiser.forward_calls", "denoiser.rows_per_call",
       "solvers.cfg_target_ms", "solvers.eps_calls_per_target",
       "lora.branch_ms", "lora.merge_ms", "lora.combine_ms",
       "training.adam_ms", "training.ema_ms",
       "rng.draw_ms", "rng.values_drawn",
       "schedule.add_noise_ms",
       "sampling_eval.lcm_ms", "sampling_eval.ddim_ms", "sampling_eval.mmd2_ms",
       "sampling_eval.median_bandwidth_ms", "sampling_eval.mmd2_peak_mb",
       "persist.save_ms", "persist.load_ms", "persist.bytes_written",
       "datasets.make_ms"]
    + [f"step.{p}_ms" for p in PHASES]
    + ["traced.op_ms_p50", "traced.op_ms_mean"]
)

PER_LAYER_UNITS = {
    "tensor.nodes_per_step": "count", "tensor.transpose_bytes": "bytes",
    "tensor.bwd_useful_ratio": "ratio", "denoiser.forward_calls": "count",
    "denoiser.rows_per_call": "rows", "solvers.eps_calls_per_target": "count",
    "rng.values_drawn": "count", "sampling_eval.mmd2_peak_mb": "MB",
    "persist.bytes_written": "bytes",
}


def self_times(start, end, parent) -> list:
    """Self time of every span: its duration minus its direct children's durations."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def _resolve(obj, dotted):
    owner, name = obj, dotted
    if "." in dotted:
        cls_name, name = dotted.split(".")
        owner = getattr(obj, cls_name)
    return owner, name


class Tracer:
    """Records spans and counters around calls into cdlora's modules."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.ops: list = []
        self.op = SETUP_OP
        self.counts: dict = defaultdict(Counter)   # op id -> counter name -> value
        self.on_tape: dict = {}                    # consistency_forward span -> output on tape
        self.peak_mb: dict = {}                    # op id -> tracemalloc peak inside mmd2
        self._stack: list = []
        self._patched: list = []
        self._lora = weakref.WeakSet()             # adapter factors and their transposes

    # -- recording -------------------------------------------------------------

    def next_op(self, op=None) -> None:
        """Start the next op (or the given op id); later spans belong to it."""
        self.op = self.op + 1 if op is None else op

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value=1) -> None:
        self.counts[self.op][name] += value

    # -- wrappers --------------------------------------------------------------

    def _wrapper(self, orig, span, hook):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer.open(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(idx, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function named in TRACED, wherever cdlora binds it."""
        if self._patched:
            raise RuntimeError("tracer wrappers are already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cdlora" or n.startswith("cdlora."))]
        for short, attrs in TRACED.items():
            module = sys.modules[f"cdlora.{short}"]
            for dotted in attrs:
                owner, name = _resolve(module, dotted)
                orig = owner.__dict__[name]
                hook = getattr(self, f"_hook_{name}", None)
                if hook is None and name in TENSOR_PRIMS:
                    hook = self._hook_prim
                wrapper = self._wrapper(orig, f"{short}.{dotted}", hook)
                if owner is module:
                    self._rebind(modules, orig, wrapper)
                else:
                    self._patched.append((owner, name, orig))
                    setattr(owner, name, wrapper)
                if short == "sampling_eval" and name == "mmd2":
                    self._rebind(modules, wrapper, self._peak_wrapper(wrapper))

    def _rebind(self, modules, old, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._patched.append((mod, attr, old))
                    setattr(mod, attr, new)

    def _peak_wrapper(self, inner):
        tracer = self

        @functools.wraps(inner)
        def peak(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracer.peak_mb[tracer.op] = max(tracer.peak_mb.get(tracer.op, 0.0), peak_mb)
                tracemalloc.stop()

        return peak

    def uninstall(self) -> None:
        """Restore every object the wrappers replaced."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- hooks (run after the span closes) -----------------------------------

    def _hook_prim(self, idx, args, out):
        if out.requires_grad:   # recorded on the active tape
            self.count("tensor.nodes")

    def _lora_time(self, idx) -> None:
        self.count("lora.branch_s", self.end[idx] - self.start[idx])

    def _hook_matmul(self, idx, args, out):
        a, b = args
        self._hook_prim(idx, args, out)
        if a in self._lora or b in self._lora:
            self._lora_time(idx)
        if out.requires_grad:
            flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]
            self.count("tensor.bwd_flops", 2 * flops)
            self.count("tensor.bwd_useful_flops", flops * (a.requires_grad + b.requires_grad))

    def _hook_transpose(self, idx, args, out):
        self._hook_prim(idx, args, out)
        self.count("tensor.transpose_bytes", out.data.nbytes * (2 if out.requires_grad else 1))
        if args[0] in self._lora:
            self._lora.add(out)
            self._lora_time(idx)

    def _register_adapter(self, adapter):
        for entry in adapter.entries.values():
            self._lora.add(entry.a)
            self._lora.add(entry.b)

    def _hook_attach(self, idx, args, out):
        self._register_adapter(out)

    def _hook_detached_clone(self, idx, args, out):
        self._register_adapter(out)

    def _hook_combine(self, idx, args, out):
        self._register_adapter(out.adapter)

    def _hook_forward(self, idx, args, out):
        self.count("denoiser.forward_calls")
        self.count("denoiser.rows", len(args[1]))

    def _hook_consistency_forward(self, idx, args, out):
        self.on_tape[idx] = out.requires_grad

    def _hook_uniform(self, idx, args, out):
        # integers() draws through uniform(); count each value once
        p = self.parent[idx]
        if p < 0 or not self.names[p].startswith("rng."):
            self.count("rng.values_drawn", out.size)

    _hook_normal = _hook_uniform
    _hook_integers = _hook_uniform

    def _hook_save_net(self, idx, args, out):
        path = Path(args[0])
        self.count("persist.bytes_written", sum(f.stat().st_size for f in path.iterdir()))



def aggregate(tracer: Tracer, op_ms: dict, steps: bool) -> tuple[dict, dict]:
    """Per-layer metrics over the timed ops, plus a detail record for the report.

    op_ms maps each timed op id to its wall time in ms; spans of other ops
    (set-up, the checks after the loop) count only toward the
    per-call metrics. The step.* split applies when the ops are training
    steps, and reads 0 otherwise.
    """
    timed = set(op_ms)
    n_ops = max(len(timed), 1)
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    self_ms = Counter()
    phase_by_op = defaultdict(Counter)
    caller_ms = Counter()
    forwards_in_target = 0
    targets = 0
    per_call = {metric: [] for metric in PER_CALL}
    outermost = {span: metric for metric, span in PER_CALL.items()}
    names, parent = tracer.names, tracer.parent
    for i, name in enumerate(names):
        dur_ms = (tracer.end[i] - tracer.start[i]) * 1e3
        if name in outermost and (parent[i] < 0 or names[parent[i]] != name):
            per_call[outermost[name]].append(dur_ms)
        if tracer.ops[i] not in timed:
            continue
        self_ms[name] += selfs[i] * 1e3
        targets += name == "solvers.cfg_target"
        if parent[i] < 0:
            phase = PHASE_OF.get(name, "other")
            if name == "denoiser.consistency_forward":
                phase = "fwd_bwd" if tracer.on_tape.get(i) else "ema_target"
            phase_by_op[tracer.ops[i]][phase] += dur_ms
        if name == "denoiser.DenoiserNet.forward":
            j, caller = parent[i], "other"
            while j >= 0:
                if names[j] in FORWARD_CALLERS:
                    caller = names[j]
                    break
                j = parent[j]
            if caller == "denoiser.consistency_forward":
                caller = "student" if tracer.on_tape.get(j) else "consistency (off tape)"
            caller_ms[caller] += dur_ms
            forwards_in_target += caller == "solvers.cfg_target"
    # op time no top-level span covers is loop overhead in the caller
    for op, ms in op_ms.items():
        phase_by_op[op]["other"] += ms - sum(phase_by_op[op].values())
    phase_ms = sum((phase_by_op[op] for op in timed), Counter())
    # the split of a typical step: the middle half of ops by wall time,
    # whose mean sits near the median step the end-to-end metric reports
    middle = list(op_ms)
    if len(op_ms) >= 4:
        q1, _, q3 = statistics.quantiles(op_ms.values(), n=4)
        middle = [op for op, ms in op_ms.items() if q1 <= ms <= q3]

    counts = Counter()
    for op in timed:
        counts.update(tracer.counts.get(op, {}))
    saves = len(per_call["persist.save_ms"])
    save_bytes = sum(c["persist.bytes_written"] for c in tracer.counts.values())

    def per_op(name):
        return self_ms[name] / n_ops

    m = {
        "tensor.backward_ms": per_op("tensor.GradTape.backward"),
        "tensor.nodes_per_step": counts["tensor.nodes"] / n_ops,
        **{f"tensor.{p}_ms": per_op(f"tensor.{p}") for p in REPORTED_PRIMS},
        "tensor.transpose_bytes": counts["tensor.transpose_bytes"] / n_ops,
        "tensor.bwd_useful_ratio": (counts["tensor.bwd_useful_flops"] / counts["tensor.bwd_flops"]
                                    if counts["tensor.bwd_flops"] else 0.0),
        "denoiser.forward_ms": per_op("denoiser.DenoiserNet.forward"),
        "denoiser.forward_calls": counts["denoiser.forward_calls"] / n_ops,
        "denoiser.rows_per_call": (counts["denoiser.rows"] / counts["denoiser.forward_calls"]
                                   if counts["denoiser.forward_calls"] else 0.0),
        "solvers.cfg_target_ms": per_op("solvers.cfg_target"),
        "solvers.eps_calls_per_target": forwards_in_target / targets if targets else 0.0,
        "lora.branch_ms": counts["lora.branch_s"] * 1e3 / n_ops,
        "training.adam_ms": per_op("training.Adam.step"),
        "training.ema_ms": per_op("training.ema_update"),
        "rng.draw_ms": sum(per_op(f"rng.RandomStream.{f}") for f in ("uniform", "normal", "integers")),
        "rng.values_drawn": counts["rng.values_drawn"] / n_ops,
        "schedule.add_noise_ms": per_op("schedule.add_noise"),
        "sampling_eval.lcm_ms": per_op("sampling_eval.lcm_multistep_sample"),
        "sampling_eval.ddim_ms": per_op("sampling_eval.ddim_sample"),
        "sampling_eval.mmd2_ms": per_op("sampling_eval.mmd2"),
        "sampling_eval.median_bandwidth_ms": per_op("sampling_eval.median_bandwidth"),
        "sampling_eval.mmd2_peak_mb": max((tracer.peak_mb.get(op, 0.0) for op in timed), default=0.0),
        "persist.bytes_written": save_bytes / saves if saves else 0.0,
        **{metric: statistics.fmean(v) if v else 0.0 for metric, v in per_call.items()},
        **{f"step.{p}_ms": phase_ms[p] / n_ops if steps else 0.0 for p in PHASES},
        "traced.op_ms_p50": statistics.median(op_ms.values()) if op_ms else 0.0,
        "traced.op_ms_mean": statistics.fmean(op_ms.values()) if op_ms else 0.0,
    }
    detail = {
        "ops": len(timed),
        "spans": len(names),
        "forward_ms_by_caller": {k: v / n_ops for k, v in caller_ms.items()},
        "self_ms_per_op": {k: v / n_ops for k, v in sorted(self_ms.items())},
        "calls_per_kind": {metric: len(v) for metric, v in per_call.items()},
        "middle_half_ops": len(middle),
        "middle_half_op_ms": statistics.fmean(op_ms[op] for op in middle) if middle else 0.0,
        "middle_half_split_ms": {p: statistics.fmean(phase_by_op[op][p] for op in middle)
                                 if middle else 0.0 for p in PHASES},
    }
    return m, detail


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write every span as one JSON line: name, start, end, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = tracer.start[0] if tracer.start else 0.0
    with gzip.open(path, "wt") as fh:
        for i, name in enumerate(tracer.names):
            fh.write(json.dumps([i, name, round((tracer.start[i] - t0) * 1e6, 1),
                                 round((tracer.end[i] - t0) * 1e6, 1),
                                 tracer.parent[i], tracer.ops[i]]) + "\n")
