"""Tests of the benchmark itself: wrapper lifetime, self-time arithmetic,
and what the workload seed may change.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import cdlora
import run
import tracing
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _namespaces():
    """Every binding the tracer may replace: module globals and class dicts."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "cdlora" or name.startswith("cdlora.")):
            snap[name] = dict(vars(mod))
    for cls in (cdlora.GradTape, cdlora.DenoiserNet, cdlora.RandomStream, cdlora.LoraAdapter,
                cdlora.training.Adam):
        snap[cls.__qualname__] = dict(vars(cls))
    return snap


@pytest.fixture
def small(monkeypatch):
    """Shrink set-up and ops so a workload runs in about a second."""
    monkeypatch.setattr(workloads, "SETUP_TEACHER_STEPS", 3)
    monkeypatch.setattr(workloads, "SETUP_DISTILL_STEPS", 2)
    monkeypatch.setattr(workloads, "SETUP_STYLE_STEPS", 2)
    monkeypatch.setattr(workloads, "SAMPLE_COUNT", 40)

    def make(cls, seed, tmp_path, tracer=None):
        w = cls(seed, tmp_path / f"{cls.name}-{seed}", tracer)
        w.min_ops = 3
        if isinstance(w, workloads._Training):
            w.loss_window = (0, 4)
        return w

    return make


def test_wrappers_installed_only_while_tracing_and_restored():
    before = _namespaces()
    orig_matmul = cdlora.tensor.matmul
    tracer = tracing.Tracer()
    with tracer:
        assert cdlora.denoiser.matmul is not orig_matmul
        assert cdlora.tensor.matmul is not orig_matmul
        assert cdlora.DenoiserNet.forward is not before["DenoiserNet"]["forward"]
        net = cdlora.DenoiserNet(hidden=(4,), stream=cdlora.substream(0, "init/net"))
        net.forward(np.zeros((3, 2)), 1.0, [0, 1, 2], 0.5)
        with pytest.raises(RuntimeError):
            tracer.install()
    assert _namespaces() == before
    names = set(tracer.names)
    assert {"denoiser.DenoiserNet.forward", "tensor.matmul", "tensor.silu"} <= names
    forward = tracer.names.index("denoiser.DenoiserNet.forward")
    assert all(tracer.parent[i] == forward for i, n in enumerate(tracer.names)
               if n == "tensor.matmul")


def test_untraced_run_calls_the_original_functions(small, tmp_path):
    before = _namespaces()
    seen = []

    class Probe(workloads.Teacher):
        def train(self, state, hook):
            seen.append(cdlora.tensor.matmul is before["cdlora.tensor"]["matmul"]
                        and cdlora.DenoiserNet.forward is before["DenoiserNet"]["forward"])
            super().train(state, hook)

    out = small(Probe, 1, tmp_path).run(0.0)
    assert seen == [True]
    assert out["failed"] == 0
    assert _namespaces() == before


def test_divergence_is_a_failed_op(small, tmp_path):
    class Diverging(workloads.Teacher):
        def train(self, state, hook):
            hook.add(1, 0.5, 1.0)
            raise cdlora.DivergenceError(2, float("nan"))

    out = small(Diverging, 1, tmp_path).run(0.0)
    assert out["failed"] == 1
    assert out["attempted"] == 1 + 1 + 2   # one step done, one diverged, two checks
    assert len(out["op_ms"]) == 1


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 5] and c [6, 9]; a has child b [2, 3]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [3.0, 3.0, 1.0, 3.0]


def test_aggregate_splits_a_step_into_phases():
    t = tracing.Tracer()
    # one timed op of 10 ms: data draw 1 ms, teacher target 4 ms (with a
    # 3 ms forward inside), optimizer 2 ms; 3 ms no span covers
    spans = [("rng.RandomStream.normal", 0, 1, -1), ("solvers.cfg_target", 1, 5, -1),
             ("denoiser.DenoiserNet.forward", 1.5, 4.5, 1), ("training.Adam.step", 5, 7, -1)]
    for name, s, e, p in spans:
        t.names.append(name)
        t.start.append(s / 1e3)
        t.end.append(e / 1e3)
        t.parent.append(p)
        t.ops.append(0)
    t.counts[0]["denoiser.forward_calls"] = 1
    t.counts[0]["denoiser.rows"] = 256
    m, detail = tracing.aggregate(t, {0: 10.0}, steps=True)
    assert m["step.data_ms"] == pytest.approx(1.0)
    assert m["step.teacher_target_ms"] == pytest.approx(4.0)
    assert m["step.optimizer_ms"] == pytest.approx(2.0)
    assert m["step.other_ms"] == pytest.approx(3.0)
    assert sum(m[f"step.{p}_ms"] for p in tracing.PHASES) == pytest.approx(10.0)
    assert m["solvers.cfg_target_ms"] == pytest.approx(1.0)
    assert m["denoiser.forward_ms"] == pytest.approx(3.0)
    assert m["solvers.eps_calls_per_target"] == 1.0
    assert m["denoiser.rows_per_call"] == 256
    assert detail["forward_ms_by_caller"] == {"solvers.cfg_target": pytest.approx(3.0)}


@pytest.mark.parametrize("cls", [workloads.Teacher, workloads.Distill, workloads.Generate])
def test_seed_changes_inputs_not_op_count(cls, small, tmp_path):
    runs = []
    for seed in (1, 2):
        tracer = tracing.Tracer()
        w = small(cls, seed, tmp_path, tracer)
        with tracer:
            out = w.run(0.0)
        state_inputs = w.state["data"].x
        layers, _ = tracing.aggregate(tracer, out["op_ms"], w.trains)
        runs.append((out, state_inputs, layers))
    (a, inputs_a, la), (b, inputs_b, lb) = runs
    assert a["failed"] == b["failed"] == 0
    assert a["attempted"] == b["attempted"]
    assert len(a["op_ms"]) == len(b["op_ms"]) == 3
    assert not np.array_equal(inputs_a, inputs_b)
    for name in ("tensor.nodes_per_step", "denoiser.forward_calls", "denoiser.rows_per_call",
                 "rng.values_drawn", "tensor.transpose_bytes"):
        assert la[name] == lb[name], name


def test_benchmark_json_names_the_metrics_the_runs_print():
    bench = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, tracing.PER_LAYER_UNITS.get(name, "ms")) for name in tracing.PER_LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
