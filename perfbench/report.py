"""Untraced against traced runs, the distill step split, and the baseline table.

    python3 perfbench/report.py --seeds 1,2,3 --seconds 10

Runs every workload once per seed untraced and once traced (run.py, one
process each, one after another), then prints as markdown:
- each end-to-end metric untraced and traced, and the tracing overhead
  (traced minus untraced medians);
- the distill step split from the traced run next to the untraced step time;
- the informal baseline table the roadmap recorded before this harness
  existed, each row beside the harness median and the spread between runs.
A `dpm2` solver target is not on any workload's path, so its row is timed
here in-process on the distill set-up; its spread is over 50 calls.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import cdlora  # noqa: E402
import workloads  # noqa: E402

# (row, roadmap ms, workload, source, metric); source "e2e" reads the untraced
# report, "trace" the traced middle-half step split (tracing overhead
# included), "probe" the in-process timing
BASELINE = [
    ("teacher step", 8.0, "teacher", "e2e", "op_ms_p50"),
    ("distill step, total", 24.4, "distill", "e2e", "op_ms_p50"),
    ("distill: teacher `ddim` target", 8.1, "distill", "trace", "teacher_target"),
    ("distill: EMA target", 4.9, "distill", "trace", "ema_target"),
    ("distill: student forward + backward", 7.3, "distill", "trace", "fwd_bwd"),
    ("`dpm2` target", 18.6, "distill", "probe", "dpm2_target_ms"),
    ("4-step sample of 2,000, with adapter", 104.7, "generate", "e2e", "lcm4_ms_p50"),
    ("4-step sample of 2,000, merged weights", 89.7, "generate", "e2e", "lcm4_merged_ms_p50"),
    ("`mmd2`, 2,000 per side", 594.0, "generate", "e2e", "mmd2_ms_p50"),
]


def run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = out.stdout.splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    report["result"] = json.loads(lines[-1])
    return report


def probe_dpm2(seed: int, reps: int) -> list:
    """Wall time in ms of cfg_target(kind="dpm2") on a distill-sized batch."""
    w = workloads.Distill(seed, ROOT / ".perfbench_out" / f"probe-{os.getpid()}")
    w.workdir.mkdir(parents=True, exist_ok=True)
    try:
        s = w.setup()
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)
    teacher, sched, data = s["teacher"], s["sched"], s["data"]
    d = workloads.distill_config(s["cfg"], 1)
    stream = cdlora.substream(seed, "probe/dpm2")

    def eps(x, t, c):
        return teacher.forward(x, 0.0, c, t).data

    times = []
    for _ in range(reps):
        idx = stream.integers(d.batch_size, 0, len(data.x) - 1)
        n = stream.integers(d.batch_size, 1, sched.N - d.k)
        z_hi = cdlora.add_noise(data.x[idx], n + d.k, stream.normal((d.batch_size, 2)), sched)
        omega = np.full(d.batch_size, d.omega_fixed)
        tic = perf_counter()
        cdlora.cfg_target(z_hi, n + d.k, n, data.cond[idx], teacher.null_id, omega, eps, sched,
                          kind="dpm2")
        times.append((perf_counter() - tic) * 1e3)
    return times


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = list(workloads.WORKLOADS)

    runs = {(w, t): [run(w, s, args.seconds, t) for s in seeds] for w in names for t in (0, 1)}
    dpm2 = probe_dpm2(seeds[0], 50)
    env = runs[(names[0], 0)][0]["env"]
    print(f"# cdlora benchmark report\n\nseeds {seeds}, {args.seconds:g} s per run; "
          f"env {json.dumps(env)}\n")

    def values(w, t, metric):
        return [r["metrics"][metric]["value"] for r in runs[(w, t)] if metric in r["metrics"]]

    print("## Tracing overhead (medians over seeds)\n")
    print("| workload | metric | untraced | traced | overhead |\n|---|---|---|---|---|")
    for w in names:
        for metric in runs[(w, 0)][0]["metrics"]:
            plain, traced = values(w, 0, metric), values(w, 1, metric)
            if plain and traced:
                a, b = statistics.median(plain), statistics.median(traced)
                print(f"| {w} | {metric} | {a:.4g} | {b:.4g} | {b - a:+.4g} ({(b - a) / a:+.1%}) |")

    print("\n## Distill step split (traced, ms per step, medians over seeds)\n")
    print("All steps is the per-layer `step.*` metric; the middle half keeps the steps\n"
          "between the quartiles of traced step time, a typical step.\n")
    print("| phase | all steps | middle half |\n|---|---|---|")
    traced_runs = runs[("distill", 1)]
    total = [0.0, 0.0]
    for phase in ("data", "teacher_target", "ema_target", "fwd_bwd", "optimizer",
                  "checkpoint", "other"):
        ms = (statistics.median(r["per_layer"][f"step.{phase}_ms"] for r in traced_runs),
              statistics.median(r["trace_detail"]["middle_half_split_ms"][phase]
                                for r in traced_runs))
        total = [total[0] + ms[0], total[1] + ms[1]]
        print(f"| {phase} | {ms[0]:.3f} | {ms[1]:.3f} |")
    plain = statistics.median(values("distill", 0, "op_ms_p50"))
    traced = statistics.median(values("distill", 1, "op_ms_p50"))
    print(f"| **sum** | {total[0]:.3f} | {total[1]:.3f} |\n\n"
          f"untraced op_ms_p50 {plain:.3f} ms; traced op_ms_p50 {traced:.3f} ms; "
          f"tracing overhead {traced - plain:+.3f} ms; middle-half split minus untraced "
          f"op_ms_p50 {total[1] - plain:+.3f} ms")

    print("\n## Roadmap baseline table beside the harness\n")
    print("| measurement | roadmap ms | harness median ms | spread (IQR/median) | note |\n"
          "|---|---|---|---|---|")
    for row, old, w, source, metric in BASELINE:
        if source == "probe":
            vals = dpm2
        elif source == "trace":
            vals = [r["trace_detail"]["middle_half_split_ms"][metric] for r in runs[(w, 1)]]
        else:
            vals = values(w, 0, metric)
        med, sp = statistics.median(vals), spread(vals)
        off = (med - old) / old
        beyond = abs(med - old) / med > sp
        note = f"{off:+.0%} of the roadmap value, {'beyond' if beyond else 'within'} the spread"
        print(f"| {row} | {old} | {med:.2f} | {sp:.3f} | {note} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
