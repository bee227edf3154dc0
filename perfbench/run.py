"""cdlora benchmark entry point.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 30 --trace 0

Runs one workload (distill, teacher or generate) in this process with one
BLAS thread, from the source tree next to this directory. It prints every
metric by name with its unit and sample count, an environment record, and,
as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the public functions of each cdlora module are wrapped from here
and the metrics are per-layer self times and counts.
"""

from time import perf_counter

T0 = perf_counter()   # set-up time counts from here, before numpy is imported

import os  # noqa: E402
import sys  # noqa: E402

# one BLAS thread, fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# the end-to-end metrics of the result line, identical on every workload
END_TO_END = ("setup_s", "op_ms_p10", "peak_rss_mb")
SETUP_REPS = 5   # cold set-ups per run: this process and SETUP_REPS - 1 fresh ones


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("distill", "teacher", "generate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up seconds and exit (one setup_s sample)")
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_info() -> dict:
    """OpenBLAS version and thread count, asked of the library numpy loaded."""
    info = {"blas_version": "unknown", "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return info
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                info["blas_threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["blas_version"] = config().decode()
                return info
    return info


def fresh_setup_seconds(args, n: int) -> list:
    """Set-up time of n cold set-ups, each in a fresh interpreter, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    return [float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                 timeout=120).stdout.splitlines()[-1]) for _ in range(n)]


def environment() -> dict:
    import numpy as np

    src_lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "os_threads": len(os.listdir("/proc/self/task")),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cdlora" / "__init__.py").is_file():
        print(f"error: no cdlora source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
    try:
        if args.setup_only:
            workdir.mkdir(parents=True)
            workload.setup()
            print(perf_counter() - T0)
            return 0
        with tracer if tracer is not None else contextlib.nullcontext():
            result = workload.run(args.seconds, T0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = [result["setup_s"], *fresh_setup_seconds(args, SETUP_REPS - 1)]
    metrics = result["metrics"]
    metrics["setup_s"] = (statistics.median(setup_s), "s", len(setup_s))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_reps_s": setup_s,
              "checks": result["checks"], "env": environment(),
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}}
    for name, (value, unit, n) in sorted(metrics.items()):
        print(f"{name:24s} {value:14.6g} {unit:8s} n={n}")
    print(f"checks {json.dumps(result['checks'])}")
    print(f"env {json.dumps(report['env'])}")

    if tracer is not None:
        layers, detail = tracing.aggregate(tracer, result["op_ms"], workload.trains)
        report["per_layer"] = layers
        report["trace_detail"] = detail
        for name in tracing.PER_LAYER_METRICS:
            print(f"{name:36s} {layers[name]:14.6g} "
                  f"{tracing.PER_LAYER_UNITS.get(name, 'ms')}")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracing.write_spans(tracer, spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        chosen = {name: {"value": layers[name], "unit": tracing.PER_LAYER_UNITS.get(name, "ms")}
                  for name in tracing.PER_LAYER_METRICS}
    else:
        chosen = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in END_TO_END}
    print("report " + json.dumps(report))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
