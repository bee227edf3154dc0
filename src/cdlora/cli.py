"""Command-line surface: train, distill, fine-tune, combine, merge, sample,
evaluate, count parameters, and run the gradient self-check.

Every command writes its artifacts under --out (resolved against $CDLORA_RUN_ROOT
when relative), then echoes its effective settings as JSON on stdout.
Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from cdlora.config import DEFAULTS, effective_json, load_config
from cdlora.datasets import make_dataset
from cdlora.denoiser import ConsistencyHead, DenoiserNet
from cdlora.lora import attach, combine, count_trainable, merge
from cdlora.persist import load_adapter, load_net, net_record, save_adapter, save_net
from cdlora.rng import substream
from cdlora.sampling_eval import (
    StepSchedule,
    ddim_sample,
    lcm_multistep_sample,
    mmd2,
    read_samples,
    write_samples,
)
from cdlora.schedule import make_schedule
from cdlora.training import (
    DistillConfig,
    Encoder,
    MetricsLog,
    TrainOpts,
    acceleration_bundle,
    distill_grad_check,
    finetune_style_lora,
    lcd_distill,
    train_teacher,
)

RUN_ROOT_ENV = "CDLORA_RUN_ROOT"


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(os.environ.get(RUN_ROOT_ENV, ".")) / p


def _build_dataset(cfg: dict):
    ds_cfg = cfg["dataset"]
    return make_dataset(ds_cfg["kind"], ds_cfg["count"], cfg["seed"], **ds_cfg["params"])


def _build_net(cfg: dict) -> DenoiserNet:
    arch = {k: v for k, v in cfg["net"].items() if k != "sigma_data"}
    return DenoiserNet(data_dim=2, **arch, stream=substream(cfg["seed"], "init/net"))


def _attach_adapter(net, cfg):
    lora = cfg["lora"]
    return attach(
        net,
        target_names=lora["targets"],
        rank=lora["rank"],
        scale=lora["scale"],
        stream=substream(cfg["seed"], "init/lora"),
        cap_rank=lora["targets"] is None,
    )


def _section_opts(cls, cfg: dict, name: str, *N: int):
    """Validated TrainOpts, or DistillConfig for N steps, from section `name` and the seed."""
    fields = {k: v for k, v in cfg[name].items() if k != "checkpoint_every"}
    opts = cls(seed=cfg["seed"], **fields)
    opts.validate(*N)
    return opts


def _finish_run(out: Path, cfg: dict, metrics: MetricsLog) -> None:
    """Write the run files, then echo the config: a failed run leaves stdout empty."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "effective_config.json", "w") as fh:
        fh.write(effective_json(cfg) + "\n")
    metrics.write(out / "metrics.csv")
    print(effective_json(cfg))


def _ckpt_hash(path: Path) -> str:
    with open(path / "manifest.json") as fh:
        return json.load(fh)["weights_sha256"]


# ---------------------------------------------------------------------------
# commands


def cmd_train_teacher(args) -> int:
    cfg = _run_config(args)
    out = _resolve(args.out)
    sched = make_schedule(**cfg["schedule"])
    opts = _section_opts(TrainOpts, cfg, "teacher")
    dataset = _build_dataset(cfg)
    net = _build_net(cfg)
    record = {"config": cfg, "sigma_data": cfg["net"]["sigma_data"]}
    net_record(out / "teacher.ckpt", net, sched, cfg["schedule"], record)  # save_net's check
    metrics = MetricsLog()

    def checkpoint_cb(step):
        save_net(out / f"teacher_step{step}.ckpt", net, sched, cfg["schedule"], record)

    train_teacher(dataset, net, Encoder.identity(), sched, opts, metrics=metrics,
                  checkpoint_cb=checkpoint_cb, checkpoint_every=cfg["teacher"]["checkpoint_every"])
    save_net(out / "teacher.ckpt", net, sched, cfg["schedule"], record)
    _finish_run(out, cfg, metrics)
    return 0


def cmd_distill_lcm(args) -> int:
    cfg = _run_config(args)
    out = _resolve(args.out)
    teacher, sched, meta = load_net(_resolve(args.teacher))
    dcfg = _section_opts(DistillConfig, cfg, "distill", sched.N)
    dataset = _build_dataset(cfg)
    adapter = _attach_adapter(teacher, cfg)
    head = ConsistencyHead.for_schedule(sched, meta["sigma_data"])
    metrics = MetricsLog()

    def checkpoint_cb(step):
        save_adapter(out / f"acceleration_step{step}.ckpt", acceleration_bundle(adapter, dcfg))

    bundle = lcd_distill(teacher, adapter, dataset, Encoder.identity(), sched, dcfg,
                         head=head, metrics=metrics, checkpoint_cb=checkpoint_cb,
                         checkpoint_every=cfg["distill"]["checkpoint_every"])
    save_adapter(out / "acceleration.ckpt", bundle, {"config": cfg})
    _finish_run(out, cfg, metrics)
    return 0


def cmd_finetune_style(args) -> int:
    cfg = _run_config(args)
    out = _resolve(args.out)
    teacher, sched, _meta = load_net(_resolve(args.teacher))
    opts = _section_opts(TrainOpts, cfg, "style")
    dataset = _build_dataset(cfg)
    adapter = _attach_adapter(teacher, cfg)
    metrics = MetricsLog()
    bundle = finetune_style_lora(teacher, adapter, dataset, Encoder.identity(), sched, opts,
                                 metrics=metrics)
    save_adapter(out / "style.ckpt", bundle, {"config": cfg})
    _finish_run(out, cfg, metrics)
    return 0


def cmd_combine_lora(args) -> int:
    style_path = _resolve(args.style)
    accel_path = _resolve(args.accel)
    style = load_adapter(style_path)
    accel = load_adapter(accel_path)
    combined = combine(style, accel, args.l1, args.l2)
    combined.provenance["parent_files"] = [str(style_path), str(accel_path)]
    out = _resolve(args.out)
    save_adapter(out, combined)
    print(effective_json({"command": "combine-lora", "lambda1": args.l1, "lambda2": args.l2,
                          "out": str(out), "parents": [str(style_path), str(accel_path)]}))
    return 0


def cmd_merge_lora(args) -> int:
    base, sched, meta = load_net(_resolve(args.base))
    bundle = load_adapter(_resolve(args.adapter), base_net=base)
    merged = merge(base, bundle.adapter)
    out = _resolve(args.out)
    save_net(out, merged, sched, meta["schedule"],
             {"sigma_data": meta["sigma_data"],
              "merged_from": {"base": str(args.base), "adapter": str(args.adapter),
                              "role": bundle.role, "provenance": bundle.provenance}})
    print(effective_json({"command": "merge-lora", "out": str(out), "role": bundle.role}))
    return 0


def cmd_sample(args) -> int:
    count = args.count
    if count < 1:
        raise ValueError(f"--count {count} must be at least 1")
    ckpt = _resolve(args.ckpt)
    net, sched, meta = load_net(ckpt)
    bundle = load_adapter(_resolve(args.adapter), base_net=net) if args.adapter else None
    adapter = bundle.adapter if bundle else None
    head = ConsistencyHead.for_schedule(sched, meta["sigma_data"])
    if args.cond == "balanced":
        cond = np.arange(count, dtype=np.int64) % net.num_conditions
    else:
        c = int(args.cond)
        if not 0 <= c < net.num_conditions:
            raise ValueError(f"--cond {c} outside [0, {net.num_conditions}), the "
                             f"checkpoint's condition ids")
        cond = np.full(count, c, dtype=np.int64)
    if args.sampler == "lcm":
        steps = StepSchedule.evenly_spaced(args.steps, sched.N)
        samples = lcm_multistep_sample(net, head, sched, steps, args.omega, cond,
                                       count, args.seed, adapter=adapter)
    else:
        samples = ddim_sample(net, sched, args.steps, args.omega, cond, count,
                              args.seed, adapter=adapter)
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = {
        "sampler": args.sampler,
        "steps": args.steps,
        "omega": args.omega,
        "count": count,
        "seed": args.seed,
        "checkpoint": str(ckpt),
        "checkpoint_sha256": _ckpt_hash(ckpt),
        "adapter": str(args.adapter) if args.adapter else None,
        "lambdas": (bundle.provenance if bundle and bundle.role == "combined" else None),
    }
    write_samples(out, samples, cond, sidecar)
    print(effective_json({"command": "sample", **sidecar, "out": str(out)}))
    return 0


def cmd_eval(args) -> int:
    if args.dataset == "rotated":
        raise ValueError("--dataset rotated: give the base to --dataset, the angle to --angle-deg")
    samples, _cond = read_samples(_resolve(args.samples))
    count = len(samples) if args.count is None else args.count
    if not 1 <= count <= len(samples):
        raise ValueError(f"--count {count} outside [1, {len(samples)}], the rows in "
                         f"{args.samples}")
    params = {}
    if args.angle_deg is not None:
        params = {"base": args.dataset, "angle_deg": args.angle_deg}
        kind = "rotated"
    else:
        kind = args.dataset
    reference = make_dataset(kind, count, args.seed, **params)
    value = mmd2(samples[:count], reference.x)
    print(effective_json({"command": "eval", "mmd2": value, "count": count,
                          "dataset": kind, "params": params}))
    return 0


def cmd_param_count(args) -> int:
    bundle = load_adapter(_resolve(args.adapter))
    print(count_trainable(bundle.adapter))
    return 0


def cmd_gradcheck(args) -> int:
    """Finite-difference check of the distillation loss over adapter factors."""
    hidden = tuple(int(w) if w.strip().isdecimal() else 0 for w in args.hidden.split(","))
    if args.batch < 1:
        raise ValueError(f"--batch {args.batch} must be at least 1")
    if min(hidden) < 1:
        raise ValueError(f"--hidden {args.hidden!r}: every width must be an int of at least 1")
    tic = time.perf_counter()
    rel = distill_grad_check(args.seed, hidden, args.rank, args.batch, args.h)
    seconds = time.perf_counter() - tic
    n_params = count_trainable(attach(DenoiserNet(hidden=hidden), rank=args.rank, cap_rank=True))
    print(effective_json({"command": "gradcheck", "max_rel_err": rel, "parameters": n_params,
                          "hidden": list(hidden), "h": args.h, "seconds": round(seconds, 2),
                          "tolerance": args.tolerance, "pass": bool(rel < args.tolerance)}))
    return 0 if rel < args.tolerance else 1


# ---------------------------------------------------------------------------
# wiring


def _run_config(args) -> dict:
    """A training command's effective config: --config's file, with --seed over it."""
    return load_config(args.config, None if args.seed is None else {"seed": args.seed})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlora",
        description="Consistency distillation into low-rank adapters, and adapter arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_cmd(name, func, help_text, needs_teacher=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="run config JSON (defaults apply)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True, help="output directory")
        if needs_teacher:
            p.add_argument("--teacher", required=True, help="teacher checkpoint directory")
        p.set_defaults(func=func)
        return p

    add_config_cmd("train-teacher", cmd_train_teacher, "train the guided diffusion teacher")
    add_config_cmd("distill-lcm", cmd_distill_lcm,
                   "distill the teacher into an acceleration adapter", needs_teacher=True)
    add_config_cmd("finetune-style", cmd_finetune_style,
                   "fine-tune a style adapter on the config's dataset", needs_teacher=True)

    p = sub.add_parser("combine-lora", help="linearly combine style and acceleration adapters")
    p.add_argument("--style", required=True)
    p.add_argument("--accel", required=True)
    p.add_argument("--l1", type=float, default=DEFAULTS["combine"]["lambda1"],
                   help="style weight (default %(default)s)")
    p.add_argument("--l2", type=float, default=DEFAULTS["combine"]["lambda2"],
                   help="acceleration weight (default %(default)s)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_combine_lora)

    p = sub.add_parser("merge-lora", help="fold an adapter into base weights")
    p.add_argument("--base", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge_lora)

    p = sub.add_parser("sample", help="draw samples from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--adapter", default=None)
    sample = DEFAULTS["sample"]
    p.add_argument("--sampler", choices=("lcm", "ddim"), default=sample["sampler"])
    p.add_argument("--steps", type=int, default=sample["steps"])
    p.add_argument("--omega", type=float, default=sample["omega"])
    p.add_argument("--count", type=int, default=sample["count"])
    p.add_argument("--cond", default="balanced", help='condition id or "balanced"')
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--out", required=True, help="samples CSV path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="squared MMD between a sample dump and a dataset")
    p.add_argument("--samples", required=True)
    p.add_argument("--dataset", default="ring8")
    p.add_argument("--angle-deg", type=float, default=None,
                   help="evaluate against the rotated dataset")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("param-count", help="trainable parameter count of an adapter")
    p.add_argument("--adapter", required=True)
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("gradcheck", help="finite-difference check of the distillation loss")
    p.add_argument("--hidden", default="64,64", help="comma-separated hidden widths")
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # runtime failure -> exit 1 with a clean message
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
