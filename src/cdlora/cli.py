"""Command-line surface: train, distill, fine-tune, combine, merge, sample,
evaluate, count parameters, and run the gradient self-check.

Every command echoes its effective settings as JSON on stdout and writes its
artifacts under --out (resolved against $CDLORA_RUN_ROOT when relative).
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

from cdlora.config import DEFAULTS, ConfigError, effective_json, load_config
from cdlora.datasets import make_dataset
from cdlora.denoiser import SIGMA_DATA, ConsistencyHead, DenoiserNet, consistency_forward
from cdlora.lora import attach, combine, count_trainable, merge
from cdlora.persist import (
    load_adapter,
    load_checkpoint,
    load_net,
    net_fingerprint,
    save_adapter,
    save_net,
)
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
from cdlora.solvers import cfg_target
from cdlora.tensor import grad_check
from cdlora.training import (
    DistillConfig,
    Encoder,
    MetricsLog,
    TrainOpts,
    acceleration_bundle,
    consistency_distance,
    finetune_style_lora,
    lcd_distill,
    train_teacher,
)

RUN_ROOT_ENV = "CDLORA_RUN_ROOT"


def _root() -> Path:
    return Path(os.environ.get(RUN_ROOT_ENV, "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _root() / p


def _echo(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


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


def _section_opts(cls, cfg: dict, name: str):
    """TrainOpts or DistillConfig from config section `name` plus the run seed."""
    fields = {k: v for k, v in cfg[name].items() if k != "checkpoint_every"}
    return cls(seed=cfg["seed"], **fields)


def _write_run_files(out: Path, cfg: dict, metrics: MetricsLog) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "effective_config.json", "w") as fh:
        fh.write(effective_json(cfg) + "\n")
    metrics.write(out / "metrics.csv")


def _ckpt_hash(path: Path) -> str:
    with open(path / "manifest.json") as fh:
        return json.load(fh)["weights_sha256"]


# ---------------------------------------------------------------------------
# commands


def cmd_train_teacher(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    print(effective_json(cfg))
    out = _resolve(args.out)
    sched_cfg = cfg["schedule"]
    sched = make_schedule(sched_cfg["N"], sched_cfg["beta_min"], sched_cfg["beta_max"])
    dataset = _build_dataset(cfg)
    if dataset.num_conditions > cfg["net"]["num_conditions"]:
        raise ConfigError(
            f"dataset has {dataset.num_conditions} conditions, net allows "
            f"{cfg['net']['num_conditions']}"
        )
    net = _build_net(cfg)
    metrics = MetricsLog()
    out.mkdir(parents=True, exist_ok=True)
    every = cfg["teacher"]["checkpoint_every"]

    def checkpoint_cb(step):
        save_net(out / f"teacher_step{step}.ckpt", net, sched, sched_cfg,
                 {"config": cfg, "sigma_data": cfg["net"]["sigma_data"]})

    train_teacher(dataset, net, Encoder.identity(), sched,
                  _section_opts(TrainOpts, cfg, "teacher"), metrics=metrics,
                  checkpoint_cb=checkpoint_cb, checkpoint_every=every)
    save_net(out / "teacher.ckpt", net, sched, sched_cfg,
             {"config": cfg, "sigma_data": cfg["net"]["sigma_data"]})
    _write_run_files(out, cfg, metrics)
    return 0


def cmd_distill_lcm(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    print(effective_json(cfg))
    out = _resolve(args.out)
    teacher, sched, meta = load_net(_resolve(args.teacher))
    dataset = _build_dataset(cfg)
    adapter = _attach_adapter(teacher, cfg)
    dcfg = _section_opts(DistillConfig, cfg, "distill")
    head = ConsistencyHead.for_schedule(sched, meta.get("sigma_data", cfg["net"]["sigma_data"]))
    metrics = MetricsLog()
    out.mkdir(parents=True, exist_ok=True)
    fingerprint = net_fingerprint(teacher)
    every = cfg["distill"]["checkpoint_every"]

    def checkpoint_cb(step):
        save_adapter(out / f"acceleration_step{step}.ckpt", acceleration_bundle(adapter, dcfg),
                     fingerprint)

    bundle = lcd_distill(teacher, adapter, dataset, Encoder.identity(), sched, dcfg,
                         head=head, metrics=metrics, checkpoint_cb=checkpoint_cb,
                         checkpoint_every=every)
    save_adapter(out / "acceleration.ckpt", bundle, fingerprint, {"config": cfg})
    _write_run_files(out, cfg, metrics)
    return 0


def cmd_finetune_style(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    print(effective_json(cfg))
    out = _resolve(args.out)
    teacher, sched, _meta = load_net(_resolve(args.teacher))
    dataset = _build_dataset(cfg)
    adapter = _attach_adapter(teacher, cfg)
    metrics = MetricsLog()
    bundle = finetune_style_lora(teacher, adapter, dataset, Encoder.identity(), sched,
                                 _section_opts(TrainOpts, cfg, "style"), metrics=metrics)
    out.mkdir(parents=True, exist_ok=True)
    save_adapter(out / "style.ckpt", bundle, net_fingerprint(teacher), {"config": cfg})
    _write_run_files(out, cfg, metrics)
    return 0


def cmd_combine_lora(args) -> int:
    style_path = _resolve(args.style)
    accel_path = _resolve(args.accel)
    style = load_adapter(style_path)
    accel = load_adapter(accel_path)
    _, style_meta = load_checkpoint(style_path)
    _, accel_meta = load_checkpoint(accel_path)
    if style_meta["base_fingerprint"] != accel_meta["base_fingerprint"]:
        raise ConfigError(
            "adapters were built against different base architectures: "
            f"style {style_meta['base_fingerprint']} vs acceleration "
            f"{accel_meta['base_fingerprint']}"
        )
    combined = combine(style, accel, args.l1, args.l2)
    combined.provenance["parent_files"] = [str(style_path), str(accel_path)]
    out = _resolve(args.out)
    save_adapter(out, combined, style_meta["base_fingerprint"])
    _echo({"command": "combine-lora", "lambda1": args.l1, "lambda2": args.l2,
           "out": str(out), "parents": [str(style_path), str(accel_path)]})
    return 0


def cmd_merge_lora(args) -> int:
    base, sched, meta = load_net(_resolve(args.base))
    bundle = load_adapter(_resolve(args.adapter), base_net=base)
    merged = merge(base, bundle.adapter)
    out = _resolve(args.out)
    save_net(out, merged, sched, meta["schedule"],
             {"sigma_data": meta.get("sigma_data", SIGMA_DATA),
              "merged_from": {"base": str(args.base), "adapter": str(args.adapter),
                              "role": bundle.role, "provenance": bundle.provenance}})
    _echo({"command": "merge-lora", "out": str(out), "role": bundle.role})
    return 0


def cmd_sample(args) -> int:
    count = args.count
    if count < 1:
        raise ValueError(f"--count {count} must be at least 1")
    ckpt = _resolve(args.ckpt)
    net, sched, meta = load_net(ckpt)
    bundle = load_adapter(_resolve(args.adapter), base_net=net) if args.adapter else None
    adapter = bundle.adapter if bundle else None
    head = ConsistencyHead.for_schedule(sched, meta.get("sigma_data", SIGMA_DATA))
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
    _echo({"command": "sample", **sidecar, "out": str(out)})
    return 0


def cmd_eval(args) -> int:
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
    _echo({"command": "eval", "mmd2": value, "count": count,
           "dataset": kind, "params": params})
    return 0


def cmd_param_count(args) -> int:
    bundle = load_adapter(_resolve(args.adapter))
    print(count_trainable(bundle.adapter))
    return 0


def cmd_gradcheck(args) -> int:
    """Finite-difference check of the distillation loss over adapter factors."""
    hidden = tuple(int(w) for w in args.hidden.split(",")) if args.hidden else (64, 64)
    if args.batch < 1:
        raise ValueError(f"--batch {args.batch} must be at least 1")
    if min(hidden) < 1:
        raise ValueError(f"--hidden {args.hidden}: every width must be at least 1")
    tic = time.perf_counter()
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=2, hidden=hidden, num_conditions=8,
                      stream=substream(args.seed, "init/net"))
    stream = substream(args.seed, "gradcheck")
    for name, p in net.params.items():
        if name.endswith(".weight") and np.all(p.data == 0.0):
            p.data[:] = 0.1 * stream.normal(p.shape)
    adapter = attach(net, rank=args.rank, stream=substream(args.seed, "init/lora"),
                     cap_rank=True)
    for e in adapter.entries.values():
        e.b.data[:] = 0.05 * stream.normal(e.b.shape)
    head = ConsistencyHead.for_schedule(sched)
    batch = args.batch
    k = 5
    z = stream.normal((batch, 2))
    cond = stream.integers(batch, 0, 7)
    n = stream.integers(batch, 1, sched.N - k)
    omega = np.full(batch, 7.5)

    def teacher_eps(x, t, c):
        return net.forward(x, 0.0, c, t).data

    from cdlora.schedule import add_noise
    z_hi = add_noise(z, n + k, stream.normal((batch, 2)), sched)
    z_hat = cfg_target(z_hi, n + k, n, cond, net.null_id, omega, teacher_eps, sched)
    target = consistency_forward(net, head, sched, z_hat, omega, cond, n,
                                 adapter=adapter).data

    def loss_fn():
        f = consistency_forward(net, head, sched, z_hi, omega, cond, n + k, adapter=adapter)
        return consistency_distance(f, target, "l2", 0.01)

    params = adapter.trainable_params()
    rel = grad_check(loss_fn, params, h=args.h)
    seconds = time.perf_counter() - tic
    n_params = count_trainable(adapter)
    _echo({"command": "gradcheck", "max_rel_err": rel, "parameters": n_params,
           "hidden": list(hidden), "h": args.h, "seconds": round(seconds, 2),
           "tolerance": args.tolerance, "pass": bool(rel < args.tolerance)})
    return 0 if rel < args.tolerance else 1


# ---------------------------------------------------------------------------
# wiring


def _config_overrides(args) -> dict:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return overrides


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
