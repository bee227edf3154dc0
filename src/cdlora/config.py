"""Declarative run configuration with strict key checking.

One JSON document drives a whole pipeline run. Unknown keys anywhere in the
document fail before any compute; all defaults are materialized into the
effective config, which commands echo to stdout and write next to their
artifacts.
"""

from __future__ import annotations

import copy
import inspect
import json
from dataclasses import fields
from pathlib import Path

from cdlora.denoiser import SIGMA_DATA, DenoiserNet
from cdlora.schedule import make_schedule
from cdlora.training import DistillConfig, TrainOpts


class ConfigError(ValueError):
    """Malformed run configuration."""


def _signature_defaults(fn, skip=()) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty and name not in skip}


def _field_defaults(cls) -> dict:
    """A dataclass's field defaults bar the run seed, which the config holds once."""
    return {f.name: f.default for f in fields(cls) if f.name != "seed"}


# each default is stated where the code defines it: the schedule's betas in
# make_schedule, the architecture in DenoiserNet's constructor (data_dim is
# fixed by the 2-D datasets), training in TrainOpts and DistillConfig
_NET = _signature_defaults(DenoiserNet, skip=("data_dim", "stream"))

DEFAULTS = {
    "seed": 0,
    "schedule": {"N": 50, **_signature_defaults(make_schedule)},
    "net": {**_NET, "hidden": list(_NET["hidden"]), "sigma_data": SIGMA_DATA},
    "teacher": {**_field_defaults(TrainOpts), "checkpoint_every": 0},
    "style": {**_field_defaults(TrainOpts), "steps": 5_000},
    "distill": {**_field_defaults(DistillConfig), "checkpoint_every": 0},
    "lora": {"rank": 8, "scale": 1.0, "targets": None},
    "sample": {"steps": 4, "omega": 7.5, "count": 2000, "sampler": "lcm"},
    "combine": {"lambda1": 0.8, "lambda2": 1.0},
    "dataset": {"kind": "ring8", "count": 8192, "params": {}},
}

# dataset.params is generator-specific and validated by the generator itself
_FREE_SUBTREES = {("dataset", "params")}


def _merge(base: dict, override: dict, path: tuple) -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            dotted = ".".join(path + (key,))
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict) and path + (key,) not in _FREE_SUBTREES:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {'.'.join(path + (key,))!r} must be a section")
            out[key] = _merge(base[key], value, path + (key,))
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(source=None, overrides: dict | None = None) -> dict:
    """Materialize the effective config from a JSON file/dict plus overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    if source is not None:
        if isinstance(source, (str, Path)):
            with open(source) as fh:
                try:
                    source = json.load(fh)
                except json.JSONDecodeError as err:
                    raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(source, dict):
            raise ConfigError("config document must be a JSON object")
        cfg = _merge(cfg, source, ())
    if overrides:
        cfg = _merge(cfg, overrides, ())
    return cfg


def effective_json(cfg: dict) -> str:
    """The JSON form every command echoes on stdout, a config or a result."""
    return json.dumps(cfg, indent=2, sort_keys=True)
