"""Consistency-distilled LoRA toolkit: train a small guided diffusion teacher,
distill it into a few-step model by training only low-rank adapter factors,
and recombine adapters by pure weight arithmetic."""

from cdlora.config import ConfigError, load_config
from cdlora.datasets import Dataset2D, make_dataset
from cdlora.denoiser import ConsistencyHead, DenoiserNet, consistency_forward
from cdlora.lora import (
    AdapterBundle,
    AdapterError,
    LoraAdapter,
    attach,
    combine,
    count_trainable,
    materialize,
    merge,
)
from cdlora.persist import load_adapter, load_checkpoint, load_net, save_adapter, save_checkpoint, save_net
from cdlora.rng import RandomStream, substream
from cdlora.sampling_eval import (
    StepSchedule,
    ddim_sample,
    lcm_multistep_sample,
    mmd2,
    moments_error,
)
from cdlora.schedule import NoiseSchedule, ScheduleError, add_noise, make_schedule
from cdlora.solvers import GaussianOracle, cfg_target, ddim_increment, dpm2_increment, oracle_flow
from cdlora.tensor import GradTape, NonFiniteError, ShapeError, TapeError, Tensor, grad_check
from cdlora.training import (
    DistillConfig,
    DivergenceError,
    EmaShadow,
    Encoder,
    TrainOpts,
    ema_update,
    finetune_style_lora,
    lcd_distill,
    train_teacher,
)

__version__ = "0.1.0"
