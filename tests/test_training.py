import dataclasses
import functools
import weakref

import numpy as np
import pytest

from cdlora import training
from cdlora.config import load_config
from cdlora.datasets import ring8, rotated, single_gaussian
from cdlora.denoiser import ConsistencyHead, DenoiserNet, consistency_forward
from cdlora.lora import attach, materialize, merge
from cdlora.rng import substream
from cdlora.schedule import make_schedule
from cdlora.sampling_eval import mmd2
from cdlora.solvers import cfg_target
from cdlora.tensor import GradTape, Tensor, matmul, mean_all, square
from cdlora.training import (
    Adam,
    DistillConfig,
    DivergenceError,
    EmaShadow,
    Encoder,
    MetricsLog,
    Sgd,
    TrainOpts,
    _train,
    consistency_distance,
    ema_update,
    finetune_style_lora,
    lcd_distill,
    lr_factor,
    train_teacher,
)

HOT_SCHED = dict(N=50, beta_min=1e-4, beta_max=0.25)


def fresh_net(seed=0, hidden=(64, 64)):
    return DenoiserNet(data_dim=2, hidden=hidden, num_conditions=8,
                       stream=substream(seed, "init/net"))


@pytest.fixture(scope="module")
def trained_teacher():
    """Small shared teacher on ring8, good enough for relative comparisons."""
    sched = make_schedule(**HOT_SCHED)
    net = fresh_net(seed=1)
    ds = ring8(8192, 11)
    train_teacher(ds, net, Encoder.identity(), sched,
                  TrainOpts(steps=4000, lr=1e-3, batch=128, seed=2))
    return net, sched, ds


# ---------------------------------------------------------------------------
# EMA algebra


def test_ema_endpoints_exact():
    net = fresh_net(seed=3)
    adapter = attach(net, rank=2, stream=substream(4, "lora"), cap_rank=True)
    for e in adapter.entries.values():
        e.b.data[:] = substream(5, "b").normal(e.b.shape)
    shadow = EmaShadow(adapter)
    before = [t.data.copy() for t in shadow.params]
    ema_update(shadow, adapter.trainable_params(), 1.0)
    for old, t in zip(before, shadow.params):
        assert np.array_equal(t.data, old)
    for e in adapter.entries.values():
        e.a.data[:] = substream(6, "a").normal(e.a.shape)
    ema_update(shadow, adapter.trainable_params(), 0.0)
    for t, p in zip(shadow.params, adapter.trainable_params()):
        assert np.array_equal(t.data, p.data)


def test_ema_midpoint_arithmetic():
    net = fresh_net(seed=7)
    adapter = attach(net, target_names=["layer0.weight"], rank=2,
                     stream=substream(8, "lora"))
    shadow = EmaShadow(adapter)
    shadow.params[0].data[:] = 2.0
    adapter.trainable_params()[0].data[:] = 4.0
    ema_update(shadow, adapter.trainable_params(), 0.5)
    np.testing.assert_array_equal(shadow.params[0].data, np.full_like(shadow.params[0].data, 3.0))


def test_ema_validation():
    net = fresh_net(seed=9)
    adapter = attach(net, target_names=["layer0.weight"], rank=2, stream=substream(10, "l"))
    shadow = EmaShadow(adapter)
    with pytest.raises(ValueError):
        ema_update(shadow, adapter.trainable_params(), 1.5)
    with pytest.raises(ValueError):
        ema_update(shadow, adapter.trainable_params()[:1], 0.5)


def test_ema_shadow_initialized_to_live_params():
    net = fresh_net(seed=11)
    adapter = attach(net, rank=2, stream=substream(12, "l"), cap_rank=True)
    shadow = EmaShadow(adapter)
    for s, p in zip(shadow.params, adapter.trainable_params()):
        assert np.array_equal(s.data, p.data)
        assert s is not p


# ---------------------------------------------------------------------------
# teacher training


def test_zero_steps_returns_net_unchanged():
    sched = make_schedule(50)
    net = fresh_net(seed=13)
    before = {k: v.data.copy() for k, v in net.params.items()}
    out = train_teacher(ring8(256, 1), net, Encoder.identity(), sched, TrainOpts(steps=0))
    assert out is net
    for k, v in net.params.items():
        assert np.array_equal(v.data, before[k])


def test_default_cfg_dropout_rate():
    assert TrainOpts().p_uncond == 0.1


def test_cosine_lr_factor_anneals_to_zero():
    total = 1000
    factors = [lr_factor("cosine", step, total) for step in range(1, total + 1)]
    assert factors[0] == 1.0
    assert all(b <= a for a, b in zip(factors, factors[1:]))
    assert 0.0 <= factors[-1] < 1e-4
    assert lr_factor("constant", total, total) == 1.0
    with pytest.raises(ValueError):
        lr_factor("linear", 1, total)


def test_lr_schedule_defaults():
    # diffusion-loss phases anneal; distillation keeps a constant rate
    cfg = load_config()
    assert TrainOpts().lr_schedule == "cosine"
    assert cfg["teacher"]["lr_schedule"] == "cosine"
    assert cfg["style"]["lr_schedule"] == "cosine"
    assert cfg["distill"]["lr_schedule"] == "constant"
    assert DistillConfig().lr_schedule == "constant"


@pytest.mark.parametrize("every", [2.5, -5, True])
@pytest.mark.parametrize("phase", ["teacher", "distill"])
def test_checkpoint_every_is_an_int_of_at_least_0(phase, every):
    sched = make_schedule(50)
    net = fresh_net(hidden=(8,))
    saved, metrics = [], MetricsLog()
    hooks = dict(metrics=metrics, checkpoint_cb=saved.append, checkpoint_every=every)
    with pytest.raises(ValueError) as err:
        if phase == "teacher":
            train_teacher(ring8(64, 3), net, Encoder.identity(), sched,
                          TrainOpts(steps=10, batch=8), **hooks)
        else:
            adapter = attach(net, rank=2, stream=substream(17, "lora"), cap_rank=True)
            lcd_distill(net, adapter, ring8(64, 3), Encoder.identity(), sched,
                        DistillConfig(steps=10, batch_size=8), **hooks)
    assert str(err.value) == f"run settings: bad 'checkpoint_every' {every!r}"
    assert saved == [] and metrics.rows == []


@pytest.mark.parametrize("setting", [{"omega_fixed": -1.0}, {"omega_min": -3.0},
                                     {"omega_max": float("nan")}, {"omega_fixed": "7.5"}],
                         ids=["omega_fixed-negative", "omega_min-negative", "omega_max-nan",
                              "omega_fixed-string"])
def test_distill_config_checks_guidance_scales(setting):
    key, value = next(iter(setting.items()))
    with pytest.raises(ValueError) as err:
        DistillConfig(guidance_mode="range", **setting).validate(50)
    assert str(err.value) == f"run settings: bad {key!r} {value!r}"


# one rejected value per rule, against N = 50, with the message it must raise;
# the last key of each setting is the one the message names
REJECTED = [
    (TrainOpts, {"steps": -1}, "bad 'steps' -1"),
    (TrainOpts, {"steps": 2.0}, "bad 'steps' 2.0"),
    (TrainOpts, {"lr": 0.0}, "bad 'lr' 0.0"),
    (TrainOpts, {"batch": 0}, "bad 'batch' 0"),
    (TrainOpts, {"p_uncond": 1.0}, "bad 'p_uncond' 1.0"),
    (TrainOpts, {"p_uncond": "0.1"}, "bad 'p_uncond' '0.1'"),
    (TrainOpts, {"seed": 2.5}, "bad 'seed' 2.5"),
    (TrainOpts, {"optimizer": "adamw"}, "bad 'optimizer' 'adamw'"),
    (TrainOpts, {"lr_schedule": "linear"}, "bad 'lr_schedule' 'linear'"),
    (DistillConfig, {"eta": float("inf")}, "bad 'eta' inf"),
    (DistillConfig, {"mu": 1.5}, "bad 'mu' 1.5"),
    (DistillConfig, {"mu": "0.9"}, "bad 'mu' '0.9'"),
    (DistillConfig, {"mu": True}, "bad 'mu' True"),
    (DistillConfig, {"k": 0}, "bad 'k' 0"),
    (DistillConfig, {"k": 2.5}, "bad 'k' 2.5"),
    (DistillConfig, {"k": True}, "bad 'k' True"),
    (DistillConfig, {"k": 50}, "'k' 50 outside [1, 49]"),
    (DistillConfig, {"guidance_mode": "sweep"}, "bad 'guidance_mode' 'sweep'"),
    (DistillConfig, {"omega_fixed": -1.0}, "bad 'omega_fixed' -1.0"),
    (DistillConfig, {"omega_min": float("nan")}, "bad 'omega_min' nan"),
    (DistillConfig, {"omega_max": "14"}, "bad 'omega_max' '14'"),
    (DistillConfig, {"omega_min": 5.0, "omega_max": 2.0},
     "'omega_max' 2.0 is below 'omega_min' 5.0"),
    (DistillConfig, {"distance": "l1"}, "bad 'distance' 'l1'"),
    (DistillConfig, {"huber_c": 0}, "bad 'huber_c' 0"),
    (DistillConfig, {"solver": "euler"}, "bad 'solver' 'euler'"),
    (DistillConfig, {"steps": -3}, "bad 'steps' -3"),
    (DistillConfig, {"batch_size": 0}, "bad 'batch_size' 0"),
    (DistillConfig, {"seed": None}, "bad 'seed' None"),
    (DistillConfig, {"optimizer": 1}, "bad 'optimizer' 1"),
    (DistillConfig, {"lr_schedule": "cosine "}, "bad 'lr_schedule' 'cosine '"),
]


@pytest.mark.parametrize("cls", [TrainOpts, DistillConfig])
def test_rules_cover_every_field(cls):
    # validate judges every field, and REJECTED tries every rule, so a field
    # added without a rule, or a rule without a rejected value, fails here
    names = {f.name for f in dataclasses.fields(cls)}
    rules = cls().rules() if cls is TrainOpts else cls().rules(50)
    assert set(rules) == names
    assert {[*setting][-1] for owner, setting, _ in REJECTED if owner is cls} == names


@pytest.mark.parametrize("cls,setting,message", REJECTED)
def test_each_rule_names_the_key_it_rejects(cls, setting, message):
    opts = cls(**setting)
    with pytest.raises(ValueError) as err:
        opts.validate() if cls is TrainOpts else opts.validate(50)
    assert str(err.value) == f"run settings: {message}"
    assert f"{[*setting][-1]!r}" in message


def test_empty_dataset_rejected():
    sched = make_schedule(50)
    ds = ring8(0, 1)
    with pytest.raises(ValueError):
        train_teacher(ds, fresh_net(), Encoder.identity(), sched, TrainOpts(steps=1))


@pytest.mark.parametrize("phase", ["teacher", "style", "distill"])
def test_more_conditions_than_the_net_rejected_before_any_step(phase):
    # condition 7 of ring8 is the null id of a 7-condition net; trained, it
    # would silently train the unconditional branch
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=2, hidden=(16, 16), num_conditions=7,
                      stream=substream(16, "init/net"))
    before = {k: v.data.copy() for k, v in net.params.items()}
    ds = ring8(256, 3)
    metrics = MetricsLog()
    with pytest.raises(ValueError, match="^dataset has 8 conditions, net allows 7$"):
        if phase == "teacher":
            train_teacher(ds, net, Encoder.identity(), sched, TrainOpts(steps=2, batch=8),
                          metrics=metrics)
        else:
            adapter = attach(net, rank=2, stream=substream(17, "lora"), cap_rank=True)
            if phase == "style":
                finetune_style_lora(net, adapter, ds, Encoder.identity(), sched,
                                    TrainOpts(steps=2, batch=8), metrics=metrics)
            else:
                lcd_distill(net, adapter, ds, Encoder.identity(), sched,
                            DistillConfig(steps=2, batch_size=8), metrics=metrics)
    assert metrics.rows == []
    for k, v in net.params.items():
        assert np.array_equal(v.data, before[k])


@pytest.mark.parametrize("phase", ["teacher", "style", "distill"])
def test_divergence_reports_step(phase):
    sched = make_schedule(50)
    net = fresh_net(seed=14)
    ds = ring8(512, 2)
    metrics = MetricsLog()
    opts = TrainOpts(steps=50, lr=1e12, batch=32, seed=3, optimizer="sgd")
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        if phase == "teacher":
            train_teacher(ds, net, Encoder.identity(), sched, opts, metrics=metrics)
        else:
            adapter = attach(net, rank=2, stream=substream(15, "lora"), cap_rank=True)
            if phase == "style":
                finetune_style_lora(net, adapter, ds, Encoder.identity(), sched, opts,
                                    metrics=metrics)
            else:
                cfg = DistillConfig(steps=50, eta=1e12, batch_size=32, seed=3, optimizer="sgd")
                lcd_distill(net, adapter, ds, Encoder.identity(), sched, cfg, metrics=metrics)
    # step 1 starts from finite weights, so the divergence comes later; every
    # step before it logged one row, and the divergent step logged none
    assert err.value.step > 1
    assert [row[0] for row in metrics.rows] == list(range(1, err.value.step))


def test_step_graph_freed_before_next_draw():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    graphs, alive_at_draw = [], []

    def draw():
        alive_at_draw.append(sum(ref() is not None for ref in graphs))
        return np.ones((3, 2))

    def loss_fn(x):
        hidden = matmul(Tensor(x), w)
        graphs.append(weakref.ref(hidden))
        return mean_all(square(hidden))

    _train(3, [w], "sgd", 0.1, "constant", draw, loss_fn)
    assert alive_at_draw == [0, 0, 0]
    assert all(ref() is None for ref in graphs)


def test_training_loss_decreases(trained_teacher):
    net, sched, ds = trained_teacher
    # held-out batch loss well below the untrained value (which is E||eps||^2 = 2)
    stream = substream(40, "heldout")
    z = ds.x[:512]
    cond = ds.cond[:512]
    n = stream.integers(512, 1, sched.N)
    eps = stream.normal((512, 2))
    from cdlora.schedule import add_noise
    from cdlora.training import diffusion_loss
    z_n = add_noise(z, n, eps, sched)
    loss = float(diffusion_loss(net, z_n, eps, cond, sched.t_of(n)).data)
    assert loss < 1.0


def test_teacher_posterior_mean_single_gaussian():
    # with data N(m, s_d^2 I) the optimal x0 at any t is the posterior mean
    # m + (alpha s_d^2 / (alpha^2 s_d^2 + sigma^2)) (z - alpha m); compare
    # batch means on shared probe draws so Monte-Carlo noise cancels and
    # only the model's calibration bias remains
    sched = make_schedule(50)
    mean = np.array([1.0, -0.5])
    s_d = 0.5
    ds = single_gaussian(8192, 21, mean=mean, s_d=s_d)
    net = fresh_net(seed=22)
    train_teacher(ds, net, Encoder.identity(), sched,
                  TrainOpts(steps=5000, lr=1e-3, batch=256, p_uncond=0.0, seed=23))
    stream = substream(24, "probe")
    errs = []
    for n in range(40, 51, 2):
        a, s = sched.alpha(n), sched.sigma(n)
        count = 4000
        z = a * (mean + s_d * stream.normal((count, 2))) + s * stream.normal((count, 2))
        eps_hat = net.forward(z, 0.0, 0, sched.t_of(n)).data
        x0_net = (z - s * eps_hat) / a
        shrink = a * s_d ** 2 / (a ** 2 * s_d ** 2 + s ** 2)
        x0_star = mean + shrink * (z - a * mean)
        errs.append(np.linalg.norm(x0_net.mean(axis=0) - x0_star.mean(axis=0)))
    assert np.mean(errs) < 0.1 * s_d


# ---------------------------------------------------------------------------
# distillation loop


def make_distilled(teacher, sched, ds, steps=60, **overrides):
    adapter = attach(teacher, rank=4, stream=substream(33, "lora"), cap_rank=True)
    cfg = DistillConfig(steps=steps, batch_size=64, seed=5, **overrides)
    stats = {}
    metrics = MetricsLog()
    bundle = lcd_distill(teacher, adapter, ds, Encoder.identity(), sched, cfg,
                         metrics=metrics, stats=stats)
    return bundle, stats, metrics


def test_loss_zero_for_identical_arguments(trained_teacher):
    net, sched, ds = trained_teacher
    adapter = attach(net, rank=4, stream=substream(30, "lora"), cap_rank=True)
    head = ConsistencyHead.for_schedule(sched)
    z = substream(31, "z").normal((16, 2))
    shadow = EmaShadow(adapter)  # theta_minus = theta
    n = np.full(16, 20)
    target = consistency_forward(net, head, sched, z, 7.5, 0, n, adapter=shadow.adapter).data
    with GradTape() as tape:
        f = consistency_forward(net, head, sched, z, 7.5, 0, n, adapter=adapter)
        loss = consistency_distance(f, target, "l2", 0.01)
    assert float(loss.data) == 0.0
    net.set_trainable(True)


def test_one_sgd_step_descends(trained_teacher):
    net, sched, ds = trained_teacher
    adapter = attach(net, rank=4, stream=substream(32, "lora"), cap_rank=True)
    head = ConsistencyHead.for_schedule(sched)
    cfg = DistillConfig(steps=1, batch_size=128, seed=7, eta=1e-5, optimizer="sgd")
    stream = substream(34, "batch")
    idx = stream.integers(cfg.batch_size, 0, len(ds.x) - 1)
    z, cond = ds.x[idx], ds.cond[idx]
    n = stream.integers(cfg.batch_size, 1, sched.N - cfg.k)
    eps = stream.normal((cfg.batch_size, 2))
    from cdlora.schedule import add_noise
    z_hi = add_noise(z, n + cfg.k, eps, sched)
    omega = np.full(cfg.batch_size, 7.5)

    def teacher_eps(x, t, c):
        return net.forward(x, 0.0, c, t).data

    z_hat = cfg_target(z_hi, n + cfg.k, n, cond, net.null_id, omega, teacher_eps, sched)
    shadow = EmaShadow(adapter)
    target = consistency_forward(net, head, sched, z_hat, omega, cond, n,
                                 adapter=shadow.adapter).data

    def batch_loss():
        return consistency_distance(
            consistency_forward(net, head, sched, z_hi, omega, cond, n + cfg.k, adapter=adapter),
            target, "l2", 0.01)

    params = adapter.trainable_params()
    # warm B so gradients are informative on both factors
    for e in adapter.entries.values():
        e.b.data[:] = 0.01 * substream(35, "warm").normal(e.b.shape)
    with GradTape() as tape:
        loss0 = batch_loss()
        tape.backward(loss0)
    Sgd(cfg.eta).step(params)
    loss1 = batch_loss()
    assert float(loss1.data) < float(loss0.data)
    net.set_trainable(True)


def test_distill_freezes_teacher_bitwise(trained_teacher):
    net, sched, ds = trained_teacher
    before = {k: v.data.copy() for k, v in net.params.items()}
    make_distilled(net, sched, ds, steps=40)
    for k, v in net.params.items():
        assert np.array_equal(v.data, before[k])
    net.set_trainable(True)


def test_distill_sampling_ranges(trained_teacher):
    net, sched, ds = trained_teacher
    _, stats, _ = make_distilled(net, sched, ds, steps=200, guidance_mode="range",
                                 omega_min=2.0, omega_max=14.0)
    counts = stats["n_counts"]
    k = DistillConfig().k
    assert counts[0] == 0 and np.all(counts[sched.N - k + 1:] == 0)
    draws = counts[1:sched.N - k + 1]
    total = draws.sum()
    assert total >= 10_000
    p = 1.0 / len(draws)
    sigma = np.sqrt(total * p * (1 - p))
    assert np.all(np.abs(draws - total * p) < 5 * sigma)
    assert stats["omega_min_seen"] >= 2.0
    assert stats["omega_max_seen"] <= 14.0
    net.set_trainable(True)


def test_distill_fixed_omega_stays_fixed(trained_teacher):
    net, sched, ds = trained_teacher
    _, stats, _ = make_distilled(net, sched, ds, steps=20, guidance_mode="fixed",
                                 omega_fixed=7.5)
    assert stats["omega_min_seen"] == 7.5
    assert stats["omega_max_seen"] == 7.5
    net.set_trainable(True)


def test_distill_ema_update_algebra(trained_teacher):
    net, sched, ds = trained_teacher
    _, stats, _ = make_distilled(net, sched, ds, steps=1, mu=0.95)
    # after one step: shadow = 0.95 * theta_init + 0.05 * theta_new; theta_init
    # had B = 0, so the shadow's B is exactly 0.05 times the live B
    shadow = stats["ema_shadow"]
    adapter = stats["adapter"]
    for name, e in adapter.entries.items():
        se = shadow.adapter.entries[name]
        # theta_init had B = 0, so shadow B is exactly (1 - mu) * B_new
        np.testing.assert_array_equal(se.b.data, (1.0 - 0.95) * e.b.data)
        # A's gradient is zero while B = 0, so A_new == A_init and the shadow
        # is the convex combination of two equal values (float rounding only)
        np.testing.assert_allclose(se.a.data, e.a.data, rtol=1e-15)
    net.set_trainable(True)


def test_distill_validation(trained_teacher):
    net, sched, ds = trained_teacher
    adapter = attach(net, rank=4, stream=substream(36, "lora"), cap_rank=True)
    enc = Encoder.identity()
    with pytest.raises(ValueError):
        lcd_distill(net, adapter, ds, enc, sched, DistillConfig(k=0))
    with pytest.raises(ValueError):
        lcd_distill(net, adapter, ds, enc, sched, DistillConfig(k=sched.N))
    with pytest.raises(ValueError):
        lcd_distill(net, adapter, ds, enc, sched, DistillConfig(mu=1.5))
    with pytest.raises(ValueError):
        lcd_distill(net, adapter, ds, enc, sched, DistillConfig(eta=0.0))
    with pytest.raises(ValueError):
        lcd_distill(net, adapter, ds, enc, sched,
                    DistillConfig(omega_min=5.0, omega_max=2.0, guidance_mode="range"))
    other = DenoiserNet(data_dim=2, hidden=(24,), num_conditions=8,
                        stream=substream(37, "init"))
    foreign = attach(other, rank=2, stream=substream(38, "l"), cap_rank=True)
    from cdlora.lora import AdapterError
    with pytest.raises(AdapterError):
        lcd_distill(net, foreign, ds, enc, sched, DistillConfig(steps=1))
    net.set_trainable(True)


def test_consistency_loss_gradient_every_parameter():
    # finite differences across the full parameter set of a small denoiser
    # (weights, biases, projections, condition table), distillation loss
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=2, hidden=(16, 16), num_conditions=4,
                      stream=substream(80, "init/net"))
    stream = substream(81, "gc")
    for name, p in net.params.items():
        if name.endswith(".weight") and np.all(p.data == 0.0):
            p.data[:] = 0.2 * stream.normal(p.shape)
    head = ConsistencyHead.for_schedule(sched)
    batch, k = 3, 5
    z = stream.normal((batch, 2))
    cond = stream.integers(batch, 0, 3)
    n = stream.integers(batch, 1, sched.N - k)
    omega = np.full(batch, 7.5)
    from cdlora.schedule import add_noise
    z_hi = add_noise(z, n + k, stream.normal((batch, 2)), sched)

    def teacher_eps(x, t, c):
        return net.forward(x, 0.0, c, t).data

    z_hat = cfg_target(z_hi, n + k, n, cond, net.null_id, omega, teacher_eps, sched)
    target = consistency_forward(net, head, sched, z_hat, omega, cond, n).data

    def loss_fn():
        f = consistency_forward(net, head, sched, z_hi, omega, cond, n + k)
        return consistency_distance(f, target, "l2", 0.01)

    from cdlora.tensor import grad_check
    rel = grad_check(loss_fn, list(net.params.values()), h=1e-5)
    assert rel < 1e-4


def test_distill_loss_trends_down(trained_teacher):
    net, sched, ds = trained_teacher
    _, _, metrics = make_distilled(net, sched, ds, steps=800)
    losses = metrics.losses()
    assert np.mean(losses[-200:]) < np.mean(losses[:50])
    net.set_trainable(True)


# ---------------------------------------------------------------------------
# style fine-tuning


def test_style_zero_steps_keeps_delta_zero(trained_teacher):
    net, sched, ds = trained_teacher
    adapter = attach(net, rank=4, stream=substream(50, "lora"), cap_rank=True)
    bundle = finetune_style_lora(net, adapter, ds, Encoder.identity(), sched,
                                 TrainOpts(steps=0))
    assert bundle.role == "style"
    for delta in materialize(bundle.adapter).values():
        assert np.all(delta == 0.0)
    net.set_trainable(True)


def test_style_requires_fresh_adapter(trained_teacher):
    net, sched, ds = trained_teacher
    adapter = attach(net, rank=4, stream=substream(51, "lora"), cap_rank=True)
    next(iter(adapter.entries.values())).b.data[0, 0] = 0.1
    from cdlora.lora import AdapterError
    with pytest.raises(AdapterError):
        finetune_style_lora(net, adapter, ds, Encoder.identity(), sched, TrainOpts(steps=1))
    net.set_trainable(True)


def test_style_delta_small_on_same_data(trained_teacher):
    # fine-tuning on the teacher's own data moves the adapter far less than
    # fine-tuning on a genuinely shifted dataset (paired runs)
    net, sched, ds = trained_teacher

    def delta_norm(style_ds):
        adapter = attach(net, rank=4, stream=substream(52, "lora"), cap_rank=True)
        finetune_style_lora(net, adapter, style_ds, Encoder.identity(), sched,
                            TrainOpts(steps=1200, lr=1e-3, batch=128, seed=6))
        return sum(np.linalg.norm(d) for d in materialize(adapter).values())

    same = delta_norm(ds)
    shifted = delta_norm(rotated(ds, 22.5))
    assert same < shifted
    net.set_trainable(True)


def test_style_moves_samples_toward_rotated_data(trained_teacher):
    # merged(teacher + style) should beat the plain teacher on rotated data
    net, sched, ds = trained_teacher
    rot = rotated(ds, 22.5)
    adapter = attach(net, rank=4, stream=substream(53, "lora"), cap_rank=True)
    bundle = finetune_style_lora(net, adapter, rot, Encoder.identity(), sched,
                                 TrainOpts(steps=3000, lr=1e-3, batch=128, seed=8))
    merged = merge(net, bundle.adapter)
    from cdlora.sampling_eval import ddim_sample
    count = 1500
    cond = substream(54, "cond").integers(count, 0, 7)
    base_samples = ddim_sample(net, sched, 50, 2.0, cond, count, seed=55)
    style_samples = ddim_sample(merged, sched, 50, 2.0, cond, count, seed=55)
    ref = rotated(ring8(count, 56), 22.5).x
    assert mmd2(style_samples, ref) < mmd2(base_samples, ref)
    net.set_trainable(True)


# ---------------------------------------------------------------------------
# misc plumbing


def test_metrics_log_roundtrip(tmp_path):
    log = MetricsLog()
    log.add(1, 0.5, 3.2)
    log.add(2, 0.25, 3.1)
    path = tmp_path / "metrics.csv"
    log.write(path)
    rows = MetricsLog.read(path)
    assert rows[0][0] == 1 and rows[1][1] == 0.25
    assert rows[1][2] == pytest.approx(0.99 * 0.5 + 0.01 * 0.25)


def test_adam_and_sgd_move_params():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.ones(3)
    Sgd(0.1).step([p])
    np.testing.assert_allclose(p.data, 0.9)
    adam = Adam(0.1)
    p.grad = np.ones(3)
    adam.step([p])
    assert np.all(p.data < 0.9)


def test_encoder_roundtrip():
    x = substream(60, "x").normal((50, 2))
    np.testing.assert_array_equal(Encoder.identity().encode(x), x)


def test_pseudo_huber_distillation_gradient(monkeypatch):
    # distill_grad_check's objective at DistillConfig's defaults, LCM's own
    # distance among them; at seed 2 the entry with the worst relative error
    # has a gradient of about 2e-4, far above grad_check's 1e-8 floor
    monkeypatch.setattr(training, "DistillConfig",
                        functools.partial(DistillConfig, distance="pseudo-huber"))
    assert training.distill_grad_check(2, (16, 16), 2, 4, 1e-5) < 1e-4


def test_pseudo_huber_distance():
    f = Tensor(np.array([[1.0, 2.0]]))
    target = np.array([[1.0, 2.0]])
    loss = consistency_distance(f, target, "pseudo-huber", 0.01)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-15)
    f2 = Tensor(np.array([[2.0, 2.0]]))
    loss2 = consistency_distance(f2, target, "pseudo-huber", 0.01)
    assert float(loss2.data) == pytest.approx(np.sqrt(1.0 + 1e-4) - 0.01)
