"""Noise-prediction MLP with time, guidance-scale, and condition embeddings,
plus the few-step consistency head built on top of it.

The network predicts eps(z, omega, c, t). Time and guidance scale enter as
fixed sinusoidal features passed through trainable linear projections; the
condition is a learned per-id embedding row, with a dedicated row for the
null condition (classifier-free guidance's unconditional branch). Parameter
names ("layer0.weight", "time_proj.weight", ..., "cond_table") are stable
identifiers that the adapter and checkpoint modules key off.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from cdlora.schedule import ALPHA_GUARD, NoiseSchedule, ScheduleError
from cdlora.tensor import (
    NonFiniteError,
    Tensor,
    add,
    add_bias,
    concat_cols,
    embed_rows,
    matmul,
    mul,
    scale_rows,
    silu,
    sub,
    transpose,
)

# data-scale constant of the consistency head's c_skip/c_out, taken from
# Consistency Models (Song et al., 2023, arXiv 2303.01469)
SIGMA_DATA = 0.5


def sinusoidal_features(x, dim: int) -> np.ndarray:
    """(m, dim) sin/cos features of a scalar signal at geometric frequencies."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, math.log(1000.0), half))
    ang = x[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class DenoiserNet:
    """Small dense eps-prediction network over flat feature vectors."""

    def __init__(
        self,
        data_dim: int = 2,
        hidden: tuple = (128, 128, 128),
        time_dim: int = 16,
        guidance_dim: int = 8,
        cond_dim: int = 8,
        num_conditions: int = 8,
        omega_ref: float = 10.0,
        stream=None,
    ):
        if time_dim % 2 or guidance_dim % 2:
            raise ValueError("embedding dims must be even (sin/cos halves)")
        self.data_dim = data_dim
        self.hidden = tuple(hidden)
        self.time_dim = time_dim
        self.guidance_dim = guidance_dim
        self.cond_dim = cond_dim
        self.num_conditions = num_conditions
        self.omega_ref = omega_ref
        self.null_id = num_conditions  # dedicated row, never a zero hack
        self.params: dict[str, Tensor] = {}

        def xavier(rows, cols):
            # scaled-uniform with sqrt(2) gain for silu hidden layers
            bound = math.sqrt(2.0) * math.sqrt(6.0 / (rows + cols))
            u = stream.uniform(rows * cols).reshape(rows, cols) if stream is not None else np.zeros((rows, cols))
            return Tensor((2.0 * u - 1.0) * bound, requires_grad=True)

        self.params["time_proj.weight"] = xavier(time_dim, time_dim)
        self.params["time_proj.bias"] = Tensor(np.zeros(time_dim), requires_grad=True)
        self.params["guidance_proj.weight"] = xavier(guidance_dim, guidance_dim)
        self.params["guidance_proj.bias"] = Tensor(np.zeros(guidance_dim), requires_grad=True)

        widths = [data_dim + time_dim + guidance_dim + cond_dim, *self.hidden, data_dim]
        self.n_layers = len(widths) - 1
        for i in range(self.n_layers):
            last = i == self.n_layers - 1
            w = Tensor(np.zeros((widths[i], widths[i + 1])), requires_grad=True) if last else xavier(widths[i], widths[i + 1])
            self.params[f"layer{i}.weight"] = w
            self.params[f"layer{i}.bias"] = Tensor(np.zeros(widths[i + 1]), requires_grad=True)

        table = stream.normal((num_conditions + 1, cond_dim)) if stream is not None else np.zeros((num_conditions + 1, cond_dim))
        self.params["cond_table"] = Tensor(table, requires_grad=True)

    # -- structure -----------------------------------------------------------

    def weight_matrix_names(self) -> list[str]:
        """Dense weight matrices (adapter targets); biases and cond_table excluded."""
        return [n for n, p in self.params.items() if n.endswith(".weight") and p.data.ndim == 2]

    def named_shapes(self) -> list[tuple[str, tuple]]:
        return [(n, p.shape) for n, p in self.params.items()]

    def set_trainable(self, flag: bool) -> None:
        for p in self.params.values():
            p.requires_grad = flag

    def trainable_params(self) -> list[Tensor]:
        return [p for p in self.params.values() if p.requires_grad]

    @classmethod
    def arch_fields(cls) -> list[str]:
        """Architecture fields: the constructor's parameters bar the init stream."""
        return [name for name in inspect.signature(cls).parameters if name != "stream"]

    def arch(self) -> dict:
        """Constructor arguments that rebuild this architecture."""
        return {name: getattr(self, name) for name in self.arch_fields()}

    def clone(self) -> "DenoiserNet":
        twin = DenoiserNet(**self.arch())
        for name, p in self.params.items():
            twin.params[name] = Tensor(p.data.copy(), requires_grad=p.requires_grad)
        return twin

    # -- forward -------------------------------------------------------------

    def _dense(self, x: Tensor, name: str, adapter) -> Tensor:
        w = self.params[f"{name}.weight"]
        y = matmul(x, w)
        entry = adapter.entries.get(f"{name}.weight") if adapter is not None else None
        if entry is not None:
            delta = matmul(matmul(x, transpose(entry.a)), transpose(entry.b))
            y = add(y, mul(delta, entry.scale) if entry.scale != 1.0 else delta)
        return add_bias(y, self.params[f"{name}.bias"])

    def forward(self, z, omega, cond, t, adapter=None) -> Tensor:
        """eps estimate for a batch; z (m, data_dim), omega/cond/t scalar or per-row."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.data_dim:
            raise ValueError(f"expected z of shape (m, {self.data_dim}), got {z.shape}")
        m = z.shape[0]
        omega_arr = np.broadcast_to(np.asarray(omega, dtype=np.float64), (m,))
        if np.any(omega_arr < 0.0):
            raise ValueError("guidance scale must be non-negative")
        cond_arr = np.broadcast_to(np.asarray(cond, dtype=np.int64), (m,))
        if np.any(cond_arr < 0) or np.any(cond_arr > self.null_id):
            raise ValueError(
                f"condition id outside [0, {self.null_id}] (null id is {self.null_id})"
            )
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (m,))

        tf = Tensor(sinusoidal_features(t_arr, self.time_dim))
        gf = Tensor(sinusoidal_features(omega_arr / self.omega_ref, self.guidance_dim))
        h_t = self._dense(tf, "time_proj", adapter)
        h_g = self._dense(gf, "guidance_proj", adapter)
        h_c = embed_rows(self.params["cond_table"], cond_arr)

        h = concat_cols([Tensor(z), h_t, h_g, h_c])
        for i in range(self.n_layers):
            h = self._dense(h, f"layer{i}", adapter)
            if i != self.n_layers - 1:
                h = silu(h)
        if not np.all(np.isfinite(h.data)):
            raise NonFiniteError("non-finite activations in denoiser forward")
        return h


@dataclass(frozen=True)
class ConsistencyHead:
    """Skip/out coefficients that pin f(z, t_min) = z by construction.

    With u = (t - t_min) / (1 - t_min): c_skip = sd^2 / (u^2 + sd^2) and
    c_out = u / sqrt(u^2 + sd^2), so c_skip(t_min) = 1 and c_out(t_min) = 0
    exactly, for any parameter values.
    """

    sigma_data: float
    t_min: float

    @classmethod
    def for_schedule(cls, sched: NoiseSchedule, sigma_data: float = SIGMA_DATA) -> "ConsistencyHead":
        return cls(sigma_data=sigma_data, t_min=sched.t_min)

    def coeffs(self, t):
        t = np.asarray(t, dtype=np.float64)
        u = (t - self.t_min) / (1.0 - self.t_min)
        sd2 = self.sigma_data * self.sigma_data
        c_skip = sd2 / (u * u + sd2)
        c_out = u / np.sqrt(u * u + sd2)
        return c_skip, c_out


def consistency_forward(
    net: DenoiserNet,
    head: ConsistencyHead,
    sched: NoiseSchedule,
    z,
    omega,
    cond,
    n,
    adapter=None,
) -> Tensor:
    """The consistency function: c_skip(u) * z + c_out(u) * x0_hat.

    x0_hat = (z - sigma(t_n) * eps_theta(z, omega, c, t_n)) / alpha(t_n).
    """
    z = np.asarray(z, dtype=np.float64)
    m = z.shape[0]
    n_arr = np.broadcast_to(np.asarray(n, dtype=np.int64), (m,))
    alpha = sched.alpha(n_arr)
    if np.any(alpha < ALPHA_GUARD):
        raise ScheduleError(f"alpha(t_n) below {ALPHA_GUARD}: schedule too degenerate to invert")
    sigma = sched.sigma(n_arr)
    t = sched.t_of(n_arr)

    eps = net.forward(z, omega, cond, t, adapter=adapter)
    z_t = Tensor(z)
    x0 = scale_rows(sub(z_t, scale_rows(eps, sigma)), 1.0 / alpha)
    c_skip, c_out = head.coeffs(t)
    return add(scale_rows(z_t, c_skip), scale_rows(x0, c_out))
