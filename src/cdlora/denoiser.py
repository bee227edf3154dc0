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

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from cdlora.schedule import NoiseSchedule
from cdlora.tensor import (
    SILU_ERRSTATE,
    NonFiniteError,
    Tensor,
    _copy,
    _mm,
    _record,
    _wrap,
    add,
    add_bias,
    concat_cols,
    embed_rows,
    empty,
    matmul,
    mul,
    pad_cols,
    product,
    scale_rows,
    silu,
    silu_den,
    silu_grad,
    sub,
    taping,
    transpose,
)

# data-scale constant of the consistency head's c_skip/c_out, taken from
# Consistency Models (Song et al., 2023, arXiv 2303.01469)
SIGMA_DATA = 0.5

# rows per block of an off-tape forward: a 256 x 128 float64 activation
# (256 KB) stays in a core's L2 cache from one layer to the next
BLOCK_ROWS = 256


class _DenseLayer:
    """One dense layer, y = x W + s (x A^T) B^T + b, then SiLU on a hidden
    layer, in the per-op graph's (_dense's) order of operations.

    The right operands are padded once per forward (pad_cols), A^T and B^T
    made contiguous first, as the transpose primitive makes them, and every
    product goes through tensor.product, so any block of 2 or more rows gets
    the bits of the same rows of the whole batch and of the per-op graph.

    x_grad says whether the layer's input needs a gradient (some parameter
    before the layer does); y_grad whether its output does (x_grad, or a
    parameter of this layer does); both are False off the tape. The kept
    arrays are None where backward never reads them: the input x for the
    gradients of W and A, x A^T (u) for B's, W (wd) and A^T (at) for the
    input's, B^T (bt) for the gradient of u, and a hidden layer's
    pre-activation and SiLU denominator, for the network node's silu_grad,
    when y_grad.
    """

    # a forward makes one per layer, and a taped one keeps them until backward
    __slots__ = ("w", "bias", "entry", "params", "x_grad", "y_grad", "hidden", "n", "wp", "atp",
                 "btp", "keep_x", "keep_u", "x", "wd", "at", "u", "bt", "pre", "den")

    def __init__(self, net: "DenoiserNet", name: str, adapter, x_grad: bool, hidden: bool):
        self.w = net.params[f"{name}.weight"]
        self.bias = net.params[f"{name}.bias"]
        e = self.entry = None if adapter is None else adapter.entries.get(f"{name}.weight")
        self.params = (self.w, self.bias, *(() if e is None else (e.a, e.b)))
        on_tape = taping()
        self.x_grad = x_grad
        self.y_grad = x_grad or (on_tape and any(p.requires_grad for p in self.params))
        self.hidden = hidden
        self.n = self.w.shape[1]
        self.wp = pad_cols(self.w.data)
        self.wd = self.w.data if x_grad else None
        a_grad = on_tape and e is not None and e.a.requires_grad
        self.keep_x = (on_tape and self.w.requires_grad) or a_grad
        self.keep_u = on_tape and e is not None and e.b.requires_grad
        self.x = self.at = self.u = self.bt = self.pre = self.den = self.atp = self.btp = None
        if e is not None:
            at, bt = _copy(e.a.data.T), _copy(e.b.data.T)
            self.atp, self.btp = pad_cols(at), pad_cols(bt)
            self.at = at if x_grad else None
            self.bt = bt if x_grad or a_grad else None

    def forward(self, x, buf=None, low=None, scratch=None, dst=None) -> np.ndarray:
        """The layer's rows for the input rows x, into dst when given.

        Off the tape, each product fills a flat buffer from the front: buf
        for x W, low for x A^T, scratch for the delta and then the SiLU
        denominator; the delta, the bias and SiLU apply in place, so a hidden
        layer returns a view of buf. On the tape no buffers are given: every
        array comes from tensor.empty, so a kept pre-activation outlives SiLU.
        """
        e = self.entry
        self.x = x if self.keep_x else None
        y = product(x, self.wp, self.n, out=buf)
        if e is not None:
            u = product(x, self.atp, e.rank, out=low)
            if self.keep_u:   # contiguous, as the matmul primitive returns it
                self.u = u = u if u.flags.c_contiguous else _copy(u)
            delta = product(u, self.btp, self.n, out=scratch)
            if e.scale != 1.0:
                delta *= e.scale
            y += delta
        if not self.hidden:
            return np.add(y, self.bias.data, out=y if dst is None else dst)
        y += self.bias.data
        fresh = scratch is None
        den = silu_den(y, empty(y.shape) if fresh else scratch[:y.size].reshape(y.shape))
        if self.y_grad:
            self.pre, self.den = y, den
        return np.divide(y, den, out=empty(y.shape) if fresh else y)

    def backward(self, g: np.ndarray, grads: dict):
        """Add the gradients of the parameters that need one to grads, given
        g, the gradient of the layer's pre-activation; return the input's
        gradient, or None unless x_grad. The products, their operand layouts
        and the order of accumulation are the per-op graph's (_dense), so the
        bits are too. The tape runs a node's backward once, so the kept
        arrays are dropped here."""
        if self.bias.requires_grad:
            grads[self.bias] = np.sum(g, axis=0)
        e, gx = self.entry, None
        if e is not None:
            gd = g if e.scale == 1.0 else np.multiply(g, e.scale, out=empty(g.shape))
            if self.u is not None:
                grads[e.b] = _mm(self.u.T, gd).T
            if self.bt is not None:
                gu = _mm(gd, self.bt.T)
                if e.a.requires_grad:
                    grads[e.a] = _mm(self.x.T, gu).T
                if self.x_grad:
                    gx = _mm(gu, self.at.T)
        if self.w.requires_grad:
            grads[self.w] = _mm(self.x.T, g)
        if self.x_grad:
            base = _mm(g, self.wd.T)
            if gx is not None:
                base += gx   # the per-op graph's gx + base: addition commutes
            gx = base
        self.x = self.wd = self.at = self.u = self.bt = None
        return gx


@functools.cache
def _frequencies(half: int) -> np.ndarray:
    """The geometric frequencies 1 .. 1000 of a sinusoidal table with half sin columns."""
    freqs = np.exp(np.linspace(0.0, math.log(1000.0), half))
    freqs.flags.writeable = False
    return freqs


def sinusoidal_table(x, dim: int) -> tuple:
    """(table, rows): sin/cos features at geometric frequencies of the
    distinct values of a scalar signal, and each element's row in the table.

    table[rows] is the (m, dim) feature matrix. sin/cos run once per distinct
    value, so a batch that shares one timestep or guidance scale pays for one
    row; such a one-value signal (a broadcast scalar, the teacher's omega = 0)
    skips np.unique's sort, and its rows are all 0. A signal with a NaN is
    never one-valued (NaN != NaN), and an Inf gives a NaN feature, so either
    reaches the caller's finiteness scan. The frequencies are built once per
    width.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    freqs = _frequencies(dim // 2)
    if x.size and np.all(x == x[0]):
        values, rows = x[:1], np.zeros(x.shape, dtype=np.intp)
    else:
        values, rows = np.unique(x, return_inverse=True)
    ang = values[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1), rows


def ints(low: float = -math.inf, step: int = 1):
    """Test: an int of at least low that step divides (JSON true is no int)."""
    return lambda value: type(value) is int and value >= low and value % step == 0


def numbers(low: float = -math.inf, high: float = math.inf):
    """Test: a number strictly between low and high, so never NaN or infinite."""
    return lambda value: type(value) in (int, float) and low < value < high


def one_of(*options: str):
    """Test: one of the given strings."""
    return lambda value: type(value) is str and value in options


def list_of(test):
    return lambda value: isinstance(value, (list, tuple)) and all(test(item) for item in value)


def problems_of(record: dict, spec: dict, exact: bool = False, noun: str = "") -> list[str]:
    """A phrase for each key of spec that record lacks or whose value fails its
    test, and, with exact, for each key of record outside spec; noun precedes
    each key's name. A test returns True for a good value, else False or a
    phrase saying what is wrong; or it is a nested spec, which the value must
    be an object to meet, with no keys outside it.
    """
    problems = []
    for key, test in spec.items():
        label, value = f"{noun}{key!r}", record.get(key)
        if key not in record:
            problems.append(f"missing {label}")
        elif isinstance(test, dict):
            problems += (problems_of(value, test, True, f"{label} entry for ")
                         if isinstance(value, dict) else [f"bad {label} {value!r}"])
        elif (verdict := test(value)) is not True:
            problems.append(f"{label} {verdict}" if verdict else f"bad {label} {value!r}")
    return problems + [f"unexpected {noun}{key!r}" for key in record if exact and key not in spec]


def reject(what, problems: list[str], error: type = ValueError) -> None:
    """Raise error("<what>: <problem>, ..."): how every setting and record is refused."""
    if problems:
        raise error(f"{what}: {', '.join(problems)}")


# one test per constructor argument bar the init stream; DenoiserNet applies
# them, as persist does to a checkpoint's "arch"
ARCH_RULES = {"data_dim": ints(1), "hidden": list_of(ints(1)), "time_dim": ints(2, step=2),
              "guidance_dim": ints(2, step=2), "cond_dim": ints(1), "num_conditions": ints(1),
              "omega_ref": numbers(0)}


def architecture_fingerprint(named_shapes) -> str:
    """Stable hash of (layer name, shape) pairs for compatibility checks."""
    payload = json.dumps([[n, list(s)] for n, s in named_shapes], sort_keys=False)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def net_fingerprint(net: "DenoiserNet") -> str:
    return architecture_fingerprint(net.named_shapes())


class DenoiserNet:
    """Small dense eps-prediction network over flat feature vectors; the constructor
    rejects arguments that break ARCH_RULES (even embedding dims: sin/cos halves)."""

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
        self.data_dim = data_dim
        self.hidden = hidden
        self.time_dim = time_dim
        self.guidance_dim = guidance_dim
        self.cond_dim = cond_dim
        self.num_conditions = num_conditions
        self.omega_ref = omega_ref
        reject("architecture", problems_of(self.arch(), ARCH_RULES))
        self.hidden = tuple(hidden)
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

    def arch(self) -> dict:
        """Constructor arguments that rebuild this architecture: ARCH_RULES' keys."""
        return {name: getattr(self, name) for name in ARCH_RULES}

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

    def _trunk(self, z: Tensor, tf: Tensor, gf: Tensor, cond, adapter) -> Tensor:
        """All but the output layer, given the rows' time and guidance features."""
        h_t = self._dense(tf, "time_proj", adapter)
        h_g = self._dense(gf, "guidance_proj", adapter)
        h_c = embed_rows(self.params["cond_table"], cond)
        h = concat_cols([z, h_t, h_g, h_c])
        for i in range(self.n_layers - 1):
            h = silu(self._dense(h, f"layer{i}", adapter))
        return h

    def _block_forward(self, z, t_feats, g_feats, cond, adapter) -> Tensor:
        """The network's dense layers (_DenseLayer) over row blocks; while
        taping, the whole batch as one block, recorded as one node.

        t_feats and g_feats are sinusoidal_table pairs. Off the tape, the rows
        run in near-equal blocks of at most BLOCK_ROWS rows through a few flat
        buffers taken once per call from tensor.empty, and each block's
        output layer writes the block's rows of the (m, data_dim) result, so
        no whole-batch activation exists. time_proj and guidance_proj run once
        per call over the distinct-value tables, so a batch that shares one
        timestep pays for one projected row; a one-row table is widened to two
        rows, because numpy hands a one-row product to gemv, which rounds
        differently. Each block gathers its rows of the projected tables and
        of cond_table into layer 0's input. On the tape the projections run
        per row, straight into layer 0's input, so their gradients sum in the
        per-op graph's order. The node's inputs are every parameter and
        adapter factor; its backward returns gradients for those that need
        one, equal bit for bit to the per-op graph's (_trunk and _dense).
        """
        tape = taping()
        table = self.params["cond_table"]
        proj = [_DenseLayer(self, name, adapter, False, False) for name in ("time_proj", "guidance_proj")]
        x_grad = (tape and table.requires_grad) or any(layer.y_grad for layer in proj)
        layers = []
        for i in range(self.n_layers):
            layers.append(_DenseLayer(self, f"layer{i}", adapter, x_grad, i < self.n_layers - 1))
            x_grad = layers[-1].y_grad
        m = z.shape[0]
        parts = 1 if tape else -(-m // BLOCK_ROWS)
        size = -(-m // parts)  # rows of the largest block
        feats = (t_feats, g_feats)
        acts, low, scratch = (None, None), None, None
        if not tape:
            feats = [(layer.forward(np.concatenate([v, v]) if v.shape[0] == 1 else v), idx)
                     for (v, idx), layer in zip(feats, proj)]
            width = max(layer.wp.shape[1] for layer in layers)
            rank = max((layer.atp.shape[1] for layer in layers if layer.entry is not None), default=0)
            acts = (empty(size * width), empty(size * width))
            # an adapter delta is spent before the SiLU denominator is needed
            low, scratch = empty(size * rank), empty(size * width)
        x = empty((size, layers[0].w.shape[0]))
        eps = empty((m, self.data_dim))
        # np.array_split's blocks, the first m % parts one row longer, as slices
        bounds = [b * (m // parts) + min(b, m % parts) for b in range(parts + 1)]
        with np.errstate(**SILU_ERRSTATE):
            for lo, hi in zip(bounds, bounds[1:]):
                h = x[:hi - lo]  # _trunk's concat_cols([z, h_t, h_g, h_c]), filled column range by range
                c = self.data_dim
                h[:, :c] = z[lo:hi]
                for (values, idx), layer in zip(feats, proj):
                    if tape:
                        layer.forward(values[idx], dst=h[:, c:c + layer.n])
                    else:   # the ids are in range, and mode="clip" lets np.take write into out unbuffered
                        np.take(values, idx[lo:hi], axis=0, out=h[:, c:c + layer.n], mode="clip")
                    c += layer.n
                np.take(table.data, cond[lo:hi], axis=0, out=h[:, c:], mode="clip")
                for i, layer in enumerate(layers):
                    h = layer.forward(h, acts[i % 2], low, scratch, None if layer.hidden else eps[lo:hi])
        leaves = (table, *(p for layer in (*proj, *layers) for p in layer.params))

        def bwd(g):
            grads = {}
            for layer in reversed(layers):
                if layer.hidden:
                    g = silu_grad(layer.pre, layer.den, g)
                    layer.pre = layer.den = None
                g = layer.backward(g, grads)
                if g is None:
                    break
            else:   # g is the gradient of the concatenated input
                c = self.data_dim
                for layer in proj:
                    if layer.y_grad:
                        layer.backward(g[:, c:c + layer.n], grads)
                    c += layer.n
                if table.requires_grad:
                    gt = empty(table.shape)
                    gt.fill(0.0)
                    np.add.at(gt, cond, g[:, c:])
                    grads[table] = gt
            return tuple(grads.get(p) for p in leaves)

        return _record(eps, leaves, bwd)

    def forward(self, z, omega, cond, t, adapter=None) -> Tensor:
        """eps estimate for a batch; z (m, data_dim), omega/cond/t scalar or per-row.

        Once per call, t and omega become sinusoidal tables of their distinct
        values (sinusoidal_table), and one finiteness scan covers z and those
        tables. One routine then runs the layers (_block_forward): off the
        tape over row blocks of at most BLOCK_ROWS rows, in place through
        buffers taken once per call; on the tape over the whole batch as one
        block, recorded as one node whose gradients equal the per-op graph's
        bit for bit. Every forward product pads its right operand to whole
        8-column groups (tensor.product), which gives the same bits for any
        block of 2 or more rows as for the whole batch (tests/test_denoiser.py
        checks this). The exception is an off-tape batch of at most BLOCK_ROWS
        rows, which runs through the primitives (_trunk and _dense).
        """
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
        t_feats = sinusoidal_table(np.broadcast_to(np.asarray(t, dtype=np.float64), (m,)), self.time_dim)
        g_feats = sinusoidal_table(omega_arr / self.omega_ref, self.guidance_dim)

        # the inputs' one finiteness scan, over z and the distinct feature
        # rows: NaN or Inf in z, t or omega raises here
        if not all(np.all(np.isfinite(a)) for a in (z, t_feats[0], g_feats[0])):
            raise NonFiniteError("tensor data contains NaN or Inf")
        if taping() or m > BLOCK_ROWS:
            h = self._block_forward(z, t_feats, g_feats, cond_arr, adapter)
        else:
            # the per-op graph off the tape: perfbench's tracer test asks a
            # 3-row off-tape forward for tensor.matmul and tensor.silu spans,
            # so this branch, and the primitives only it calls, stay until
            # that test is re-pinned to the forward's own span
            rows = [_wrap(np.ascontiguousarray(z)), *(_wrap(v[idx]) for v, idx in (t_feats, g_feats))]
            h = self._trunk(*rows, cond_arr, adapter)
            h = self._dense(h, f"layer{self.n_layers - 1}", adapter)
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
    sigma = sched.sigma(n_arr)
    t = sched.t_of(n_arr)

    eps = net.forward(z, omega, cond, t, adapter=adapter)
    z_t = Tensor(z)
    x0 = scale_rows(sub(z_t, scale_rows(eps, sigma)), 1.0 / alpha)
    c_skip, c_out = head.coeffs(t)
    return add(scale_rows(z_t, c_skip), scale_rows(x0, c_out))
