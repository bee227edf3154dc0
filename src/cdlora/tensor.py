"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

The engine is intentionally small: 2-D matmul, same-shape elementwise ops with
scalar-by-tensor as the only broadcast, a handful of structured primitives the
denoiser needs (bias rows, per-row scaling, embedding lookup, column concat),
and a Wengert-list tape replayed in exact reverse execution order. No GPU, no
general broadcasting, no views.

SiLU takes one exp per element, x / (1 + exp(-x)), and its backward reuses
that denominator. `silu_den` computes it into a caller's buffer, so the
denoiser's buffer-reusing off-tape forward applies the same arithmetic in
place.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class TapeError(RuntimeError):
    """Tape misuse: nested tapes, or backward on a consumed tape."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared where finite values are required."""


class Tensor:
    """Contiguous row-major float64 array, optionally tracked for gradients.

    Tensors are immutable after construction except for gradient accumulation
    and whole-array parameter updates between training steps.
    """

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(arr: np.ndarray) -> Tensor:
    # internal fast path: skip the finiteness scan on op outputs
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    t.grad = None
    return t


_active_tape: Optional["GradTape"] = None


class GradTape:
    """Ordered record of executed primitives for one reverse sweep.

    Exactly one tape may be active at a time (one tape per training step);
    replaying backward visits nodes in exact reverse execution order, which
    is a reverse topological order of the recorded graph.
    """

    def __init__(self):
        self._nodes: list = []
        self._produced: set = set()
        self._leaves: dict = {}
        self._consumed = False

    def __enter__(self) -> "GradTape":
        global _active_tape
        if _active_tape is not None:
            raise TapeError("a gradient tape is already active")
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = None
        return False

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad leaf reachable from loss.

        Leaves that took part in taped ops but do not influence the loss get
        zero gradients. The sweep is deterministic: the same tape replays to
        bit-identical gradients.
        """
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            got = loss.shape if isinstance(loss, Tensor) else type(loss).__name__
            raise ShapeError(f"backward needs a scalar loss, got {got}")
        if self._consumed:
            raise TapeError("backward on a consumed tape")
        grads = {id(loss): np.ones_like(loss.data)}
        for out, inputs, bwd in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for x, gx in zip(inputs, bwd(g)):
                if gx is None or not isinstance(x, Tensor) or not x.requires_grad:
                    continue
                if id(x) in self._produced:
                    acc = grads.get(id(x))
                    grads[id(x)] = gx if acc is None else acc + gx
                else:
                    x.grad = gx.copy() if x.grad is None else x.grad + gx
        for leaf in self._leaves.values():
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
        self._consumed = True


def taping() -> bool:
    """True while a GradTape is recording."""
    return _active_tape is not None


def _record(arr: np.ndarray, inputs: tuple, bwd: Callable) -> Tensor:
    out = _wrap(arr)
    tape = _active_tape
    if tape is None:
        return out
    if not any(isinstance(x, Tensor) and x.requires_grad for x in inputs):
        return out
    out.requires_grad = True
    tape._nodes.append((out, inputs, bwd))
    tape._produced.add(id(out))
    for x in inputs:
        if isinstance(x, Tensor) and x.requires_grad and id(x) not in tape._produced:
            tape._leaves[id(x)] = x
    return out


def stopgrad(a: Tensor) -> Tensor:
    """Detached view: contributes exactly zero to all upstream gradients."""
    tape = _active_tape
    if tape is not None and a.requires_grad and id(a) not in tape._produced:
        # register as a leaf so backward reports an explicit zero gradient
        tape._leaves[id(a)] = a
    return _wrap(a.data)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product; backward is dL/da = g @ b^T, dL/db = a^T @ g.

    The backward skips the product of an operand that needs no gradient,
    such as a frozen base weight or a constant feature matrix.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} are incompatible")
    ad, bd = a.data, b.data

    def bwd(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _record(ad @ bd, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {a.shape}")

    def bwd(g):
        return (np.ascontiguousarray(g.T),)

    return _record(np.ascontiguousarray(a.data.T), (a,), bwd)


def _scalar_operand(x) -> bool:
    if isinstance(x, (int, float)):
        return True
    return isinstance(x, Tensor) and x.data.size == 1


def _binary_shapes(a, b, name: str):
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    if not a_t and not b_t:
        raise ShapeError(f"{name} needs at least one tensor operand")
    if a_t and b_t and a.shape != b.shape:
        if not (_scalar_operand(a) or _scalar_operand(b)):
            raise ShapeError(
                f"{name} shapes {a.shape} and {b.shape} differ and neither is scalar"
            )
    if (a_t and not b_t and not _scalar_operand(b)) or (b_t and not a_t and not _scalar_operand(a)):
        raise ShapeError(f"{name} only broadcasts scalars against tensors")


def _val(x):
    return x.data if isinstance(x, Tensor) else x


def _reduce_to(g: np.ndarray, x) -> Optional[np.ndarray]:
    # gradient for a scalar operand collapses to its (possibly 0-d) shape
    if not isinstance(x, Tensor):
        return None
    if x.data.shape == g.shape:
        return g
    return np.sum(g).reshape(x.data.shape)


def add(a, b) -> Tensor:
    _binary_shapes(a, b, "add")

    def bwd(g):
        return _reduce_to(g, a), _reduce_to(g, b)

    return _record(_val(a) + _val(b), (a, b), bwd)


def sub(a, b) -> Tensor:
    _binary_shapes(a, b, "sub")

    def bwd(g):
        gb = _reduce_to(-g, b)
        return _reduce_to(g, a), gb

    return _record(_val(a) - _val(b), (a, b), bwd)


def mul(a, b) -> Tensor:
    _binary_shapes(a, b, "mul")
    av, bv = _val(a), _val(b)

    def bwd(g):
        return _reduce_to(g * bv, a), _reduce_to(g * av, b)

    return _record(av * bv, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        return (-g,)

    return _record(-a.data, (a,), bwd)


def silu_den(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write SiLU's denominator 1 + exp(-x) into out and return out.

    silu(x) = x / den and sigmoid(x) = 1 / den keep full relative precision
    for either sign. Below x = -709.78, exp(-x) overflows to inf, which is the
    exact limit: x / inf is -0.0 and 1 / inf is 0.0.
    """
    with np.errstate(over="ignore", under="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
    out += 1.0
    return out


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x) = x / (1 + exp(-x)) with one exp.

    The backward rebuilds sigmoid(x) = 1 / den from the kept denominator:
    sigmoid(x) * (1 + x * (1 - sigmoid(x))).
    """
    x = a.data
    den = silu_den(x, np.empty_like(x))
    with np.errstate(under="ignore"):
        y = x / den

    def bwd(g):
        with np.errstate(under="ignore"):
            sig = 1.0 / den
            d = 1.0 - sig
            d *= x
            d += 1.0
            d *= sig
            d *= g
        return (d,)

    return _record(y, (a,), bwd)


def square(a: Tensor) -> Tensor:
    x = a.data

    def bwd(g):
        return (g * (2.0 * x),)

    return _record(x * x, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x < 0.0):
        raise NonFiniteError("sqrt of a negative value")
    root = np.sqrt(x)

    def bwd(g):
        return (g * (0.5 / root),)

    return _record(root, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def bwd(g):
        return (np.full(shape, float(g)),)

    return _record(np.sum(a.data).reshape(()), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    shape = a.data.shape

    def bwd(g):
        return (np.full(shape, float(g) / n),)

    return _record(np.mean(a.data).reshape(()), (a,), bwd)


def sum_rows(a: Tensor) -> Tensor:
    """Row sums of a 2-D tensor: (m, n) -> (m,)."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_rows needs a 2-D tensor, got shape {a.shape}")
    n = a.shape[1]

    def bwd(g):
        return (np.repeat(g[:, None], n, axis=1),)

    return _record(np.sum(a.data, axis=1), (a,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a (f,) bias row to every row of an (m, f) matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias shapes {x.shape} and {b.shape} are incompatible")

    def bwd(g):
        return g, np.sum(g, axis=0)

    return _record(x.data + b.data[None, :], (x, b), bwd)


def scale_rows(x: Tensor, s) -> Tensor:
    """Scale each row of an (m, f) matrix by the matching entry of an (m,) vector."""
    sv = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
    if x.data.ndim != 2 or sv.ndim != 1 or sv.shape[0] != x.shape[0]:
        raise ShapeError(f"scale_rows shapes {x.shape} and {sv.shape} are incompatible")
    xv = x.data

    def bwd(g):
        gs = np.sum(g * xv, axis=1) if isinstance(s, Tensor) else None
        return g * sv[:, None], gs

    return _record(xv * sv[:, None], (x, s), bwd)


def embed_rows(table: Tensor, ids) -> Tensor:
    """Row lookup table[ids]; backward scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    rows = table.shape[0]
    if idx.ndim != 1:
        raise ShapeError("embed_rows needs a 1-D id array")
    if np.any(idx < 0) or np.any(idx >= rows):
        raise IndexError(f"embedding id out of range [0, {rows})")

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(table.data[idx], (table,), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate (m, f_i) tensors along columns."""
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    m = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != m:
            raise ShapeError("concat_cols operands must share the row count")
    widths = [p.shape[1] for p in parts]
    edges = np.cumsum([0] + widths)

    def bwd(g):
        return tuple(g[:, edges[i]:edges[i + 1]] for i in range(len(parts)))

    return _record(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bwd)


# ---------------------------------------------------------------------------
# finite-difference checking


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f rebuilds the scalar loss from the live parameter values on every call.
    Relative error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8);
    the floor keeps near-zero gradients from blowing up the ratio. Requires
    64-bit precision and h in [1e-6, 1e-4].
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError(f"step h={h} outside [1e-6, 1e-4]")
    for p in params:
        p.grad = None
    with GradTape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        ana = analytic[pi].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(f().data)
            flat[j] = orig - h
            down = float(f().data)
            flat[j] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NonFiniteError(
                    f"non-finite loss while perturbing parameter {pi} at flat index {j}"
                )
            numeric = (up - down) / (2.0 * h)
            rel = abs(ana[j] - numeric) / max(abs(ana[j]), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
