"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

The engine is intentionally small: 2-D matmul, same-shape elementwise ops
with a Python number against a tensor as the only broadcast, a handful of
structured primitives the denoiser needs (bias rows, per-row scaling,
embedding lookup, column concat), and a Wengert-list tape replayed in exact
reverse execution order. No GPU, no general broadcasting, no views.

Each recorded primitive appends one node, (sources, bwd), and nothing else.
A source says where the gradient of one input goes: the index of the node
that produced it on this tape, the leaf Tensor itself when it needs a
gradient, or None. bwd closes over only the arrays its own formula reads,
and only for inputs that need a gradient, so an intermediate that backward
never reads is freed as soon as the forward drops it. A recorded output
carries a mark, (tape serial, node index), that later nodes resolve to its
source. The mark names the tape by serial, not by reference, so a live output
keeps no tape alive and closes no cycle that only the cyclic GC would free.

While an ArrayPool is active, the primitives and their backward rules take
the arrays they make from it (`empty`), bar the small results of the
reductions, so a training loop's steps reuse one set of arrays instead of
allocating afresh; the values are the same either way.

SiLU takes one exp per element, x / (1 + exp(-x)), and its backward reuses
that denominator. `silu_den` computes it into a caller's buffer and
`silu_grad` is the backward formula, so the denoiser's own forwards (the
buffer-reusing off-tape one, and the taped one that records the whole network
as one node) apply the primitive's arithmetic without calling it.
"""

from __future__ import annotations

import itertools
import sys
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

    _mark: Optional[tuple] = None   # (tape serial, node index) once recorded

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
_tape_serials = itertools.count()


def _refs_of_listed() -> int:
    """sys.getrefcount of an array that only a list refers to, read as ArrayPool.empty reads it."""
    arrays = [np.empty(0)]
    return sys.getrefcount(arrays[0])


_POOL_ONLY = _refs_of_listed()


class ArrayPool:
    """float64 arrays that `empty` hands out again once only the pool refers to them.

    `with pool:` makes `empty` draw from the pool. A training loop keeps one
    across its steps, so each step writes into the arrays the step before it
    released; fresh arrays would let glibc trim the freed heap top after each
    step and fault it back in on the next, at a cost that depends on the heap
    layout set-up left. An array that anything else refers to, a view of it
    included, is never handed out.
    """

    def __init__(self):
        self._arrays: dict = {}   # shape -> the pool's arrays of that shape
        self._outer = None        # the pool that was active when this one was entered

    def empty(self, shape) -> np.ndarray:
        arrays = self._arrays.setdefault(shape, [])
        for i in range(len(arrays)):
            if sys.getrefcount(arrays[i]) == _POOL_ONLY:
                return arrays[i]
        arrays.append(np.empty(shape))
        return arrays[-1]

    def __enter__(self) -> "ArrayPool":
        global _active_pool
        self._outer, _active_pool = _active_pool, self
        return self

    def __exit__(self, *exc):
        global _active_pool
        _active_pool = self._outer
        return False


_active_pool: Optional[ArrayPool] = None


def empty(shape) -> np.ndarray:
    """An uninitialized float64 array: from the active ArrayPool, else new."""
    return np.empty(shape) if _active_pool is None else _active_pool.empty(shape)


def _copy(x: np.ndarray) -> np.ndarray:
    """x copied into a C-contiguous array from `empty`."""
    out = empty(x.shape)
    np.copyto(out, x)
    return out


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b into an array from `empty`."""
    return np.matmul(a, b, out=empty((a.shape[0], b.shape[1])))


class GradTape:
    """Ordered record of executed primitives for one reverse sweep.

    Exactly one tape may be active at a time (one tape per training step);
    replaying backward visits nodes in exact reverse execution order, which
    is a reverse topological order of the recorded graph.
    """

    def __init__(self):
        self._serial = next(_tape_serials)
        self._nodes: list = []
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

    def _source(self, x):
        """Where x's gradient goes: the index of x's node on this tape, x
        itself as a leaf (registered here), or None if x needs none."""
        if not isinstance(x, Tensor) or not x.requires_grad:
            return None
        mark = x._mark
        if mark is not None and mark[0] == self._serial:
            return mark[1]
        self._leaves[id(x)] = x
        return x

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
        grads = {}   # node index -> gradient of that node's output
        mark = loss._mark
        if mark is not None and mark[0] == self._serial:
            grads[mark[1]] = np.ones_like(loss.data)
        for i in range(len(self._nodes) - 1, -1, -1):
            g = grads.pop(i, None)
            if g is None:
                continue
            sources, bwd = self._nodes[i]
            for src, gx in zip(sources, bwd(g)):
                if gx is None or src is None:
                    continue
                if isinstance(src, int):
                    acc = grads.get(src)
                    grads[src] = gx if acc is None else np.add(acc, gx, out=empty(gx.shape))
                else:
                    src.grad = (_copy(gx) if src.grad is None
                                else np.add(src.grad, gx, out=empty(gx.shape)))
        for leaf in self._leaves.values():
            if leaf.grad is None:
                leaf.grad = empty(leaf.data.shape)
                leaf.grad.fill(0.0)
        self._consumed = True


def taping() -> bool:
    """True while a GradTape is recording."""
    return _active_tape is not None


def _record(arr: np.ndarray, inputs: tuple, bwd: Callable) -> Tensor:
    out = _wrap(arr)
    tape = _active_tape
    if tape is None:
        return out
    sources = tuple(tape._source(x) for x in inputs)
    if all(src is None for src in sources):
        return out
    out.requires_grad = True
    out._mark = (tape._serial, len(tape._nodes))
    tape._nodes.append((sources, bwd))
    return out


def stopgrad(a: Tensor) -> Tensor:
    """Detached view: contributes exactly zero to all upstream gradients."""
    if _active_tape is not None:
        # registers a as a leaf unless this tape made it, so backward
        # reports an explicit zero gradient
        _active_tape._source(a)
    return _wrap(a.data)


# ---------------------------------------------------------------------------
# forward products

# a forward product's right operand is widened to whole groups of this many columns
COL_GROUP = 8


def pad_cols(b: np.ndarray) -> np.ndarray:
    """b with zero columns appended up to a whole number of COL_GROUP groups;
    b itself when its column count is whole already."""
    n = b.shape[1]
    width = -(-n // COL_GROUP) * COL_GROUP
    if width == n:
        return b
    out = empty((b.shape[0], width))
    out[:, n:] = 0.0
    out[:, :n] = b
    return out


def product(a: np.ndarray, b: np.ndarray, n: Optional[int] = None, out=None) -> np.ndarray:
    """The first n columns (all of b's by default) of a @ pad_cols(b).

    OpenBLAS rounds a product whose column count ends in a partial group
    differently for different row counts; over whole groups, every block of
    2 or more rows of a gets the bits of the same rows of the whole product.
    So every forward product goes through here, and a forward run over row
    blocks equals the whole-batch forward bit for bit. b may come padded
    already, with n its unpadded column count, so a caller that multiplies
    many blocks pads once. The padded product goes into out, a flat buffer
    that it fills from the front, or by default into an array from `empty`;
    when b is padded, the result is a view of that array.
    """
    n = b.shape[1] if n is None else n
    b = pad_cols(b)
    shape = (a.shape[0], b.shape[1])
    out = empty(shape) if out is None else out[: shape[0] * shape[1]].reshape(shape)
    full = np.matmul(a, b, out=out)
    return full if full.shape[1] == n else full[:, :n]


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product; backward is dL/da = g @ b^T, dL/db = a^T @ g.

    The forward runs through `product`, so it rounds alike for any row count
    of 2 or more, and copies a padded product's leading columns out, so the
    output is contiguous like every primitive's. The backward skips the
    product of an operand that needs no gradient, such as a frozen base
    weight or a constant feature matrix, and keeps each operand's values only
    for the other operand's gradient.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} are incompatible")
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bwd(g):
        return (None if bd is None else _mm(g, bd.T),
                None if ad is None else _mm(ad.T, g))

    y = product(a.data, b.data)
    return _record(y if y.flags.c_contiguous else _copy(y), (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {a.shape}")

    def bwd(g):
        return (_copy(g.T),)

    return _record(_copy(a.data.T), (a,), bwd)


def _binary_shapes(a, b, name: str):
    """add, sub and mul take two Tensors of one shape, or a Tensor and a Python number."""
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    if not a_t and not b_t:
        raise ShapeError(f"{name} needs at least one tensor operand")
    if a_t and b_t and a.shape != b.shape:
        raise ShapeError(f"{name} shapes {a.shape} and {b.shape} differ")
    if not (a_t and b_t) and not isinstance(b if a_t else a, (int, float)):
        raise ShapeError(f"{name} only broadcasts Python numbers against tensors")


def _val(x):
    return x.data if isinstance(x, Tensor) else x


def _like(a, b) -> np.ndarray:
    """An array from `empty` of the shape of the tensor among a and b."""
    return empty((a if isinstance(a, Tensor) else b).shape)


def add(a, b) -> Tensor:
    _binary_shapes(a, b, "add")
    # backward drops the gradient of an operand that needs none
    return _record(np.add(_val(a), _val(b), out=_like(a, b)), (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    _binary_shapes(a, b, "sub")
    gb = isinstance(b, Tensor) and b.requires_grad  # -g only for a b that needs it
    return _record(np.subtract(_val(a), _val(b), out=_like(a, b)), (a, b),
                   lambda g: (g, np.negative(g, out=empty(g.shape)) if gb else None))


def mul(a, b) -> Tensor:
    _binary_shapes(a, b, "mul")
    av, bv = _val(a), _val(b)
    # each operand's values, kept only for the other operand's gradient
    ka = bv if isinstance(a, Tensor) and a.requires_grad else None
    kb = av if isinstance(b, Tensor) and b.requires_grad else None

    def bwd(g):
        return (None if ka is None else np.multiply(g, ka, out=empty(g.shape)),
                None if kb is None else np.multiply(g, kb, out=empty(g.shape)))

    return _record(np.multiply(av, bv, out=_like(a, b)), (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        return (np.negative(g, out=empty(g.shape)),)

    return _record(np.negative(a.data, out=empty(a.shape)), (a,), bwd)


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


def silu_grad(x: np.ndarray, den: np.ndarray, g: np.ndarray) -> np.ndarray:
    """SiLU's backward: g * sigmoid(x) * (1 + x * (1 - sigmoid(x))), into an
    array from `empty`, with sigmoid(x) = 1 / den rebuilt from silu_den's den."""
    with np.errstate(under="ignore"):
        sig = np.divide(1.0, den, out=empty(den.shape))
        d = np.subtract(1.0, sig, out=empty(den.shape))
        d *= x
        d += 1.0
        d *= sig
        d *= g
    return d


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x) = x / (1 + exp(-x)) with one exp; the backward
    (silu_grad) reuses the denominator."""
    x = a.data
    den = silu_den(x, empty(x.shape))
    with np.errstate(under="ignore"):
        y = np.divide(x, den, out=empty(x.shape))
    return _record(y, (a,), lambda g: (silu_grad(x, den, g),))


def square(a: Tensor) -> Tensor:
    x = a.data

    def bwd(g):
        d = np.multiply(2.0, x, out=empty(x.shape))
        return (np.multiply(g, d, out=d),)

    return _record(np.multiply(x, x, out=empty(x.shape)), (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x < 0.0):
        raise NonFiniteError("sqrt of a negative value")
    root = np.sqrt(x, out=empty(x.shape))

    def bwd(g):
        d = np.divide(0.5, root, out=empty(root.shape))
        return (np.multiply(g, d, out=d),)

    return _record(root, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def bwd(g):
        d = empty(shape)
        d.fill(float(g))
        return (d,)

    return _record(np.sum(a.data).reshape(()), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    shape = a.data.shape

    def bwd(g):
        d = empty(shape)
        d.fill(float(g) / n)
        return (d,)

    return _record(np.mean(a.data).reshape(()), (a,), bwd)


def sum_rows(a: Tensor) -> Tensor:
    """Row sums of a 2-D tensor: (m, n) -> (m,)."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_rows needs a 2-D tensor, got shape {a.shape}")
    n = a.shape[1]

    def bwd(g):
        d = empty((g.shape[0], n))
        d[:] = g[:, None]
        return (d,)

    return _record(np.sum(a.data, axis=1), (a,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a (f,) bias row to every row of an (m, f) matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias shapes {x.shape} and {b.shape} are incompatible")

    bias_grad = b.requires_grad   # a frozen bias skips the row sum

    def bwd(g):
        return g, np.sum(g, axis=0) if bias_grad else None

    return _record(np.add(x.data, b.data[None, :], out=empty(x.shape)), (x, b), bwd)


def scale_rows(x: Tensor, s) -> Tensor:
    """Scale each row of an (m, f) matrix by the matching entry of an (m,) vector."""
    sv = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
    if x.data.ndim != 2 or sv.ndim != 1 or sv.shape[0] != x.shape[0]:
        raise ShapeError(f"scale_rows shapes {x.shape} and {sv.shape} are incompatible")
    xv = x.data
    kx = xv if isinstance(s, Tensor) and s.requires_grad else None
    ks = sv if x.requires_grad else None

    def bwd(g):
        return (None if ks is None else np.multiply(g, ks[:, None], out=empty(g.shape)),
                None if kx is None else np.sum(np.multiply(g, kx, out=empty(g.shape)), axis=1))

    return _record(np.multiply(xv, sv[:, None], out=empty(xv.shape)), (x, s), bwd)


def embed_rows(table: Tensor, ids) -> Tensor:
    """Row lookup table[ids]; backward scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    rows = table.shape[0]
    if idx.ndim != 1:
        raise ShapeError("embed_rows needs a 1-D id array")
    if np.any(idx < 0) or np.any(idx >= rows):
        raise IndexError(f"embedding id out of range [0, {rows})")

    shape = table.data.shape

    def bwd(g):
        gt = empty(shape)
        gt.fill(0.0)
        np.add.at(gt, idx, g)
        return (gt,)

    # the ids are in range, and mode="clip" lets np.take write into out unbuffered
    return _record(np.take(table.data, idx, axis=0, out=empty((idx.size, *shape[1:])),
                           mode="clip"), (table,), bwd)


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
        return tuple(g[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:]))

    return _record(np.concatenate([p.data for p in parts], axis=1, out=empty((m, sum(widths)))),
                   tuple(parts), bwd)


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
