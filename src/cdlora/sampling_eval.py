"""Few-step sampling, the many-step baseline sampler, and distribution
distances used to score generated samples against data."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cdlora.denoiser import ConsistencyHead, DenoiserNet, consistency_forward
from cdlora.rng import substream
from cdlora.schedule import NoiseSchedule, add_noise, recover_x0
from cdlora.solvers import cfg_target, guidance_scales


class SamplingError(ValueError):
    """Invalid step schedule or metric input."""


@dataclass(frozen=True)
class StepSchedule:
    """Descending inference timestep indices; sampling starts at tau_S = N."""

    indices: tuple

    def __post_init__(self):
        idx = self.indices
        if len(idx) < 1:
            raise SamplingError("step schedule needs at least one timestep")
        if any(idx[i] <= idx[i + 1] for i in range(len(idx) - 1)):
            raise SamplingError(f"step schedule must be strictly descending, got {idx}")
        if idx[-1] < 1:
            raise SamplingError("step schedule indices must stay >= 1")

    @property
    def S(self) -> int:
        return len(self.indices)

    @classmethod
    def evenly_spaced(cls, S: int, N: int) -> "StepSchedule":
        """tau_i = round(i * N / S): spacing N/S anchored at tau_S = N.

        The bottom index stays above the boundary timestep so every
        evaluation of the consistency function does real work.
        """
        taus = [int(round(i * N / S)) for i in range(S, 0, -1)]
        if len(set(taus)) != len(taus):
            raise SamplingError(f"S={S} steps collide on an N={N} grid")
        return cls(tuple(taus))


def lcm_multistep_sample(
    net: DenoiserNet,
    head: ConsistencyHead,
    sched: NoiseSchedule,
    steps: StepSchedule,
    omega,
    cond,
    count: int,
    seed: int,
    adapter=None,
    f_fn=None,
) -> np.ndarray:
    """Few-step consistency sampling with fresh-noise re-injection.

    Start from z ~ N(0, I) at tau_S; at each stage map to x0 with the
    consistency function, then re-noise to the next (lower) timestep. The
    final x0 batch is the sample set. f_fn(z, tau) -> x0 substitutes for the
    network-backed consistency function (validation against exact transports).
    """
    guidance_scales(omega, count)  # a NaN, Inf or negative scale fails before any draw
    if steps.indices[0] != sched.N:
        raise SamplingError(
            f"step schedule must start at N={sched.N}, got {steps.indices[0]}"
        )
    data_dim = net.data_dim if net is not None else np.asarray(f_fn(np.zeros((1, 2)), sched.N)).shape[1]
    stream = substream(seed, "sample/lcm")
    z = stream.normal((count, data_dim))
    cond_arr = np.broadcast_to(np.asarray(cond, dtype=np.int64), (count,))
    for i, tau in enumerate(steps.indices):
        if f_fn is not None:
            x0 = np.asarray(f_fn(z, tau), dtype=np.float64)
        else:
            x0 = consistency_forward(net, head, sched, z, omega, cond_arr, tau, adapter=adapter).data
        if i + 1 < steps.S:
            tau_next = steps.indices[i + 1]
            fresh = stream.normal((count, data_dim))
            z = add_noise(x0, tau_next, fresh, sched)
    return x0


def ddim_sample(
    net: DenoiserNet,
    sched: NoiseSchedule,
    S: int,
    omega,
    cond,
    count: int,
    seed: int,
    adapter=None,
) -> np.ndarray:
    """Many-step guided baseline: compose solver targets from noise down to t_1.

    The grid is linspace(1, N, S + 1) rounded, repeats dropped, so S may not exceed N;
    at S = N two points round to one index and the run takes N - 1 jumps, as S = N - 1
    does. The returned batch is the guided x0 extraction at the final timestep.
    """
    if not 1 <= S <= sched.N:
        raise SamplingError(f"DDIM steps {S} outside [1, N={sched.N}], the schedule's grid")
    omega_arr = guidance_scales(omega, count)
    grid = np.unique(np.linspace(1, sched.N, S + 1).round().astype(int))[::-1]
    stream = substream(seed, "sample/ddim")
    z = stream.normal((count, net.data_dim))
    cond_arr = np.broadcast_to(np.asarray(cond, dtype=np.int64), (count,))

    def eps_fn(x, t, cond_ids):
        return net.forward(x, 0.0, cond_ids, t, adapter=adapter).data

    for hi, lo in zip(grid[:-1], grid[1:]):
        z = cfg_target(z, int(hi), int(lo), cond_arr, net.null_id, omega, eps_fn, sched)
    n_last = int(grid[-1])
    t_last = sched.t_of(n_last)
    if np.any(omega_arr > 0.0):
        # both branches in one pass of 2 * count rows, as in cfg_target
        ids = np.concatenate([cond_arr, np.full(count, net.null_id, dtype=np.int64)])
        eps = eps_fn(np.concatenate([z, z]), t_last, ids)
        eps_c, eps_u = eps[:count], eps[count:]
        eps_c = eps_c + omega_arr[:, None] * (eps_c - eps_u)
    else:
        eps_c = eps_fn(z, t_last, cond_arr)
    return recover_x0(z, n_last, eps_c, sched)


# ---------------------------------------------------------------------------
# metrics

# float64 entries per squared-distance block of mmd2 (512 KB, so a block and
# its product buffer stay in a core's L2 cache): the median's passes take as
# many whole rows as fit, and the kernel sums' leaves are this long
BLOCK_ENTRIES = 2 ** 16
# most pair values the median gathers for its final partition (8 MB); a
# fuller middle bucket of the radix select is first narrowed by the next 16 bits
MEDIAN_CAP = 2 ** 20
# pairs drawn to place the median's window (512 KB of values) up to about
# 4,000 rows a side, and the pairs drawn at a time beyond that
MEDIAN_DRAWS = 2 ** 16


class _SqDists:
    """Squared distances from row blocks of a to b, built into two buffers
    that every block reuses (fresh arrays of a block's size page-fault).

    One formula, aa_i + bb_j - 2 a_i.b_j clipped at 0, with the product from
    BLAS; a one-row block is widened to two rows, because numpy hands a
    one-row product to gemv, which rounds differently from gemm.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, max_rows: int):
        self.a, self.b = a, b
        self.aa = np.sum(a * a, axis=1)
        self.bb = np.sum(b * b, axis=1)
        self.d = np.empty(max_rows * len(b))
        self.ab = np.empty_like(self.d)

    def rows(self, r0: int, r1: int, c0: int = 0) -> np.ndarray:
        """(r1 - r0, len(b) - c0) block of rows r0:r1 and columns c0: of b."""
        if r1 - r0 == 1 and len(self.a) > 1:
            lo = min(r0, len(self.a) - 2)
            return self.rows(lo, lo + 2, c0)[r0 - lo:r1 - lo]
        shape = (r1 - r0, len(self.b) - c0)
        d = self.d[:shape[0] * shape[1]].reshape(shape)
        ab = self.ab[:d.size].reshape(shape)
        np.add.outer(self.aa[r0:r1], self.bb[c0:], out=d)
        np.matmul(self.a[r0:r1], self.b[c0:].T, out=ab)
        ab *= 2.0
        d -= ab
        np.maximum(d, 0.0, out=d)
        return d


def _finite_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1] or len(x) + len(y) < 2:
        raise SamplingError(
            f"samples must be 2-D with the same number of columns and at least two rows "
            f"in all, got shapes {x.shape} and {y.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SamplingError("samples must be finite, got NaN or Inf")
    return x, y


def _pair_blocks(x: np.ndarray, y: np.ndarray):
    """The pooled sample's distinct pairs as blocks of squared distances:
    all of x-y, then the upper triangles of x-x and y-y. A triangle's row
    block starts at its first row's column and comes as two parts, the
    strict upper triangle of its leading square and the columns right of
    that square; the triangle's index is built once per block height. Each
    block is overwritten by the next. The triangle flag goes by position,
    not identity: for x is y the x-y pass is still the whole square
    block."""
    for a, b, triangle in ((x, y, False), (x, x, True), (y, y, True)):
        step = max(BLOCK_ENTRIES // max(len(b), 1), 2)
        dists = _SqDists(a, b, step)
        height = min(step, len(a))
        upper = np.triu_indices(height, 1) if triangle else None
        for r0 in range(0, len(a), step):
            r1 = min(r0 + step, len(a))
            if triangle:
                if r1 - r0 != height:  # the last, shorter block
                    height = r1 - r0
                    upper = np.triu_indices(height, 1)
                d = dists.rows(r0, r1, r0)
                yield d[upper]
                yield d[:, height:]
            else:
                yield dists.rows(r0, r1)


def _pattern_value(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _middle(pairs: np.ndarray, ranks: np.ndarray) -> float:
    """Mean of the values at ranks (one or two adjacent) of pairs, which is
    partitioned in place."""
    pairs.partition(ranks)
    mid = pairs[ranks]
    return float((mid[0] + mid[-1]) / 2.0)


def _median_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Median squared distance over the distinct pairs of the pooled sample.

    The pairs are the whole x-y block plus the upper triangles of the x-x and
    y-y blocks, the same multiset as the pooled matrix's upper triangle. One
    sweep over them counts the pairs under a window of values that likely
    holds the middle ranks (_median_window) and gathers the pairs inside it;
    if the middle ranks are among the gathered pairs, a partition of those
    gives the exact median. A window that misses them or overflows its room
    sends the call to the exact radix select (_radix_median_sq), which costs
    two or more sweeps. Either way the result is the np.median of the pooled
    pairs.

    The sweep rebuilds the distances in blocks of BLOCK_ENTRIES (a block has
    at least two rows, so past 32,768 columns it holds two rows instead) and
    gathers at most MEDIAN_CAP values: memory grows only linearly with the
    sample count, O(m + n), never with m * n.
    """
    m, n = len(x), len(y)
    total = m * n + (m * (m - 1) + n * (n - 1)) // 2
    k = total // 2
    ranks = np.array([k - 1, k] if total % 2 == 0 else [k])
    window = _median_window(x, y, total)
    if window is not None:
        lo_sq, hi_sq, room = window
        pairs = np.empty(room)
        below, filled = 0, 0
        for seg in _pair_blocks(x, y):
            under = seg < lo_sq
            below += np.count_nonzero(under)
            seg = seg[(seg <= hi_sq) ^ under]
            if filled + len(seg) > room:  # the window overflows
                break
            pairs[filled:filled + len(seg)] = seg
            filled += len(seg)
        else:
            if below <= ranks[0] and ranks[-1] < below + filled:
                return _middle(pairs[:filled], ranks - below)
    return _radix_median_sq(x, y, ranks)


def _median_window(x: np.ndarray, y: np.ndarray, total: int):
    """(lo, hi, room): a range of squared distances that holds the middle of
    the total pooled pairs with high probability, and the number of pairs the
    sweep may gather from it; None when no such range fits in MEDIAN_CAP.

    With at most MEDIAN_DRAWS pairs the range is everything. Otherwise it
    spans 4 standard deviations of rank, 2 sqrt(draws), either side of the
    middle of draws pairs drawn uniformly from the pooled sample's distinct
    pairs; drawn, not strided, so that no order of the rows (samples laid out
    by condition, say) can bias it. Its room is twice the pairs it is
    expected to hold, 8 total / sqrt(draws). Up to about 4,000 rows a side
    draws is MEDIAN_DRAWS (room total / 32); past that it grows as the square
    of the pooled pair count, so that the room stays within MEDIAN_CAP
    (302,500 draws at 6,000 a side), until past about 8,000 rows a side the
    draws themselves would pass MEDIAN_CAP. The pairs are drawn MEDIAN_DRAWS
    at a time, so the draws' temporaries stay the size of one chunk.
    """
    if total <= MEDIAN_DRAWS:
        return (-math.inf, math.inf, total) if total <= MEDIAN_CAP else None
    if 8 * total > MEDIAN_CAP * math.isqrt(MEDIAN_CAP):
        return None   # even MEDIAN_CAP draws would leave more than MEDIAN_CAP of room
    # the fewest draws, a square of at least MEDIAN_DRAWS, whose room fits
    side = max(math.isqrt(MEDIAN_DRAWS), -(-8 * total // MEDIAN_CAP))
    draws, half = side * side, 2 * side
    room = -(-8 * total // side)
    pooled = np.concatenate([x, y])
    stream = substream(0, "median-window")
    chunks = []
    for start in range(0, draws, MEDIAN_DRAWS):
        count = min(MEDIAN_DRAWS, draws - start)
        i = stream.integers(count, 0, len(pooled) - 1)
        j = (i + stream.integers(count, 1, len(pooled) - 1)) % len(pooled)
        diff = np.take(pooled, i, axis=0) - np.take(pooled, j, axis=0)
        chunks.append(np.einsum("ij,ij->i", diff, diff))
    # one chunk (up to 4,000 a side) is used as drawn: copying it into a
    # buffer for all draws raised mmd2's minor page faults per call at 2,000
    # a side from about 950 to 1,380
    sq = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    edges = [draws // 2 - half, draws // 2 + half]
    sq.partition(edges)
    return float(sq[edges[0]]), float(sq[edges[1]]), room


def _radix_median_sq(x: np.ndarray, y: np.ndarray, ranks: np.ndarray) -> float:
    """The mean of the pooled pairs at ranks (the middle one or two), by an
    exact radix select on their float64 bit patterns (a non-negative double
    orders like its int64 pattern). A first pass counts the pairs by their
    top 16 bits. While the bucket that holds the middle ranks has more than
    MEDIAN_CAP pairs, another pass counts that bucket's pairs by their next
    16 bits. A last pass gathers the bucket's pairs and partitions them. Two
    shortcuts end early: a bucket of one bit pattern is the answer, and
    middle ranks in two buckets are the largest pair at or under the lower
    bucket's top and the smallest pair over it."""
    lo, below = 0, 0  # the bucket's lowest bit pattern, and the pairs under it
    for shift in (48, 32, 16, 0):
        if shift < 48:  # narrowing: count only the pairs inside the bucket
            lo_v, hi_v = _pattern_value(lo), _pattern_value(lo + (1 << (shift + 16)) - 1)
        counts = np.zeros(1 << 16, dtype=np.int64)
        for seg in _pair_blocks(x, y):
            if shift < 48:
                seg = seg[(seg >= lo_v) & (seg <= hi_v)]
            found = np.bincount(((seg.view(np.int64) - lo) >> shift).ravel())
            counts[:len(found)] += found
        cum = np.cumsum(counts)
        lower, upper = np.searchsorted(cum, ranks - below, side="right")[[0, -1]]
        if lower != upper:
            # ranks k - 1 and k straddle two buckets: exactly k pairs lie at
            # or under the lower bucket's top pattern
            top = _pattern_value(lo + ((int(lower) + 1) << shift) - 1)
            lo_sq, hi_sq = -np.inf, np.inf
            for seg in _pair_blocks(x, y):
                under = seg <= top
                if under.any():
                    lo_sq = max(lo_sq, seg[under].max())
                if not under.all():
                    hi_sq = min(hi_sq, seg[~under].min())
            return float((lo_sq + hi_sq) / 2.0)
        below += int(cum[lower] - counts[lower])
        lo += int(lower) << shift
        if shift == 0 or counts[lower] <= MEDIAN_CAP:
            break
    if shift == 0:  # one bit pattern holds every middle rank
        return _pattern_value(lo)
    lo_v, hi_v = _pattern_value(lo), _pattern_value(lo + (1 << shift) - 1)
    pairs = np.empty(int(counts[lower]))
    filled = 0
    for seg in _pair_blocks(x, y):
        seg = seg[(seg >= lo_v) & (seg <= hi_v)]
        pairs[filled:filled + len(seg)] = seg
        filled += len(seg)
    return _middle(pairs, ranks - below)


def _kernel_sums(a: np.ndarray, b: np.ndarray, inv: float) -> tuple[float, float]:
    """(k.sum(), np.trace(k)) of the RBF kernel k = exp(inv * d) over the
    squared distances d of a to b, without holding k.

    numpy sums a contiguous array pairwise: a range of more than 128 entries
    splits at n2 = n // 2 - (n // 2) % 8 and the halves' sums are added. The
    recursion (_pairwise_sum) follows the same split over k's flat indices
    down to leaves of at most BLOCK_ENTRIES entries; each leaf builds the
    rows it spans, exponentiates them in place and hands np.sum its flat
    slice, which continues the same recursion (BLOCK_ENTRIES is above
    numpy's 128, so no range numpy sums in one piece is split). The trace
    gathers k's diagonal into a vector for one np.sum, the order of
    np.trace's strided sum. Nothing here refers to itself, so the blocks are
    freed on return, not left for the cyclic garbage collector.
    """
    n = len(b)
    dists = _SqDists(a, b, -(-BLOCK_ENTRIES // n) + 1)
    diag = np.empty(min(len(a), n))

    def leaf(start: int, stop: int) -> float:
        r0, r1 = start // n, -(-stop // n)
        k = dists.rows(r0, r1)
        k *= inv
        np.exp(k, out=k)
        rows = np.arange(r0, min(r1, len(diag)))
        rows = rows[(rows * (n + 1) >= start) & (rows * (n + 1) < stop)]
        diag[rows] = k[rows - r0, rows]
        return np.sum(k.ravel()[start - r0 * n:stop - r0 * n])

    return float(_pairwise_sum(leaf, 0, len(a) * n)), float(np.sum(diag))


def _pairwise_sum(leaf, start: int, count: int) -> float:
    """leaf(start, stop) summed over [start, start + count) in numpy's
    pairwise order, with leaves of at most BLOCK_ENTRIES entries."""
    if count <= BLOCK_ENTRIES:
        return leaf(start, start + count)
    half = count // 2 - (count // 2) % 8
    return _pairwise_sum(leaf, start, half) + _pairwise_sum(leaf, start + half, count - half)


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample."""
    x, y = _finite_samples(x, y)
    return float(np.sqrt(_median_sq(x, y)))


def mmd2(x: np.ndarray, y: np.ndarray, bandwidth="median") -> float:
    """Unbiased squared maximum mean discrepancy with an RBF kernel.

    For equal sample counts the paired U-statistic is used (the cross term
    drops matched pairs too), so identical sample sets score exactly zero;
    for unequal counts the standard unbiased estimator applies. Bandwidth is
    the median heuristic unless a fixed value is given: the median distance
    over the distinct pairs of the pooled sample (_median_sq), found in one
    sweep of the pairs unless its window misses. Samples that are not 2-D
    with equal column counts, or that are NaN or Inf, raise SamplingError,
    as does a bandwidth that is not finite and positive or whose
    -0.5 / bandwidth**2 is not finite.

    No m x n matrix is built: the median and the kernel sums rebuild the
    distances in blocks of BLOCK_ENTRIES, so the tracemalloc peak is about
    4 MB at 2,000 per side and grows only linearly, O(m + n), with the
    sample counts (at most MEDIAN_CAP values, a few blocks of at least two
    rows, and the per-row norms and diagonal), and all of it is freed when
    mmd2 returns. The sums add in numpy's own pairwise order, so the result
    is the float the whole-matrix build (kernel.sum() - np.trace(kernel) per
    block) gives, as long as BLAS rounds a block's products like the whole
    matrix's; README "Reproducibility" has the one known exception.
    """
    x, y = _finite_samples(x, y)
    m, n = len(x), len(y)
    if m < 2 or n < 2:
        raise SamplingError("mmd2 needs at least 2 samples per side")
    bw = float(np.sqrt(_median_sq(x, y))) if bandwidth == "median" else float(bandwidth)
    if not 0.0 < bw < math.inf:
        raise SamplingError(f"bandwidth must be finite and positive, got {bw}")
    if bw * bw == 0.0 or not math.isfinite(-0.5 / (bw * bw)):
        raise SamplingError(f"bandwidth {bw} is too small: -0.5 / bandwidth**2 is not finite")
    inv = -0.5 / (bw * bw)
    sum_xx, trace_xx = _kernel_sums(x, x, inv)
    sum_yy, trace_yy = _kernel_sums(y, y, inv)
    sum_xy, trace_xy = _kernel_sums(x, y, inv)
    term_x = (sum_xx - trace_xx) / (m * (m - 1))
    term_y = (sum_yy - trace_yy) / (n * (n - 1))
    if m == n:
        cross = (sum_xy - trace_xy) / (m * (m - 1))
    else:
        cross = sum_xy / (m * n)
    return float(term_x + term_y - 2.0 * cross)


def moments_error(samples: np.ndarray, mean, cov) -> tuple[float, float]:
    """(L2 mean error, Frobenius covariance error) with unbiased covariance."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or len(samples) < 2:
        raise SamplingError("moments_error needs at least 2 samples")
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    mu_hat = samples.mean(axis=0)
    centered = samples - mu_hat
    cov_hat = centered.T @ centered / (len(samples) - 1)
    return float(np.linalg.norm(mu_hat - mean)), float(np.linalg.norm(cov_hat - cov, "fro"))


# ---------------------------------------------------------------------------
# sample dumps


def write_samples(path, samples: np.ndarray, cond: np.ndarray, sidecar: dict) -> None:
    """CSV with one row per sample plus a JSON sidecar of run settings."""
    path = Path(path)
    dim = samples.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dim)] + ["condition"])
        for row, c in zip(samples, cond):
            writer.writerow([repr(float(v)) for v in row] + [int(c)])
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty: no header row")
        dim = len(header) - 1
        xs, cs = [], []
        for row in reader:
            xs.append([float(v) for v in row[:dim]])
            cs.append(int(row[dim]))
    return np.asarray(xs, dtype=np.float64), np.asarray(cs, dtype=np.int64)
