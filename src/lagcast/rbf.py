"""Gaussian radial basis function network for one-step forecasting.

The hidden layer is fixed after construction: centers come from k-means
over the training windows, widths from nearest-neighbor distances among
the centers.  Only the linear output layer (weights and bias) is
trained, by mini-batch RMSprop on mean squared error.  That keeps the
training problem convex, so the learned layer can be audited against
the closed-form least-squares optimum.

An optional growth mode starts small and inserts hidden units at the
worst-predicted training window until a target MSE or a unit budget is
reached.

Every squared distance has the bits of numpy's own row sum,
np.sum((x - c) ** 2), whichever way _sq_dists computes it.  k-means
(init_centers) keeps per-row distance bounds and re-screens only the
rows whose bounds, widened by each iteration's center moves and a
rounding margin, no longer prove their nearest center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
# imported here, not on first use inside a timed fit: numpy loads
# numpy.random lazily, and the import would count as RBFNN execution time
from numpy.random import default_rng

from .data import float_array, int_value, keeping, read_model_document, read_text, take_numbers, \
    write_model_document
from .errors import ConfigError, DataError, FitError

_KMEANS_MAX_ITER = 100
_KMEANS_REL_TOL = 1e-6
# rows per block: of _sq_dists' broadcast (block, M, d) temporary, and of
# train's gathers of shuffled activations (rounded down to whole batches)
_ROW_BLOCK = 512
# where _sq_dists' column-wise kernel takes over from the broadcast form,
# and its block.  Measured on 16k rows at d 8: 8.4 against 20.8 ms with
# 36 centers, 0.16 against 0.58 ms with one.  For d <= 24 the two cross
# between 300 and 1200 elements; above d 24 the kernel gains less with 36
# centers and loses with one (d 32: 1.6 against 1.1 ms).
_COLUMN_MIN_ELEMS = 1024
_COLUMN_MAX_D = 24
_COLUMN_BLOCK = 8192
# init_centers screens rows in blocks of at most this many screen values
# (rows * M, 512 KiB), so its peak memory does not grow with N * M
_SCREEN_BLOCK = 1 << 16
_MIN_WIDTH = 1e-6
_GROW_START_UNITS = 4
_RMSPROP_RHO = 0.9  # the usual RMSprop decay and zero-division guard
_RMSPROP_EPS = 1e-8
# rho, 1 - rho and eps as 0-d arrays: numpy converts a Python float
# operand on every ufunc call, a fair share of a step on short vectors
_STEP_CONSTANTS = tuple(np.array(v) for v in (_RMSPROP_RHO, 1.0 - _RMSPROP_RHO, _RMSPROP_EPS))


@dataclass(frozen=True)
class RbfNetwork:
    centers: np.ndarray      # (M, d)
    widths: np.ndarray       # (M,)
    out_weights: np.ndarray  # (M,)
    bias: float

    _NUMBERS = {"centers": (float_array, "centers", 2), "widths": (float_array, "widths", 1),
                "out_weights": (float_array, "out_weights", 1), "bias": (float_array, "bias", 0)}

    def __post_init__(self):
        take_numbers(self)
        m = self.centers.shape[0]
        if self.widths.shape != (m,) or self.out_weights.shape != (m,):
            raise DataError("widths and out_weights must have one entry per center")
        if not np.all(self.widths > 0):
            raise DataError("widths must be strictly positive")

    @property
    def n_units(self) -> int:
        return int(self.centers.shape[0])

    @property
    def window_d(self) -> int:
        return int(self.centers.shape[1])


@dataclass(frozen=True)
class RbfTrainConfig:
    """Knobs for output-layer training and (optionally) growth.

    The defaults are the paper's RBFNN settings: 36 units, batch 109,
    60 epochs and learning rate 0.000264.  target_mse and max_units, the
    growth settings, come as a pair and only matter to grow_until_target,
    which starts at min(4, N, max_units) units and ignores `units`.  Every
    field is checked once here and kept as a plain int or float, so the
    training loop does not re-check them per step.
    """

    units: int = 36
    batch_size: int = 109
    epochs: int = 60
    learning_rate: float = 0.000264
    seed: int = 0
    target_mse: float | None = None
    max_units: int | None = None

    _NUMBERS = {"units": (int_value, "units", 1), "batch_size": (int_value, "batch_size", 1),
                "epochs": (int_value, "epochs", 1), "seed": (int_value, "seed", 0),
                "max_units": (keeping(int_value, type(None)), "max_units", 1),
                "learning_rate": (float_array, "learning_rate", 0),
                "target_mse": (keeping(float_array, type(None)), "target_mse", 0)}

    def __post_init__(self):
        take_numbers(self, ConfigError)
        for name in ("learning_rate", "target_mse"):
            if (value := getattr(self, name)) is not None and value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if (self.target_mse is None) != (self.max_units is None):
            raise ConfigError("growth needs both target_mse and max_units, or neither")


@dataclass(frozen=True)
class TrainTrace:
    """Full-dataset MSE after each epoch, plus how training ended."""

    epoch_mse: np.ndarray
    final_units: int
    stop_reason: str  # "epochs", "target_mse" or "max_units"
    best_mse: float  # the returned network's training MSE

    @property
    def epochs_run(self) -> int:
        return int(self.epoch_mse.size)


def _check_training_data(inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inputs = float_array(inputs, "training inputs", ndim=2)
    targets = float_array(targets, "training targets", ndim=1)
    if targets.shape != inputs.shape[:1]:
        raise DataError("training targets must have one entry per input row")
    return inputs, targets


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2), bit for bit.

    numpy sums each row's contiguous length-d axis on its own, in the
    order of its pairwise sum: for d < 8 a running sum; for 8 <= d <= 128
    eight strided accumulators, r_j holding the squares j, j + 8,
    j + 16, ... of the whole multiples of 8, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the d % 8
    tail added one by one; above 128 it recurses.

    From _COLUMN_MIN_ELEMS output elements (n * M) up, and for d at most
    _COLUMN_MAX_D, the kernel makes those same sums column by column: per
    block of _COLUMN_BLOCK output elements, one subtraction and one
    squaring fill d planes of (rows, M) squares, and whole-plane additions
    combine them in that order.  That spends no per-output loop overhead,
    the broadcast form's cost on short rows.  Otherwise rows of a are
    broadcast against b _ROW_BLOCK at a time through one reused buffer,
    which bounds the temporary at _ROW_BLOCK x M x d; blocking changes no
    bits.  In k-means, rows whose distance bounds prove their nearest
    center skip both the screen and these sums (see init_centers).
    """
    n, d = a.shape
    m = b.shape[0]
    out = np.empty((n, m))
    if n * m < _COLUMN_MIN_ELEMS or d > _COLUMN_MAX_D:
        buf = np.empty((min(n, _ROW_BLOCK),) + b.shape)
        for start in range(0, n, _ROW_BLOCK):
            blk = buf[:min(_ROW_BLOCK, n - start)]
            np.subtract(a[start:start + _ROW_BLOCK, None, :], b, blk)
            np.square(blk, blk)
            blk.sum(axis=2, out=out[start:start + _ROW_BLOCK])
        return out
    rows = max(1, _COLUMN_BLOCK // m)
    buf = np.empty((d, min(n, rows), m))
    b_cols = b.T[:, None, :]
    body = d - d % 8 if d >= 8 else 1  # the planes summed before the running tail
    for start in range(0, n, rows):
        sq = buf[:, :min(rows, n - start)]
        np.subtract(a[start:start + rows].T[:, :, None], b_cols, sq)
        np.square(sq, sq)
        if d >= 8:
            for j in range(8, body, 8):
                sq[:8] += sq[j:j + 8]
            for step in (1, 2, 4):  # the pairwise tree over r0..r7
                sq[:8:2 * step] += sq[step:8:2 * step]
        for j in range(body, d):
            sq[0] += sq[j]
        out[start:start + rows] = sq[0]
    return out


def _nearest_center(inputs: np.ndarray, x_norm2: np.ndarray,
                    centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, np.argmin(_sq_dists(inputs, centers), axis=1), bit for bit,
    and bounds on the exact distances behind it.

    x_norm2 holds the squared row norms of inputs; it sizes the rounding
    bound and the bounds.  Rows whose GEMM screen cannot prove the argmin
    are decided by the direct sums.  Returns (assign, upper, lower): per
    row, upper is at least the exact distance to its assigned center and
    lower at most the exact distance to every other center; a row the
    screen could not prove gets (inf, 0), bounds that prove nothing.
    """
    n, d = inputs.shape
    if centers.shape[0] == 1:
        return np.zeros(n, dtype=np.intp), np.full(n, np.inf), np.full(n, np.inf)
    rows = np.arange(n)
    # Overflow and inf - inf only make a gap or a bound inf or NaN, and
    # such rows are rechecked.
    with np.errstate(over="ignore", invalid="ignore"):
        c_norm2 = np.sum(centers ** 2, axis=1)
        # |c|^2 - 2 x.c is |x - c|^2 - |x|^2, and |x|^2 is the same for
        # every center of a row, so it would cancel in the argmin and the gap
        g = inputs @ (-2.0 * centers).T
        g += c_norm2
        assign = np.argmin(g, axis=1)
        best = g[rows, assign]
        g[rows, assign] = np.inf
        # the runner-up: g.min(axis=1)'s value, NaN included, but argmin
        # is the faster pass over short rows
        runner = g[rows, np.argmin(g, axis=1)]
        # Why a row that clears the bound is certain (u = eps/2 and
        # s = |x| + max|c|): the screen's squared center norm errs by at
        # most d*u*|c|^2, its dot product by 2*d*u*|x||c| (Higham 2002,
        # sec. 3.1; scaling by -2 is exact), together at most d*u*s^2, and
        # its one addition by u*s^2.  So each screen value lies within
        # (d+1)*u*s^2 of the exact |x - c|^2 - |x|^2.  The direct sum of d
        # squares of rounded differences errs by at most (d+2)*u*s^2 from
        # the exact |x - c|^2.  Comparing two centers, |x|^2 cancels, so
        # where the runner-up exceeds the best by more than
        # 2*((d+1) + (d+2))*u*s^2 = (2d+3)*eps*s^2 <= 2*(d+3)*eps*s^2,
        # every other center's direct sum exceeds the best one's: the
        # direct argmin picks the same index.  The factor 8 leaves a margin
        # of 4x over that, which also absorbs the rounding of the gap's own
        # subtraction; `tiny` covers the absolute error of products that
        # underflow.
        finfo = np.finfo(np.float64)
        bound = 8 * (d + 3) * finfo.eps * (
            np.sqrt(x_norm2) + math.sqrt(c_norm2.max())) ** 2 + finfo.tiny
        gap = runner - best
        sure = (gap > bound) & (gap < np.inf)
        # The bounds: x_norm2, d squares summed, errs by at most d*u*s^2,
        # so the exact |x - c|^2 lies within (2d+1)*u*s^2 of the screen
        # value plus x_norm2, and the two additions below err by at most
        # about 4*u*s^2 more (every term is at most s^2 in size).  bound,
        # 16*(d+3)*u*s^2, exceeds that sum by more than 50*u*s^2 >=
        # 50*u*|x - c|^2, so the squares below bound the exact ones with a
        # relative 50*u to spare, which the square roots' rounding (u/2)
        # cannot undo.
        upper = np.sqrt(best + x_norm2 + bound)
        lower = np.sqrt(np.maximum(runner + x_norm2 - bound, 0.0))
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        assign[unsure] = np.argmin(_sq_dists(inputs[unsure], centers), axis=1)
        upper[unsure] = np.inf
        lower[unsure] = 0.0
    return assign, upper, lower


def init_centers(inputs: np.ndarray, m: int, seed: int) -> np.ndarray:
    """k-means centers over the input rows, k-means++ seeded, Lloyd refined.

    Deterministic per seed.  Runs at most 100 Lloyd iterations, stopping
    early once the relative center movement drops below 1e-6.  Each
    iteration assigns a row to the center with the smallest directly
    summed squared distance (the lowest index on ties), computed only
    where it can have changed.  Each row keeps an upper bound on its
    exact distance to its assigned center and a lower bound on its
    distance to every other one (Hamerly 2010).  The bounds come from a
    GEMM screen, |c|^2 - 2 x.c, which settles every row whose nearest
    center it can prove within a dot-product rounding bound; the other
    rows are rechecked with the direct sums.  Each iteration widens a
    row's bounds by how far the centers moved, and a row goes back
    through the screen only when its lower bound no longer clears its
    upper one by the margin below.  So the assignments, and the centers,
    are those of the direct computation bit for bit.  The seeding's
    distances and the rechecks go through _sq_dists, which keeps numpy's
    bits too.
    """
    inputs = float_array(inputs, "training inputs", ndim=2)
    n, d = inputs.shape
    if (m := int_value(m, "m", 1)) > n:
        raise ConfigError(f"need 1 <= m <= {n} centers, got {m}")
    rng = default_rng([int_value(seed, "seed", 0), 0xC3])

    centers = np.empty((m, d))
    centers[0] = inputs[rng.integers(n)]
    sq = _sq_dists(inputs, centers[:1])[:, 0]
    for j in range(1, m):
        total = float(sq.sum())
        if total <= 0.0:
            # all remaining mass sits on already-chosen points
            centers[j] = inputs[rng.integers(n)]
        else:
            centers[j] = inputs[np.searchsorted(np.cumsum(sq / total), rng.random())]
        sq = np.minimum(sq, _sq_dists(inputs, centers[j:j + 1])[:, 0])

    # Skip rule.  With U >= the exact distance to the assigned center a
    # and L <= the exact distance to every other center j, the direct sums
    # D of d squares of rounded differences, all terms nonnegative, lie
    # within a relative (d+2)*u of the exact squares (u = eps/2), give or
    # take d*u*tiny from squares that underflow.  So D_a < D_j, and the
    # direct argmin is a, once L^2*(1 - (d+2)*u) > U^2*(1 + (d+2)*u) +
    # 2*d*u*tiny.  The test L > U*(1 + (d+3)*eps) + sqrt(tiny) implies
    # that: squared, its factor is 1 + 4*(d+3)*u against the
    # 1 + 2*(d+2)*u + O(u^2) needed, which leaves room for the rounding of
    # its own product and sum, and sqrt(tiny)^2 = tiny > 2*d*u*tiny.  An
    # upper bound from 2^510 up could let D_a overflow and tie with an
    # overflowed D_j, so it proves nothing; nor does a NaN or inf one,
    # since every comparison with NaN, and inf > inf, is false.
    eps = np.finfo(np.float64).eps
    slack = 1.0 + (d + 3) * eps
    sqrt_tiny = math.sqrt(np.finfo(np.float64).tiny)
    columns = np.ascontiguousarray(inputs.T)  # bincount reads contiguous weights
    with np.errstate(over="ignore"):  # an overflowed norm sends its row to the recheck
        x_norm2 = np.sum(inputs ** 2, axis=1)
    screen_rows = max(1, _SCREEN_BLOCK // m)
    assign = np.zeros(n, dtype=np.intp)
    upper, lower = np.full(n, np.inf), np.zeros(n)  # unproved: the first pass screens every row
    for _ in range(_KMEANS_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore"):
            proved = (lower > upper * slack + sqrt_tiny) & (upper < 2.0 ** 510)
        redo = np.flatnonzero(~proved)
        for start in range(0, redo.size, screen_rows):
            rows = redo[start:start + screen_rows]
            assign[rows], upper[rows], lower[rows] = _nearest_center(
                inputs[rows], x_norm2[rows], centers)
        # bincount adds each cluster's rows in row order, so sum / count
        # has the same bits as the mean of the cluster's member rows
        counts = np.bincount(assign, minlength=m)
        new_centers = np.column_stack([
            np.bincount(assign, weights=column, minlength=m) for column in columns])
        filled = counts > 0
        new_centers[filled] /= counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            # revive each empty cluster, in index order, at the worst-fit
            # points not already taken
            worst = np.argsort(np.sum((inputs - centers[assign]) ** 2, axis=1))[::-1]
            new_centers[empty] = inputs[worst[:empty.size]]
        moves = new_centers - centers
        shift = float(np.linalg.norm(moves))
        scale = float(np.linalg.norm(centers)) + 1e-12
        centers = new_centers
        if shift / scale < _KMEANS_REL_TOL:
            break
        # Each center's move, as an upper bound on the exact one: the
        # rounded differences, squares, sum and root fall short of it by
        # at most a relative (d+2)*u; the factor covers that and the
        # rounding of its own product and sum, sqrt(tiny) the squares that
        # underflow.  The triangle inequality then moves the bounds.  Each
        # rounded sum is off by at most a relative u, and the factors
        # 1 +- 2*eps = 1 +- 4*u, rounded too, push it past that outward, so
        # the bounds stay bounds (a negative lower bound still is one).
        with np.errstate(over="ignore", invalid="ignore"):
            moved = np.sqrt(np.sum(moves ** 2, axis=1)) * slack + sqrt_tiny
            upper += moved[assign]
            upper *= 1.0 + 2.0 * eps
            lower -= moved.max()
            lower *= 1.0 - 2.0 * eps
    return centers


def set_widths(centers: np.ndarray, scale: float) -> np.ndarray:
    """Width per center: mean distance to its 2 nearest peers (1 if M = 2).

    With a single center, or where duplicate centers make the mean
    distance zero, the width falls back to scale (the training pipelines
    pass the spread of the inputs), floored at 1e-6.  Non-finite centers
    or scale are a DataError, so widths are never zero or NaN; a center
    whose nearest peers lie more than about 1.3e154 away gets an infinite
    one.
    """
    centers = float_array(centers, "centers", ndim=2)
    scale = float_array(scale, "scale", ndim=0)
    m = centers.shape[0]
    if m == 1:
        widths = np.zeros(1)
    else:
        dist = np.sqrt(_sq_dists(centers, centers))
        np.fill_diagonal(dist, np.inf)
        nearest = np.sort(dist, axis=1)[:, :min(2, m - 1)]
        widths = nearest.mean(axis=1)
    return np.where(widths > 0, widths, max(_MIN_WIDTH, scale))


def _activation_matrix(centers: np.ndarray, widths: np.ndarray,
                       inputs: np.ndarray) -> np.ndarray:
    """np.exp(-_sq_dists(inputs, centers) / (2.0 * widths[None, :] ** 2)),
    bit for bit, computed in place in the distance array."""
    phi = _sq_dists(inputs, centers)
    np.negative(phi, out=phi)
    phi /= 2.0 * widths ** 2
    return np.exp(phi, out=phi)


def batch_forward(net: RbfNetwork, inputs: np.ndarray) -> np.ndarray:
    """Network output for each row of an (N, d) array.

    Each output is the weighted hidden activations plus the bias; a
    single window is forecast as a (1, d) array.
    """
    inputs = np.atleast_2d(float_array(inputs, "inputs"))
    if inputs.shape[1] != net.window_d:
        raise DataError(f"expected windows of {net.window_d} values, got {inputs.shape[1]}")
    return _activation_matrix(net.centers, net.widths, inputs) @ net.out_weights + net.bias


def loss_gradient(net: RbfNetwork, inputs: np.ndarray,
                  targets: np.ndarray) -> tuple[float, np.ndarray]:
    """MSE and its gradient w.r.t. (out_weights, bias), analytically.

    The gradient layout matches the parameter vector used in training:
    M weight entries followed by the bias entry.
    """
    inputs, targets = _check_training_data(inputs, targets)
    phi = _activation_matrix(net.centers, net.widths, inputs)
    err = phi @ net.out_weights + net.bias - targets
    n = targets.size
    grad = np.concatenate([2.0 * phi.T @ err / n, [2.0 * float(err.mean())]])
    return float(np.mean(err**2)), grad


def rmsprop_step(params: np.ndarray, accum: np.ndarray, grads: np.ndarray,
                 learning_rate: float):
    """One RMSprop update (Tieleman & Hinton, 2012), in place on params and accum.

    accum <- rho * accum + (1 - rho) * g^2
    params <- params - lr * g / (sqrt(accum) + eps)

    rho and eps are the module's _RMSPROP_RHO and _RMSPROP_EPS; train
    passes a learning rate checked once by RbfTrainConfig, as a 0-d
    array for the reason _STEP_CONSTANTS gives.  The gradient is not
    checked here: a NaN or infinite entry makes its parameter NaN
    (lr * inf / inf is NaN), and train's epoch-loss check reports that.
    """
    rho, gain, eps = _STEP_CONSTANTS
    sq = np.square(grads)
    sq *= gain
    accum *= rho
    accum += sq
    den = np.sqrt(accum)
    den += eps
    np.multiply(grads, learning_rate, out=sq)
    sq /= den
    params -= sq


def train(inputs: np.ndarray, targets: np.ndarray, centers: np.ndarray,
          widths: np.ndarray, config: RbfTrainConfig) -> tuple[RbfNetwork, TrainTrace]:
    """Fit the output layer by mini-batch RMSprop, centers and widths frozen.

    Batches are drawn by reshuffling the rows each epoch with the
    config seed, so a (data, config) pair always trains the same way.
    The parameters (M weights, then the bias), the RMSprop accumulator,
    the gradient, a block of each epoch's shuffled rows, each step's error
    and each epoch's residuals are float64 arrays allocated once and
    updated in place; every product and sum is the one an out-of-place reference
    computes, so results match it bit for bit (tests/test_rbf.py).  The
    weight gradient doubles the error vector rather than the activations:
    doubling is exact, so each product is the same real number rounded
    once, unless |err| exceeds half the largest double, where the epoch
    check fails the run anyway.
    After each epoch the MSE over the whole dataset is recorded; the
    returned network carries the parameters of the best epoch seen
    (earliest on ties), not necessarily the last.  That epoch check is
    the one owner of non-finite detection: a NaN or infinite gradient
    leaves a NaN parameter (see rmsprop_step), so the loss of the same
    epoch is non-finite and training stops with a FitError.
    """
    inputs, targets = _check_training_data(inputs, targets)
    # RbfNetwork checks the hidden layer before any epoch runs
    net = RbfNetwork(centers=centers, widths=widths,
                     out_weights=np.zeros_like(widths, dtype=np.float64), bias=0.0)
    if net.window_d != inputs.shape[1]:
        raise DataError("centers must be (M, d) with d matching the inputs")
    m = net.n_units
    n = inputs.shape[0]
    bs = config.batch_size
    lr = float_array(config.learning_rate, "learning_rate")

    phi = _activation_matrix(net.centers, net.widths, inputs)
    params = np.zeros(m + 1)
    accum = np.zeros(m + 1)
    grad = np.empty(m + 1)
    # views: they follow the in-place updates
    w, bias, grad_w = params[:m], params[m, ...], grad[:m]
    rng = default_rng([config.seed, 0xB7])

    best_params = params.copy()
    best_mse = np.inf
    history = []  # grows with the epochs run, not the epochs asked for
    resid = np.empty_like(targets)
    # Each epoch's shuffled rows are gathered a block of whole batches at a
    # time into one reused buffer, small enough to stay in cache while its
    # batches run; the blocks' and batches' views are made once.
    per = max(1, _ROW_BLOCK // bs) * bs
    phi_buf, t_buf = np.empty((min(per, n), m)), np.empty(min(per, n))
    err_buf = np.empty(min(bs, n))
    blocks = []
    for start in range(0, n, per):
        rows = min(per, n - start)
        phi_k, t_k = phi_buf[:rows], t_buf[:rows]
        blocks.append((slice(start, start + rows), phi_k, t_k, [
            (phi_k[s:s + bs], phi_k[s:s + bs].T, t_k[s:s + bs], err_buf[:min(bs, rows - s)])
            for s in range(0, rows, bs)]))
    # Overflow and inf - inf only make the epoch loss non-finite, which
    # the check below reports; numpy's own warnings would just precede it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            for span, phi_k, t_k, batches in blocks:
                # mode="raise" would gather into a temporary; a permutation
                # never clips
                np.take(phi, order[span], axis=0, out=phi_k, mode="clip")
                np.take(targets, order[span], out=t_k, mode="clip")
                for phi_b, phi_bt, t_b, err in batches:
                    np.dot(phi_b, w, out=err)
                    err += bias
                    err -= t_b
                    size = err.size
                    # the mean, then doubled: doubling a subnormal sum first
                    # would round differently
                    grad[m] = 2.0 * (np.add.reduce(err) / size)
                    err *= 2.0  # the bits of (2 phi_b.T) @ err: see the docstring
                    np.dot(phi_bt, err, out=grad_w)
                    grad_w /= size
                    rmsprop_step(params, accum, grad, lr)
            np.matmul(phi, w, out=resid)
            resid += bias
            resid -= targets
            mse = float(np.mean(np.square(resid, out=resid)))
            if not np.isfinite(mse):
                raise FitError(
                    f"training loss became non-finite at epoch {epoch + 1}; "
                    "lower the learning rate"
                )
            history.append(mse)
            if mse < best_mse:
                best_mse = mse
                best_params[...] = params

    net = replace(net, out_weights=best_params[:m], bias=best_params[m])
    return net, TrainTrace(epoch_mse=np.array(history), final_units=m,
                           stop_reason="epochs", best_mse=best_mse)


def _input_scale(inputs: np.ndarray) -> float:
    spread = float(inputs.max() - inputs.min())
    return spread if spread > 0 else 1.0


def fit_fixed(inputs: np.ndarray, targets: np.ndarray,
              config: RbfTrainConfig) -> tuple[RbfNetwork, TrainTrace]:
    """The standard pipeline: k-means centers, neighbor widths, train."""
    inputs, targets = _check_training_data(inputs, targets)
    m = min(config.units, inputs.shape[0])
    centers = init_centers(inputs, m, seed=config.seed)
    widths = set_widths(centers, _input_scale(inputs))
    return train(inputs, targets, centers, widths, config)


def grow_until_target(inputs: np.ndarray, targets: np.ndarray,
                      config: RbfTrainConfig) -> tuple[RbfNetwork, TrainTrace]:
    """Insert hidden units at the worst training window until good enough.

    Starts from min(4, N, max_units) k-means centers.  Each round
    recomputes widths, retrains the output layer from scratch, and
    checks the best epoch MSE against target_mse.  While above target
    and under max_units, a new center is placed on the training window
    with the largest absolute residual (lowest row index on ties).
    The trace concatenates every round's epochs, keeps the last round's
    best_mse and names the stop condition that fired.  A config without growth
    settings (RbfTrainConfig only allows them as a pair) is a ConfigError.
    """
    if config.target_mse is None:
        raise ConfigError("grow_until_target requires target_mse and max_units")
    inputs, targets = _check_training_data(inputs, targets)
    n = inputs.shape[0]
    m = min(_GROW_START_UNITS, n, config.max_units)
    centers = init_centers(inputs, m, seed=config.seed)
    scale = _input_scale(inputs)

    history: list[np.ndarray] = []
    while True:
        widths = set_widths(centers, scale)
        net, trace = train(inputs, targets, centers, widths, config)
        history.append(trace.epoch_mse)
        if trace.best_mse <= config.target_mse:
            reason = "target_mse"
            break
        if centers.shape[0] >= min(config.max_units, n):
            reason = "max_units"
            break
        residuals = np.abs(batch_forward(net, inputs) - targets)
        centers = np.vstack([centers, inputs[int(np.argmax(residuals))]])

    return net, TrainTrace(epoch_mse=np.concatenate(history), final_units=net.n_units,
                           stop_reason=reason, best_mse=trace.best_mse)


def to_json(net: RbfNetwork) -> str:
    return write_model_document({"d": net.window_d, "centers": net.centers, "widths": net.widths,
                                 "out_weights": net.out_weights, "bias": net.bias})


def from_document(fields: dict) -> RbfNetwork:
    """The network of an RBF document's fields, as read_model_document returns them."""
    net = RbfNetwork(fields["centers"], fields["widths"], fields["out_weights"], fields["bias"])
    if int_value(fields["d"], "model d", 1, DataError) != net.window_d:
        raise DataError("centers shape does not match the declared window size")
    return net


def from_json(text: str) -> RbfNetwork:
    return from_document(read_model_document(text)[1])


def save(net: RbfNetwork, path: str | Path):
    Path(path).write_text(to_json(net), encoding="utf-8")


def load(path: str | Path) -> RbfNetwork:
    return from_json(read_text(path))
