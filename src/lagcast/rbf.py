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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FitError

MODEL_SCHEMA_VERSION = 1

_KMEANS_MAX_ITER = 100
_KMEANS_REL_TOL = 1e-6
_ROW_BLOCK = 512  # rows per block of _sq_dists' (block, M, d) temporary
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

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        widths = np.asarray(self.widths, dtype=np.float64)
        weights = np.asarray(self.out_weights, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise DataError("centers must be a non-empty (M, d) array")
        m = centers.shape[0]
        if widths.shape != (m,) or weights.shape != (m,):
            raise DataError("widths and out_weights must have one entry per center")
        if not np.all(np.isfinite(centers)):
            raise DataError("centers must be finite")
        if not (np.all(np.isfinite(widths)) and np.all(widths > 0)):
            raise DataError("widths must be finite and strictly positive")
        if not (np.all(np.isfinite(weights)) and np.isfinite(self.bias)):
            raise DataError("out_weights and bias must be finite")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "out_weights", weights)

    @property
    def n_units(self) -> int:
        return int(self.centers.shape[0])

    @property
    def window_d(self) -> int:
        return int(self.centers.shape[1])


@dataclass(frozen=True)
class RbfTrainConfig:
    """Knobs for output-layer training and (optionally) growth.

    target_mse and max_units, the growth settings, come as a pair and only
    matter to grow_until_target.  Every field is checked once here, so
    the training loop does not re-check them per step.
    """

    units: int = 24
    batch_size: int = 32
    epochs: int = 100
    learning_rate: float = 0.01
    seed: int = 0
    target_mse: float | None = None
    max_units: int | None = None

    def __post_init__(self):
        if self.units < 1:
            raise ConfigError(f"units must be >= 1, got {self.units}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.target_mse is not None and not 0.0 < self.target_mse < math.inf:
            raise ConfigError(f"target_mse must be finite and positive, got {self.target_mse}")
        if self.max_units is not None and self.max_units < 1:
            raise ConfigError(f"max_units must be >= 1, got {self.max_units}")
        if (self.target_mse is None) != (self.max_units is None):
            raise ConfigError("growth needs both target_mse and max_units, or neither")


@dataclass(frozen=True)
class TrainTrace:
    """Full-dataset MSE after each epoch, plus how training ended."""

    epoch_mse: np.ndarray
    final_units: int
    stop_reason: str  # "epochs", "target_mse" or "max_units"

    @property
    def epochs_run(self) -> int:
        return int(self.epoch_mse.size)

    @property
    def best_mse(self) -> float:
        return float(np.min(self.epoch_mse))


def _check_inputs(inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise DataError("inputs must be a non-empty (N, d) array")
    if not np.all(np.isfinite(inputs)):
        raise DataError("training data must be finite")
    return inputs


def _check_training_data(inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inputs = _check_inputs(inputs)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (inputs.shape[0],):
        raise DataError("targets must be 1-D with one entry per input row")
    if not np.all(np.isfinite(targets)):
        raise DataError("training data must be finite")
    return inputs, targets


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2), bit for bit.

    Rows of a are taken _ROW_BLOCK at a time through one reused buffer,
    which bounds the temporary at _ROW_BLOCK x M x d.  numpy reduces each
    row's contiguous length-d axis on its own, so blocking changes no bits.
    """
    n = a.shape[0]
    out = np.empty((n, b.shape[0]))
    buf = np.empty((min(n, _ROW_BLOCK),) + b.shape)
    for start in range(0, n, _ROW_BLOCK):
        blk = buf[:min(_ROW_BLOCK, n - start)]
        np.subtract(a[start:start + _ROW_BLOCK, None, :], b, blk)
        np.square(blk, blk)
        blk.sum(axis=2, out=out[start:start + _ROW_BLOCK])
    return out


def _nearest_center(inputs: np.ndarray, x_norm2: np.ndarray,
                    centers: np.ndarray) -> np.ndarray:
    """Per row, np.argmin(_sq_dists(inputs, centers), axis=1), bit for bit.

    x_norm2 holds the squared row norms of inputs.  Rows whose GEMM screen
    cannot prove the argmin are decided by the direct sums.
    """
    n, d = inputs.shape
    if centers.shape[0] == 1:
        return np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    # Overflow and inf - inf only make a gap inf or NaN, and such rows
    # are rechecked.
    with np.errstate(over="ignore", invalid="ignore"):
        c_norm2 = np.sum(centers ** 2, axis=1)
        g = inputs @ (-2.0 * centers).T
        g += x_norm2[:, None]
        g += c_norm2
        assign = np.argmin(g, axis=1)
        best = g[rows, assign]
        g[rows, assign] = np.inf
        gap = g.min(axis=1) - best
        # Why a row that clears the bound is certain (u = eps/2 and
        # s = |x| + max|c|): the screen's squared norms err by at most
        # d*u*|x|^2 and d*u*|c|^2, its dot product by 2*d*u*|x||c| (Higham
        # 2002, sec. 3.1; scaling by -2 is exact), its two additions by
        # u*s^2 each.  The direct sum of d squares of rounded differences
        # errs by at most (d+2)*u*s^2.  So both lie within (d+3)*u*s^2 of
        # the exact |x - c|^2, and where the runner-up exceeds the best by
        # more than 4*(d+3)*u*s^2 = 2*(d+3)*eps*s^2, every other center's
        # direct sum exceeds the best one's: the direct argmin picks the
        # same index.  The factor 8 leaves a 4x margin; `tiny` covers the
        # absolute error of products that underflow.
        finfo = np.finfo(np.float64)
        bound = 8 * (d + 3) * finfo.eps * (
            np.sqrt(x_norm2) + math.sqrt(c_norm2.max())) ** 2 + finfo.tiny
        unsure = np.flatnonzero(~((gap > bound) & (gap < np.inf)))
    if unsure.size:
        assign[unsure] = np.argmin(_sq_dists(inputs[unsure], centers), axis=1)
    return assign


def init_centers(inputs: np.ndarray, m: int, seed: int) -> np.ndarray:
    """k-means centers over the input rows, k-means++ seeded, Lloyd refined.

    Deterministic per seed.  Runs at most 100 Lloyd iterations, stopping
    early once the relative center movement drops below 1e-6.  Each
    iteration assigns a row to the center with the smallest directly
    summed squared distance (the lowest index on ties).  A GEMM screen,
    |x|^2 - 2 x.c + |c|^2, settles every row whose nearest center it can
    prove within a dot-product rounding bound; the other rows are
    rechecked with the direct sums, so the assignments, and the centers,
    are those of the direct computation bit for bit.
    """
    inputs = _check_inputs(inputs)
    n = inputs.shape[0]
    if not (1 <= m <= n):
        raise ConfigError(f"need 1 <= m <= {n} centers, got {m}")
    rng = np.random.default_rng([seed, 0xC3])

    centers = np.empty((m, inputs.shape[1]))
    centers[0] = inputs[rng.integers(n)]
    sq = np.sum((inputs - centers[0]) ** 2, axis=1)
    for j in range(1, m):
        total = float(sq.sum())
        if total <= 0.0:
            # all remaining mass sits on already-chosen points
            centers[j] = inputs[rng.integers(n)]
        else:
            centers[j] = inputs[np.searchsorted(np.cumsum(sq / total), rng.random())]
        sq = np.minimum(sq, np.sum((inputs - centers[j]) ** 2, axis=1))

    with np.errstate(over="ignore"):  # an overflowed norm sends its row to the recheck
        x_norm2 = np.sum(inputs ** 2, axis=1)
    for _ in range(_KMEANS_MAX_ITER):
        assign = _nearest_center(inputs, x_norm2, centers)
        # bincount adds each cluster's rows in row order, so sum / count
        # has the same bits as the mean of the cluster's member rows
        counts = np.bincount(assign, minlength=m)
        new_centers = np.column_stack([
            np.bincount(assign, weights=inputs[:, k], minlength=m)
            for k in range(inputs.shape[1])
        ])
        filled = counts > 0
        new_centers[filled] /= counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            # revive each empty cluster, in index order, at the worst-fit
            # points not already taken
            worst = np.argsort(np.sum((inputs - centers[assign]) ** 2, axis=1))[::-1]
            new_centers[empty] = inputs[worst[:empty.size]]
        shift = float(np.linalg.norm(new_centers - centers))
        scale = float(np.linalg.norm(centers)) + 1e-12
        centers = new_centers
        if shift / scale < _KMEANS_REL_TOL:
            break
    return centers


def set_widths(centers: np.ndarray, scale: float) -> np.ndarray:
    """Width per center: mean distance to its 2 nearest peers (1 if M = 2).

    With a single center, or where duplicate centers make the mean
    distance zero, the width falls back to scale (the training pipelines
    pass the spread of the inputs), floored at 1e-6.  Widths are never
    zero or NaN.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise DataError("centers must be a non-empty (M, d) array")
    m = centers.shape[0]
    if m == 1:
        widths = np.zeros(1)
    else:
        dist = np.sqrt(np.maximum(_sq_dists(centers, centers), 0.0))
        np.fill_diagonal(dist, np.inf)
        nearest = np.sort(dist, axis=1)[:, :min(2, m - 1)]
        widths = nearest.mean(axis=1)
    return np.where(widths > 0, widths, max(_MIN_WIDTH, float(scale)))


def _activation_matrix(centers: np.ndarray, widths: np.ndarray,
                       inputs: np.ndarray) -> np.ndarray:
    sq = _sq_dists(inputs, centers)
    return np.exp(-sq / (2.0 * widths[None, :] ** 2))


def batch_forward(net: RbfNetwork, inputs: np.ndarray) -> np.ndarray:
    """Network output for each row of an (N, d) array.

    Each output is the weighted hidden activations plus the bias; a
    single window is forecast as a (1, d) array.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
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
    the gradient and each epoch's shuffled rows are float64 arrays
    allocated once and updated in place; every product and sum is the
    one an out-of-place reference computes, so results match it bit for
    bit (tests/test_rbf.py).  The weight gradient doubles the error
    vector rather than the activations: doubling is exact, so each
    product is the same real number rounded once, unless |err| exceeds
    half the largest double, where the epoch check fails the run anyway.
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
    lr = np.array(config.learning_rate)

    phi = _activation_matrix(net.centers, net.widths, inputs)
    params = np.zeros(m + 1)
    accum = np.zeros(m + 1)
    grad = np.empty(m + 1)
    # views: they follow the in-place updates
    w, bias, grad_w = params[:m], params[m, ...], grad[:m]
    rng = np.random.default_rng([config.seed, 0xB7])

    best_params = params.copy()
    best_mse = np.inf
    history = np.empty(config.epochs)
    phi_e, t_e = np.empty_like(phi), np.empty_like(targets)
    # the batches' views into the epoch buffers, made once
    batches = [(phi_e[s:s + bs], phi_e[s:s + bs].T, t_e[s:s + bs])
               for s in range(0, n, bs)]
    # Overflow and inf - inf only make the epoch loss non-finite, which
    # the check below reports; numpy's own warnings would just precede it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            # mode="raise" would gather into a temporary; a permutation
            # never clips
            np.take(phi, order, axis=0, out=phi_e, mode="clip")
            np.take(targets, order, out=t_e, mode="clip")
            for phi_b, phi_bt, t_b in batches:
                err = np.dot(phi_b, w)
                err += bias
                err -= t_b
                size = err.size
                grad[m] = 2.0 * (np.add.reduce(err) / size)
                err *= 2.0  # the bits of (2 phi_b.T) @ err: see the docstring
                np.dot(phi_bt, err, out=grad_w)
                grad_w /= size
                rmsprop_step(params, accum, grad, lr)
            mse = float(np.mean((phi @ w + bias - targets) ** 2))
            if not np.isfinite(mse):
                raise FitError(
                    f"training loss became non-finite at epoch {epoch + 1}; "
                    "lower the learning rate"
                )
            history[epoch] = mse
            if mse < best_mse:
                best_mse = mse
                best_params = params.copy()

    net = replace(net, out_weights=best_params[:m], bias=float(best_params[m]))
    return net, TrainTrace(epoch_mse=history, final_units=m, stop_reason="epochs")


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
    The trace concatenates every round's epoch history and names the
    stop condition that fired.  A config without growth settings (which
    RbfTrainConfig only allows as a pair) is a ConfigError.
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

    return net, TrainTrace(epoch_mse=np.concatenate(history),
                           final_units=net.n_units, stop_reason=reason)


def to_json(net: RbfNetwork) -> str:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "d": net.window_d,
        "centers": [[float(v) for v in row] for row in net.centers],
        "widths": [float(v) for v in net.widths],
        "out_weights": [float(v) for v in net.out_weights],
        "bias": float(net.bias),
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> RbfNetwork:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise DataError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    for key in ("d", "centers", "widths", "out_weights", "bias"):
        if key not in doc:
            raise DataError(f"model document missing field {key!r}")
    try:
        d = int(doc["d"])
        centers = np.array(doc["centers"], dtype=np.float64)
        widths = np.array(doc["widths"], dtype=np.float64)
        out_weights = np.array(doc["out_weights"], dtype=np.float64)
        bias = float(doc["bias"])
    except (ValueError, TypeError) as exc:
        raise DataError(f"model document has a malformed field: {exc}") from exc
    if centers.ndim != 2 or centers.shape[1] != d:
        raise DataError("centers shape does not match the declared window size")
    return RbfNetwork(centers=centers, widths=widths, out_weights=out_weights, bias=bias)


def save(net: RbfNetwork, path: str | Path):
    Path(path).write_text(to_json(net))


def load(path: str | Path) -> RbfNetwork:
    return from_json(Path(path).read_text())
