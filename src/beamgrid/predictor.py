"""Per-pixel beam scores: oracle, geometric baseline, and a small trainable
linear-softmax classifier over encoded transmitter inputs.

A prediction is one (n, C) array of scores, a row per valid pixel in
row-major order, with the codebook dims and its kind: "joint" (Na*Ne*Nr
columns, one score per beam), "sep" (Na+Ne+Nr columns holding the three
per-axis heads) or "ir" (3 columns, a regressed index triple).
score_columns states the column count of each kind, and flat_ranking,
the package's only ranking code, turns a prediction into beam orders,
which metrics.evaluate_ranking scores. targets, the package's only target
code, builds the training targets of a stack of beam power tensors.

The classifier is a deliberate desk-scale stand-in for a convolutional
model: it sees only per-pixel features (transmitter one-hot/distance/
bearing encodings plus local heights), so it has no spatial context. A
convolutional model would take the (rows, cols, F) feature grid of
build_features and emit a score grid whose valid rows are the prediction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .channel import TWO_PI, beamspace_angles, gain_profiles, \
    global_to_array_frame, sector_index
from .errors import EmptyTrainingSetError, NumericError

FEATURE_VERSION = 1
FEATURE_NAMES = (
    "tx_onehot", "tx_distance", "tx_bearing_sin", "tx_bearing_cos",
    "building_height", "vegetation_height", "relative_height",
    "boresight_bearing_sin", "boresight_bearing_cos",
)

LOSS_KINDS = ("CE", "CEP", "WS", "IR", "GR")

# Rows whose per-epoch loss terms are computed together: LOSS_BLOCK_VALUES //
# C rows of C scores. A block's temporaries (2**16 float64 values, 512 KB
# each) stay in a 2 MB L2 cache, where those of a whole 6,850 x 128 score
# matrix (7 MB each) do not. Training four models on a 12-scene 64x64
# corpus took 6.8 s with this size, 7.8 s with 2**14 and 13 s with 2**12.
LOSS_BLOCK_VALUES = 1 << 16


def build_features(hm, tx):
    """Encode the transmitter and local geometry per pixel: a (rows, cols, F)
    grid of the FEATURE_NAMES channels, each normalised into [-1, 1].

    Distance is the straight-line 2D pixel distance in metres over the map
    diagonal; bearings are sin/cos of the transmitter-to-pixel azimuth
    (east = 0, counter-clockwise), absolute and relative to the boresight.
    A tx pixel off the grid raises ValueError.
    """
    res = hm.resolution_m
    rows, cols = hm.rows, hm.cols
    tr, tc = tx.pixel
    if not (0 <= tr < rows and 0 <= tc < cols):
        raise ValueError(f"tx pixel {list(tx.pixel)} is off the {rows}x{cols} grid")
    yy, xx = np.mgrid[0:rows, 0:cols]
    de = (xx - tc) * res          # east offset
    dn = -(yy - tr) * res         # north offset
    dist = np.hypot(de, dn)
    diag = math.hypot(rows * res, cols * res)
    bearing = np.arctan2(dn, de)
    rel_bearing = bearing - tx.frame.boresight_azimuth
    h_scale = max(1.0, float(hm.building.max()), float(hm.vegetation.max()))
    rel_scale = max(1.0, tx.height_m, float(hm.building.max()))
    onehot = np.zeros((rows, cols))
    onehot[tr, tc] = 1.0
    return np.stack([
        onehot,
        dist / diag,
        np.sin(bearing),
        np.cos(bearing),
        hm.building / h_scale,
        hm.vegetation / h_scale,
        (tx.height_m - hm.building) / rel_scale,
        np.sin(rel_bearing),
        np.cos(rel_bearing),
    ], axis=-1)


def oracle_predictor(rows):
    """Ground-truth scores of the samples' (n, B) float64 beam power rows:
    the powers in dB (zero powers rank last)."""
    return 10.0 * np.log10(rows + 1e-30)


def geometric_predictor(hm, tx, codebook, rx_height_m):
    """Line-of-sight baseline: joint logits of the beams at the direct-path
    direction, a (rows, cols, Na*Ne*Nr) grid.

    Pure geometry; ignores blockage entirely, so predictions exist for
    every pixel and are invariant to building heights.
    """
    res = hm.resolution_m
    rows, cols = hm.rows, hm.cols
    tr, tc = tx.pixel
    yy, xx = np.mgrid[0:rows, 0:cols]
    de = (xx + 0.5 - (tc + 0.5)) * res
    dn = -(yy + 0.5 - (tr + 0.5)) * res
    dz = rx_height_m - tx.height_m
    az = np.arctan2(dn, de)
    el = np.arctan2(dz, np.hypot(de, dn))
    phi, theta = global_to_array_frame(az.ravel(), el.ravel(), tx.frame)
    bs = beamspace_angles(phi, theta)
    g_az, g_el = gain_profiles(bs.varphi, bs.vartheta, codebook)
    reverse = (az.ravel() + math.pi) % TWO_PI
    sectors = sector_index(reverse, codebook.nr)
    sec_score = np.zeros((rows * cols, codebook.nr))
    sec_score[np.arange(rows * cols), sectors] = 1.0
    tiny = 1e-300
    logits = (np.log(g_az + tiny)[:, :, None, None]
              + np.log(g_el + tiny)[:, None, :, None]
              + np.log(sec_score + tiny)[:, None, None, :])
    return logits.reshape(rows, cols, -1)


@dataclass
class LossConfig:
    """The `loss` config section, which the model holds: the loss family,
    factorised per-axis heads (sep) or one joint head, and the dB floor of
    the CEP and GR targets. kind is upper-cased and must be one of
    LOSS_KINDS; IR is always sep; floor_db must be below the 0 dB peak."""

    kind: str = "CE"
    sep: bool = False
    floor_db: float = -30.0

    def __post_init__(self):
        self.kind = self.kind.upper()
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of "
                             f"{', '.join(LOSS_KINDS)}")
        if self.kind == "IR":
            self.sep = True
        if not self.floor_db < 0.0:
            raise ValueError(f"floor_db must be below the 0 dB peak, got {self.floor_db!r}")


@dataclass
class SoftmaxModel:
    """Linear model x -> W^T x + b over the feature vector."""

    weights: np.ndarray  # (F, C)
    bias: np.ndarray     # (C,)
    dims: tuple
    loss: LossConfig
    seed: int = 0

    @property
    def kind(self):
        return _prediction_kind(self.loss)

    @classmethod
    def create(cls, feature_dim, dims, loss=None, seed=0):
        """Zero weights for the loss's output layout; loss None is LossConfig()."""
        loss = loss or LossConfig()
        c = score_columns(dims)[_prediction_kind(loss)]
        return cls(weights=np.zeros((feature_dim, c)), bias=np.zeros(c),
                   dims=tuple(dims), loss=loss, seed=seed)


def _prediction_kind(loss):
    """"ir" for the IR loss, else "sep" or "joint" by the loss's heads."""
    if loss.kind == "IR":
        return "ir"
    return "sep" if loss.sep else "joint"


def score_columns(dims):
    """The score columns of a prediction of each kind under the codebook
    dims (Na, Ne, Nr), in the order joint, sep, ir."""
    na, ne, nr = dims
    return {"joint": na * ne * nr, "sep": na + ne + nr, "ir": 3}


def predict(model, x):
    """Scores x @ W + b of the (n, F) feature rows, one row of C each.

    Each row has the bits it has in a product over more rows, such as the
    whole feature grid (_row_scores): a lone row is scored after a copy of
    itself.
    """
    if x.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match model {model.weights.shape[0]}")
    if len(x) == 1:
        return _row_scores(np.repeat(x, 2, axis=0), model.weights, model.bias, 1, 2)
    return _row_scores(x, model.weights, model.bias, 0, len(x))


def flat_ranking(scores, dims, kind):
    """Full beam order of each row of a (n, C) prediction of the given kind,
    shape (n, Na*Ne*Nr), as flat beam indices, best first.

    joint ranks the beams by descending score; sep by the descending sum of
    their three head scores; ir by the ascending squared Euclidean distance
    of their index triples to the regressed triple. A stable sort keeps
    tied beams in flat index order.
    """
    na, ne, nr = dims
    b = na * ne * nr
    if kind == "joint":
        key = -scores
    elif kind == "sep":
        za = scores[:, :na]
        ze = scores[:, na:na + ne]
        zr = scores[:, na + ne:]
        # product-distribution ranking: per-head log-probabilities differ
        # from raw head scores by a per-head constant, so summing scores
        # ranks identically
        key = -(za[:, :, None, None] + ze[:, None, :, None]
                + zr[:, None, None, :]).reshape(-1, b)
    elif kind == "ir":
        lattice = np.stack(np.unravel_index(np.arange(b), dims), axis=1)
        key = ((lattice - scores[:, None, :]) ** 2).sum(axis=-1)
    else:
        raise ValueError(f"unknown prediction kind {kind!r}")
    return np.argsort(key, axis=-1, kind="stable")


MIN_LR_FACTOR = 1e-3  # train stops once the rate decays below lr * this


@dataclass
class TrainConfig:
    """The `train` config section; seed seeds the model and the scene split."""

    lr: float = 0.3
    epochs: int = 150
    batch: int = 128
    lr_decay: float = 0.5
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 1 or self.batch < 1:
            raise ValueError("hyper-parameters must be positive")
        if not 0 < self.lr_decay <= 1 or self.patience < 1:
            raise ValueError("invalid decay/patience")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def targets(model, tensors):
    """Training targets of the samples, one row each, from their beam power
    tensors (a (n, Na*Ne*Nr) or (n, Na, Ne, Nr) array). Each row depends on
    its own sample alone, so the targets of a concatenation are the
    concatenation of the targets; no samples give no rows.

    CE, WS: the strongest beam's index (sep: its index triple; IR: as
    floats). GR: the powers in dB relative to the peak, floored at floor_db
    (sep: the floored dB of the power marginals of each beam axis). CEP:
    those dB shifted by -floor_db and normalised to sum 1 (sep: marginals).
    """
    t = np.asarray(tensors, dtype=np.float64).reshape(-1, *model.dims)
    # the beam count, not -1, which is ambiguous for no samples
    rows = t.reshape(len(t), math.prod(model.dims))
    kind, sep, floor_db = model.loss.kind, model.loss.sep, model.loss.floor_db
    if kind in ("CE", "WS", "IR"):
        idx = np.argmax(rows, axis=1)
        if not sep:
            return idx
        triples = np.stack(np.unravel_index(idx, model.dims), axis=1)
        return triples.astype(np.float64) if kind == "IR" else triples
    if kind == "GR" and sep:
        return np.concatenate([losses._floored_db(m, floor_db) for m in losses._marginals(t)],
                              axis=1)
    db = losses._floored_db(rows, floor_db)
    if kind == "GR":
        return db
    db -= floor_db
    db /= db.sum(axis=1, keepdims=True)
    return np.concatenate(losses._marginals(db.reshape(t.shape)), axis=1) if sep else db


@functools.lru_cache(maxsize=None)
def _heads(dims, kind, sep):
    """(score columns, target columns, WS ground distances or None) per head.

    A joint model has one softmax head over all beams and a sep model one
    per beam axis, whose |i - j| distances are those of a codebook with one
    beam on the other axes. IR and GR are one MSE head over all columns.
    `...` takes the whole target array: a vector of beam indices for joint
    CE and WS.
    """
    if kind in ("IR", "GR") or not sep:
        layout = [(slice(None), ..., dims)]
    else:
        starts = (0, dims[0], dims[0] + dims[1])
        layout = [(slice(s, s + m), slice(s, s + m) if kind == "CEP" else axis, (m, 1, 1))
                  for axis, (s, m) in enumerate(zip(starts, dims))]
    heads = []
    for cols, tcols, head_dims in layout:
        dist = None
        if kind == "WS":
            dist = losses.beam_distance_matrix(head_dims)
            dist.setflags(write=False)  # cached, so shared by every call
        heads.append((cols, tcols, dist))
    return tuple(heads)


def _head_terms(kind, zh, th, dist):
    """Per-sample loss terms of one head, each row on its own: the loss of
    the sample, negated for CE and CEP.

    Computed in place in zh, a view of the score block that _epoch_loss has
    made for this call. The steps of losses.softmax are written out:
    _epoch_loss runs this on a worker thread, which must call no public
    package function.
    """
    if kind in ("IR", "GR"):
        zh -= th
        zh *= zh
        return zh.mean(axis=1)
    zh -= zh.max(axis=1, keepdims=True)
    if kind == "CEP":
        zh -= np.log(np.exp(zh).sum(axis=1, keepdims=True))
        zh *= th
        return zh.sum(axis=1)
    if kind == "CE":
        picked = zh[np.arange(len(zh)), th]
        return picked - np.log(np.exp(zh, out=zh).sum(axis=1))
    np.exp(zh, out=zh)
    zh /= zh.sum(axis=1, keepdims=True)
    # dist is bitwise symmetric, so its rows are the columns picked
    zh *= dist[th]
    return zh.sum(axis=1)


def _row_scores(x, w, b, start, stop):
    """Scores x[start:stop] @ w + b, with the bits of these rows in one
    product over all of x. BLAS rounds a row of a one-row product
    differently from the same row of a larger product, so a lone row after
    the first is scored together with the row before it."""
    lo = min(start, max(stop - 2, 0))
    z = x[lo:stop] @ w
    z += b
    return z[start - lo:]


def _epoch_loss(model, x, w, b, targets):
    """Mean loss of the scores x @ w + b: per head, the arithmetic mean of
    the per-sample losses (_head_terms), summed over the heads.

    The scores are computed in blocks of LOSS_BLOCK_VALUES // C rows, with
    the bits of one pass over the whole score matrix (_row_scores). BLAS
    also rounds the rows of a one-column product by their place in it, so a
    one-column model is one block. Overflow and invalid values pass
    silently, under an error state of its own: train runs it on a worker
    thread, which does not inherit the caller's.
    """
    n, c = len(x), w.shape[1]
    heads = _heads(model.dims, model.loss.kind, model.loss.sep)
    terms = np.empty((len(heads), n))
    rows = max(2, LOSS_BLOCK_VALUES // c) if c > 1 else max(n, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            z = _row_scores(x, w, b, start, stop)
            for h, (cols, tcols, dist) in enumerate(heads):
                terms[h, start:stop] = _head_terms(model.loss.kind, z[:, cols],
                                                   targets[start:stop, tcols], dist)
        negated = model.loss.kind in ("CE", "CEP")
        parts = [-t.mean() if negated else t.mean() for t in terms]
        # one head is kept as is: 0.0 + -0.0 would flip the sign of a zero loss
        loss = sum(parts) if len(parts) > 1 else parts[0]
    # NumPy scalar for CE-sep and CEP-sep: stagebench/reference.json pins the
    # CEP-sep history text "np.float64(...)"
    return loss if model.loss.sep and negated else float(loss)


def _batch_grad(model, z, targets):
    """Gradient of the mean loss of the score matrix z (_epoch_loss) with
    respect to z."""
    n = z.shape[0]
    kind = model.loss.kind
    grad = np.empty_like(z)
    for cols, tcols, dist in _heads(model.dims, kind, model.loss.sep):
        zh, th = z[:, cols], targets[:, tcols]
        if kind in ("IR", "GR"):
            diff = zh - th
            diff *= 2.0
            np.divide(diff, diff.shape[1] * n, out=grad[:, cols])
            continue
        p = losses.softmax(zh, axis=1)
        if kind == "WS":
            d = dist[th]
            d -= (p * d).sum(axis=1)[:, None]
            p *= d
        elif kind == "CE":
            p[np.arange(n), th] -= 1.0
        else:
            p -= th
        np.divide(p, n, out=grad[:, cols])
    return grad


def train(model, x_train, t_train, hyper=None, x_val=None, t_val=None):
    """Mini-batch gradient descent on the features x_train and their
    targets t_train (targets(model, tensors)); returns (trained model,
    history rows).

    History rows are (epoch, train_loss, val_loss, lr). The learning rate is
    multiplied by lr_decay whenever the validation loss has not improved for
    `patience` consecutive epochs; training stops early once the rate falls
    below lr * MIN_LR_FACTOR. The returned model carries the weights of the
    best validation epoch. Deterministic given the model seed. Steps and
    losses run with overflow and invalid-value warnings off: an epoch
    whose validation loss they make infinite or NaN never wins, and when
    no epoch's is finite, train raises NumericError.

    The train loss, which only the history reads, is scored on a copy of
    each epoch's weights by a worker thread while the next epoch runs.
    NumPy releases the GIL only inside its array loops, so the worker also
    slows the next epoch's steps, which wait for the GIL it holds.
    """
    # imported here: at module level it, with logging, would add ~10 ms to
    # every CLI stage
    from concurrent.futures import ThreadPoolExecutor

    hyper = hyper or TrainConfig()
    x_train = np.asarray(x_train, dtype=np.float64)
    if x_train.shape[0] == 0:
        raise EmptyTrainingSetError("no valid pixels to train on")
    has_val = x_val is not None and len(x_val) > 0
    if has_val:
        x_val = np.asarray(x_val, dtype=np.float64)

    rng = np.random.default_rng(model.seed)
    w = model.weights.copy()
    b = model.bias.copy()
    lr = hyper.lr
    best = (math.inf, w.copy(), b.copy())
    since_improve = 0
    epochs = []  # (epoch, future of the train loss, val loss, lr)

    n = x_train.shape[0]
    with np.errstate(over="ignore", invalid="ignore"), \
            ThreadPoolExecutor(max_workers=1) as pool:
        for epoch in range(hyper.epochs):
            order = rng.permutation(n)
            for start in range(0, n, hyper.batch):
                idx = order[start:start + hyper.batch]
                xb = x_train[idx]
                gz = _batch_grad(model, xb @ w + b, t_train[idx])
                if lr > 0.0:
                    w -= lr * (xb.T @ gz)
                    b -= lr * gz.sum(axis=0)
            # the next epoch updates w and b in place; the worker and the
            # best state read this copy. _batch_grad has cached the head
            # layout, so the worker calls no public package function.
            wc, bc = w.copy(), b.copy()
            train_loss = pool.submit(_epoch_loss, model, x_train, wc, bc, t_train)
            val_loss = (_epoch_loss(model, x_val, wc, bc, t_val) if has_val
                        else train_loss.result())
            if epochs:
                # the previous epoch's train loss: one loss waits at most,
                # and an error in the worker is raised an epoch late at most
                epochs[-1][1].result()
            epochs.append((epoch, train_loss, val_loss, lr))
            if val_loss < best[0]:
                best = (val_loss, wc, bc)
                since_improve = 0
            else:
                since_improve += 1
                if since_improve >= hyper.patience:
                    lr *= hyper.lr_decay
                    since_improve = 0
                    if lr < hyper.lr * MIN_LR_FACTOR:
                        break
    history = [(epoch, loss.result(), val, rate) for epoch, loss, val, rate in epochs]
    if not math.isfinite(best[0]):
        raise NumericError("no epoch gave a finite validation loss")
    trained = replace(model, weights=best[1], bias=best[2])
    return trained, history
