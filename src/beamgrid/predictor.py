"""Per-pixel beam probability maps: oracle, geometric baseline, and a small
trainable linear-softmax classifier over encoded transmitter inputs.

The classifier is a deliberate desk-scale stand-in for a convolutional
model: it sees only per-pixel features (transmitter one-hot/distance/
bearing encodings plus local heights), so it has no spatial context, but it
exposes the same FeatureMaps -> PredictionMap boundary a convolutional
model would plug into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .channel import TWO_PI, beamspace_angles, gain_profiles, \
    global_to_array_frame, sector_index
from .errors import EmptyTrainingSetError
from .metrics import ranking_from_scores

FEATURE_VERSION = 1
FEATURE_NAMES = (
    "tx_onehot", "tx_distance", "tx_bearing_sin", "tx_bearing_cos",
    "building_height", "vegetation_height", "relative_height",
    "boresight_bearing_sin", "boresight_bearing_cos",
)

LOSS_KINDS = ("CE", "CEP", "WS", "IR", "GR")


@dataclass
class FeatureMaps:
    """Per-pixel feature grid, all channels normalised into [-1, 1]."""

    values: np.ndarray  # (rows, cols, F)
    names: tuple = FEATURE_NAMES
    version: int = FEATURE_VERSION

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def cols(self):
        return self.values.shape[1]

    @property
    def dim(self):
        return self.values.shape[2]

    def flat(self):
        return self.values.reshape(-1, self.dim)


def build_features(hm, tx):
    """Encode the transmitter and local geometry per pixel.

    Distance is the straight-line 2D pixel distance in metres over the map
    diagonal; bearings are sin/cos of the transmitter-to-pixel azimuth
    (east = 0, counter-clockwise), absolute and relative to the boresight.
    """
    res = hm.resolution_m
    rows, cols = hm.rows, hm.cols
    tr, tc = tx.pixel
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
    feats = np.stack([
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
    return FeatureMaps(values=feats)


@dataclass
class PredictionMap:
    """Per-pixel beam scores plus validity mask.

    kind "joint": scores has Na*Ne*Nr channels ranked descending (raw
    logits, dB estimates, ...); "sep": Na+Ne+Nr channels holding the three
    heads; "ir": 3 channels holding a regressed index triple ranked by
    lattice distance.
    """

    scores: np.ndarray  # (rows, cols, C)
    valid: np.ndarray   # (rows, cols) bool
    dims: tuple         # (Na, Ne, Nr)
    kind: str = "joint"

    @property
    def n_beams(self):
        na, ne, nr = self.dims
        return na * ne * nr


def oracle_predictor(tensors, valid=None):
    """Ground-truth ranking: scores are the beam powers in dB (zeros last)."""
    t = np.asarray(tensors)
    rows, cols = t.shape[:2]
    flat = t.reshape(rows, cols, -1)
    if valid is None:
        valid = np.ones((rows, cols), dtype=bool)
    scores = 10.0 * np.log10(flat + 1e-30)
    dims = t.shape[2:] if t.ndim == 5 else (flat.shape[-1], 1, 1)
    return PredictionMap(scores=scores, valid=valid, dims=tuple(dims), kind="joint")


def geometric_predictor(hm, tx, codebook, rx_height_m=1.5, valid=None):
    """Line-of-sight baseline: score beams at the direct-path direction.

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
    sectors = np.atleast_1d(sector_index(reverse, codebook.nr))
    sec_score = np.zeros((rows * cols, codebook.nr))
    sec_score[np.arange(rows * cols), sectors] = 1.0
    tiny = 1e-300
    logits = (np.log(g_az + tiny)[:, :, None, None]
              + np.log(g_el + tiny)[:, None, :, None]
              + np.log(sec_score + tiny)[:, None, None, :])
    logits = logits.reshape(rows, cols, -1)
    if valid is None:
        valid = np.ones((rows, cols), dtype=bool)
    return PredictionMap(scores=logits, valid=valid,
                         dims=(codebook.na, codebook.ne, codebook.nr), kind="joint")


@dataclass
class SoftmaxModel:
    """Linear model x -> W^T x + b over the feature vector."""

    weights: np.ndarray  # (F, C)
    bias: np.ndarray     # (C,)
    dims: tuple
    loss_kind: str = "CE"
    sep: bool = False
    seed: int = 0
    epsilon: float | None = None   # ws only
    floor_db: float = -30.0        # cep/gr flooring

    @property
    def kind(self):
        if self.loss_kind == "IR":
            return "ir"
        return "sep" if self.sep else "joint"

    @classmethod
    def create(cls, feature_dim, dims, loss_kind="CE", sep=False, seed=0,
               epsilon=None, floor_db=-30.0):
        loss_kind = loss_kind.upper()
        if loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        if loss_kind == "IR":
            sep = True
            c = 3
        else:
            na, ne, nr = dims
            c = na + ne + nr if sep else na * ne * nr
        return cls(weights=np.zeros((feature_dim, c)), bias=np.zeros(c),
                   dims=tuple(dims), loss_kind=loss_kind, sep=sep, seed=seed,
                   epsilon=epsilon, floor_db=floor_db)


def predict(model, features, mask=None):
    """Per-pixel scores W^T x + b over the valid pixels."""
    if features.dim != model.weights.shape[0]:
        raise ValueError(
            f"feature dim {features.dim} does not match model {model.weights.shape[0]}")
    x = features.flat()
    scores = (x @ model.weights + model.bias).reshape(
        features.rows, features.cols, -1)
    if mask is None:
        mask = np.ones((features.rows, features.cols), dtype=bool)
    return PredictionMap(scores=scores, valid=mask, dims=model.dims, kind=model.kind)


def ranking(pred):
    """Full beam order per pixel, shape (rows, cols, Na*Ne*Nr)."""
    na, ne, nr = pred.dims
    b = na * ne * nr
    flat = pred.scores.reshape(-1, pred.scores.shape[-1])
    if pred.kind == "joint":
        order = ranking_from_scores(flat)
    elif pred.kind == "sep":
        za = flat[:, :na]
        ze = flat[:, na:na + ne]
        zr = flat[:, na + ne:]
        # product-distribution ranking: per-head log-probabilities differ
        # from raw head scores by a per-head constant, so summing scores
        # ranks identically
        joint = (za[:, :, None, None] + ze[:, None, :, None]
                 + zr[:, None, None, :]).reshape(-1, b)
        order = ranking_from_scores(joint)
    elif pred.kind == "ir":
        order = losses.ir_ranking(flat, pred.dims)
    else:
        raise ValueError(f"unknown prediction kind {pred.kind!r}")
    return order.reshape(pred.scores.shape[0], pred.scores.shape[1], b)


def candidates(pred, k):
    """Top-k candidate beams per pixel; invalid pixels carry -1."""
    b = pred.n_beams
    if not 1 <= k <= b:
        raise ValueError(f"k={k} outside 1..{b}")
    order = ranking(pred)
    out = order[..., :k].copy()
    out[~pred.valid] = -1
    return out


def flat_ranking(pred):
    """Rankings of the valid pixels only, row-major, shape (M, B)."""
    order = ranking(pred)
    return order[pred.valid]


@dataclass
class TrainConfig:
    lr: float = 0.3
    epochs: int = 150
    batch: int = 128
    lr_decay: float = 0.5
    patience: int = 10
    min_lr_factor: float = 1e-3  # early stop once lr decays below lr * this

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 1 or self.batch < 1:
            raise ValueError("hyper-parameters must be positive")
        if not 0 < self.lr_decay <= 1 or self.patience < 1:
            raise ValueError("invalid decay/patience")


def _targets_for(model, tensors):
    """Per-sample training targets derived from the beam power tensors."""
    t = np.asarray(tensors)
    n = t.shape[0]
    flat = t.reshape(n, -1)
    kind = model.loss_kind
    na, ne, nr = model.dims
    if kind in ("CE", "WS"):
        idx = np.argmax(flat, axis=1)
        if not model.sep:
            return idx
        triples = np.stack(np.unravel_index(idx, model.dims), axis=1)
        return triples
    if kind == "CEP":
        if model.sep:
            heads = [np.empty((n, na)), np.empty((n, ne)), np.empty((n, nr))]
            for i in range(n):
                pa, pe, pr = losses.cep_target_sep(
                    flat[i].reshape(model.dims), model.floor_db)
                heads[0][i], heads[1][i], heads[2][i] = pa, pe, pr
            return np.concatenate(heads, axis=1)
        out = np.empty_like(flat)
        for i in range(n):
            out[i] = losses.cep_target(flat[i], model.floor_db)
        return out
    if kind == "IR":
        idx = np.argmax(flat, axis=1)
        return np.stack(np.unravel_index(idx, model.dims), axis=1).astype(np.float64)
    if kind == "GR":
        if model.sep:
            out = np.empty((n, na + ne + nr))
            for i in range(n):
                ga, ge, gr = losses.gr_target_db_sep(
                    flat[i].reshape(model.dims), model.floor_db)
                out[i] = np.concatenate([ga, ge, gr])
            return out
        out = np.empty_like(flat)
        for i in range(n):
            out[i] = losses.gr_target_db(flat[i], model.floor_db).ravel()
        return out
    raise ValueError(f"unknown loss kind {kind!r}")


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _head_slices(model):
    na, ne, nr = model.dims
    return (slice(0, na), slice(na, na + ne), slice(na + ne, na + ne + nr))


def _batch_loss_grad(model, z, targets, dmat=None):
    """Mean loss over the batch and its gradient w.r.t. the score matrix z.

    Matches the per-sample reference functions in beamgrid.losses: the batch
    value is the arithmetic mean of per-sample losses, the gradient its
    derivative.
    """
    n = z.shape[0]
    kind = model.loss_kind
    if kind in ("CE", "CEP"):
        if model.sep and kind == "CE":
            loss = 0.0
            grad = np.zeros_like(z)
            for axis, sl in enumerate(_head_slices(model)):
                p = _softmax_rows(z[:, sl])
                t = targets[:, axis]
                loss += -np.log(p[np.arange(n), t] + 1e-300).mean()
                g = p
                g[np.arange(n), t] -= 1.0
                grad[:, sl] = g / n
            return loss, grad
        if model.sep and kind == "CEP":
            loss = 0.0
            grad = np.zeros_like(z)
            for sl in _head_slices(model):
                p = _softmax_rows(z[:, sl])
                s = targets[:, sl]
                logp = z[:, sl] - z[:, sl].max(axis=1, keepdims=True)
                logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
                loss += -(s * logp).sum(axis=1).mean()
                grad[:, sl] = (p - s) / n
            return loss, grad
        p = _softmax_rows(z)
        logp = z - z.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        if kind == "CE":
            loss = -logp[np.arange(n), targets].mean()
            grad = p
            grad[np.arange(n), targets] -= 1.0
            return float(loss), grad / n
        loss = -(targets * logp).sum(axis=1).mean()
        return float(loss), (p - targets) / n
    if kind == "WS":
        if model.sep:
            loss = 0.0
            grad = np.zeros_like(z)
            for axis, sl in enumerate(_head_slices(model)):
                m = sl.stop - sl.start
                d1 = np.abs(np.subtract.outer(np.arange(m, dtype=np.float64),
                                              np.arange(m, dtype=np.float64)))
                p = _softmax_rows(z[:, sl])
                d = d1[:, targets[:, axis]].T
                expected = (p * d).sum(axis=1)
                loss += expected.mean()
                grad[:, sl] = p * (d - expected[:, None]) / n
            return float(loss), grad
        p = _softmax_rows(z)
        d = dmat[:, targets].T
        expected = (p * d).sum(axis=1)
        grad = p * (d - expected[:, None]) / n
        return float(expected.mean()), grad
    if kind == "IR":
        diff = z - targets
        return float((diff**2).mean(axis=1).mean()), 2.0 * diff / (3.0 * n)
    if kind == "GR":
        diff = z - targets
        per_sample = (diff**2).mean(axis=1)
        return float(per_sample.mean()), 2.0 * diff / (diff.shape[1] * n)
    raise ValueError(f"unknown loss kind {kind!r}")


def train(model, x_train, tensors_train, hyper=None, x_val=None, tensors_val=None):
    """Mini-batch gradient descent; returns (trained model, history rows).

    History rows are (epoch, train_loss, val_loss, lr). The learning rate is
    multiplied by lr_decay whenever the validation loss has not improved for
    `patience` consecutive epochs; training stops early once the rate falls
    below lr * min_lr_factor. The returned model carries the weights of the
    best validation epoch. Deterministic given the model seed.
    """
    hyper = hyper or TrainConfig()
    x_train = np.asarray(x_train, dtype=np.float64)
    if x_train.shape[0] == 0:
        raise EmptyTrainingSetError("no valid pixels to train on")
    t_train = _targets_for(model, tensors_train)
    has_val = x_val is not None and len(x_val) > 0
    if has_val:
        x_val = np.asarray(x_val, dtype=np.float64)
        t_val = _targets_for(model, tensors_val)
    dmat = None
    if model.loss_kind == "WS" and not model.sep:
        dmat = losses.beam_distance_matrix(model.dims)

    rng = np.random.default_rng(model.seed)
    w = model.weights.copy()
    b = model.bias.copy()
    lr = hyper.lr
    best = (math.inf, w.copy(), b.copy())
    since_improve = 0
    history = []

    def full_loss(x, t):
        z = x @ w + b
        loss, _ = _batch_loss_grad(model, z, t, dmat)
        return loss

    n = x_train.shape[0]
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            xb = x_train[idx]
            z = xb @ w + b
            tb = t_train[idx]
            _, gz = _batch_loss_grad(model, z, tb, dmat)
            if lr > 0.0:
                w -= lr * (xb.T @ gz)
                b -= lr * gz.sum(axis=0)
        train_loss = full_loss(x_train, t_train)
        val_loss = full_loss(x_val, t_val) if has_val else train_loss
        history.append((epoch, train_loss, val_loss, lr))
        if val_loss < best[0]:
            best = (val_loss, w.copy(), b.copy())
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= hyper.patience:
                lr *= hyper.lr_decay
                since_improve = 0
                if lr < hyper.lr * hyper.min_lr_factor:
                    break
    trained = replace(model, weights=best[1], bias=best[2])
    return trained, history
