"""Training targets and the pieces of the loss arithmetic that the head
loop of predictor._head_terms and predictor._batch_grad share.

The predictor trains five loss families, each on joint logits over all
Na*Ne*Nr beams and (where meaningful) on factorised "sep" logits with
separate azimuth, elevation and sector heads:

* ce:  cross entropy against the optimal beam index;
* cep: cross entropy against a soft target derived from the beam power
       tensor in dB (floored, shifted to be nonnegative, normalised):
       cep_target and cep_target_sep;
* ws:  the expected ground distance from the predicted distribution to the
       target beam, under the Euclidean distance between beam index
       triples (beam_distance_matrix). Against a one-hot target this is
       the optimal-transport cost, because the transport plan is forced;
* ir:  mean squared error on the index triple treated as three regression
       targets (sep only), ranked by predictor.flat_ranking;
* gr:  mean squared error on the beam power tensor in dB (same flooring as
       cep): gr_target_db and gr_target_db_sep.

The per-sample reference losses and the finite-difference gradient checker
that the batch code is tested against live in tests/conftest.py.
"""

from __future__ import annotations

import math

import numpy as np


def _shifted_exp(z, axis):
    """z less its maximum along axis, and the exponential of that: the steps
    softmax and the log-softmax of predictor._head_terms share."""
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted, np.exp(shifted)


def softmax(z, axis=-1):
    """Numerically stable exponential normalisation."""
    # the shifted scores are freed before the division
    e = _shifted_exp(np.asarray(z, dtype=np.float64), axis)[1]
    return e / e.sum(axis=axis, keepdims=True)


def _floored_db(t, floor_db, what):
    """t in dB relative to its peak along the last axis, floored at floor_db."""
    peak = t.max(axis=-1, keepdims=True)
    if (peak <= 0.0).any():
        raise ValueError(f"{what} undefined for an all-zero tensor")
    # in place, one sample x beam array at a time: the same bits as
    # maximum(10 * log10(where(t > 0, t / peak, 0)), floor_db)
    db = np.zeros_like(t)
    np.divide(t, peak, out=db, where=t > 0.0)
    with np.errstate(divide="ignore"):
        np.log10(db, out=db)
    db *= 10.0
    return np.maximum(db, floor_db, out=db)


def _samples(tensor):
    """One row per sample: a 4-D input is a stack of (Na, Ne, Nr) tensors
    along its first axis, any other shape is one tensor."""
    t = np.asarray(tensor, dtype=np.float64)
    # the beam count, not -1, which is ambiguous for a stack of no tensors
    return t.reshape(len(t), math.prod(t.shape[1:])) if t.ndim == 4 else t.reshape(1, -1)


def _marginals(t):
    """Sums of a (..., Na, Ne, Nr) array along each beam axis."""
    return tuple(t.sum(axis=axes) for axes in ((-2, -1), (-3, -1), (-3, -2)))


def cep_target(tensor, floor_db):
    """Soft target from a beam power tensor: dB relative to the peak,
    floored at floor_db, shifted to be >= 0, normalised to sum 1.

    Zero entries map to the floor share. Flattens in C order (flat beam
    index order); a stack of tensors (n, Na, Ne, Nr) gives one row each.
    """
    t = np.asarray(tensor)
    db = _floored_db(_samples(t), floor_db, "soft target")
    if floor_db >= 0.0:
        raise ValueError("floor must be below the 0 dB peak")
    db -= floor_db
    db /= db.sum(axis=1, keepdims=True)
    return db if t.ndim == 4 else db[0]


def cep_target_sep(tensor, floor_db):
    """Marginals of the joint soft target along each beam axis (each with a
    leading sample axis for a stack of tensors)."""
    shape = np.shape(tensor)
    return _marginals(cep_target(tensor, floor_db).reshape(shape))


def beam_distance_matrix(dims):
    """Euclidean distances between beam index triples, flat x flat."""
    na, ne, nr = dims
    triples = np.stack(np.meshgrid(np.arange(na), np.arange(ne), np.arange(nr),
                                   indexing="ij"), axis=-1).reshape(-1, 3).astype(np.float64)
    diff = triples[:, None, :] - triples[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def gr_target_db(tensor, floor_db):
    """Beam power tensor in dB relative to its peak, floored (cep flooring);
    a stack of tensors (n, Na, Ne, Nr) is taken relative to each peak."""
    t = np.asarray(tensor, dtype=np.float64)
    return _floored_db(_samples(t), floor_db, "dB target").reshape(t.shape)


def gr_target_db_sep(tensor, floor_db):
    """Per-axis dB targets: linear power marginals converted to floored dB
    (each with a leading sample axis for a stack of tensors)."""
    t = np.asarray(tensor, dtype=np.float64)
    return tuple(_floored_db(m, floor_db, "dB target") for m in _marginals(t))
