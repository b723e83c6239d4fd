"""The pieces of the loss arithmetic that predictor.targets,
predictor._heads and predictor._batch_grad share. predictor._head_terms,
which scores the epoch losses on a worker thread, calls none of them: it
writes the steps of softmax out, in place in its score block.

The predictor trains five loss families, each on joint logits over all
Na*Ne*Nr beams and (where meaningful) on factorised "sep" logits with
separate azimuth, elevation and sector heads:

* ce:  cross entropy against the optimal beam index;
* cep: cross entropy against a soft target derived from the beam power
       tensor in dB (floored, shifted to be nonnegative, normalised);
* ws:  the expected ground distance from the predicted distribution to the
       target beam, under the Euclidean distance between beam index
       triples (beam_distance_matrix). Against a one-hot target this is
       the optimal-transport cost, because the transport plan is forced;
* ir:  mean squared error on the index triple treated as three regression
       targets (sep only), ranked by predictor.flat_ranking;
* gr:  mean squared error on the beam power tensor in dB (same flooring as
       cep).

predictor.targets builds the targets with _floored_db and _marginals. The
per-sample reference targets and losses and the finite-difference gradient
checker that the batch code is tested against live in tests/conftest.py.
"""

from __future__ import annotations

import numpy as np


def softmax(z, axis=-1):
    """Numerically stable exponential normalisation."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _floored_db(t, floor_db):
    """t in dB relative to its peak along the last axis, floored at floor_db."""
    peak = t.max(axis=-1, keepdims=True)
    if (peak <= 0.0).any():
        raise ValueError("dB target undefined for an all-zero tensor")
    # in place, one sample x beam array at a time: the same bits as
    # maximum(10 * log10(where(t > 0, t / peak, 0)), floor_db)
    db = np.zeros_like(t)
    np.divide(t, peak, out=db, where=t > 0.0)
    with np.errstate(divide="ignore"):
        np.log10(db, out=db)
    db *= 10.0
    return np.maximum(db, floor_db, out=db)


def _marginals(t):
    """Sums of a (..., Na, Ne, Nr) array along each beam axis."""
    return tuple(t.sum(axis=axes) for axes in ((-2, -1), (-3, -1), (-3, -2)))


def beam_distance_matrix(dims):
    """Euclidean distances between beam index triples, flat x flat."""
    na, ne, nr = dims
    triples = np.stack(np.meshgrid(np.arange(na), np.arange(ne), np.arange(nr),
                                   indexing="ij"), axis=-1).reshape(-1, 3).astype(np.float64)
    diff = triples[:, None, :] - triples[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))
