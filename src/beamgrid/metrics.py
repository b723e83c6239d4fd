"""Evaluation protocol: exclusion mask, SNR, top-k accuracy, throughput ratio.

Beam tensors hold unit-transmit-power path gains; the link budget applies
the transmit power and noise floor when converting to SNR. Locations whose
best beam falls below the exclusion threshold are dropped from evaluation.

Note on the default threshold: -147 dB path gain with the default budget
corresponds to a received power of -124 dBm against a -104 dBm noise floor,
i.e. the stated budget and the threshold are not mutually consistent; the
threshold is therefore an independent config value applied to the max-beam
path gain, with inclusion at the exact boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedResultError


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float = 23.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 1e7
    noise_figure_db: float = 0.0
    exclusion_threshold_db: float = -147.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")


def noise_power_dbm(budget):
    """Thermal noise power over the signal bandwidth, plus noise figure."""
    return budget.noise_psd_dbm_hz + 10.0 * math.log10(budget.bandwidth_hz) \
        + budget.noise_figure_db


def exclusion_mask(tensors, budget):
    """True where a pixel's strongest beam falls below the threshold.

    tensors: (..., beams) or (..., Na, Ne, Nr); the reduction runs over all
    beam axes. A pixel sitting exactly at the threshold stays included.
    """
    t = np.asarray(tensors)
    lead = t.shape[:2] if t.ndim > 2 else t.shape[:1]
    peak = t.reshape(*lead, -1).max(axis=-1)
    with np.errstate(divide="ignore"):
        peak_db = 10.0 * np.log10(peak)
    return peak_db < budget.exclusion_threshold_db


def snr(rss_linear, budget):
    """Linear SNR of a unit-transmit-power path gain under the budget."""
    rss = np.asarray(rss_linear, dtype=np.float64)
    out = np.zeros_like(rss)
    pos = rss > 0.0
    with np.errstate(divide="ignore"):
        rx_dbm = budget.tx_power_dbm + 10.0 * np.log10(np.where(pos, rss, 1.0))
    out = np.where(pos, 10.0 ** ((rx_dbm - noise_power_dbm(budget)) / 10.0), 0.0)
    if np.isscalar(rss_linear):
        return float(out)
    return out


def topk_accuracy(truths, preds, k):
    """Fraction of samples whose optimal beam appears in the first k candidates."""
    truths = np.asarray(truths)
    preds = np.asarray(preds)
    if truths.shape[0] != preds.shape[0]:
        raise ValueError(
            f"{truths.shape[0]} truths vs {preds.shape[0]} candidate sets")
    if not 1 <= k <= preds.shape[1]:
        raise ValueError(f"k={k} exceeds candidate list length {preds.shape[1]}")
    hits = (preds[:, :k] == truths[:, None]).any(axis=1)
    return float(hits.mean())


def rates(tensors, budget):
    """Shannon rates log2(1 + SNR) for every beam of every sample."""
    t = np.asarray(tensors)
    flat = t.reshape(t.shape[0], -1)
    return np.log2(1.0 + snr(flat, budget))


def throughput_ratio(tensors, preds, k, budget):
    """Achieved-vs-optimal sum rate when the best of the first k candidates is used."""
    t = np.asarray(tensors)
    preds = np.asarray(preds)
    if t.shape[0] != preds.shape[0]:
        raise ValueError(f"{t.shape[0]} tensors vs {preds.shape[0]} candidate sets")
    if t.shape[0] == 0:
        raise UndefinedResultError("throughput ratio over an empty sample set")
    if not 1 <= k <= preds.shape[1]:
        raise ValueError(f"k={k} exceeds candidate list length {preds.shape[1]}")
    rate = rates(t, budget)
    best = rate.max(axis=1)
    achieved = np.take_along_axis(rate, preds[:, :k], axis=1).max(axis=1)
    denom = best.sum()
    if denom <= 0.0:
        raise UndefinedResultError("all samples have zero optimal rate")
    return float(achieved.sum() / denom)


def ranking_from_scores(scores):
    """Descending beam order per sample; equal scores keep flat-index order."""
    scores = np.asarray(scores)
    return np.argsort(-scores, axis=-1, kind="stable")


@dataclass
class EvalReport:
    """Per-k accuracy and throughput ratio over one evaluation run."""

    k_list: list
    accuracy: list
    tpr: list
    samples: int
    excluded: int


def evaluate_ranking(tensors, rankings, k_list, budget, excluded=0):
    """Score a full beam ranking at every requested depth."""
    if len(rankings) == 0:
        raise UndefinedResultError("no valid samples left to evaluate")
    truths = np.argmax(np.asarray(tensors).reshape(len(rankings), -1), axis=1)
    acc = [topk_accuracy(truths, rankings, k) for k in k_list]
    tpr = [throughput_ratio(tensors, rankings, k, budget) for k in k_list]
    return EvalReport(k_list=list(k_list), accuracy=acc, tpr=tpr,
                      samples=len(rankings), excluded=int(excluded))


class LosClass(enum.IntEnum):
    NLOS = 0
    LOS_ATTENUATED = 1
    LOS_DOMINANT = 2


def los_class_map(hm, tx, channels):
    """Classify each pixel by its direct-path status.

    LOS_DOMINANT: unattenuated direct path that is also the strongest
    arrival; LOS_ATTENUATED: direct path that crossed vegetation; NLOS: no
    direct path (building interiors included). An unattenuated direct path
    is always the strongest arrival: the tracer's reflection screen
    (_kernels._reflection_candidates) keeps both endpoints strictly on a
    wall's outward side, so every first-order reflection is strictly longer
    than the direct path, and its loss is >= 0 dB. The map
    therefore depends on the direct path only, and channels traced with
    max_reflections=0 give the same map. Requires tracer-produced channels
    (direct-path metadata).
    """
    if channels.has_direct is None or channels.direct_veg_db is None:
        raise ValueError("channels lack direct-path metadata; re-trace the scene")
    if (hm.rows, hm.cols) != (channels.rows, channels.cols):
        raise ValueError("height map and channels disagree on the grid shape")
    los = np.where(channels.direct_veg_db > 0.0,
                   LosClass.LOS_ATTENUATED, LosClass.LOS_DOMINANT)
    return np.where(channels.has_direct, los, LosClass.NLOS).astype(np.int8)
