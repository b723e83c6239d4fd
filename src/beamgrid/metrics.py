"""Evaluation protocol: exclusion mask, SNR, and the ranks, top-k accuracy
and throughput ratio of a beam ranking (evaluate_ranking, the only scorer).

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UndefinedResultError


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

    tensors: (..., beams), every beam on the last axis; a caller holding
    (..., Na, Ne, Nr) tensors flattens the beam axes first. The mask has
    the leading shape. A pixel sitting exactly at the threshold stays
    included.
    """
    peak = np.asarray(tensors).max(axis=-1)
    with np.errstate(divide="ignore"):
        peak_db = 10.0 * np.log10(peak)
    return peak_db < budget.exclusion_threshold_db


def snr(rss_linear, budget):
    """Linear SNR of unit-transmit-power path gains under the budget, an
    array of their shape."""
    rss = np.asarray(rss_linear, dtype=np.float64)
    pos = rss > 0.0
    with np.errstate(divide="ignore"):
        rx_dbm = budget.tx_power_dbm + 10.0 * np.log10(np.where(pos, rss, 1.0))
    return np.where(pos, 10.0 ** ((rx_dbm - noise_power_dbm(budget)) / 10.0), 0.0)


@dataclass
class EvalReport:
    """Per-k accuracy and throughput ratio over one evaluation run. The
    annotations are the JSON types of a report file's keys
    (gridio.ReportFile)."""

    k_list: list[int]
    accuracy: list[float]
    tpr: list[float]
    samples: int
    excluded: int


def evaluate_ranking(tensors, rankings, k_list, budget, excluded=0):
    """Score a full beam ranking at every requested depth k.

    tensors hold each sample's beam powers, rankings its candidate beams
    (flat indices), best first. A sample's rank is the 1-based place of its
    optimal beam (the first, on ties) among its candidates, one past them
    if they lack it; the top-k accuracy is the fraction of ranks at most k.
    The throughput ratio is the sum over the samples of the best Shannon
    rate log2(1 + SNR) among the first k candidates, over the sum of the
    optimal rates, computed once for every k; a sum that is not finite (an
    SNR beyond float64) raises NumericError. Returns the report and the ranks.
    """
    if len(rankings) == 0:
        raise UndefinedResultError("no valid samples left to evaluate")
    rankings = np.asarray(rankings)
    t = np.asarray(tensors)
    if t.shape[0] != rankings.shape[0]:
        raise ValueError(f"{t.shape[0]} tensors vs {rankings.shape[0]} candidate sets")
    for k in k_list:
        if not 1 <= k <= rankings.shape[1]:
            raise ValueError(f"k={k} exceeds candidate list length {rankings.shape[1]}")
    flat = t.reshape(t.shape[0], -1)
    with np.errstate(over="ignore"):  # an overflow is judged by its result
        rate = np.log2(1.0 + snr(flat, budget))
        denom = rate.max(axis=1).sum()
    if not math.isfinite(denom):
        raise NumericError("the summed optimal rate is not finite under the link budget")
    if denom <= 0.0:
        raise UndefinedResultError("all samples have zero optimal rate")
    tpr = [float(np.take_along_axis(rate, rankings[:, :k], axis=1).max(axis=1).sum() / denom)
           for k in k_list]
    found = rankings == np.argmax(flat, axis=1)[:, None]
    rank = np.where(found.any(axis=1), found.argmax(axis=1) + 1, rankings.shape[1] + 1)
    report = EvalReport(k_list=list(k_list), accuracy=[float((rank <= k).mean()) for k in k_list],
                        tpr=tpr, samples=len(rankings), excluded=int(excluded))
    return report, rank
