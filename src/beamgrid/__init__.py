"""Beam-training simulation and evaluation toolkit over synthetic city grids.

Builds per-pixel beam power tensors from multipath data, derives
ground-truth optimal-beam maps, and evaluates beam predictors with top-k
accuracy and throughput-ratio metrics; ships five training objectives with
verified analytic gradients and a small trainable per-pixel classifier.
"""

__version__ = "0.1.0"
