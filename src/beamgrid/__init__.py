"""Beam-training simulation and evaluation toolkit over synthetic city grids.

Builds per-pixel beam power tensors from multipath data, derives
ground-truth optimal-beam maps, and evaluates beam predictors with top-k
accuracy and throughput-ratio metrics; ships five training objectives with
verified analytic gradients and a small trainable per-pixel classifier.
"""

from .channel import (ArrayFrame, BeamspaceAngles, Codebook, beamspace_angles,
                      dft_codebook, global_to_array_frame, sector_index)
from .metrics import (EvalReport, LinkBudget, LosClass, exclusion_mask,
                      los_class_map, noise_power_dbm, snr, throughput_ratio,
                      topk_accuracy)
from .scene import (CityStyle, HeightMap, SceneChannels, SceneConfig, TxSite,
                    downscale_consistency, downscale_tensor_map,
                    effective_tensor_map, generate_city, place_tx, trace_paths)

__version__ = "0.1.0"
