"""Synthetic 2.5D city environments and desk-scale multipath tracing.

A scene is a pair of height rasters (buildings, vegetation) on a square
grid. The tracer computes, for every street pixel, the direct path (grid
visibility with per-metre vegetation attenuation) and first-order specular
reflections off exterior building walls found by mirroring the transmitter,
each validated by two visibility tests. Diffraction is not modelled and
reflections are limited to one bounce; at this scale that already produces
the beam diversity in shadowed regions that the evaluation needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import (ArrayFrame, TWO_PI, beamspace_angles, gain_profiles,
                      global_to_array_frame, sector_index)
from .errors import NoValidSiteError

SPEED_OF_LIGHT = 299_792_458.0

# neighbour scan order used for tie-breaking: north, west, east, south
_NEIGHBORS = ((-1, 0), (0, -1), (0, 1), (1, 0))


@dataclass
class HeightMap:
    """Building and vegetation heights (metres) over a row x col grid."""

    building: np.ndarray
    vegetation: np.ndarray
    resolution_m: float = 1.0

    def __post_init__(self):
        self.building = np.ascontiguousarray(self.building, dtype=np.float64)
        self.vegetation = np.ascontiguousarray(self.vegetation, dtype=np.float64)
        if self.building.shape != self.vegetation.shape or self.building.ndim != 2:
            raise ValueError("building and vegetation grids must share a 2D shape")
        if not (np.isfinite(self.building).all() and np.isfinite(self.vegetation).all()):
            raise ValueError("heights must be finite")
        if self.building.min(initial=0.0) < 0.0 or self.vegetation.min(initial=0.0) < 0.0:
            raise ValueError("heights must be >= 0")
        if self.resolution_m <= 0.0:
            raise ValueError("resolution must be positive")

    @property
    def rows(self):
        return self.building.shape[0]

    @property
    def cols(self):
        return self.building.shape[1]


@dataclass(frozen=True)
class TxSite:
    """Transmitter location: a rooftop-edge pixel, mast-top height, and panel frame."""

    pixel: tuple
    height_m: float
    frame: ArrayFrame


@dataclass(frozen=True)
class SceneConfig:
    """Propagation constants for the tracer."""

    carrier_hz: float = 3.9e9
    reflection_loss_db: float = 6.0
    vegetation_db_per_m: float = 0.5
    max_reflections: int = 1

    def __post_init__(self):
        if self.carrier_hz <= 0.0:
            raise ValueError("carrier frequency must be positive")
        if self.max_reflections not in (0, 1):
            raise ValueError("at most one reflection bounce is supported")
        if self.reflection_loss_db < 0.0 or self.vegetation_db_per_m < 0.0:
            raise ValueError("losses must be >= 0 dB")

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass
class CityStyle:
    """Density knobs for the synthetic city generator."""

    building_fraction: float = 0.3
    vegetation_fraction: float = 0.08
    street_width: int = 5
    block_size: int = 14
    building_height_range: tuple = (6.0, 30.0)
    vegetation_height_range: tuple = (2.0, 10.0)


@dataclass
class SceneChannels:
    """Traced paths for every pixel of a scene, stored as flat arrays.

    pixel holds the row-major pixel id of each path and is non-decreasing,
    so each pixel's paths are one contiguous run; when a pixel has a direct
    path it occupies the first slot. has_direct/direct_veg_db (direct path
    flag and its vegetation loss in dB) come from the tracer alone, do not
    depend on the reflections traced, and are None on channels loaded from
    a paths CSV, which does not store them.
    """

    rows: int
    cols: int
    pixel: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray
    aod_azimuth: np.ndarray
    aod_elevation: np.ndarray
    aoa_azimuth: np.ndarray
    has_direct: np.ndarray | None = None
    direct_veg_db: np.ndarray | None = None

    @property
    def n_paths(self):
        return int(self.magnitude.size)

    @property
    def counts(self):
        """Number of paths of each pixel, shape (rows, cols)."""
        return np.bincount(self.pixel, minlength=self.rows * self.cols) \
            .reshape(self.rows, self.cols)


def generate_city(rows, cols, seed, style=None):
    """Deterministic synthetic city: rectangular buildings on a street
    lattice plus circular vegetation blobs.

    Blocks between streets are filled in a seeded random order until the
    building pixel fraction reaches the target, so the achieved fraction
    lands within one block area of it.
    """
    if rows < 16 or cols < 16:
        raise ValueError(f"city grids need at least 16x16 pixels, got {rows}x{cols}")
    style = style or CityStyle()
    rng = np.random.default_rng(seed)
    building = np.zeros((rows, cols))
    vegetation = np.zeros((rows, cols))

    if style.building_fraction > 0.0:
        pitch = style.block_size + style.street_width
        row_runs = _block_runs(rows, style.street_width, pitch)
        col_runs = _block_runs(cols, style.street_width, pitch)
        blocks = [(r0, r1, c0, c1) for r0, r1 in row_runs for c0, c1 in col_runs
                  if r1 - r0 >= 3 and c1 - c0 >= 3]
        order = rng.permutation(len(blocks))
        target = style.building_fraction * rows * cols
        covered = 0.0
        h_lo, h_hi = style.building_height_range
        for bi in order:
            if covered >= target:
                break
            r0, r1, c0, c1 = blocks[bi]
            br = max(3, int(round((r1 - r0) * rng.uniform(0.7, 0.98))))
            bc = max(3, int(round((c1 - c0) * rng.uniform(0.7, 0.98))))
            rr = r0 + int(rng.integers(0, r1 - r0 - br + 1))
            cc = c0 + int(rng.integers(0, c1 - c0 - bc + 1))
            building[rr:rr + br, cc:cc + bc] = rng.uniform(h_lo, h_hi)
            covered = float(np.count_nonzero(building))

    if style.vegetation_fraction > 0.0:
        target_v = style.vegetation_fraction * rows * cols
        v_lo, v_hi = style.vegetation_height_range
        rmax = max(3.0, min(rows, cols) / 8.0)
        yy, xx = np.mgrid[0:rows, 0:cols]
        for _ in range(400):
            if np.count_nonzero(vegetation) >= target_v:
                break
            cy = rng.uniform(0, rows)
            cx = rng.uniform(0, cols)
            rad = rng.uniform(2.0, rmax)
            h = rng.uniform(v_lo, v_hi)
            disc = (yy + 0.5 - cy) ** 2 + (xx + 0.5 - cx) ** 2 <= rad * rad
            vegetation[disc] = np.maximum(vegetation[disc], h)

    return HeightMap(building, vegetation)


def _block_runs(n, street_width, pitch):
    """Intervals of non-street indices: streets occupy [k*pitch, k*pitch+w)."""
    runs = []
    start = street_width
    while start < n:
        stop = min(start + pitch - street_width, n)
        runs.append((start, stop))
        start += pitch
    return runs


def building_edge_pixels(hm):
    """Row-major list of building pixels with at least one 4-neighbour street pixel."""
    street = hm.building <= 0.0
    pad = np.pad(street, 1)
    near_street = pad[:-2, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:] | pad[2:, 1:-1]
    rows, cols = np.nonzero(~street & near_street)
    return list(zip(rows.tolist(), cols.tolist()))


def place_tx(hm, seed, mast_m=2.0, downtilt=math.pi / 4):
    """Sample a rooftop-edge pixel and orient the panel toward the street.

    The boresight points at the first street 4-neighbour in scan order
    (north, west, east, south), which fixes ties deterministically.
    """
    edges = building_edge_pixels(hm)
    if not edges:
        raise NoValidSiteError("map contains no building-edge pixel")
    rng = np.random.default_rng(seed)
    r, c = edges[int(rng.integers(len(edges)))]
    for dr, dc in _NEIGHBORS:
        rr, cc = r + dr, c + dc
        if 0 <= rr < hm.rows and 0 <= cc < hm.cols and hm.building[rr, cc] <= 0.0:
            azimuth = math.atan2(-dr, dc) % TWO_PI
            break
    return TxSite(pixel=(r, c), height_m=float(hm.building[r, c]) + mast_m,
                  frame=ArrayFrame(azimuth, downtilt))


def exterior_walls(building, res=1.0):
    """Maximal vertical wall rectangles between building and street cells.

    Each row is (axis, plane, lo, hi, height, normal): axis 0 walls lie in a
    plane of constant x (east coordinate), axis 1 constant y; lo/hi span the
    other axis; normal is +/-1 along the axis, pointing to the street side.
    Colinear unit faces merge only when the building height matches, so a
    wall is always a well-defined rectangle from the ground up. Rows come
    axis by axis, planes ascending, the +1 normal's walls before the -1
    normal's, walls by start; the tracer's path slots follow this order.
    """
    walls = []
    for axis, grid in enumerate((building, building.T)):
        plane, lo, hi, height, normal = _column_walls(grid)
        walls.append(np.column_stack([np.full(plane.size, float(axis)), plane * res,
                                      lo * res, hi * res, height, normal]))
    return np.concatenate(walls)


def _column_walls(grid):
    """Wall runs in the planes between neighbouring columns of grid.

    Returns integer plane, start row and end row (exclusive) and the float
    height and normal of each run, ordered by plane, then normal (+1 first),
    then start row.
    """
    left, right = grid[:, :-1].T, grid[:, 1:].T  # (plane, row)
    face = np.stack([(left > 0.0) & (right <= 0.0), (right > 0.0) & (left <= 0.0)], axis=1)
    height = np.stack([left, right], axis=1)     # the face's building cell
    # same[..., r] joins rows r-1 and r of one run; both ends are padded open
    same = np.zeros(face.shape[:2] + (face.shape[2] + 1,), dtype=bool)
    same[..., 1:-1] = face[..., :-1] & face[..., 1:] & (height[..., :-1] == height[..., 1:])
    plane, side, lo = np.nonzero(face & ~same[..., :-1])
    hi = np.nonzero(face & ~same[..., 1:])[2] + 1
    return plane + 1, lo, hi, height[plane, side, lo], 1.0 - 2.0 * side


def pixel_center(pixel, res):
    r, c = pixel
    return (c + 0.5) * res, (r + 0.5) * res


def trace_paths(hm, tx, cfg, rx_height_m=1.5):
    """Trace direct and single-bounce paths from tx to every street pixel.

    Pixels inside buildings get zero paths. Deterministic: pure geometry,
    fixed wall enumeration order, direct path stored first per pixel.
    trace_count lists the visible paths, marching every candidate once;
    trace_fill computes their values. max_reflections=0 skips wall
    extraction.
    """
    r, c = tx.pixel
    if not (0 <= r < hm.rows and 0 <= c < hm.cols):
        raise ValueError(f"tx pixel {tx.pixel} outside the {hm.rows}x{hm.cols} grid")
    res = hm.resolution_m
    walls = exterior_walls(hm.building, res) if cfg.max_reflections >= 1 \
        else np.zeros((0, 6))
    tx_x, tx_y = pixel_center(tx.pixel, res)
    refl_amp = 10.0 ** (-cfg.reflection_loss_db / 20.0)
    paths = _kernels.trace_count(hm.building, hm.vegetation, walls,
                                 tx_x, tx_y, tx.height_m, rx_height_m, res)
    amp, psi, aod_az, aod_el, aoa_az = _kernels.trace_fill(
        paths, hm.cols, tx_x, tx_y, tx.height_m, res, cfg.wavelength_m, refl_amp,
        cfg.vegetation_db_per_m)
    n_px = hm.rows * hm.cols
    direct = paths.slot == 0
    has_direct = np.zeros(n_px, dtype=bool)
    has_direct[paths.pixel[direct]] = True
    direct_veg_db = np.zeros(n_px)
    direct_veg_db[paths.pixel[direct]] = cfg.vegetation_db_per_m * paths.veg_len[direct]
    return SceneChannels(
        rows=hm.rows, cols=hm.cols, pixel=paths.pixel,
        magnitude=amp, phase=psi, aod_azimuth=aod_az,
        aod_elevation=aod_el, aoa_azimuth=aoa_az,
        has_direct=has_direct.reshape(hm.rows, hm.cols),
        direct_veg_db=direct_veg_db.reshape(hm.rows, hm.cols))


def effective_tensor_map(channels, codebook, frame):
    """Per-pixel beam power tensors, shape (rows, cols, Na, Ne, Nr).

    Vectorises the per-path beamspace transform over all stored paths and
    accumulates each path's rank-1 contribution (azimuth gain profile x
    elevation gain profile x one-hot sector) into its pixel, in path order.
    """
    rows, cols = channels.rows, channels.cols
    out = np.zeros((rows * cols, codebook.na, codebook.ne, codebook.nr))
    if channels.n_paths:
        phi, theta = global_to_array_frame(
            channels.aod_azimuth, channels.aod_elevation, frame)
        bs = beamspace_angles(phi, theta)
        g_az, g_el = gain_profiles(bs.varphi, bs.vartheta, codebook)
        sectors = np.atleast_1d(sector_index(channels.aoa_azimuth, codebook.nr))
        _kernels.accumulate_tensors(channels.pixel, sectors,
                                    channels.magnitude ** 2, g_az, g_el, out)
    return out.reshape(rows, cols, codebook.na, codebook.ne, codebook.nr)


def downscale_tensor_map(tensors, valid=None, factor=4):
    """Block-average beam tensors in the linear power domain.

    Each output tensor is the arithmetic mean of the valid input tensors in
    its factor x factor block; blocks without a valid pixel produce an
    invalid output pixel (zero tensor). Returns (downscaled, out_valid).
    """
    tensors = np.asarray(tensors)
    rows, cols = tensors.shape[:2]
    if rows % factor or cols % factor:
        raise ValueError(
            f"grid {rows}x{cols} not divisible by downscale factor {factor}")
    if valid is None:
        valid = np.ones((rows, cols), dtype=bool)
    beam_shape = tensors.shape[2:]
    flat = tensors.reshape(rows, cols, -1)
    w = valid.astype(np.float64)
    weighted = flat * w[:, :, None]
    sums = weighted.reshape(rows // factor, factor, cols // factor, factor, -1).sum(axis=(1, 3))
    wsum = w.reshape(rows // factor, factor, cols // factor, factor).sum(axis=(1, 3))
    out_valid = wsum > 0
    lo = np.where(out_valid[:, :, None], sums / np.maximum(wsum, 1.0)[:, :, None], 0.0)
    return lo.reshape(rows // factor, cols // factor, *beam_shape), out_valid


def pool_heightmap(hm, factor):
    """Block-mean heights at a coarser resolution (feature alignment with
    downscaled tensor grids)."""
    if factor == 1:
        return hm
    rows, cols = hm.rows, hm.cols
    if rows % factor or cols % factor:
        raise ValueError(f"grid {rows}x{cols} not divisible by pool factor {factor}")

    def pool(a):
        return a.reshape(rows // factor, factor, cols // factor, factor).mean(axis=(1, 3))

    return HeightMap(pool(hm.building), pool(hm.vegetation),
                     resolution_m=hm.resolution_m * factor)


def pool_tx(tx, factor):
    """Transmitter site re-indexed onto a pooled grid (frame unchanged)."""
    if factor == 1:
        return tx
    return TxSite(pixel=(tx.pixel[0] // factor, tx.pixel[1] // factor),
                  height_m=tx.height_m, frame=tx.frame)


def downscale_consistency(hi, lo, k, budget=None, hi_valid=None):
    """Score the low-res ranking as a predictor for the high-res ground truth.

    The descending beam order of each low-res tensor serves as the candidate
    ranking for every valid pixel of its block; returns (top-k accuracy,
    top-k throughput ratio) computed by the metrics module.
    """
    from .metrics import LinkBudget, exclusion_mask, ranking_from_scores, \
        throughput_ratio, topk_accuracy

    hi = np.asarray(hi)
    lo = np.asarray(lo)
    budget = budget or LinkBudget()
    hr, hc = hi.shape[:2]
    lr, lc = lo.shape[:2]
    if hr % lr or hc % lc or hr // lr != hc // lc:
        raise ValueError(f"high-res {hr}x{hc} is not an integer multiple of low-res {lr}x{lc}")
    factor = hr // lr
    if hi_valid is None:
        hi_valid = ~exclusion_mask(hi, budget)
    hi_flat = hi.reshape(hr, hc, -1)
    lo_rank = ranking_from_scores(lo.reshape(lr * lc, -1))
    block = (np.arange(hr)[:, None] // factor) * lc + (np.arange(hc)[None, :] // factor)
    sel = hi_valid
    truths = np.argmax(hi_flat[sel], axis=1)
    preds = lo_rank[block[sel]]
    acc = topk_accuracy(truths, preds, k)
    tpr = throughput_ratio(hi_flat[sel], preds, k, budget)
    return acc, tpr
