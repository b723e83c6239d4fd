"""Synthetic 2.5D city environments and desk-scale multipath tracing.

A scene is a pair of height rasters (buildings, vegetation) on a square
grid. The tracer computes, for every street pixel, the direct path (grid
visibility with per-metre vegetation attenuation) and first-order specular
reflections off exterior building walls found by mirroring the transmitter,
each validated by two visibility tests. Diffraction is not modelled and
reflections are limited to one bounce; at this scale that already produces
the beam diversity in shadowed regions that the evaluation needs. The
tracer also classes each pixel by its direct path (NLOS, LOS_ATTENUATED,
LOS_DOMINANT): the u8 LoS grid that trace writes as <stem>.los.bgrd.

SceneConfig is the `scene` section of a run config itself: generate_city,
place_tx and trace_paths read their settings from it, and its
__post_init__ holds every check of the section's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import (ArrayFrame, TWO_PI, beamspace_angles, gain_profiles,
                      global_to_array_frame, sector_index)
from .errors import NoValidSiteError, NumericError

SPEED_OF_LIGHT = 299_792_458.0
DOWNTILT = math.pi / 4  # radians, of every transmitter panel place_tx places

# neighbour scan order used for tie-breaking: north, west, east, south
_NEIGHBORS = ((-1, 0), (0, -1), (0, 1), (1, 0))

# LoS classes of SceneChannels.los: no direct path (building interiors
# included), a direct path that crossed vegetation, an unattenuated one
NLOS = 0
LOS_ATTENUATED = 1
LOS_DOMINANT = 2


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
    """The `scene` config section: propagation constants, receiver and
    mast heights, and the city generator's knobs. Only trace reads rows and
    cols, to check its scene grid; generate takes --rows and --cols."""

    rows: int = 64
    cols: int = 64
    resolution_m: float = 1.0
    rx_height_m: float = 1.5
    carrier_hz: float = 3.9e9
    reflection_loss_db: float = 6.0
    vegetation_db_per_m: float = 0.5
    max_reflections: int = 1
    tx_mast_m: float = 2.0
    building_fraction: float = 0.3
    vegetation_fraction: float = 0.08
    street_width: int = 5
    block_size: int = 14
    building_height_min: float = 6.0
    building_height_max: float = 30.0
    vegetation_height_min: float = 2.0
    vegetation_height_max: float = 10.0

    def __post_init__(self):
        # generate_city's street lattice steps by block_size + street_width
        for name in ("rows", "cols", "resolution_m", "carrier_hz", "block_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("rx_height_m", "tx_mast_m", "reflection_loss_db",
                     "vegetation_db_per_m", "street_width", "building_height_min",
                     "building_height_max", "vegetation_height_min",
                     "vegetation_height_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.max_reflections not in (0, 1):
            raise ValueError("at most one reflection bounce is supported, "
                             f"got max_reflections {self.max_reflections!r}")

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass
class SceneChannels:
    """Traced paths for every pixel of a scene, stored as flat arrays.

    pixel holds the row-major pixel id of each path and is non-decreasing,
    so each pixel's paths are one contiguous run; when a pixel has a direct
    path it occupies the first slot. los is the tracer's u8 grid of LoS
    classes (NLOS, LOS_ATTENUATED, LOS_DOMINANT), shape (rows, cols); it
    does not depend on the reflections traced, and it is None on channels
    read from a path table, which carries no LoS grid.
    """

    rows: int
    cols: int
    pixel: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray
    aod_azimuth: np.ndarray
    aod_elevation: np.ndarray
    aoa_azimuth: np.ndarray
    los: np.ndarray | None = None

    @property
    def has_direct(self):
        """Whether each pixel has a direct path, shape (rows, cols)."""
        return self.los > NLOS

    @property
    def n_paths(self):
        return int(self.magnitude.size)

    @property
    def counts(self):
        """Number of paths of each pixel, shape (rows, cols)."""
        return np.bincount(self.pixel, minlength=self.rows * self.cols) \
            .reshape(self.rows, self.cols)


def generate_city(rows, cols, seed, cfg=None):
    """Deterministic synthetic city: rectangular buildings on a street
    lattice plus circular vegetation blobs, shaped by the density knobs of
    cfg (a SceneConfig), at its resolution.

    Blocks between streets are filled in a seeded random order until the
    building pixel fraction reaches the target, so the achieved fraction
    lands within one block area of it.
    """
    if rows < 16 or cols < 16:
        raise ValueError(f"city grids need at least 16x16 pixels, got {rows}x{cols}")
    cfg = cfg or SceneConfig()
    rng = np.random.default_rng(seed)
    building = np.zeros((rows, cols))
    vegetation = np.zeros((rows, cols))

    if cfg.building_fraction > 0.0:
        pitch = cfg.block_size + cfg.street_width
        row_runs = _block_runs(rows, cfg.street_width, pitch)
        col_runs = _block_runs(cols, cfg.street_width, pitch)
        blocks = [(r0, r1, c0, c1) for r0, r1 in row_runs for c0, c1 in col_runs
                  if r1 - r0 >= 3 and c1 - c0 >= 3]
        order = rng.permutation(len(blocks))
        target = cfg.building_fraction * rows * cols
        covered = 0.0
        for bi in order:
            if covered >= target:
                break
            r0, r1, c0, c1 = blocks[bi]
            br = max(3, int(round((r1 - r0) * rng.uniform(0.7, 0.98))))
            bc = max(3, int(round((c1 - c0) * rng.uniform(0.7, 0.98))))
            rr = r0 + int(rng.integers(0, r1 - r0 - br + 1))
            cc = c0 + int(rng.integers(0, c1 - c0 - bc + 1))
            building[rr:rr + br, cc:cc + bc] = rng.uniform(cfg.building_height_min,
                                                           cfg.building_height_max)
            covered = float(np.count_nonzero(building))

    if cfg.vegetation_fraction > 0.0:
        target_v = cfg.vegetation_fraction * rows * cols
        rmax = max(3.0, min(rows, cols) / 8.0)
        yy, xx = np.mgrid[0:rows, 0:cols]
        for _ in range(400):
            if np.count_nonzero(vegetation) >= target_v:
                break
            cy = rng.uniform(0, rows)
            cx = rng.uniform(0, cols)
            rad = rng.uniform(2.0, rmax)
            h = rng.uniform(cfg.vegetation_height_min, cfg.vegetation_height_max)
            disc = (yy + 0.5 - cy) ** 2 + (xx + 0.5 - cx) ** 2 <= rad * rad
            vegetation[disc] = np.maximum(vegetation[disc], h)

    return HeightMap(building, vegetation, cfg.resolution_m)


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


def place_tx(hm, seed, cfg=None):
    """Sample a rooftop-edge pixel, put the panel cfg.tx_mast_m above its
    roof and orient it toward the street.

    The boresight points at the first street 4-neighbour in scan order
    (north, west, east, south), which fixes ties deterministically. A mast
    so tall that trace_paths could not trace the site raises NumericError.
    """
    cfg = cfg or SceneConfig()
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
    height_m = float(hm.building[r, c]) + cfg.tx_mast_m
    _check_path_reach(hm, height_m, cfg.rx_height_m)
    return TxSite(pixel=(r, c), height_m=height_m, frame=ArrayFrame(azimuth, DOWNTILT))


def exterior_walls(building, res=1.0):
    """Maximal vertical wall rectangles between building and street cells.

    Each row is (axis, plane, lo, hi, height, normal): axis 0 walls lie in a
    plane of constant x (east coordinate), axis 1 constant y; lo/hi span the
    other axis; normal is +/-1 along the axis, pointing to the street side.
    Colinear unit faces merge only when the building height matches, so a
    wall is always a well-defined rectangle from the ground up. Rows come
    axis by axis, planes ascending, the +1 normal's walls before the -1
    normal's, walls by start; the tracer's reflections follow this order.
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


def _check_path_reach(hm, tx_height_m, rx_height_m):
    """Raise NumericError when the paths between heights tx_height_m and
    rx_height_m over hm would have lengths beyond the float64 range."""
    # the squares and sums of every candidate path's coordinate differences
    # stay below this bound's square
    reach = 4.0 * ((hm.rows + hm.cols) * hm.resolution_m + abs(tx_height_m)
                   + abs(rx_height_m))
    if not math.isfinite(reach * reach):
        raise NumericError(
            f"path lengths overflow float64 (tx height {tx_height_m!r} m, "
            f"rx height {rx_height_m!r} m)")


def trace_paths(hm, tx, cfg):
    """Trace direct and single-bounce paths from tx to every street pixel
    at receiver height cfg.rx_height_m.

    Pixels inside buildings get zero paths. Deterministic: pure geometry,
    fixed wall enumeration order, direct path stored first per pixel.
    _kernels.trace finds the visible paths, culling the candidate segments
    that are surely blocked and marching the rest in one batch, none twice,
    and computes their values. max_reflections=0 skips wall extraction.
    Heights so large that path lengths would overflow float64 raise
    NumericError (_check_path_reach).

    The LoS grid classes a pixel with a direct path LOS_ATTENUATED when
    that path loses more than 0 dB in vegetation, else LOS_DOMINANT, and
    every other pixel NLOS. An unattenuated direct path is always the
    strongest arrival: the reflection screen
    (_kernels._reflection_candidates) keeps both endpoints strictly on a
    wall's outward side, so every first-order reflection is strictly
    longer than the direct path, and its loss is >= 0 dB. The grid
    therefore depends on the direct paths only, and max_reflections=0
    gives the same grid.
    """
    r, c = tx.pixel
    if not (0 <= r < hm.rows and 0 <= c < hm.cols):
        raise ValueError(f"tx pixel {tx.pixel} outside the {hm.rows}x{hm.cols} grid")
    res = hm.resolution_m
    _check_path_reach(hm, tx.height_m, cfg.rx_height_m)
    walls = exterior_walls(hm.building, res) if cfg.max_reflections >= 1 \
        else np.zeros((0, 6))
    tx_x, tx_y = pixel_center(tx.pixel, res)
    refl_amp = 10.0 ** (-cfg.reflection_loss_db / 20.0)
    pixel, direct, veg_len, amp, psi, aod_az, aod_el, aoa_az = _kernels.trace(
        hm.building, hm.vegetation, walls, tx_x, tx_y, tx.height_m, cfg.rx_height_m, res,
        cfg.wavelength_m, refl_amp, cfg.vegetation_db_per_m)
    los = np.zeros((hm.rows, hm.cols), dtype=np.uint8)
    los.flat[pixel[direct]] = np.where(cfg.vegetation_db_per_m * veg_len[direct] > 0.0,
                                       LOS_ATTENUATED, LOS_DOMINANT)
    return SceneChannels(
        rows=hm.rows, cols=hm.cols, pixel=pixel,
        magnitude=amp, phase=psi, aod_azimuth=aod_az,
        aod_elevation=aod_el, aoa_azimuth=aoa_az, los=los)


def effective_tensor_map(channels, codebook, frame):
    """Beam power tensors of the pixels that have paths.

    Returns (pixel_ids, rows): the sorted row-major ids of the pixels with
    at least one path, and their tensors, shape (len(pixel_ids), Na, Ne,
    Nr). Every other pixel's tensor is zero. Vectorises the per-path
    beamspace transform over all stored paths and accumulates each path's
    rank-1 contribution (azimuth gain profile x elevation gain profile x
    one-hot sector) into its pixel's row, in path order.
    """
    pixel_ids, row_of_path = np.unique(channels.pixel, return_inverse=True)
    rows = np.zeros((pixel_ids.size, codebook.na, codebook.ne, codebook.nr))
    phi, theta = global_to_array_frame(channels.aod_azimuth, channels.aod_elevation, frame)
    bs = beamspace_angles(phi, theta)
    g_az, g_el = gain_profiles(bs.varphi, bs.vartheta, codebook)
    sectors = sector_index(channels.aoa_azimuth, codebook.nr)
    _kernels.accumulate_tensors(row_of_path, sectors,
                                channels.magnitude ** 2, g_az, g_el, rows)
    return pixel_ids, rows


def downscale_tensor_map(pixel_ids, rows, shape, valid=None, factor=4):
    """Block-average beam tensors in the linear power domain.

    pixel_ids and rows are effective_tensor_map's output on a grid of the
    given (rows, cols) shape; valid flags the rows that count (all by
    default), and a pixel without a row counts as invalid. Returns
    (block_ids, means, grid): the sorted row-major ids of the factor x
    factor blocks that hold a valid row, the arithmetic mean of each such
    block's valid rows, shape (len(block_ids),) + rows.shape[1:], and the
    (shape[0] // factor, shape[1] // factor) shape of the block grid. Every
    other block has no valid pixel.

    The rows are added in pixel-id order, row-major within each block, so
    every mean is bit-identical to the sum over the dense grid with zeros
    at the invalid pixels.
    """
    n_rows, n_cols = shape
    if n_rows % factor or n_cols % factor:
        raise ValueError(
            f"grid {n_rows}x{n_cols} not divisible by downscale factor {factor}")
    grid = (n_rows // factor, n_cols // factor)
    n_blocks = grid[0] * grid[1]
    r, c = np.divmod(np.asarray(pixel_ids), n_cols)
    block = (r // factor) * grid[1] + c // factor
    if valid is not None:
        # invalid rows go to a spare block past the grid's, dropped below
        block = np.where(valid, block, n_blocks)
    block_ids, slot = np.unique(block, return_inverse=True)
    sums = np.zeros((block_ids.size, math.prod(rows.shape[1:])))
    np.add.at(sums, slot, rows.reshape(slot.size, sums.shape[1]))
    sums /= np.bincount(slot)[:, None]  # every id in block_ids holds a row
    n = np.searchsorted(block_ids, n_blocks)
    return block_ids[:n], sums[:n].reshape(n, *rows.shape[1:]), grid


def pool_heightmap(hm, factor):
    """Block-mean heights at a coarser resolution (feature alignment with
    downscaled tensor grids)."""
    rows, cols = hm.rows, hm.cols
    if rows % factor or cols % factor:
        raise ValueError(f"grid {rows}x{cols} not divisible by pool factor {factor}")

    def pool(a):
        return a.reshape(rows // factor, factor, cols // factor, factor).mean(axis=(1, 3))

    return HeightMap(pool(hm.building), pool(hm.vegetation),
                     resolution_m=hm.resolution_m * factor)


def pool_tx(tx, factor):
    """Transmitter site re-indexed onto a pooled grid (frame unchanged)."""
    return TxSite(pixel=(tx.pixel[0] // factor, tx.pixel[1] // factor),
                  height_m=tx.height_m, frame=tx.frame)
