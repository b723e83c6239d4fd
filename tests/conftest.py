import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from beamgrid import _kernels
from beamgrid import channel as ch
from beamgrid import gridio
from beamgrid import metrics as mt
from beamgrid import predictor as pr
from beamgrid import scene as sc
from beamgrid.errors import EmptyTrainingSetError
from beamgrid.predictor import _heads


@pytest.fixture(scope="session")
def codebook():
    return ch.dft_codebook(8, 4, 4)


def on_grid_direction(ia, ie, na, ne):
    """Global (azimuth, elevation) whose beamspace angles land exactly on
    the (ia, ie) codebook grid point under an identity array frame.

    Only combinations inside the unit disc are physical; callers pick
    feasible (ia, ie).
    """
    vphi = (-2 * np.pi * ia / na + np.pi) % (2 * np.pi) - np.pi
    vthe = (-2 * np.pi * ie / ne + np.pi) % (2 * np.pi) - np.pi
    ydir, zdir = vphi / np.pi, vthe / np.pi
    rad = ydir**2 + zdir**2
    assert rad <= 1.0, "infeasible grid point for a physical direction"
    xdir = np.sqrt(1.0 - rad)
    return float(np.arctan2(ydir, xdir)), float(np.arcsin(np.clip(zdir, -1, 1)))


@st.composite
def small_scenes(draw):
    """A random 16-24 px city at 0.5, 1 or 2 m per pixel with a transmitter
    above any pixel."""
    rows = draw(st.integers(16, 24))
    cols = draw(st.integers(16, 24))
    cfg = sc.SceneConfig(building_fraction=draw(st.sampled_from([0.1, 0.3, 0.5])),
                         vegetation_fraction=draw(st.sampled_from([0.0, 0.1, 0.3])),
                         street_width=draw(st.integers(2, 4)),
                         block_size=draw(st.integers(4, 8)),
                         resolution_m=draw(st.sampled_from([0.5, 1.0, 2.0])))
    hm = sc.generate_city(rows, cols, draw(st.integers(0, 2**16)), cfg)
    r = draw(st.integers(0, rows - 1))
    c = draw(st.integers(0, cols - 1))
    height = float(hm.building[r, c]) + draw(st.sampled_from([0.5, 2.0, 15.0]))
    return hm, sc.TxSite((r, c), height, ch.ArrayFrame(0.0, np.pi / 4))


scene_configs = st.builds(
    sc.SceneConfig,
    reflection_loss_db=st.sampled_from([0.0, 0.5, 6.0]),
    vegetation_db_per_m=st.sampled_from([0.0, 0.5, 8.0]))


# The scalar kernels that _kernels.march_batch and _reflection_candidates
# vectorise, kept unchanged as the per-path reference they must match bit
# for bit.

def march(building, vegetation, x0, y0, z0, x1, y1, z1, res):
    """Walk the 2D cell grid under the 3D segment (x0,y0,z0)->(x1,y1,z1).

    Returns (clear, vegetated_length_m). A cell blocks when its building
    height rises above the segment anywhere inside the cell; the two
    endpoint cells never block (antennas sit on or next to structures).
    Vegetated length integrates the 3D length spent below the canopy height
    and counts every cell, endpoints included; it is only meaningful when
    the segment is clear. Endpoints are put in canonical order first, so
    the result is exactly symmetric under swapping them.
    """
    if (x0 > x1) or (x0 == x1 and (y0 > y1 or (y0 == y1 and z0 > z1))):
        tx_, ty_, tz_ = x0, y0, z0
        x0, y0, z0 = x1, y1, z1
        x1, y1, z1 = tx_, ty_, tz_
    rows, cols = building.shape
    dx = x1 - x0
    dy = y1 - y0
    dz = z1 - z0
    seg_len = math.sqrt(dx * dx + dy * dy + dz * dz)
    c0 = int(math.floor(x0 / res))
    r0 = int(math.floor(y0 / res))
    c1 = int(math.floor(x1 / res))
    r1 = int(math.floor(y1 / res))
    c = c0
    r = r0
    if dx > 0.0:
        step_c = 1
        t_mx = ((c0 + 1) * res - x0) / dx
        t_dx = res / dx
    elif dx < 0.0:
        step_c = -1
        t_mx = (c0 * res - x0) / dx
        t_dx = -res / dx
    else:
        step_c = 0
        t_mx = math.inf
        t_dx = math.inf
    if dy > 0.0:
        step_r = 1
        t_my = ((r0 + 1) * res - y0) / dy
        t_dy = res / dy
    elif dy < 0.0:
        step_r = -1
        t_my = (r0 * res - y0) / dy
        t_dy = -res / dy
    else:
        step_r = 0
        t_my = math.inf
        t_dy = math.inf

    veg_len = 0.0
    t_prev = 0.0
    while True:
        t_next = t_mx if t_mx < t_my else t_my
        if t_next > 1.0:
            t_next = 1.0
        if t_next > t_prev and 0 <= r < rows and 0 <= c < cols:
            za = z0 + dz * t_prev
            zb = z0 + dz * t_next
            zmin = za if za < zb else zb
            endpoint = (r == r0 and c == c0) or (r == r1 and c == c1)
            if (not endpoint) and building[r, c] > zmin:
                return False, veg_len
            v = vegetation[r, c]
            if v > 0.0:
                if dz == 0.0:
                    if z0 < v:
                        veg_len += (t_next - t_prev) * seg_len
                else:
                    tc = (v - z0) / dz
                    if dz > 0.0:
                        lo = t_prev
                        hi = tc if tc < t_next else t_next
                    else:
                        lo = tc if tc > t_prev else t_prev
                        hi = t_next
                    if hi > lo:
                        veg_len += (hi - lo) * seg_len
        if t_next >= 1.0:
            break
        adv_x = t_mx <= t_my
        adv_y = t_my <= t_mx
        t_prev = t_next
        if adv_x:
            c += step_c
            t_mx += t_dx
        if adv_y:
            r += step_r
            t_my += t_dy
    return True, veg_len


def march_one(hm, x0, y0, z0, x1, y1, z1):
    """_kernels.march_batch on one segment in metre coordinates over the
    height map: (clear, vegetated_length_m) as a bool and a float."""
    clear, veg_len = _kernels.march_batch(
        hm.building, hm.vegetation, [x0], [y0], [z0], [x1], [y1], [z1], hm.resolution_m)
    return bool(clear[0]), float(veg_len[0])


def mirror_hit(wall, tx_x, tx_y, tx_z, rx_x, rx_y, rx_z):
    """Specular reflection point on a vertical wall rectangle via mirroring.

    wall = (axis, plane, lo, hi, height, normal); axis 0 means the wall lies
    in a plane of constant x, axis 1 constant y. Returns
    (ok, hx, hy, hz, path_len) where path_len is the unfolded
    source-image-to-receiver distance. ok is False when either endpoint is
    not strictly on the wall's outward side or the specular point leaves
    the wall rectangle.
    """
    plane = wall[1]
    lo = wall[2]
    hi = wall[3]
    height = wall[4]
    nrm = wall[5]
    if wall[0] == 0.0:
        if (tx_x - plane) * nrm <= 0.0 or (rx_x - plane) * nrm <= 0.0:
            return False, 0.0, 0.0, 0.0, 0.0
        ix = 2.0 * plane - tx_x
        iy = tx_y
        iz = tx_z
        t = (plane - ix) / (rx_x - ix)
        hx = plane
        hy = iy + t * (rx_y - iy)
        hz = iz + t * (rx_z - iz)
        if hy < lo or hy > hi or hz < 0.0 or hz > height:
            return False, 0.0, 0.0, 0.0, 0.0
    else:
        if (tx_y - plane) * nrm <= 0.0 or (rx_y - plane) * nrm <= 0.0:
            return False, 0.0, 0.0, 0.0, 0.0
        ix = tx_x
        iy = 2.0 * plane - tx_y
        iz = tx_z
        t = (plane - iy) / (rx_y - iy)
        hx = ix + t * (rx_x - ix)
        hy = plane
        hz = iz + t * (rx_z - iz)
        if hx < lo or hx > hi or hz < 0.0 or hz > height:
            return False, 0.0, 0.0, 0.0, 0.0
    ddx = rx_x - ix
    ddy = rx_y - iy
    ddz = rx_z - iz
    return True, hx, hy, hz, math.sqrt(ddx * ddx + ddy * ddy + ddz * ddz)


# The unfactorised per-beam channel model: one steering vector per path and
# axis, matched against one beam's weights at a time. It calls neither
# channel.gain_profiles nor _kernels.accumulate_tensors, so it is the
# independent check on scene.effective_tensor_map. Paths are parallel arrays
# (magnitude, phase, departure azimuth and elevation, arrival azimuth); a
# beam is its azimuth weights u, elevation weights v and one-hot receive
# sector selector w.

def steering_vector_reference(n, omega):
    """Array response vector [1, e^{j*omega}, ..., e^{j*omega*(n-1)}]."""
    if n < 1:
        raise ValueError(f"steering vector length must be >= 1, got {n}")
    return np.exp(1j * omega * np.arange(n))


def beam_weights(codebook, ia, ie, ir):
    """(u, v, w) of beam (ia, ie, ir): the two weight columns and the
    one-hot selector of receive sector ir."""
    w = np.zeros(codebook.nr)
    w[ir] = 1.0
    return codebook.tx_azimuth[:, ia], codebook.tx_elevation[:, ie], w


def path_gains_reference(aod_az, aod_el, aoa_az, u, v, w, frame):
    """Per-path complex gain (u^H a_az)(v^H a_el)(w^H b), without the path's
    amplitude and phase; b is the one-hot sector of the arrival azimuth."""
    g = np.empty(len(aod_az), dtype=np.complex128)
    for p in range(len(aod_az)):
        phi, theta = ch.global_to_array_frame(aod_az[p], aod_el[p], frame)
        bs = ch.beamspace_angles(phi, theta)
        ga = np.vdot(u, steering_vector_reference(u.size, bs.varphi))
        ge = np.vdot(v, steering_vector_reference(v.size, bs.vartheta))
        g[p] = ga * ge * w[ch.sector_index(aoa_az[p], w.size)]
    return g


def beam_gain_reference(mag, aod_az, aod_el, aoa_az, u, v, w, frame):
    """Phase-averaged received power under one beam (unit transmit power)."""
    g = path_gains_reference(aod_az, aod_el, aoa_az, u, v, w, frame)
    return float(np.sum(np.asarray(mag) ** 2 * np.abs(g) ** 2))


def instantaneous_gain_reference(mag, phase, aod_az, aod_el, aoa_az, u, v, w, frame):
    """Squared magnitude of the coherent (phase-bearing) channel gain."""
    g = path_gains_reference(aod_az, aod_el, aoa_az, u, v, w, frame)
    return float(np.abs(np.sum(np.asarray(mag) * np.exp(1j * np.asarray(phase)) * g)) ** 2)


def beam_tensor_reference(mag, aod_az, aod_el, aoa_az, codebook, frame):
    """(Na, Ne, Nr) tensor of beam_gain_reference over every beam."""
    return np.array([[[beam_gain_reference(mag, aod_az, aod_el, aoa_az,
                                           *beam_weights(codebook, ia, ie, ir), frame)
                       for ir in range(codebook.nr)]
                      for ie in range(codebook.ne)]
                     for ia in range(codebook.na)])


def paths_at(channels, r, c):
    """Slice of pixel (r, c)'s paths in the flat path arrays of channels."""
    idx = r * channels.cols + c
    lo, hi = np.searchsorted(channels.pixel, (idx, idx + 1))
    return slice(int(lo), int(hi))


def one_pixel_tensor(mag, phase, aod_az, aod_el, aoa_az, codebook, frame):
    """scene.effective_tensor_map of a 1x1 SceneChannels holding the given
    path arrays: its one (Na, Ne, Nr) tensor."""
    chans = sc.SceneChannels(rows=1, cols=1, pixel=np.zeros(mag.size, dtype=np.int64),
                             magnitude=mag, phase=phase, aod_azimuth=aod_az,
                             aod_elevation=aod_el, aoa_azimuth=aoa_az)
    return tensor_grid(chans, codebook, frame)[0, 0]


def tensor_grid(channels, codebook, frame):
    """scene.effective_tensor_map's rows on the dense (rows, cols, Na, Ne,
    Nr) grid, zero at the pixels without paths."""
    pixel_ids, rows = sc.effective_tensor_map(channels, codebook, frame)
    out = np.zeros((channels.rows * channels.cols,) + rows.shape[1:])
    out[pixel_ids] = rows
    return out.reshape(channels.rows, channels.cols, *rows.shape[1:])


def pixel_exclusion(tensors, budget):
    """metrics.exclusion_mask of a dense (rows, cols, ...) tensor grid: one
    flag per pixel."""
    return mt.exclusion_mask(tensors.reshape(*tensors.shape[:2], -1), budget)


def block_grid(block_ids, means, grid):
    """scene.downscale_tensor_map's compact (block_ids, means, grid) on the
    dense block grid: (downscaled, out_valid), downscaled of shape grid +
    means.shape[1:], zero at the blocks without a valid row."""
    dense = np.zeros((grid[0] * grid[1],) + means.shape[1:])
    dense[block_ids] = means
    out_valid = np.zeros(grid, dtype=bool)
    out_valid.flat[block_ids] = True
    return dense.reshape(*grid, *means.shape[1:]), out_valid


def downscale_grid(tensors, valid=None, factor=4):
    """scene.downscale_tensor_map of a dense (rows, cols, ...) tensor grid,
    every pixel a row, on the dense block grid (block_grid)."""
    rows, cols = tensors.shape[:2]
    return block_grid(*sc.downscale_tensor_map(
        np.arange(rows * cols), tensors.reshape(rows * cols, *tensors.shape[2:]),
        (rows, cols), None if valid is None else valid.ravel(), factor))


def downscale_consistency(hi, lo, k, budget=None, hi_valid=None):
    """Score the low-res ranking as a predictor for the high-res ground truth.

    The descending beam order of each low-res tensor serves as the candidate
    ranking for every valid pixel of its block; returns (top-k accuracy,
    top-k throughput ratio) computed by the metrics module.
    """
    hi = np.asarray(hi)
    lo = np.asarray(lo)
    budget = budget or mt.LinkBudget()
    hr, hc = hi.shape[:2]
    lr, lc = lo.shape[:2]
    if hr % lr or hc % lc or hr // lr != hc // lc:
        raise ValueError(f"high-res {hr}x{hc} is not an integer multiple of low-res {lr}x{lc}")
    factor = hr // lr
    hi_flat = hi.reshape(hr, hc, -1)
    if hi_valid is None:
        hi_valid = ~mt.exclusion_mask(hi_flat, budget)
    lo_rank = ranking_from_scores(lo.reshape(lr * lc, -1))
    block = (np.arange(hr)[:, None] // factor) * lc + (np.arange(hc)[None, :] // factor)
    preds = lo_rank[block[hi_valid]]
    report, _ = mt.evaluate_ranking(hi_flat[hi_valid], preds, [k], budget)
    return report.accuracy[0], report.tpr[0]


# The dense tensor pipeline that scene.effective_tensor_map and
# scene.downscale_tensor_map replaced: a tensor for every pixel of the grid,
# and a block sum over the whole grid with the invalid pixels zeroed. The
# compact code must reproduce its bytes.

def effective_tensor_map_reference(channels, codebook, frame):
    """Per-pixel beam power tensors, shape (rows, cols, Na, Ne, Nr)."""
    rows, cols = channels.rows, channels.cols
    out = np.zeros((rows * cols, codebook.na, codebook.ne, codebook.nr))
    if channels.n_paths:
        phi, theta = ch.global_to_array_frame(
            channels.aod_azimuth, channels.aod_elevation, frame)
        bs = ch.beamspace_angles(phi, theta)
        g_az, g_el = ch.gain_profiles(bs.varphi, bs.vartheta, codebook)
        sectors = np.atleast_1d(ch.sector_index(channels.aoa_azimuth, codebook.nr))
        _kernels.accumulate_tensors(channels.pixel, sectors,
                                    channels.magnitude ** 2, g_az, g_el, out)
    return out.reshape(rows, cols, codebook.na, codebook.ne, codebook.nr)


def downscale_tensor_map_reference(tensors, valid=None, factor=4):
    """Block means of the valid dense tensors; returns (downscaled, out_valid)."""
    tensors = np.asarray(tensors)
    rows, cols = tensors.shape[:2]
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


def tensorize_reference(channels, codebook, frame, budget, factor):
    """The tensors (f32), ground truth and mask that `tensorize` wrote
    from the dense pipeline: (tensors, gt, valid) on the output grid."""
    tensors = effective_tensor_map_reference(channels, codebook, frame)
    valid = ~pixel_exclusion(tensors, budget)
    if factor > 1:
        tensors, block_valid = downscale_tensor_map_reference(tensors, valid, factor)
        valid = block_valid & ~pixel_exclusion(tensors, budget)
    flat = tensors.reshape(tensors.shape[0], tensors.shape[1], -1).astype(np.float32)
    return flat, np.argmax(flat, axis=-1), valid


def trace_reference(hm, tx, cfg):
    """Per-pixel loop tracer: march each candidate and find specular points
    with the scalar kernels of conftest (march, mirror_hit), using the
    tracer's formulas.

    Returns (counts, paths, has_direct, direct_veg_db): the path count of
    each pixel, one (magnitude, phase, aod_az, aod_el, aoa_az) row per path
    in storage order, and each pixel's direct path flag and its vegetation
    loss in dB.
    """
    res = hm.resolution_m
    walls = sc.exterior_walls(hm.building, res)
    tx_x, tx_y = sc.pixel_center(tx.pixel, res)
    tx_z = tx.height_m
    rx_z = cfg.rx_height_m
    lam = cfg.wavelength_m
    refl_amp = 10.0 ** (-cfg.reflection_loss_db / 20.0)
    eps = 1e-6 * res
    counts = np.zeros((hm.rows, hm.cols), dtype=np.int64)
    has_direct = np.zeros((hm.rows, hm.cols), dtype=bool)
    direct_veg_db = np.zeros((hm.rows, hm.cols))
    paths = []

    def clear(x0, y0, z0, x1, y1, z1):
        return march(hm.building, hm.vegetation, x0, y0, z0, x1, y1, z1, res)

    def add(r, c, amp, length, toward, arrival):
        # toward: the point the path leaves tx for; arrival: the horizontal
        # vector from rx back along the arriving path
        dx, dy = toward[0] - tx_x, toward[1] - tx_y
        paths.append((amp, (-ch.TWO_PI * length / lam) % ch.TWO_PI,
                      _kernels._bearing(dx, dy),
                      math.atan2(toward[2] - tx_z, math.hypot(dx, dy)),
                      _kernels._bearing(*arrival)))
        counts[r, c] += 1

    for r in range(hm.rows):
        for c in range(hm.cols):
            if hm.building[r, c] > 0.0:
                continue
            rx_x, rx_y = sc.pixel_center((r, c), res)
            d2 = (rx_x - tx_x) ** 2 + (rx_y - tx_y) ** 2 + (rx_z - tx_z) ** 2
            if d2 > 0.0:
                visible, veg_len = clear(tx_x, tx_y, tx_z, rx_x, rx_y, rx_z)
                if visible:
                    d = math.sqrt(d2)
                    att_db = cfg.vegetation_db_per_m * veg_len
                    has_direct[r, c] = True
                    direct_veg_db[r, c] = att_db
                    add(r, c, lam / (4.0 * math.pi * d) * 10.0 ** (-att_db / 20.0), d,
                        (rx_x, rx_y, rx_z), (-(rx_x - tx_x), -(rx_y - tx_y)))
            for wall in walls:
                ok, hx, hy, hz, plen = mirror_hit(wall, tx_x, tx_y, tx_z,
                                                  rx_x, rx_y, rx_z)
                if not ok:
                    continue
                if wall[0] == 0.0:
                    hx += eps * wall[5]
                else:
                    hy += eps * wall[5]
                if (clear(tx_x, tx_y, tx_z, hx, hy, hz)[0]
                        and clear(hx, hy, hz, rx_x, rx_y, rx_z)[0]):
                    add(r, c, lam / (4.0 * math.pi * plen) * refl_amp, plen,
                        (hx, hy, hz), (hx - rx_x, hy - rx_y))
    return counts, np.array(paths).reshape(-1, 5), has_direct, direct_veg_db


def los_class_reference(trace):
    """LoS classes by the per-pixel rule on trace_reference's output: a
    pixel with a direct path is LOS_DOMINANT only when that path crossed no
    vegetation and no other arrival of the pixel is stronger, else
    LOS_ATTENUATED; every other pixel is NLOS."""
    counts, paths, has_direct, direct_veg_db = trace
    ends = np.cumsum(counts).reshape(counts.shape)
    out = np.full(counts.shape, sc.NLOS, dtype=np.uint8)
    for r in range(counts.shape[0]):
        for c in range(counts.shape[1]):
            if not has_direct[r, c]:
                continue
            mags = paths[ends[r, c] - counts[r, c]:ends[r, c], 0]
            attenuated = direct_veg_db[r, c] > 0.0 or mags[0] < mags.max()
            out[r, c] = sc.LOS_ATTENUATED if attenuated else sc.LOS_DOMINANT
    return out


def accumulate_tensors_reference(pixel_ids, sectors, c2, g_az, g_el, out):
    """The per-path loop that _kernels.accumulate_tensors must match bit for
    bit: every element sums its terms in path order, each term formed as
    (c2 * g_az) * g_el."""
    for p in range(pixel_ids.size):
        pix, s, w = pixel_ids[p], sectors[p], c2[p]
        for ia in range(g_az.shape[1]):
            ga = w * g_az[p, ia]
            for ie in range(g_el.shape[1]):
                out[pix, ia, ie, s] += ga * g_el[p, ie]


def building_edge_pixels_reference(hm):
    """The per-pixel loop that scene.building_edge_pixels must match: a
    row-major list of building pixels with at least one 4-neighbour street
    pixel, neighbours scanned north, west, east, south."""
    b = hm.building
    edges = []
    for r in range(hm.rows):
        for c in range(hm.cols):
            if b[r, c] <= 0.0:
                continue
            for dr, dc in sc._NEIGHBORS:
                rr, cc = r + dr, c + dc
                if 0 <= rr < hm.rows and 0 <= cc < hm.cols and b[rr, cc] <= 0.0:
                    edges.append((r, c))
                    break
    return edges


def exterior_walls_reference(building, res=1.0):
    """The two per-axis run loops that scene.exterior_walls must match byte
    for byte: maximal vertical wall rectangles between building and street
    cells.

    Each row is (axis, plane, lo, hi, height, normal): axis 0 walls lie in a
    plane of constant x (east coordinate), axis 1 constant y; lo/hi span the
    other axis; normal is +/-1 along the axis, pointing to the street side.
    Colinear unit faces merge only when the building height matches, so a
    wall is always a well-defined rectangle from the ground up.
    """
    rows, cols = building.shape
    walls = []

    def flush(axis, plane, lo, hi, height, normal):
        walls.append((float(axis), plane * res, lo * res, hi * res, height, float(normal)))

    for c in range(cols - 1):
        plane = c + 1
        for normal in (1.0, -1.0):
            run_start = None
            run_h = 0.0
            for r in range(rows + 1):
                if r < rows:
                    left, right = building[r, c], building[r, c + 1]
                    face = (left > 0.0 and right <= 0.0 and normal > 0) or \
                           (right > 0.0 and left <= 0.0 and normal < 0)
                    h = left if normal > 0 else right
                else:
                    face, h = False, 0.0
                if face and run_start is not None and h == run_h:
                    continue
                if run_start is not None:
                    flush(0, plane, run_start, r, run_h, normal)
                    run_start = None
                if face:
                    run_start, run_h = r, h
    for r in range(rows - 1):
        plane = r + 1
        for normal in (1.0, -1.0):
            run_start = None
            run_h = 0.0
            for c in range(cols + 1):
                if c < cols:
                    top, bottom = building[r, c], building[r + 1, c]
                    face = (top > 0.0 and bottom <= 0.0 and normal > 0) or \
                           (bottom > 0.0 and top <= 0.0 and normal < 0)
                    h = top if normal > 0 else bottom
                else:
                    face, h = False, 0.0
                if face and run_start is not None and h == run_h:
                    continue
                if run_start is not None:
                    flush(1, plane, run_start, c, run_h, normal)
                    run_start = None
                if face:
                    run_start, run_h = c, h
    if not walls:
        return np.zeros((0, 6))
    return np.array(walls, dtype=np.float64)


# A grid file's bytes, and the grid read from bytes: no stage needs either,
# so they live here for the format and fuzz tests. grid_from_bytes runs the
# package's stream reader over the bytes.

def grid_to_bytes(array, dtype="f32"):
    header, payload = gridio._encode_grid(array, dtype)
    return header + payload.tobytes()


def grid_from_bytes(data):
    return gridio._read_grid_from(io.BytesIO(data), "grid bytes")


# The prediction and ranking code that predictor.oracle_predictor, predict
# and flat_ranking replaced: a score grid over every pixel, every pixel
# ranked, then the valid rows selected. The new code, which scores and
# ranks the valid rows alone, must reproduce its bytes. ranking_from_scores
# and ir_ranking are the ranking functions that flat_ranking absorbed
# (from metrics and losses), unchanged.

def oracle_reference(tensors):
    """Oracle scores of every pixel of a (rows, cols, ...) float64 tensor
    grid, shape (rows, cols, B)."""
    rows, cols = tensors.shape[:2]
    return 10.0 * np.log10(tensors.reshape(rows, cols, -1) + 1e-30)


def predict_reference(model, features):
    """Model scores of every pixel of a (rows, cols, F) feature grid."""
    rows, cols, f = features.shape
    return (features.reshape(-1, f) @ model.weights + model.bias).reshape(rows, cols, -1)


def ranking_from_scores(scores):
    """Descending beam order per sample; equal scores keep flat-index order."""
    scores = np.asarray(scores)
    return np.argsort(-scores, axis=-1, kind="stable")


def ir_ranking(pred_triple, dims):
    """Beams ordered by Euclidean index distance to the regressed triple.

    pred_triple has shape (..., 3); the order runs over the last axis.
    """
    na, ne, nr = dims
    lattice = np.stack(np.meshgrid(np.arange(na), np.arange(ne), np.arange(nr),
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    pred = np.asarray(pred_triple, dtype=np.float64)[..., None, :]
    d2 = ((lattice - pred) ** 2).sum(axis=-1)
    return np.argsort(d2, axis=-1, kind="stable")  # ties fall back to flat order


def ranking_reference(scores, dims, kind):
    """Full beam order of every pixel of a (rows, cols, C) score grid,
    shape (rows, cols, Na*Ne*Nr)."""
    na, ne, nr = dims
    b = na * ne * nr
    flat = scores.reshape(-1, scores.shape[-1])
    if kind == "joint":
        order = ranking_from_scores(flat)
    elif kind == "sep":
        za = flat[:, :na]
        ze = flat[:, na:na + ne]
        zr = flat[:, na + ne:]
        joint = (za[:, :, None, None] + ze[:, None, :, None]
                 + zr[:, None, None, :]).reshape(-1, b)
        order = ranking_from_scores(joint)
    elif kind == "ir":
        order = ir_ranking(flat, dims)
    else:
        raise ValueError(f"unknown prediction kind {kind!r}")
    return order.reshape(scores.shape[0], scores.shape[1], b)


def flat_ranking_reference(scores, valid, dims, kind):
    """Rankings of the valid pixels of a score grid, row-major, shape (M, B)."""
    return ranking_reference(scores, dims, kind)[valid]


# The top-k accuracy and throughput ratio of a ranking, one sample and one
# beam at a time in Python floats: the independent check on
# metrics.evaluate_ranking. They call no metrics code.

def rate_reference(power, budget):
    """Shannon rate log2(1 + SNR) of one beam's unit-transmit-power path
    gain: the received power is the transmit power plus the gain in dB, the
    noise the thermal noise over the bandwidth plus the noise figure; a zero
    gain has rate 0."""
    if power <= 0.0:
        return 0.0
    noise_dbm = (budget.noise_psd_dbm_hz + 10.0 * math.log10(budget.bandwidth_hz)
                 + budget.noise_figure_db)
    rx_dbm = budget.tx_power_dbm + 10.0 * math.log10(power)
    return math.log2(1.0 + 10.0 ** ((rx_dbm - noise_dbm) / 10.0))


def evaluate_ranking_reference(tensors, rankings, k_list, budget, excluded=0):
    """The report and the hits of a ranking, sample by sample: per k, the
    fraction of the samples whose strongest beam (the first one, on ties)
    is among their first k candidates, and the sum of the best rate among
    those candidates over the sum of the optimal rates. hits[i][j] is
    sample j's hit at the i-th k."""
    n = len(rankings)
    hits = [[False] * n for _ in k_list]
    achieved = [0.0] * len(k_list)
    optimal = 0.0
    for j in range(n):
        powers = [float(p) for p in np.ravel(tensors[j])]
        truth = powers.index(max(powers))
        rates = [rate_reference(p, budget) for p in powers]
        candidates = [int(c) for c in rankings[j]]
        optimal += max(rates)
        for i, k in enumerate(k_list):
            hits[i][j] = truth in candidates[:k]
            achieved[i] += max(rates[c] for c in candidates[:k])
    report = mt.EvalReport(k_list=list(k_list), accuracy=[sum(h) / n for h in hits],
                           tpr=[a / optimal for a in achieved], samples=n,
                           excluded=int(excluded))
    return report, hits


# Throughput ratios of evaluate_ranking and evaluate_ranking_reference may
# differ by this relative amount: NumPy's log10, power and log2 may round
# differently from math's, and NumPy sums pairwise. Over 20,000 random
# draws (1-40 samples, 1-64 beams, tx power -60 to 60 dBm) the largest
# difference was 2.2e-14; a wrong candidate, k or sample moves a ratio by
# far more.
TPR_REL_TOL = 1e-12


def assert_report_matches(report, ref):
    """report equals the reference report: accuracies exactly (both count
    the hits and divide once), throughput ratios within TPR_REL_TOL."""
    assert (report.k_list, report.samples, report.excluded) == \
        (ref.k_list, ref.samples, ref.excluded)
    assert report.accuracy == ref.accuracy
    assert report.tpr == pytest.approx(ref.tpr, rel=TPR_REL_TOL, abs=0.0)


def validity_masks(rows, cols):
    """Strategy: a (rows, cols) mask with no pixel, one pixel, some or every
    pixel valid."""
    n = rows * cols
    return st.one_of(
        st.just(np.zeros((rows, cols), bool)),
        st.integers(0, n - 1).map(lambda i: np.arange(n).reshape(rows, cols) == i),
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda bits: np.array(bits).reshape(rows, cols)),
        st.just(np.ones((rows, cols), bool)))


def evaluate_reference(tensors, valid, scores, dims, kind, k_list, budget):
    """The report and the top-k hit map images (uint8, 255 hit, 64 miss, 0
    invalid) of evaluate on a whole score grid, scored by
    evaluate_ranking_reference: tensors and scores are (rows, cols, ...)
    grids."""
    rankings = flat_ranking_reference(scores, valid, dims, kind)
    report, hits = evaluate_ranking_reference(tensors.astype(np.float64)[valid], rankings,
                                              k_list, budget, excluded=int((~valid).sum()))
    images = []
    for hit in hits:
        img = np.zeros(valid.shape, dtype=np.uint8)
        img[valid] = np.where(hit, 255, 64)
        images.append(img)
    return report, images


# The default dB floor of the CEP and GR targets.
FLOOR_DB = pr.LossConfig().floor_db

# The per-sample losses with their analytic gradients, one sample (one
# logit vector) at a time, and a finite-difference checker for them: the
# references the batch code of predictor is tested against.

def softmax(z, axis=-1):
    """Exponential normalisation, shifted by the maximum: the steps that
    predictor._batch_grad runs in place, in the same order."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(z, axis=-1):
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def ce_loss(logits, target_index):
    """Cross entropy of a one-hot target; grad = softmax(logits) - one_hot."""
    p = softmax(logits)
    loss = -log_softmax(logits)[target_index]
    grad = p.copy()
    grad[target_index] -= 1.0
    return float(loss), grad


def ce_loss_sep(logits_sep, target_triple):
    """Sum of per-head cross entropies for a factorised prediction."""
    parts, grads = zip(*(ce_loss(z, t) for z, t in zip(logits_sep, target_triple)))
    return float(sum(parts)), tuple(grads)


def cep_loss(logits, soft_target):
    """Cross entropy against a soft target; grad = softmax(logits) - target."""
    soft_target = np.asarray(soft_target, dtype=np.float64)
    if soft_target.shape != np.shape(logits):
        raise ValueError("logits and soft target shapes differ")
    logp = log_softmax(logits)
    loss = -float(np.dot(soft_target, logp))
    grad = softmax(logits) - soft_target
    return loss, grad


def cep_loss_sep(logits_sep, soft_sep):
    parts, grads = zip(*(cep_loss(z, s) for z, s in zip(logits_sep, soft_sep)))
    return float(sum(parts)), tuple(grads)


def ws_loss(logits, target_index, distances):
    """Expected ground distance from softmax(logits) to the target beam.

    This is the optimal-transport cost against the one-hot target: with a
    single target atom the transport plan is forced. The gradient flows
    through the softmax.
    """
    p = softmax(logits)
    d = np.asarray(distances, dtype=np.float64)[:, target_index]
    expected = float(p @ d)
    return expected, p * (d - expected)


def ws_loss_sep(logits_sep, target_triple):
    """Sum of three 1-D transport costs with |i - j| ground distances."""
    total = 0.0
    grads = []
    for z, t in zip(logits_sep, target_triple):
        n = np.size(z)
        d1 = np.abs(np.subtract.outer(np.arange(n, dtype=np.float64),
                                      np.arange(n, dtype=np.float64)))
        loss, grad = ws_loss(z, t, d1)
        total += loss
        grads.append(grad)
    return float(total), tuple(grads)


def ir_loss(pred_triple, target_triple):
    """Mean squared error of the three regressed index components."""
    pred = np.asarray(pred_triple, dtype=np.float64)
    target = np.asarray(target_triple, dtype=np.float64)
    if pred.shape != (3,):
        raise ValueError(
            "index regression is defined only on the factorised (sep) form "
            "with one scalar per beam axis")
    diff = pred - target
    return float((diff**2).mean()), 2.0 * diff / 3.0


def gr_loss(pred_db, target_tensor, floor_db=FLOOR_DB):
    """MSE between predicted and floored-dB tensors; grad = 2*(pred-t)/n."""
    pred = np.asarray(pred_db, dtype=np.float64)
    t = np.asarray(target_tensor, dtype=np.float64)
    target = floored_db_reference(t.reshape(1, -1), floor_db).reshape(t.shape)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float((diff**2).mean()), 2.0 * diff / diff.size


def grad_check(fn, point, step=1e-5):
    """Max relative deviation of the analytic gradient from central
    finite differences, coordinate by coordinate.

    fn maps a flat parameter array to (loss, grad). Only valid where fn is
    differentiable; ranking-only helpers have no gradient to check.
    """
    point = np.asarray(point, dtype=np.float64)
    _, grad = fn(point)
    numeric = np.empty_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (fn(hi)[0] - fn(lo)[0]) / (2.0 * step)
    dev = np.abs(grad - numeric) / (np.abs(numeric) + 1e-12)
    return float(dev.max())


# The references predictor.targets, _epoch_loss and _batch_grad must match
# byte for byte (CE-sep loss: to a few ulp, as it moved from
# -log(p + 1e-300) to log-softmax): targets built one sample at a time from
# the out-of-place formulas below, and the loss code the batch code
# replaced. batch_loss_grad_reference needs
# dmat = losses.beam_distance_matrix(dims) for joint WS.

def targets_reference(model, tensors):
    """Per-sample training targets derived from the beam power tensors, one
    sample at a time, from the out-of-place target formulas below."""
    t = np.asarray(tensors)
    n = t.shape[0]
    flat = t.reshape(n, -1)
    kind, floor_db = model.loss.kind, model.loss.floor_db
    if kind in ("CE", "WS"):
        idx = np.argmax(flat, axis=1)
        if not model.loss.sep:
            return idx
        triples = np.stack(np.unravel_index(idx, model.dims), axis=1)
        return triples
    if kind == "IR":
        idx = np.argmax(flat, axis=1)
        return np.stack(np.unravel_index(idx, model.dims), axis=1).astype(np.float64)
    if kind not in ("CEP", "GR"):
        raise ValueError(f"unknown loss kind {kind!r}")
    out = []
    for row in flat.astype(np.float64):
        if kind == "CEP":
            target = cep_target_reference(row[None], floor_db)[0]
            if model.loss.sep:
                joint = target.reshape(model.dims)
                target = np.concatenate([joint.sum(axis=(1, 2)), joint.sum(axis=(0, 2)),
                                         joint.sum(axis=(0, 1))])
        elif model.loss.sep:
            power = row.reshape(model.dims)
            target = np.concatenate([
                floored_db_reference(m[None], floor_db)[0]
                for m in (power.sum(axis=(1, 2)), power.sum(axis=(0, 2)),
                          power.sum(axis=(0, 1)))])
        else:
            target = floored_db_reference(row[None], floor_db)[0]
        out.append(target)
    b = model.weights.shape[1]
    return np.array(out).reshape(n, b)


def _head_slices(model):
    na, ne, nr = model.dims
    return (slice(0, na), slice(na, na + ne), slice(na + ne, na + ne + nr))


def batch_loss_grad_reference(model, z, targets, dmat=None):
    """Mean loss over the batch and its gradient w.r.t. the score matrix z.

    Matches the per-sample reference functions above: the batch
    value is the arithmetic mean of per-sample losses, the gradient its
    derivative.
    """
    n = z.shape[0]
    kind = model.loss.kind
    if kind in ("CE", "CEP"):
        if model.loss.sep and kind == "CE":
            loss = 0.0
            grad = np.zeros_like(z)
            for axis, sl in enumerate(_head_slices(model)):
                p = softmax(z[:, sl])
                t = targets[:, axis]
                loss += -np.log(p[np.arange(n), t] + 1e-300).mean()
                g = p
                g[np.arange(n), t] -= 1.0
                grad[:, sl] = g / n
            return loss, grad
        if model.loss.sep and kind == "CEP":
            loss = 0.0
            grad = np.zeros_like(z)
            for sl in _head_slices(model):
                p = softmax(z[:, sl])
                s = targets[:, sl]
                logp = z[:, sl] - z[:, sl].max(axis=1, keepdims=True)
                logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
                loss += -(s * logp).sum(axis=1).mean()
                grad[:, sl] = (p - s) / n
            return loss, grad
        p = softmax(z)
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
        if model.loss.sep:
            loss = 0.0
            grad = np.zeros_like(z)
            for axis, sl in enumerate(_head_slices(model)):
                m = sl.stop - sl.start
                d1 = np.abs(np.subtract.outer(np.arange(m, dtype=np.float64),
                                              np.arange(m, dtype=np.float64)))
                p = softmax(z[:, sl])
                d = d1[:, targets[:, axis]].T
                expected = (p * d).sum(axis=1)
                loss += expected.mean()
                grad[:, sl] = p * (d - expected[:, None]) / n
            return float(loss), grad
        p = softmax(z)
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


# The out-of-place forms of the floored dB and CEP soft targets, one row of
# beam powers per sample; predictor.targets, in place, must match them byte
# for byte.

def floored_db_reference(t, floor_db):
    """t in dB relative to each row's peak, floored at floor_db."""
    peak = t.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.where(t > 0.0, t / peak, 0.0))
    return np.maximum(db, floor_db)


def cep_target_reference(t, floor_db):
    """The floored dB rows shifted by -floor_db and normalised to sum 1."""
    shifted = floored_db_reference(t, floor_db) - floor_db
    return shifted / shifted.sum(axis=1, keepdims=True)


# The training loop and per-batch loss code that predictor.train,
# _epoch_loss and _batch_grad replaced, kept as the reference
# they must match byte for byte: weights, biases and the history repr. The
# bodies are verbatim but for the function names.

def batch_loss_reference(model, z, targets):
    """Mean loss over the batch: per head, the arithmetic mean of the
    per-sample losses above, summed over the heads."""
    n = z.shape[0]
    kind = model.loss.kind
    parts = []
    for cols, tcols, dist in _heads(model.dims, kind, model.loss.sep):
        zh, th = z[:, cols], targets[:, tcols]
        if kind in ("IR", "GR"):
            parts.append(((zh - th) ** 2).mean(axis=1).mean())
        elif kind == "WS":
            parts.append((softmax(zh, axis=1) * dist[:, th].T).sum(axis=1).mean())
        elif kind == "CE":
            parts.append(-log_softmax(zh, axis=1)[np.arange(n), th].mean())
        else:
            parts.append(-(th * log_softmax(zh, axis=1)).sum(axis=1).mean())
    # one head is kept as is: 0.0 + -0.0 would flip the sign of a zero loss
    loss = sum(parts) if len(parts) > 1 else parts[0]
    # NumPy scalar for CE-sep and CEP-sep: stagebench/reference.json pins the
    # CEP-sep history text "np.float64(...)"
    return loss if model.loss.sep and kind in ("CE", "CEP") else float(loss)


def batch_grad_reference(model, z, targets):
    """Gradient of _batch_loss with respect to the score matrix z."""
    n = z.shape[0]
    kind = model.loss.kind
    grad = np.empty_like(z)
    for cols, tcols, dist in _heads(model.dims, kind, model.loss.sep):
        zh, th = z[:, cols], targets[:, tcols]
        if kind in ("IR", "GR"):
            diff = zh - th
            grad[:, cols] = 2.0 * diff / (diff.shape[1] * n)
            continue
        p = softmax(zh, axis=1)
        if kind == "WS":
            d = dist[:, th].T
            expected = (p * d).sum(axis=1)
            grad[:, cols] = p * (d - expected[:, None]) / n
        elif kind == "CE":
            p[np.arange(n), th] -= 1.0
            grad[:, cols] = p / n
        else:
            grad[:, cols] = (p - th) / n
    return grad


def train_reference(model, x_train, tensors_train, hyper, x_val, tensors_val):
    """Mini-batch gradient descent; returns (trained model, history rows).
    Empty x_train or x_val raises EmptyTrainingSetError.

    History rows are (epoch, train_loss, val_loss, lr). The learning rate is
    multiplied by lr_decay whenever the validation loss has not improved for
    `patience` consecutive epochs; training stops early once the rate falls
    below lr * MIN_LR_FACTOR, read from the predictor module when it is
    reached, so a test that patches it there patches it here too. The
    returned model carries the weights of the best validation epoch.
    Deterministic given the model seed.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    if x_train.shape[0] == 0:
        raise EmptyTrainingSetError("no valid pixels to train on")
    if x_val.shape[0] == 0:
        raise EmptyTrainingSetError("no valid pixels to validate on")
    t_train = pr.targets(model, tensors_train)
    t_val = pr.targets(model, tensors_val)

    rng = np.random.default_rng(model.seed)
    w = model.weights.copy()
    b = model.bias.copy()
    lr = hyper.lr
    best = (math.inf, w.copy(), b.copy())
    since_improve = 0
    history = []

    n = x_train.shape[0]
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            xb = x_train[idx]
            gz = batch_grad_reference(model, xb @ w + b, t_train[idx])
            w -= lr * (xb.T @ gz)
            b -= lr * gz.sum(axis=0)
        train_loss = batch_loss_reference(model, x_train @ w + b, t_train)
        val_loss = batch_loss_reference(model, x_val @ w + b, t_val)
        history.append((epoch, train_loss, val_loss, lr))
        if val_loss < best[0]:
            best = (val_loss, w.copy(), b.copy())
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= hyper.patience:
                lr *= hyper.lr_decay
                since_improve = 0
                if lr < hyper.lr * pr.MIN_LR_FACTOR:
                    break
    trained = dataclasses.replace(model, weights=best[1], bias=best[2])
    return trained, history
