"""Hot numeric kernels: grid visibility marching and multipath tracing.

The tracer (trace_count, trace_fill) and accumulate_tensors are NumPy array
code. They repeat the floating-point operations of the scalar kernels
march and mirror_hit, which segment_clear and the tests use as the
per-path reference, in the same order, so their results equal a per-pixel
loop bit for bit. The math-library calls whose NumPy versions round
differently (atan2, hypot, x ** y, and so _bearing) stay scalar math calls
over the visible paths, a few thousand per scene.
"""

import math
from typing import NamedTuple

import numpy as np

# The kernels are plain NumPy; nothing is JIT-compiled. Kept because the
# stage benchmark reads it to label the backend that ran.
USE_NUMBA = False

TWO_PI = 2.0 * math.pi


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


# Rays marched together by march_batch. A batch keeps about 70 float64
# values of working state per ray, so this bounds the working set (~9 MB)
# however many rays a scene has; on 128x128 scenes batches of 2**12 to
# 2**17 rays traced equally fast.
MARCH_BATCH_RAYS = 1 << 14


def march_batch(building, vegetation, x0, y0, z0, x1, y1, z1, res):
    """march over many segments at once; returns (clear, veg_len) arrays.

    The endpoint coordinates broadcast to one 1-D shape. Every ray takes
    march's statements in the same order on float64 arrays, so each result
    equals march's bit for bit. Rays run in batches of MARCH_BATCH_RAYS; a
    ray leaves the active set once it is blocked or its step reaches t >= 1.
    """
    ends = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64) for a in (x0, y0, z0, x1, y1, z1)))
    # Cells outside the grid neither block nor hold canopy: every cell index
    # is clipped onto a one-cell border of -inf buildings and no vegetation.
    rows, cols = building.shape
    bld = np.full((rows + 2, cols + 2), -np.inf)
    bld[1:-1, 1:-1] = building
    veg = np.zeros((rows + 2, cols + 2))
    veg[1:-1, 1:-1] = vegetation
    n = ends[0].size
    clear = np.zeros(n, dtype=bool)
    veg_len = np.zeros(n)
    for start in range(0, n, MARCH_BATCH_RAYS):
        part = slice(start, start + MARCH_BATCH_RAYS)
        clear[part], veg_len[part] = _march_rays(bld, veg, *(a[part] for a in ends), res)
    return clear, veg_len


def _march_rays(bld, veg, x0, y0, z0, x1, y1, z1, res):
    """march_batch on one batch, over grids padded by a one-cell border."""
    swap = (x0 > x1) | ((x0 == x1) & ((y0 > y1) | ((y0 == y1) & (z0 > z1))))
    x0, x1 = np.where(swap, x1, x0), np.where(swap, x0, x1)
    y0, y1 = np.where(swap, y1, y0), np.where(swap, y0, y1)
    z0, z1 = np.where(swap, z1, z0), np.where(swap, z0, z1)
    dx = x1 - x0
    dy = y1 - y0
    dz = z1 - z0
    seg_len = np.sqrt(dx * dx + dy * dy + dz * dz)
    c0 = np.floor(x0 / res).astype(np.int64)
    r0 = np.floor(y0 / res).astype(np.int64)
    c1 = np.floor(x1 / res).astype(np.int64)
    r1 = np.floor(y1 / res).astype(np.int64)
    step_c, t_mx, t_dx = _traversal_setup(c0, x0, dx, res)
    step_r, t_my, t_dy = _traversal_setup(r0, y0, dy, res)
    rows, cols = bld.shape
    bld = bld.ravel()
    veg = veg.ravel()

    def cell(r, c):
        # flat index into the padded grids; off-grid cells clamp to the border
        return np.clip(r + 1, 0, rows - 1) * cols + np.clip(c + 1, 0, cols - 1)

    n = x0.size
    clear = np.zeros(n, dtype=bool)
    veg_out = np.zeros(n)
    ray = np.arange(n)
    end0 = cell(r0, c0)
    end1 = cell(r1, c1)
    c, r = c0, r0
    veg_len = np.zeros(n)
    t_prev = np.zeros(n)
    while ray.size:
        t_next = np.where(t_mx < t_my, t_mx, t_my)
        np.minimum(t_next, 1.0, out=t_next)
        here = cell(r, c)
        za = z0 + dz * t_prev
        zb = z0 + dz * t_next
        zmin = np.where(za < zb, za, zb)
        step = t_next > t_prev
        blocked = step & (here != end0) & (here != end1) & (bld[here] > zmin)
        v = veg[here]
        k = np.flatnonzero(step & ~blocked & (v > 0.0))
        if k.size:
            veg_len[k] += _vegetated_length(v[k], z0[k], dz[k], t_prev[k],
                                            t_next[k], seg_len[k])
        done = blocked | (t_next >= 1.0)
        adv_x = t_mx <= t_my
        adv_y = t_my <= t_mx
        t_prev = t_next
        c = c + step_c * adv_x
        t_mx = np.where(adv_x, t_mx + t_dx, t_mx)
        r = r + step_r * adv_y
        t_my = np.where(adv_y, t_my + t_dy, t_my)
        if done.any():
            clear[ray[done & ~blocked]] = True
            veg_out[ray[done]] = veg_len[done]
            keep = ~done
            (ray, z0, dz, seg_len, end0, end1, step_c, step_r, t_dx, t_dy,
             c, r, t_mx, t_my, t_prev, veg_len) = (
                a[keep] for a in (ray, z0, dz, seg_len, end0, end1, step_c, step_r,
                                  t_dx, t_dy, c, r, t_mx, t_my, t_prev, veg_len))
    return clear, veg_out


def _traversal_setup(cell0, p0, d, res):
    """march's per-axis step, first crossing and crossing spacing in t."""
    step = np.zeros(d.size, dtype=np.int64)
    t_m = np.full(d.size, math.inf)
    t_d = np.full(d.size, math.inf)
    pos = d > 0.0
    neg = d < 0.0
    step[pos] = 1
    t_m[pos] = ((cell0[pos] + 1) * res - p0[pos]) / d[pos]
    t_d[pos] = res / d[pos]
    step[neg] = -1
    t_m[neg] = (cell0[neg] * res - p0[neg]) / d[neg]
    t_d[neg] = -res / d[neg]
    return step, t_m, t_d


def _vegetated_length(v, z0, dz, t_prev, t_next, seg_len):
    """march's vegetation increment for one step of rays in cells with
    canopy height v > 0."""
    add = np.zeros(v.size)
    flat = dz == 0.0
    low = flat & (z0 < v)
    add[low] = (t_next[low] - t_prev[low]) * seg_len[low]
    s = ~flat
    tc = (v[s] - z0[s]) / dz[s]
    up = dz[s] > 0.0
    lo = np.where(up, t_prev[s], np.where(tc > t_prev[s], tc, t_prev[s]))
    hi = np.where(up, np.where(tc < t_next[s], tc, t_next[s]), t_next[s])
    add[s] = np.where(hi > lo, (hi - lo) * seg_len[s], 0.0)
    return add


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


def _bearing(dx, dy_row):
    """Azimuth with east = 0, counter-clockwise; grid rows grow southward."""
    a = math.atan2(-dy_row, dx)
    if a < 0.0:
        a += TWO_PI
    return a


def _math_map(fn, *arrays):
    """fn over the arrays' elements as Python floats, as a float64 array.

    NumPy's arctan2, hypot and power round differently from math.atan2,
    math.hypot and Python's ** on some inputs; this keeps the scalar
    results.
    """
    return np.array([fn(*v) for v in zip(*(a.tolist() for a in arrays))],
                    dtype=np.float64)


def _reflection_candidates(walls, tx_x, tx_y, tx_z, rx_x, rx_y, rx_z, eps):
    """mirror_hit's tests for each wall on the vectors of receivers.

    Returns (receiver index, wall index, hx, hy, hz, path_len) of the pairs
    that pass, in wall order, with each hit point moved eps off the wall to
    its street side and path_len mirror_hit's image-to-receiver distance.
    """
    hits = []
    rx_z_tx = rx_z - tx_z
    for w in range(walls.shape[0]):
        axis, plane, lo, hi, height, nrm = walls[w]
        # mirror_hit with (along, across) = (x, y) for axis 0, (y, x) for axis 1
        tx_al, tx_ac, rx_al, rx_ac = (tx_x, tx_y, rx_x, rx_y) if axis == 0.0 \
            else (tx_y, tx_x, rx_y, rx_x)
        if (tx_al - plane) * nrm <= 0.0:
            continue
        side = np.flatnonzero((rx_al - plane) * nrm > 0.0)
        i_al = 2.0 * plane - tx_al
        d_al = rx_al[side] - i_al
        d_ac = rx_ac[side] - tx_ac
        t = (plane - i_al) / d_al
        h_ac = tx_ac + t * d_ac
        hz = tx_z + t * rx_z_tx
        ok = ~((h_ac < lo) | (h_ac > hi) | (hz < 0.0) | (hz > height))
        ddx, ddy = (d_al[ok], d_ac[ok]) if axis == 0.0 else (d_ac[ok], d_al[ok])
        path_len = np.sqrt(ddx * ddx + ddy * ddy + rx_z_tx * rx_z_tx)
        h_al = np.full(path_len.size, plane + eps * nrm)
        hx, hy = (h_al, h_ac[ok]) if axis == 0.0 else (h_ac[ok], h_al)
        hits.append((side[ok], np.full(h_al.size, w), hx, hy, hz[ok], path_len))
    if not hits:
        return (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 4
    return tuple(np.concatenate(a) for a in zip(*hits))


class VisiblePaths(NamedTuple):
    """One entry per visible path, sorted pixel-major and, within a pixel,
    by slot: 0 for the direct path, 1 + w for the reflection off wall w.

    veg_len is the direct path's vegetated length (0 for reflections).
    (x, y, z) is the point the path leaves the transmitter for: the
    receiver of a direct path, the eps-offset hit point of a reflection.
    length is the unfolded path length.
    """

    pixel: np.ndarray
    slot: np.ndarray
    veg_len: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    length: np.ndarray


def trace_count(building, vegetation, walls, tx_x, tx_y, tx_z, rx_z, res):
    """The visible paths to every street pixel, as VisiblePaths; each
    candidate path is marched once. Building pixels get no paths.

    march_batch marches the direct paths of all street pixels together.
    Each wall screens the vector of street pixels with mirror_hit's tests,
    and the surviving (pixel, wall) pairs march their first leg together
    and their second leg where the first is clear. Every step repeats the
    scalar kernels' operations, so the list equals a per-pixel loop over
    march and mirror_hit bit for bit.
    """
    cols = building.shape[1]
    street = np.flatnonzero(~(building > 0.0).ravel())
    rx_x = (street % cols + 0.5) * res
    rx_y = (street // cols + 0.5) * res
    d2 = (rx_x - tx_x) ** 2 + (rx_y - tx_y) ** 2 + (rx_z - tx_z) ** 2
    sel = np.flatnonzero(d2 > 0.0)
    clear, veg_len = march_batch(building, vegetation, tx_x, tx_y, tx_z,
                                 rx_x[sel], rx_y[sel], rx_z, res)
    lit = sel[clear]
    n_dir = lit.size
    # libm's pow(x, 2), which Python's ** calls, is not always x * x
    dir_len = _math_map(lambda x, y, z: math.sqrt(x ** 2 + y ** 2 + z ** 2),
                        rx_x[lit] - tx_x, rx_y[lit] - tx_y,
                        np.full(n_dir, rx_z - tx_z))

    i, wall, hx, hy, hz, path_len = _reflection_candidates(
        walls, tx_x, tx_y, tx_z, rx_x, rx_y, rx_z, 1e-6 * res)
    ok1, _ = march_batch(building, vegetation, tx_x, tx_y, tx_z, hx, hy, hz, res)
    ok2, _ = march_batch(building, vegetation, hx[ok1], hy[ok1], hz[ok1],
                         rx_x[i[ok1]], rx_y[i[ok1]], rx_z, res)
    refl = np.flatnonzero(ok1)[ok2]

    paths = VisiblePaths(
        pixel=np.concatenate([street[lit], street[i[refl]]]),
        slot=np.concatenate([np.zeros(n_dir, dtype=np.int64), 1 + wall[refl]]),
        veg_len=np.concatenate([veg_len[clear], np.zeros(refl.size)]),
        x=np.concatenate([rx_x[lit], hx[refl]]),
        y=np.concatenate([rx_y[lit], hy[refl]]),
        z=np.concatenate([np.full(n_dir, float(rx_z)), hz[refl]]),
        length=np.concatenate([dir_len, path_len[refl]]))
    # direct entries come first and reflections wall-major, so a stable sort
    # by pixel puts each pixel's paths in slot order
    order = np.argsort(paths.pixel, kind="stable")
    return VisiblePaths(*(a[order] for a in paths))


def trace_fill(paths, cols, tx_x, tx_y, tx_z, res, lam, refl_amp, veg_db_per_m):
    """Values of the VisiblePaths: (amp, psi, aod_az, aod_el, aoa_az).

    Amplitudes follow the free-space law lam/(4*pi*d); the direct path is
    further attenuated by its vegetated length, reflections by the fixed
    per-bounce loss. The phase is the carrier phase of the path length.
    Nothing is marched and no hit point is recomputed.
    """
    direct = paths.slot == 0
    gain = np.full(direct.size, refl_amp)
    gain[direct] = _math_map(lambda a: 10.0 ** a,
                             -(veg_db_per_m * paths.veg_len[direct]) / 20.0)
    amp = lam / (4.0 * math.pi * paths.length) * gain
    psi = (-TWO_PI * paths.length / lam) % TWO_PI
    dep_x = paths.x - tx_x
    dep_y = paths.y - tx_y
    aod_az = _math_map(_bearing, dep_x, dep_y)
    aod_el = _math_map(lambda x, y, z: math.atan2(z, math.hypot(x, y)),
                       dep_x, dep_y, paths.z - tx_z)
    # a direct path arrives from the transmitter, a reflection from its hit point
    rx_x = (paths.pixel % cols + 0.5) * res
    rx_y = (paths.pixel // cols + 0.5) * res
    aoa_az = _math_map(_bearing, np.where(direct, -dep_x, paths.x - rx_x),
                       np.where(direct, -dep_y, paths.y - rx_y))
    return amp, psi, aod_az, aod_el, aoa_az


def accumulate_tensors(pixel_ids, sectors, c2, g_az, g_el, out):
    """Sum per-path rank-1 contributions into per-pixel beam tensors.

    out has shape (n_pixels, Na, Ne, Nr). np.add.at adds the contributions
    in path order, so every tensor element sums the same terms in the same
    order as a per-path loop and results are deterministic.
    """
    contrib = (c2[:, None] * g_az)[:, :, None] * g_el[:, None, :]
    np.add.at(out, (pixel_ids, slice(None), slice(None), sectors), contrib)
