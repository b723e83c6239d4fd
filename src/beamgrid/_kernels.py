"""Hot numeric kernels: grid visibility marching and multipath tracing.

The loop kernels (march, mirror_hit, trace_fill, accumulate_tensors) are
plain loop code so the identical functions run either JIT-compiled through
numba (default) or as ordinary Python when the environment variable
BEAMGRID_BACKEND=numpy is set or numba is missing. BEAMGRID_THREADS caps the
numba worker count for the parallel kernels; results are bit-identical for
any thread count because every pixel writes only its own output slice.

The visibility pass (trace_count, march_batch) is NumPy array code on every
backend: it repeats the loop kernels' floating-point operations on arrays of
rays, so its results equal theirs bit for bit.
"""

import math
import os

import numpy as np

BACKEND = os.environ.get("BEAMGRID_BACKEND", "numba").strip().lower()
USE_NUMBA = BACKEND != "numpy"

if USE_NUMBA:
    try:
        import numba
        from numba import njit, prange
    except ImportError:  # documented fallback: run the loops in the interpreter
        USE_NUMBA = False

if USE_NUMBA:
    _threads = os.environ.get("BEAMGRID_THREADS")
    if _threads:
        try:
            n = max(1, min(int(_threads), numba.config.NUMBA_NUM_THREADS))
            numba.set_num_threads(n)
        except ValueError:
            pass
else:
    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap

    prange = range

TWO_PI = 2.0 * math.pi


@njit(cache=True)
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


@njit(cache=True)
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


@njit(cache=True)
def _bearing(dx, dy_row):
    """Azimuth with east = 0, counter-clockwise; grid rows grow southward."""
    a = math.atan2(-dy_row, dx)
    if a < 0.0:
        a += TWO_PI
    return a


def _reflection_candidates(walls, tx_x, tx_y, tx_z, rx_x, rx_y, rx_z, eps):
    """mirror_hit's tests for each wall on the vectors of receivers.

    Returns (receiver index, wall index, hx, hy, hz) of the pairs that pass,
    in wall order, with each hit point moved eps off the wall to its street
    side as trace_count and trace_fill do.
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
        t = (plane - i_al) / (rx_al[side] - i_al)
        h_ac = tx_ac + t * (rx_ac[side] - tx_ac)
        hz = tx_z + t * rx_z_tx
        ok = ~((h_ac < lo) | (h_ac > hi) | (hz < 0.0) | (hz > height))
        h_al = np.full(int(ok.sum()), plane + eps * nrm)
        hx, hy = (h_al, h_ac[ok]) if axis == 0.0 else (h_ac[ok], h_al)
        hits.append((side[ok], np.full(h_al.size, w), hx, hy, hz[ok]))
    if not hits:
        return (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 3
    return tuple(np.concatenate(a) for a in zip(*hits))


def trace_count(building, vegetation, walls, tx_x, tx_y, tx_z, rx_z, res):
    """Visibility of every candidate path; each candidate is marched once.

    Returns (visible, veg_len). visible has shape (rows*cols, 1 + n_walls)
    in row-major pixel order: column 0 flags the direct path, column 1+w
    the first-order reflection off wall w. veg_len is the direct path's
    vegetated length (0 where there is none). Building pixels get no paths.

    Plain NumPy on every backend: march_batch marches the direct paths of
    all street pixels together; each wall screens the vector of street
    pixels with mirror_hit's tests, and the surviving (pixel, wall) pairs
    march their first leg together and their second leg where the first is
    clear. Every step repeats the scalar kernels' operations, so the result
    equals a per-pixel loop over march and mirror_hit bit for bit.
    """
    rows, cols = building.shape
    n_walls = walls.shape[0]
    visible = np.zeros((rows * cols, 1 + n_walls), dtype=np.uint8)
    veg_len = np.zeros(rows * cols)
    eps = 1e-6 * res
    street = np.flatnonzero(~(building > 0.0).ravel())
    rx_x = (street % cols + 0.5) * res
    rx_y = (street // cols + 0.5) * res
    d2 = (rx_x - tx_x) ** 2 + (rx_y - tx_y) ** 2 + (rx_z - tx_z) ** 2
    sel = d2 > 0.0
    clear, vl = march_batch(building, vegetation, tx_x, tx_y, tx_z,
                            rx_x[sel], rx_y[sel], rx_z, res)
    lit = street[sel][clear]
    visible[lit, 0] = 1
    veg_len[lit] = vl[clear]

    pix, wall, hx, hy, hz = _reflection_candidates(walls, tx_x, tx_y, tx_z,
                                                   rx_x, rx_y, rx_z, eps)
    ok1, _ = march_batch(building, vegetation, tx_x, tx_y, tx_z, hx, hy, hz, res)
    pix, wall = pix[ok1], wall[ok1]
    ok2, _ = march_batch(building, vegetation, hx[ok1], hy[ok1], hz[ok1],
                         rx_x[pix], rx_y[pix], rx_z, res)
    visible[street[pix[ok2]], 1 + wall[ok2]] = 1
    return visible, veg_len


@njit(cache=True, parallel=True)
def trace_fill(visible, veg_len, walls, offsets, cols,
               tx_x, tx_y, tx_z, rx_z, res, lam, refl_amp, veg_db_per_m,
               amp_out, psi_out, aod_az_out, aod_el_out, aoa_az_out):
    """Fill per-path arrays for the paths trace_count found visible.

    Pixel p's paths occupy slots offsets[p]:offsets[p+1], the direct path
    first, then reflections in wall order. Amplitudes follow the free-space
    law lam/(4*pi*d); the direct path is further attenuated by its
    vegetated length, reflections by the fixed per-bounce loss. The phase
    is the carrier phase of the path length. Nothing is marched: only the
    specular point of each visible reflection is recomputed.
    """
    eps = 1e-6 * res
    four_pi = 4.0 * math.pi
    for idx in prange(visible.shape[0]):
        k = offsets[idx]
        end = offsets[idx + 1]
        r = idx // cols
        c = idx % cols
        rx_x = (c + 0.5) * res
        rx_y = (r + 0.5) * res
        if visible[idx, 0]:
            d = math.sqrt((rx_x - tx_x) ** 2 + (rx_y - tx_y) ** 2 + (rx_z - tx_z) ** 2)
            att_db = veg_db_per_m * veg_len[idx]
            amp_out[k] = lam / (four_pi * d) * 10.0 ** (-att_db / 20.0)
            psi_out[k] = (-TWO_PI * d / lam) % TWO_PI
            dxh = rx_x - tx_x
            dyh = rx_y - tx_y
            aod_az_out[k] = _bearing(dxh, dyh)
            aod_el_out[k] = math.atan2(rx_z - tx_z, math.hypot(dxh, dyh))
            aoa_az_out[k] = _bearing(-dxh, -dyh)
            k += 1
        for w in range(walls.shape[0]):
            if k == end:
                break
            if not visible[idx, 1 + w]:
                continue
            _, hx, hy, hz, plen = mirror_hit(walls[w], tx_x, tx_y, tx_z, rx_x, rx_y, rx_z)
            if walls[w, 0] == 0.0:
                hx += eps * walls[w, 5]
            else:
                hy += eps * walls[w, 5]
            amp_out[k] = lam / (four_pi * plen) * refl_amp
            psi_out[k] = (-TWO_PI * plen / lam) % TWO_PI
            dxh = hx - tx_x
            dyh = hy - tx_y
            aod_az_out[k] = _bearing(dxh, dyh)
            aod_el_out[k] = math.atan2(hz - tx_z, math.hypot(dxh, dyh))
            aoa_az_out[k] = _bearing(hx - rx_x, hy - rx_y)
            k += 1


@njit(cache=True)
def accumulate_tensors(pixel_ids, sectors, c2, g_az, g_el, out):
    """Sum per-path rank-1 contributions into per-pixel beam tensors.

    out has shape (n_pixels, Na, Ne, Nr); paths are grouped arbitrarily but
    the summation order is the array order, so results are deterministic.
    """
    na = g_az.shape[1]
    ne = g_el.shape[1]
    for p in range(pixel_ids.size):
        pix = pixel_ids[p]
        s = sectors[p]
        w = c2[p]
        for ia in range(na):
            ga = w * g_az[p, ia]
            for ie in range(ne):
                out[pix, ia, ie, s] += ga * g_el[p, ie]
