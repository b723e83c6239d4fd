"""Hot numeric kernels: grid visibility marching and multipath tracing.

One kernel per job, all NumPy array code: march_batch is the grid march
(an Amanatides-Woo traversal over many rays at once), _surely_blocked the
screen that culls segments the march would surely find blocked,
_reflection_candidates the image-method screen, trace the tracer built
on them, and accumulate_tensors the per-pixel tensor sum. The march and
the screen share one segment driver (_in_batches: broadcasting, batching
and the canonical endpoint order) and one cell rule (_cell), on which the
screen's soundness rests. Each kernel repeats, in the same order, the
floating-point operations of a scalar per-path loop kept in the tests
(tests/conftest.py: march, mirror_hit and the accumulation loop), so its
results equal that loop bit for bit; the cull only skips marches whose
result is known. The math-library calls whose NumPy versions round
differently (atan2, hypot, x ** y, and so _bearing) stay scalar math
calls over the visible paths, a few thousand per scene.
"""

import math

import numpy as np

# The kernels are plain NumPy; nothing is JIT-compiled. Kept because the
# stage benchmark reads it to label the backend that ran.
USE_NUMBA = False

TWO_PI = 2.0 * math.pi


# Rays marched (and screened) together. A batch keeps about 70 float64
# values of working state per ray, so this bounds the working set (~9 MB)
# however many rays a scene has. On 128x128 and 256x256 scenes, batches of
# 2**13 to 2**16 rays traced within 5 % of each other; 2**12 was ~20 %
# slower.
MARCH_BATCH_RAYS = 1 << 14

# The surely-blocked screen that trace runs before its march: the
# number of evenly spaced points it tests on a segment, and the margin in
# metres by which a point must lie inside its cell on both plan axes.
# 8 to 16 points traced 64x64 and 128x128 scenes equally fast; at 256x256,
# 12 and 16 were ~12 % faster than 8 and 24.
CULL_SAMPLES = 12
CULL_MARGIN_M = 1e-6


def march_batch(building, vegetation, x0, y0, z0, x1, y1, z1, res):
    """Walk the 2D cell grid under each 3D segment (x0,y0,z0)->(x1,y1,z1).

    Returns (clear, vegetated_length_m) arrays, one entry per segment. A
    cell blocks when its building height rises above the segment anywhere
    inside the cell; the two endpoint cells never block (antennas sit on or
    next to structures). Vegetated length integrates the 3D length spent
    below the canopy height and counts every cell, endpoints included; it
    is only meaningful when the segment is clear. The segments run through
    _in_batches, which puts their endpoints in canonical order, so each
    result is exactly symmetric under swapping them.
    """
    # Cells outside the grid neither block nor hold canopy: every cell index
    # is clamped onto a one-cell border of -inf buildings and no vegetation.
    return _in_batches(_march_rays, (_bordered(building, -np.inf), _bordered(vegetation, 0.0)),
                       (x0, y0, z0, x1, y1, z1), res)


def _surely_blocked(building, x0, y0, z0, x1, y1, z1, res):
    """Which segments march_batch is sure to report blocked, as a bool array.

    A segment is culled when, at one of CULL_SAMPLES evenly spaced points,
    the point lies at least CULL_MARGIN_M inside a grid cell that is not an
    endpoint cell, on both plan axes, and below that cell's building
    height. As the margin exceeds the march's rounding of its cell
    crossings, the march then visits that cell over a t-interval of nonzero
    length that contains the point. The screen and the march share
    _in_batches, so they see the same canonical endpoints, and both compute
    heights as z0 + dz * t; rounding is monotone, so the lower of the
    march's heights at the ends of that t-interval is at most the point's:
    the march finds the cell blocking. A culled segment is always blocked;
    a kept one may be either.
    """
    return _in_batches(_screen_rays, (_bordered(building, -np.inf),),
                       (x0, y0, z0, x1, y1, z1), res)[0]


def _in_batches(kernel, grids, ends, res):
    """kernel(*grids, x0, y0, z0, x1, y1, z1, res) over the segments whose
    endpoint coordinates are ends: a tuple with one array per kernel output,
    one entry per segment.

    The six coordinates broadcast to one 1-D float64 shape (pass 1-element
    arrays for a single segment). The kernel sees MARCH_BATCH_RAYS segments
    at a time, in canonical order. Zero segments run it once on empty
    arrays, which gives empty outputs of its dtypes.
    """
    ends = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in ends))
    outs = [kernel(*grids, *_canonical(*(a[start:start + MARCH_BATCH_RAYS] for a in ends)), res)
            for start in range(0, max(ends[0].size, 1), MARCH_BATCH_RAYS)]
    return tuple(np.concatenate(parts) for parts in zip(*outs))


def _bordered(grid, value):
    """The 2D grid inside a one-cell border of value."""
    out = np.full((grid.shape[0] + 2, grid.shape[1] + 2), value)
    out[1:-1, 1:-1] = grid
    return out


def _cell(shape, r, c):
    """The flat indices of the cells (r, c), ints or floored floats, in a
    grid of the given shape that is padded by a one-cell border; off-grid
    cells clamp to the border."""
    rows, cols = shape
    return (np.clip(r, -1, rows - 2) * cols + np.clip(c, -1, cols - 2)
            + (cols + 1)).astype(np.int64, copy=False)


def _canonical(x0, y0, z0, x1, y1, z1):
    """Segment endpoints swapped where needed so that (x0, y0, z0) <=
    (x1, y1, z1) in lexicographic order."""
    swap = (x0 > x1) | ((x0 == x1) & ((y0 > y1) | ((y0 == y1) & (z0 > z1))))
    return (np.where(swap, x1, x0), np.where(swap, y1, y0), np.where(swap, z1, z0),
            np.where(swap, x0, x1), np.where(swap, y0, y1), np.where(swap, z0, z1))


def _march_rays(bld, veg, x0, y0, z0, x1, y1, z1, res):
    """march_batch on one batch of canonical segments, over grids padded by
    a one-cell border. A ray leaves the active set once it is blocked or
    its step reaches t >= 1."""
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
    shape = bld.shape
    bld = bld.ravel()
    veg = veg.ravel()
    n = x0.size
    clear = np.zeros(n, dtype=bool)
    veg_out = np.zeros(n)
    ray = np.arange(n)
    end0 = _cell(shape, r0, c0)
    end1 = _cell(shape, r1, c1)
    c, r = c0, r0
    veg_len = np.zeros(n)
    t_prev = np.zeros(n)
    while ray.size:
        t_next = np.where(t_mx < t_my, t_mx, t_my)
        np.minimum(t_next, 1.0, out=t_next)
        here = _cell(shape, r, c)
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


def _screen_rays(bld, x0, y0, z0, x1, y1, z1, res):
    """_surely_blocked on one batch of canonical segments, over the building
    grid padded by a one-cell border of -inf, as a 1-tuple."""
    dz = z1 - z0
    # plan positions in cell units
    u0 = x0 / res
    v0 = y0 / res
    du = x1 / res - u0
    dv = y1 / res - v0
    # Rounding moves the march's cell crossings and these sample points by
    # less than 2**-50 * (e + 4) * e cells, e the plan extent in cells; the
    # margin adds four times that to CULL_MARGIN_M.
    e = (np.abs(x0) + np.abs(x1) + np.abs(y0) + np.abs(y1)) / res
    margin = CULL_MARGIN_M / res + 2.0 ** -48 * (e + 4.0) * e
    shape = bld.shape
    end0 = _cell(shape, np.floor(v0), np.floor(u0))
    end1 = _cell(shape, np.floor(y1 / res), np.floor(x1 / res))
    bld = bld.ravel()
    culled = np.zeros(x0.size, dtype=bool)
    for k in range(CULL_SAMPLES):
        t = (k + 0.5) / CULL_SAMPLES
        u = u0 + du * t
        v = v0 + dv * t
        cu = np.floor(u)
        cv = np.floor(v)
        here = _cell(shape, cv, cu)
        inside = ((np.abs(u - cu - 0.5) <= 0.5 - margin)
                  & (np.abs(v - cv - 0.5) <= 0.5 - margin))
        culled |= inside & (here != end0) & (here != end1) & (bld[here] > z0 + dz * t)
    return (culled,)


def _traversal_setup(cell0, p0, d, res):
    """A ray's per-axis step, first cell crossing and crossing spacing in t;
    an axis the ray does not move along never crosses (inf)."""
    moving = d != 0.0
    t_m = np.divide((cell0 + (d > 0.0)) * res - p0, d, out=np.full(d.size, math.inf),
                    where=moving)
    t_d = np.divide(res, np.abs(d), out=np.full(d.size, math.inf), where=moving)
    return np.sign(d).astype(np.int64), t_m, t_d


def _vegetated_length(v, z0, dz, t_prev, t_next, seg_len):
    """The vegetated length added by one step of rays in cells with canopy
    height v > 0."""
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
    """Specular reflection points on vertical wall rectangles, by mirroring
    the transmitter, for each wall on the vectors of receivers.

    Each wall row is (axis, plane, lo, hi, height, normal); axis 0 means the
    wall lies in a plane of constant x, axis 1 constant y. A (receiver,
    wall) pair passes when both endpoints lie strictly on the wall's
    outward side and the specular point stays on the wall rectangle.
    Returns (receiver index, hx, hy, hz, path_len) of the pairs that pass,
    in wall order, with each hit point moved eps off the wall to its street
    side and path_len the unfolded image-to-receiver distance.
    """
    hits = [(np.zeros(0, dtype=np.int64),) + (np.zeros(0),) * 4]
    rx_z_tx = rx_z - tx_z
    for axis, plane, lo, hi, height, nrm in walls:
        # (along, across) = (x, y) for axis 0, (y, x) for axis 1
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
        d_al, d_ac = d_al[ok], d_ac[ok]
        path_len = np.sqrt(d_al * d_al + d_ac * d_ac + rx_z_tx * rx_z_tx)
        h_al = np.full(path_len.size, plane + eps * nrm)
        hx, hy = (h_al, h_ac[ok]) if axis == 0.0 else (h_ac[ok], h_al)
        hits.append((side[ok], hx, hy, hz[ok], path_len))
    return tuple(np.concatenate(a) for a in zip(*hits))


def trace(building, vegetation, walls, tx_x, tx_y, tx_z, rx_z, res, lam, refl_amp,
          veg_db_per_m):
    """The visible paths from the transmitter to every street pixel, and
    their values. Building pixels get no paths.

    Returns (pixel, direct, veg_len, amp, psi, aod_az, aod_el, aoa_az), one
    entry per visible path, sorted pixel-major and, within a pixel, the
    direct path first, then the reflections in wall order. direct flags the
    direct paths, and veg_len is a direct path's vegetated length (0 for
    reflections).

    The candidates are the direct path of each street pixel and the
    (pixel, wall) pairs that _reflection_candidates keeps, each reflection
    with two legs: transmitter to hit point and hit point to receiver.
    _surely_blocked culls the direct paths and legs that are surely
    blocked, a reflection's second leg only where its first is kept, and
    one march_batch call marches every direct path and both legs of every
    reflection that survive; a reflection is visible when both legs are
    clear. So no candidate is marched twice, and a culled one not at all.
    The paths equal a per-pixel loop over the scalar march and mirror_hit of
    the tests bit for bit.

    Amplitudes follow the free-space law lam/(4*pi*d) of the unfolded path
    length d; the direct path is further attenuated by its vegetated length,
    reflections by the fixed per-bounce gain refl_amp. The phase is the
    carrier phase of the path length.
    """
    cols = building.shape[1]
    street = np.flatnonzero(~(building > 0.0).ravel())
    rx_x = (street % cols + 0.5) * res
    rx_y = (street // cols + 0.5) * res
    d2 = (rx_x - tx_x) ** 2 + (rx_y - tx_y) ** 2 + (rx_z - tx_z) ** 2
    sel = np.flatnonzero(d2 > 0.0)
    i, hx, hy, hz, path_len = _reflection_candidates(
        walls, tx_x, tx_y, tx_z, rx_x, rx_y, rx_z, 1e-6 * res)
    # Screen out the surely blocked direct rays and reflection legs; a
    # reflection stays only when the screen keeps both of its legs.
    direct = sel[~_surely_blocked(building, tx_x, tx_y, tx_z,
                                  rx_x[sel], rx_y[sel], rx_z, res)]
    pairs = np.flatnonzero(~_surely_blocked(building, tx_x, tx_y, tx_z, hx, hy, hz, res))
    pairs = pairs[~_surely_blocked(building, hx[pairs], hy[pairs], hz[pairs],
                                   rx_x[i[pairs]], rx_y[i[pairs]], rx_z, res)]
    # One march for the rest: the direct rays, the first legs (tx to hit
    # point), then the second legs (hit point to receiver).
    nd, nr = direct.size, pairs.size
    starts = [np.concatenate([np.full(nd + nr, t), h[pairs]])
              for t, h in ((tx_x, hx), (tx_y, hy), (tx_z, hz))]
    ends = [np.concatenate([rx_x[direct], hx[pairs], rx_x[i[pairs]]]),
            np.concatenate([rx_y[direct], hy[pairs], rx_y[i[pairs]]]),
            np.concatenate([np.full(nd, rx_z), hz[pairs], np.full(nr, rx_z)])]
    clear, veg_len = march_batch(building, vegetation, *starts, *ends, res)
    lit = direct[clear[:nd]]
    refl = pairs[clear[nd:nd + nr] & clear[nd + nr:]]
    n_dir = lit.size
    # Per path: its receiver (an index into street), the point it leaves
    # the transmitter for (the receiver of a direct path, the eps-offset
    # hit point of a reflection), a reflection's unfolded length and a
    # direct path's vegetated length. Direct entries come first and
    # reflections wall-major, so a stable sort by pixel puts each pixel's
    # paths in that order.
    rx = np.concatenate([lit, i[refl]])
    order = np.argsort(street[rx], kind="stable")
    rx, x, y, z, length, veg_len = (a[order] for a in (
        rx, np.concatenate([rx_x[lit], hx[refl]]), np.concatenate([rx_y[lit], hy[refl]]),
        np.concatenate([np.full(n_dir, float(rx_z)), hz[refl]]),
        np.concatenate([np.zeros(n_dir), path_len[refl]]),
        np.concatenate([veg_len[:nd][clear[:nd]], np.zeros(refl.size)])))
    direct = order < n_dir
    # the candidates and the march are done with: free them before the
    # scalar math calls below
    del i, hx, hy, hz, path_len, pairs, starts, ends, clear

    dep_x = x - tx_x
    dep_y = y - tx_y
    dep_z = z - tx_z
    # libm's pow(x, 2), which Python's ** calls, is not always x * x
    length[direct] = _math_map(lambda x, y, z: math.sqrt(x ** 2 + y ** 2 + z ** 2),
                               dep_x[direct], dep_y[direct], dep_z[direct])
    gain = np.full(direct.size, refl_amp)
    gain[direct] = _math_map(lambda a: 10.0 ** a, -(veg_db_per_m * veg_len[direct]) / 20.0)
    amp = lam / (4.0 * math.pi * length) * gain
    psi = (-TWO_PI * length / lam) % TWO_PI
    aod_az = _math_map(_bearing, dep_x, dep_y)
    aod_el = _math_map(lambda x, y, z: math.atan2(z, math.hypot(x, y)), dep_x, dep_y, dep_z)
    # a direct path arrives from the transmitter, a reflection from its hit point
    aoa_az = _math_map(_bearing, np.where(direct, -dep_x, x - rx_x[rx]),
                       np.where(direct, -dep_y, y - rx_y[rx]))
    return street[rx], direct, veg_len, amp, psi, aod_az, aod_el, aoa_az


def accumulate_tensors(pixel_ids, sectors, c2, g_az, g_el, out):
    """Sum per-path rank-1 contributions into per-pixel beam tensors.

    out has shape (n_pixels, Na, Ne, Nr). np.add.at adds the contributions
    in path order, so every tensor element sums the same terms in the same
    order as a per-path loop and results are deterministic.
    """
    contrib = (c2[:, None] * g_az)[:, :, None] * g_el[:, None, :]
    np.add.at(out, (pixel_ids, slice(None), slice(None), sectors), contrib)
