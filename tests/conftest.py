import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from beamgrid import _kernels
from beamgrid import channel as ch
from beamgrid import losses
from beamgrid import metrics as mt
from beamgrid import scene as sc
from beamgrid.errors import EmptyTrainingSetError
from beamgrid.predictor import TrainConfig, _heads, _targets_for


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
    style = sc.CityStyle(building_fraction=draw(st.sampled_from([0.1, 0.3, 0.5])),
                         vegetation_fraction=draw(st.sampled_from([0.0, 0.1, 0.3])),
                         street_width=draw(st.integers(2, 4)),
                         block_size=draw(st.integers(4, 8)))
    hm = dataclasses.replace(sc.generate_city(rows, cols, draw(st.integers(0, 2**16)), style),
                             resolution_m=draw(st.sampled_from([0.5, 1.0, 2.0])))
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
    return sc.effective_tensor_map(chans, codebook, frame)[0, 0]


def los_class_reference(channels):
    """LoS classes by the per-pixel rule on the stored paths: a direct path
    is dominant only when it crossed no vegetation and no other arrival of
    the pixel is stronger."""
    out = np.zeros((channels.rows, channels.cols), dtype=np.int8)
    for r in range(channels.rows):
        for c in range(channels.cols):
            if not channels.has_direct[r, c]:
                continue
            mags = channels.magnitude[paths_at(channels, r, c)]
            attenuated = channels.direct_veg_db[r, c] > 0.0 or mags[0] < mags.max()
            out[r, c] = mt.LosClass.LOS_ATTENUATED if attenuated \
                else mt.LosClass.LOS_DOMINANT
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


# The per-sample losses with their analytic gradients, one sample (one
# logit vector) at a time, and a finite-difference checker for them: the
# references the batch code of predictor is tested against.

def log_softmax(z, axis=-1):
    shifted, e = losses._shifted_exp(np.asarray(z, dtype=np.float64), axis)
    return shifted - np.log(e.sum(axis=axis, keepdims=True))


def ce_loss(logits, target_index):
    """Cross entropy of a one-hot target; grad = softmax(logits) - one_hot."""
    p = losses.softmax(logits)
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
    grad = losses.softmax(logits) - soft_target
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
    p = losses.softmax(logits)
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


def gr_loss(pred_db, target_tensor, floor_db=-30.0):
    """MSE between predicted and floored-dB tensors; grad = 2*(pred-t)/n."""
    pred = np.asarray(pred_db, dtype=np.float64)
    target = losses.gr_target_db(target_tensor, floor_db)
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


# The loss code that predictor._targets_for, _epoch_loss and _batch_grad
# replaced, kept as the reference they must match byte for byte (CE-sep
# loss: to a few ulp, as it moved from -log(p + 1e-300) to log-softmax).
# batch_loss_grad_reference needs dmat = losses.beam_distance_matrix(dims)
# for joint WS.

def targets_reference(model, tensors):
    """Per-sample training targets derived from the beam power tensors."""
    t = np.asarray(tensors)
    n = t.shape[0]
    flat = t.reshape(n, -1)
    kind = model.loss_kind
    na, ne, nr = model.dims
    if kind in ("CE", "WS"):
        idx = np.argmax(flat, axis=1)
        if not model.sep:
            return idx
        triples = np.stack(np.unravel_index(idx, model.dims), axis=1)
        return triples
    if kind == "CEP":
        if model.sep:
            heads = [np.empty((n, na)), np.empty((n, ne)), np.empty((n, nr))]
            for i in range(n):
                pa, pe, pr = losses.cep_target_sep(
                    flat[i].reshape(model.dims), model.floor_db)
                heads[0][i], heads[1][i], heads[2][i] = pa, pe, pr
            return np.concatenate(heads, axis=1)
        out = np.empty_like(flat)
        for i in range(n):
            out[i] = losses.cep_target(flat[i], model.floor_db)
        return out
    if kind == "IR":
        idx = np.argmax(flat, axis=1)
        return np.stack(np.unravel_index(idx, model.dims), axis=1).astype(np.float64)
    if kind == "GR":
        if model.sep:
            out = np.empty((n, na + ne + nr))
            for i in range(n):
                ga, ge, gr = losses.gr_target_db_sep(
                    flat[i].reshape(model.dims), model.floor_db)
                out[i] = np.concatenate([ga, ge, gr])
            return out
        out = np.empty_like(flat)
        for i in range(n):
            out[i] = losses.gr_target_db(flat[i], model.floor_db).ravel()
        return out
    raise ValueError(f"unknown loss kind {kind!r}")


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


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
    kind = model.loss_kind
    if kind in ("CE", "CEP"):
        if model.sep and kind == "CE":
            loss = 0.0
            grad = np.zeros_like(z)
            for axis, sl in enumerate(_head_slices(model)):
                p = _softmax_rows(z[:, sl])
                t = targets[:, axis]
                loss += -np.log(p[np.arange(n), t] + 1e-300).mean()
                g = p
                g[np.arange(n), t] -= 1.0
                grad[:, sl] = g / n
            return loss, grad
        if model.sep and kind == "CEP":
            loss = 0.0
            grad = np.zeros_like(z)
            for sl in _head_slices(model):
                p = _softmax_rows(z[:, sl])
                s = targets[:, sl]
                logp = z[:, sl] - z[:, sl].max(axis=1, keepdims=True)
                logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
                loss += -(s * logp).sum(axis=1).mean()
                grad[:, sl] = (p - s) / n
            return loss, grad
        p = _softmax_rows(z)
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
        if model.sep:
            loss = 0.0
            grad = np.zeros_like(z)
            for axis, sl in enumerate(_head_slices(model)):
                m = sl.stop - sl.start
                d1 = np.abs(np.subtract.outer(np.arange(m, dtype=np.float64),
                                              np.arange(m, dtype=np.float64)))
                p = _softmax_rows(z[:, sl])
                d = d1[:, targets[:, axis]].T
                expected = (p * d).sum(axis=1)
                loss += expected.mean()
                grad[:, sl] = p * (d - expected[:, None]) / n
            return float(loss), grad
        p = _softmax_rows(z)
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


# The out-of-place forms that losses._floored_db and the cep_target
# normalisation replaced; the in-place code must match them byte for byte.

def floored_db_reference(t, floor_db):
    peak = t.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.where(t > 0.0, t / peak, 0.0))
    return np.maximum(db, floor_db)


def cep_target_reference(t, floor_db):
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
    kind = model.loss_kind
    parts = []
    for cols, tcols, dist in _heads(model.dims, kind, model.sep):
        zh, th = z[:, cols], targets[:, tcols]
        if kind in ("IR", "GR"):
            parts.append(((zh - th) ** 2).mean(axis=1).mean())
        elif kind == "WS":
            parts.append((losses.softmax(zh, axis=1) * dist[:, th].T).sum(axis=1).mean())
        elif kind == "CE":
            parts.append(-log_softmax(zh, axis=1)[np.arange(n), th].mean())
        else:
            parts.append(-(th * log_softmax(zh, axis=1)).sum(axis=1).mean())
    # one head is kept as is: 0.0 + -0.0 would flip the sign of a zero loss
    loss = sum(parts) if len(parts) > 1 else parts[0]
    # NumPy scalar for CE-sep and CEP-sep: stagebench/reference.json pins the
    # CEP-sep history text "np.float64(...)"
    return loss if model.sep and kind in ("CE", "CEP") else float(loss)


def batch_grad_reference(model, z, targets):
    """Gradient of _batch_loss with respect to the score matrix z."""
    n = z.shape[0]
    kind = model.loss_kind
    grad = np.empty_like(z)
    for cols, tcols, dist in _heads(model.dims, kind, model.sep):
        zh, th = z[:, cols], targets[:, tcols]
        if kind in ("IR", "GR"):
            diff = zh - th
            grad[:, cols] = 2.0 * diff / (diff.shape[1] * n)
            continue
        p = losses.softmax(zh, axis=1)
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


def train_reference(model, x_train, tensors_train, hyper=None, x_val=None, tensors_val=None):
    """Mini-batch gradient descent; returns (trained model, history rows).

    History rows are (epoch, train_loss, val_loss, lr). The learning rate is
    multiplied by lr_decay whenever the validation loss has not improved for
    `patience` consecutive epochs; training stops early once the rate falls
    below lr * min_lr_factor. The returned model carries the weights of the
    best validation epoch. Deterministic given the model seed.
    """
    hyper = hyper or TrainConfig()
    x_train = np.asarray(x_train, dtype=np.float64)
    if x_train.shape[0] == 0:
        raise EmptyTrainingSetError("no valid pixels to train on")
    t_train = _targets_for(model, tensors_train)
    has_val = x_val is not None and len(x_val) > 0
    if has_val:
        x_val = np.asarray(x_val, dtype=np.float64)
        t_val = _targets_for(model, tensors_val)

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
            if lr > 0.0:
                w -= lr * (xb.T @ gz)
                b -= lr * gz.sum(axis=0)
        train_loss = batch_loss_reference(model, x_train @ w + b, t_train)
        val_loss = batch_loss_reference(model, x_val @ w + b, t_val) if has_val else train_loss
        history.append((epoch, train_loss, val_loss, lr))
        if val_loss < best[0]:
            best = (val_loss, w.copy(), b.copy())
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= hyper.patience:
                lr *= hyper.lr_decay
                since_improve = 0
                if lr < hyper.lr * hyper.min_lr_factor:
                    break
    trained = dataclasses.replace(model, weights=best[1], bias=best[2])
    return trained, history
