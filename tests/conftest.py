import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from beamgrid import channel as ch
from beamgrid import metrics as mt
from beamgrid import scene as sc


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


def los_class_reference(channels):
    """LoS classes by the per-pixel rule on the stored paths: a direct path
    is dominant only when it crossed no vegetation and no other arrival of
    the pixel is stronger."""
    out = np.zeros((channels.rows, channels.cols), dtype=np.int8)
    for r in range(channels.rows):
        for c in range(channels.cols):
            if not channels.has_direct[r, c]:
                continue
            mags = channels.magnitude[channels.pixel_slice(r, c)]
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
