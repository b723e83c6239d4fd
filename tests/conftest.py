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


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # pay the JIT compile cost once, outside any timed test
    hm = sc.HeightMap(np.zeros((16, 16)), np.zeros((16, 16)))
    tx = sc.TxSite((8, 8), 10.0, ch.ArrayFrame(0.0, np.pi / 4))
    sc.trace_paths(hm, tx, sc.SceneConfig())


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
