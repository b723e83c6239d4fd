import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamgrid import _kernels
from beamgrid import scene as sc

from conftest import march, march_one


class TestMarchEdgeCases:
    def test_vertical_segment_same_cell(self):
        hm = sc.HeightMap(np.zeros((4, 4)), np.zeros((4, 4)))
        clear, veg = march_one(hm, 1.5, 1.5, 10.0, 1.5, 1.5, 1.0)
        assert clear and veg == 0.0

    def test_vegetation_in_endpoint_cell_counts(self):
        veg = np.zeros((4, 4))
        veg[1, 1] = 20.0
        hm = sc.HeightMap(np.zeros((4, 4)), veg)
        clear, veg_len = march_one(hm, 1.5, 1.5, 5.0, 1.5, 1.5, 1.0)
        assert clear and veg_len == pytest.approx(4.0)

    def test_endpoint_cells_never_block(self):
        building = np.zeros((4, 4))
        building[1, 1] = 50.0
        building[2, 2] = 50.0
        hm = sc.HeightMap(building, np.zeros((4, 4)))
        clear, _ = march_one(hm, 1.5, 1.5, 1.0, 2.5, 2.5, 1.0)
        assert clear

    def test_interior_cell_blocks(self):
        # x runs along columns, y along rows: the segment spans rows 1..3
        # of column 1, so the middle cell (2, 1) blocks it
        building = np.zeros((4, 4))
        building[2, 1] = 50.0
        hm = sc.HeightMap(building, np.zeros((4, 4)))
        clear, _ = march_one(hm, 1.5, 1.5, 1.0, 1.5, 3.5, 1.0)
        assert not clear


@st.composite
def grids_and_segments(draw):
    """A small random height map and segments that hit march's edge cases:
    axis-aligned, level (dz == 0), endpoints on cell borders or outside the
    grid, and vertical segments inside one cell."""
    res = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    heights = st.lists(st.sampled_from([0.0, 0.0, 3.0, 7.5, 12.0]),
                       min_size=rows * cols, max_size=rows * cols)
    building = np.array(draw(heights)).reshape(rows, cols)
    vegetation = np.array(draw(heights)).reshape(rows, cols)

    def coord(n_cells):
        return st.one_of(
            st.floats(-2.0 * res, (n_cells + 2) * res, allow_nan=False),
            st.integers(-2, n_cells + 2).map(lambda k: k * res))

    z = st.one_of(st.floats(-1.0, 15.0, allow_nan=False),
                  st.sampled_from([0.0, 1.5, 3.0, 7.5, 12.0]))
    segs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "same_x", "same_y", "level",
                                     "vertical", "same_cell"]))
        x0, y0, z0 = draw(coord(cols)), draw(coord(rows)), draw(z)
        x1 = x0 if kind in ("same_x", "vertical") else draw(coord(cols))
        y1 = y0 if kind in ("same_y", "vertical") else draw(coord(rows))
        if kind == "same_cell":
            x1 = math.floor(x0 / res) * res + draw(st.floats(0.0, 0.99)) * res
            y1 = math.floor(y0 / res) * res + draw(st.floats(0.0, 0.99)) * res
        z1 = z0 if kind == "level" else draw(z)
        segs.append((x0, y0, z0, x1, y1, z1))
    return sc.HeightMap(building, vegetation, resolution_m=res), np.array(segs)


# zero segments: empty outputs of the kernels' dtypes
NO_SEGMENTS = (sc.HeightMap(np.zeros((2, 3)), np.zeros((2, 3))), np.zeros((0, 6)))


class TestMarchBatch:
    """march_batch against the scalar march of conftest: the same values bit
    for bit, whatever the batch size."""

    @given(grids_and_segments(), st.sampled_from([1, 5, _kernels.MARCH_BATCH_RAYS]))
    @example(NO_SEGMENTS, 5)
    @settings(deadline=None, max_examples=200)
    def test_matches_scalar_march(self, case, batch_rays):
        hm, segs = case
        # subnormal coordinate differences overflow t to inf in both kernels
        with np.errstate(over="ignore"):
            with mock.patch.object(_kernels, "MARCH_BATCH_RAYS", batch_rays):
                clear, veg = _kernels.march_batch(hm.building, hm.vegetation, *segs.T,
                                                  hm.resolution_m)
            expect = [march(hm.building, hm.vegetation, *seg.tolist(), hm.resolution_m)
                      for seg in segs]
        assert clear.dtype == bool and veg.dtype == np.float64
        assert clear.tolist() == [e[0] for e in expect]
        assert veg.tobytes() == np.array([e[1] for e in expect]).tobytes()


def _screen_and_march(building, segs, res=1.0):
    """(culled, clear) of _surely_blocked and march_batch on the segments."""
    vegetation = np.zeros_like(building)
    culled = _kernels._surely_blocked(building, *segs.T, res)
    # subnormal coordinate differences overflow t to inf in the march
    with np.errstate(over="ignore"):
        clear, _ = _kernels.march_batch(building, vegetation, *segs.T, res)
    return culled, clear


class TestSurelyBlocked:
    """The screen trace runs before each march: every segment it culls
    is one that march_batch reports blocked."""

    @given(grids_and_segments(), st.sampled_from([1, 5, _kernels.MARCH_BATCH_RAYS]))
    @example(NO_SEGMENTS, 5)
    @settings(deadline=None, max_examples=300)
    def test_culls_only_blocked_segments(self, case, batch_rays):
        hm, segs = case
        with mock.patch.object(_kernels, "MARCH_BATCH_RAYS", batch_rays):
            culled, clear = _screen_and_march(hm.building, segs, hm.resolution_m)
        assert culled.dtype == bool and culled.shape == clear.shape == (len(segs),)
        assert not (culled & clear).any()

    def test_culls_segment_through_a_roof(self):
        building = np.zeros((3, 5))
        building[1, 2] = 10.0
        culled, clear = _screen_and_march(building, np.array([[0.5, 1.5, 2.0, 4.5, 1.5, 2.0]]))
        assert culled[0] and not clear[0]

    def test_culls_level_segment_grazing_a_roof(self):
        # any height below the roof culls: the march's lowest height in the
        # cell is at most the sample's, as both round z0 + dz * t alike
        building = np.zeros((1, 3))
        building[0, 1] = 10.0
        z = 10.0 - 1e-9
        culled, clear = _screen_and_march(building, np.array([[0.5, 0.5, z, 2.5, 0.5, z]]))
        assert culled[0] and not clear[0]

    def test_keeps_level_segment_at_roof_height(self):
        building = np.zeros((3, 5))
        building[1, 2] = 7.5
        culled, clear = _screen_and_march(building, np.array([[0.5, 1.5, 7.5, 4.5, 1.5, 7.5]]))
        assert not culled[0] and clear[0]

    def test_keeps_sample_on_cell_corner(self):
        # the one sample is the midpoint (1, 1), the corner the segment
        # crosses diagonally; the march never visits cell (1, 1)
        building = np.zeros((3, 3))
        building[1, 1] = 50.0
        with mock.patch.object(_kernels, "CULL_SAMPLES", 1):
            culled, clear = _screen_and_march(building,
                                              np.array([[0.5, 1.5, 1.0, 1.5, 0.5, 1.0]]))
        assert not culled[0] and clear[0]

    def test_keeps_tall_building_in_endpoint_cell(self):
        building = np.zeros((1, 3))
        building[0, 0] = building[0, 2] = 50.0
        culled, clear = _screen_and_march(building, np.array([[0.5, 0.5, 1.0, 2.5, 0.5, 1.0],
                                                              [2.9, 0.1, 1.0, 0.1, 0.9, 1.0]]))
        assert not culled.any() and clear.all()
