import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamgrid import _kernels
from beamgrid import scene as sc

TRACE_SNIPPET = """
import numpy as np
from beamgrid import _kernels, channel as ch, scene as sc
hm = sc.generate_city(16, 16, seed=3, style=sc.CityStyle(block_size=6, street_width=3))
tx = sc.place_tx(hm, seed=3)
chans = sc.trace_paths(hm, tx, sc.SceneConfig())
cb = ch.dft_codebook(4, 2, 2)
t = sc.effective_tensor_map(chans, cb, tx.frame)
np.save(r"{out}", t)
np.save(r"{out_counts}", chans.counts)
np.save(r"{out_flag}", _kernels.USE_NUMBA)
"""

NUMBA_PROBE = """
try:
    import numba
    have_numba = True
except ImportError:
    have_numba = False
import beamgrid._kernels as k
print(have_numba, k.USE_NUMBA, type(k.march).__name__)
"""


def numba_imports():
    """Whether numba imports in a fresh interpreter of this environment."""
    res = subprocess.run([sys.executable, "-c", "import numba"],
                         capture_output=True)
    return res.returncode == 0


def run_backend(tmp_path, backend):
    out = tmp_path / f"t_{backend}.npy"
    out_counts = tmp_path / f"c_{backend}.npy"
    out_flag = tmp_path / f"f_{backend}.npy"
    env = dict(os.environ, BEAMGRID_BACKEND=backend)
    code = TRACE_SNIPPET.format(out=out, out_counts=out_counts,
                                out_flag=out_flag)
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=300)
    return np.load(out), np.load(out_counts), bool(np.load(out_flag))


class TestBackendSelection:
    def test_env_flag_disables_numba(self, tmp_path):
        probe = ("import beamgrid._kernels as k; "
                 "print(k.USE_NUMBA, k.march.__class__.__name__)")
        res = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, BEAMGRID_BACKEND="numpy"),
            capture_output=True, text=True, check=True)
        flag, kind = res.stdout.split()
        assert flag == "False" and kind == "function"

    def test_default_backend_is_numba(self):
        # documented default: numba when it imports, the interpreter otherwise
        env = {k: v for k, v in os.environ.items() if k != "BEAMGRID_BACKEND"}
        res = subprocess.run([sys.executable, "-c", NUMBA_PROBE],
                             env=env, capture_output=True, text=True,
                             check=True)
        have_numba, flag, kind = res.stdout.split()
        assert flag == have_numba
        assert (kind == "function") == (have_numba == "False")


class TestBackendEquivalence:
    def test_trace_results_match(self, tmp_path):
        t_nb, c_nb, ran_nb = run_backend(tmp_path, "numba")
        t_np, c_np, ran_np = run_backend(tmp_path, "numpy")
        assert ran_np is False
        # without numba both runs are the interpreter; a broken install fails
        assert ran_nb == numba_imports()
        assert np.array_equal(c_nb, c_np)
        np.testing.assert_allclose(t_nb, t_np, rtol=1e-12, atol=1e-30)

    def test_thread_cap_env_accepted(self, tmp_path):
        env = dict(os.environ, BEAMGRID_THREADS="1")
        out = tmp_path / "t1.npy"
        code = TRACE_SNIPPET.format(out=out, out_counts=tmp_path / "c1.npy",
                                    out_flag=tmp_path / "f1.npy")
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       timeout=300)
        t_one = np.load(out)
        t_ref, _, _ = run_backend(tmp_path, "numba")
        assert np.array_equal(t_one, t_ref)


class TestMarchEdgeCases:
    def test_vertical_segment_same_cell(self):
        hm = sc.HeightMap(np.zeros((4, 4)), np.zeros((4, 4)))
        clear, veg = sc.segment_clear(hm, 1.5, 1.5, 10.0, 1.5, 1.5, 1.0)
        assert clear and veg == 0.0

    def test_vegetation_in_endpoint_cell_counts(self):
        veg = np.zeros((4, 4))
        veg[1, 1] = 20.0
        hm = sc.HeightMap(np.zeros((4, 4)), veg)
        clear, veg_len = sc.segment_clear(hm, 1.5, 1.5, 5.0, 1.5, 1.5, 1.0)
        assert clear and veg_len == pytest.approx(4.0)

    def test_endpoint_cells_never_block(self):
        building = np.zeros((4, 4))
        building[1, 1] = 50.0
        building[2, 2] = 50.0
        hm = sc.HeightMap(building, np.zeros((4, 4)))
        clear, _ = sc.segment_clear(hm, 1.5, 1.5, 1.0, 2.5, 2.5, 1.0)
        assert clear

    def test_interior_cell_blocks(self):
        # x runs along columns, y along rows: the segment spans rows 1..3
        # of column 1, so the middle cell (2, 1) blocks it
        building = np.zeros((4, 4))
        building[2, 1] = 50.0
        hm = sc.HeightMap(building, np.zeros((4, 4)))
        clear, _ = sc.segment_clear(hm, 1.5, 1.5, 1.0, 1.5, 3.5, 1.0)
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


class TestMarchBatch:
    @given(grids_and_segments(), st.sampled_from([1, 5, _kernels.MARCH_BATCH_RAYS]))
    @settings(deadline=None, max_examples=200)
    def test_matches_scalar_march(self, case, batch_rays):
        hm, segs = case
        # subnormal coordinate differences overflow t to inf in both kernels
        with np.errstate(over="ignore"):
            with mock.patch.object(_kernels, "MARCH_BATCH_RAYS", batch_rays):
                clear, veg = _kernels.march_batch(hm.building, hm.vegetation, *segs.T,
                                                  hm.resolution_m)
            expect = [sc.segment_clear(hm, *seg) for seg in segs]
        assert clear.tolist() == [bool(e[0]) for e in expect]
        assert veg.tobytes() == np.array([e[1] for e in expect]).tobytes()
