import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamgrid import _kernels
from beamgrid import channel as ch
from beamgrid import metrics
from beamgrid import scene as sc
from beamgrid.errors import NoValidSiteError

from conftest import (accumulate_tensors_reference, beam_tensor_reference,
                      building_edge_pixels_reference, exterior_walls_reference, march,
                      march_one, mirror_hit, paths_at, scene_configs, small_scenes)

NO_VEG = sc.SceneConfig(vegetation_db_per_m=0.0)


def flat_map(rows=16, cols=16):
    return sc.HeightMap(np.zeros((rows, cols)), np.zeros((rows, cols)))


class TestGenerateCity:
    def test_deterministic(self):
        a = sc.generate_city(64, 64, seed=1)
        b = sc.generate_city(64, 64, seed=1)
        assert np.array_equal(a.building, b.building)
        assert np.array_equal(a.vegetation, b.vegetation)

    def test_zero_density(self):
        style = sc.CityStyle(building_fraction=0.0, vegetation_fraction=0.0)
        hm = sc.generate_city(32, 32, seed=0, style=style)
        assert not hm.building.any() and not hm.vegetation.any()

    def test_building_fraction_near_target(self):
        hm = sc.generate_city(64, 64, seed=2,
                              style=sc.CityStyle(building_fraction=0.3))
        frac = (hm.building > 0).mean()
        assert 0.15 <= frac <= 0.45

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            sc.generate_city(8, 64, seed=0)


class TestPlaceTx:
    def test_single_pixel_building(self):
        hm = flat_map()
        hm.building[7, 9] = 12.0
        tx = sc.place_tx(hm, seed=0, mast_m=2.0)
        assert tx.pixel == (7, 9)
        assert tx.height_m == 14.0
        # first street neighbour in scan order is north -> azimuth pi/2
        assert tx.frame.boresight_azimuth == pytest.approx(math.pi / 2)
        assert tx.frame.downtilt == pytest.approx(math.pi / 4)

    def test_all_street_map(self):
        with pytest.raises(NoValidSiteError):
            sc.place_tx(flat_map(), seed=0)

    def test_edge_invariant_on_generated_city(self):
        hm = sc.generate_city(64, 64, seed=5)
        tx = sc.place_tx(hm, seed=5)
        r, c = tx.pixel
        assert hm.building[r, c] > 0
        neighbours = [hm.building[r + dr, c + dc]
                      for dr, dc in ((-1, 0), (0, -1), (0, 1), (1, 0))
                      if 0 <= r + dr < 64 and 0 <= c + dc < 64]
        assert any(h == 0 for h in neighbours)


class TestExteriorWalls:
    def test_isolated_building_has_four_walls(self):
        hm = flat_map()
        hm.building[4:8, 5:10] = 20.0
        walls = sc.exterior_walls(hm.building)
        assert walls.shape == (4, 6)
        heights = walls[:, 4]
        assert np.all(heights == 20.0)

    def test_runs_split_on_height_change(self):
        hm = flat_map()
        hm.building[4:6, 5] = 10.0
        hm.building[6:8, 5] = 20.0
        walls = sc.exterior_walls(hm.building)
        # the west/east faces split into two runs each, plus 2 end caps
        assert walls.shape[0] == 6


@st.composite
def building_grids(draw):
    """1-40 px building rasters: empty, all-building, or blocks of heights
    from a small set (so equal-height faces merge and others split)."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["mixed", "empty", "full"]))
    if kind == "empty":
        return np.zeros((rows, cols))
    heights = [5.0, 7.5, 12.0] if kind == "full" else [0.0, 0.0, 5.0, 7.5]
    block = draw(st.integers(1, 4))
    coarse = draw(arrays(np.float64, (-(-rows // block), -(-cols // block)),
                         elements=st.sampled_from(heights)))
    return np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:rows, :cols]


class TestSceneGeometryMatchesReference:
    @given(building_grids(), st.sampled_from([0.3, 1.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_walls_and_edges_match_loops(self, building, res):
        got = sc.exterior_walls(building, res)
        expect = exterior_walls_reference(building, res)
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()
        hm = sc.HeightMap(building, np.zeros_like(building), resolution_m=res)
        assert sc.building_edge_pixels(hm) == building_edge_pixels_reference(hm)


class TestTracePaths:
    def test_flat_map_single_direct_path(self):
        hm = flat_map()
        tx = sc.TxSite((8, 8), 10.0, ch.ArrayFrame(0.0, math.pi / 4))
        chans = sc.trace_paths(hm, tx, NO_VEG)
        assert np.array_equal(chans.counts, np.ones((16, 16), dtype=np.int64))
        assert chans.has_direct.all()

    def test_blocked_pixel_behind_tall_building(self):
        hm = flat_map()
        # blocker strictly between tx and rx; tx/rx aligned through its middle
        hm.building[6:11, 8] = 50.0
        hm.building[8, 2] = 10.0  # tx mast building
        tx = sc.TxSite((8, 2), 12.0, ch.ArrayFrame(0.0, math.pi / 4))
        chans = sc.trace_paths(hm, tx, NO_VEG)
        assert chans.counts[8, 12] == 0
        assert not chans.has_direct[8, 12]

    def test_single_wall_image_method_closed_form(self):
        hm = flat_map()
        hm.building[2, 2] = 20.0        # tx building
        hm.building[4:12, 12:14] = 30.0  # reflector
        tx = sc.TxSite((2, 2), 22.0, ch.ArrayFrame(0.0, math.pi / 4))
        chans = sc.trace_paths(hm, tx, NO_VEG)
        mags = chans.magnitude[paths_at(chans, 12, 2)]
        assert mags.size == 2  # direct + one reflection
        lam = NO_VEG.wavelength_m
        refl_amp = 10 ** (-NO_VEG.reflection_loss_db / 20.0)
        d_reflected = lam * refl_amp / (4 * math.pi * mags[1])
        # image of the tx across the wall plane x=12: (21.5, 2.5, 22)
        d_expected = math.sqrt(19.0**2 + 10.0**2 + 20.5**2)
        assert abs(d_reflected - d_expected) / d_expected < 1e-9

    def test_vegetation_attenuates_direct_path(self):
        rows = cols = 16
        veg = np.zeros((rows, cols))
        veg[:, :] = 30.0  # canopy above the whole segment
        hm = sc.HeightMap(np.zeros((rows, cols)), veg)
        cfg = sc.SceneConfig(vegetation_db_per_m=0.7, max_reflections=0)
        tx = sc.TxSite((8, 2), 10.0, ch.ArrayFrame(0.0, math.pi / 4))
        chans = sc.trace_paths(hm, tx, cfg)
        mags = chans.magnitude[paths_at(chans, 8, 12)]
        d = math.sqrt(10.0**2 + (10.0 - 1.5) ** 2)
        expected = cfg.wavelength_m / (4 * math.pi * d) * 10 ** (-0.7 * d / 20.0)
        assert mags[0] == pytest.approx(expected, rel=1e-9)
        assert chans.direct_veg_db[8, 12] == pytest.approx(0.7 * d, rel=1e-9)

    def test_ray_above_canopy_unattenuated(self):
        rows = cols = 16
        veg = np.zeros((rows, cols))
        veg[:, 5:8] = 3.0  # low canopy; segment passes above
        hm = sc.HeightMap(np.zeros((rows, cols)), veg)
        cfg = sc.SceneConfig(vegetation_db_per_m=0.7, max_reflections=0)
        tx = sc.TxSite((8, 2), 40.0, ch.ArrayFrame(0.0, math.pi / 4))
        chans = sc.trace_paths(hm, tx, cfg)
        mags = chans.magnitude[paths_at(chans, 8, 12)]
        d = math.sqrt(10.0**2 + (40.0 - 1.5) ** 2)
        expected = cfg.wavelength_m / (4 * math.pi * d)
        assert mags[0] == pytest.approx(expected, rel=1e-9)

    def test_deterministic(self):
        hm = sc.generate_city(32, 32, seed=9)
        tx = sc.place_tx(hm, seed=9)
        cfg = sc.SceneConfig()
        a = sc.trace_paths(hm, tx, cfg)
        b = sc.trace_paths(hm, tx, cfg)
        assert np.array_equal(a.magnitude, b.magnitude)
        assert np.array_equal(a.phase, b.phase)
        assert np.array_equal(a.counts, b.counts)

    def test_path_count_bound(self):
        hm = sc.generate_city(32, 32, seed=4)
        tx = sc.place_tx(hm, seed=4)
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        n_walls = sc.exterior_walls(hm.building).shape[0]
        assert chans.counts.max() <= 1 + n_walls

    def test_tx_outside_map_rejected(self):
        with pytest.raises(ValueError):
            sc.trace_paths(flat_map(), sc.TxSite((99, 0), 5.0,
                                                 ch.ArrayFrame(0, 0)), NO_VEG)


def reference_trace(hm, tx, cfg, rx_z=1.5):
    """Per-pixel loop tracer: march each candidate and find specular points
    with the scalar kernels of conftest (march, mirror_hit), using the
    tracer's formulas.

    Returns (counts, paths, has_direct, direct_veg_db); paths holds one
    (magnitude, phase, aod_az, aod_el, aoa_az) row per path in storage order.
    """
    res = hm.resolution_m
    walls = sc.exterior_walls(hm.building, res) if cfg.max_reflections else np.zeros((0, 6))
    tx_x, tx_y = sc.pixel_center(tx.pixel, res)
    tx_z = tx.height_m
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


class TestTraceMatchesReference:
    @given(small_scenes(), scene_configs, st.sampled_from([0, 1]))
    @settings(deadline=None, max_examples=25)
    def test_paths_identical(self, scene, cfg, max_reflections):
        hm, tx = scene
        cfg = dataclasses.replace(cfg, max_reflections=max_reflections)
        chans = sc.trace_paths(hm, tx, cfg)
        counts, paths, has_direct, direct_veg_db = reference_trace(hm, tx, cfg)
        assert np.array_equal(chans.counts, counts)
        got = np.stack([chans.magnitude, chans.phase, chans.aod_azimuth,
                        chans.aod_elevation, chans.aoa_azimuth], axis=1)
        assert np.array_equal(got, paths)
        assert np.array_equal(chans.has_direct, has_direct)
        assert np.array_equal(chans.direct_veg_db, direct_veg_db)


class TestVisibilityProperties:
    def test_reciprocity(self):
        hm = sc.generate_city(32, 32, seed=12)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x0, x1 = rng.uniform(0.2, 31.8, 2)
            y0, y1 = rng.uniform(0.2, 31.8, 2)
            z0, z1 = rng.uniform(0.5, 40.0, 2)
            fwd = march_one(hm, x0, y0, z0, x1, y1, z1)
            rev = march_one(hm, x1, y1, z1, x0, y0, z0)
            assert fwd == rev

    def test_monotone_blockage(self):
        rng = np.random.default_rng(1)
        hm = sc.generate_city(32, 32, seed=13)
        pairs = [(rng.uniform(0.2, 31.8), rng.uniform(0.2, 31.8),
                  rng.uniform(1, 30), rng.uniform(0.2, 31.8),
                  rng.uniform(0.2, 31.8), rng.uniform(1, 30)) for _ in range(60)]
        blocked_before = [not march_one(hm, *p)[0] for p in pairs]
        taller = sc.HeightMap(hm.building + rng.uniform(0, 10, hm.building.shape)
                              * (hm.building > 0), hm.vegetation)
        for p, was_blocked in zip(pairs, blocked_before):
            if was_blocked:
                assert not march_one(taller, *p)[0]

    def test_free_space_decay_along_boresight(self):
        # constant-angle geometry isolates the 1/d^2 law: tx at rx height,
        # no downtilt, receivers due east
        hm = flat_map(16, 32)
        tx = sc.TxSite((8, 0), 1.5, ch.ArrayFrame(0.0, 0.0))
        chans = sc.trace_paths(hm, tx, NO_VEG)
        cb = ch.dft_codebook(4, 2, 2)
        tensors = sc.effective_tensor_map(chans, cb, tx.frame)
        best = tensors.reshape(16, 32, -1).max(axis=-1)[8, 1:]
        assert np.all(np.diff(best) < 0)


@st.composite
def random_channels(draw):
    """Random paths on a grid of at most 4x4 pixels, up to five per pixel,
    with arrival azimuths that often share a receive sector."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 5), min_size=rows * cols, max_size=rows * cols))
    pixel = np.repeat(np.arange(rows * cols), counts)
    n = pixel.size

    def values(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.float64)

    return sc.SceneChannels(
        rows=rows, cols=cols, pixel=pixel,
        magnitude=values(st.floats(1e-9, 1.0)),
        phase=values(st.floats(0.0, 2 * np.pi)),
        aod_azimuth=values(st.floats(0.0, 2 * np.pi)),
        aod_elevation=values(st.floats(-np.pi / 2, np.pi / 2)),
        aoa_azimuth=values(st.one_of(st.sampled_from([0.1, 0.2, 3.0]),
                                     st.floats(0.0, 2 * np.pi))))


class TestEffectiveTensorMap:
    def test_matches_per_pixel_builder(self, codebook):
        # held to the per-beam steering-vector oracle, which shares neither
        # gain_profiles nor accumulate_tensors with the map
        hm = sc.generate_city(32, 32, seed=21)
        tx = sc.place_tx(hm, seed=21)
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        tensors = sc.effective_tensor_map(chans, codebook, tx.frame)
        rng = np.random.default_rng(2)
        lit = np.flatnonzero(chans.counts)
        for pix in rng.choice(lit, 12, replace=False):
            r, c = divmod(int(pix), 32)
            s = paths_at(chans, r, c)
            expect = beam_tensor_reference(
                chans.magnitude[s], chans.aod_azimuth[s], chans.aod_elevation[s],
                chans.aoa_azimuth[s], codebook, tx.frame)
            np.testing.assert_allclose(tensors[r, c], expect, rtol=1e-10,
                                       atol=1e-12 * expect.max())

    @given(random_channels(), st.floats(0.0, 2 * np.pi), st.floats(0.0, np.pi / 2))
    @settings(deadline=None, max_examples=100)
    def test_accumulation_matches_path_loop_bitwise(self, codebook, chans, azimuth, tilt):
        frame = ch.ArrayFrame(azimuth, tilt)
        got = sc.effective_tensor_map(chans, codebook, frame)
        with mock.patch.object(_kernels, "accumulate_tensors", accumulate_tensors_reference):
            expect = sc.effective_tensor_map(chans, codebook, frame)
        assert got.tobytes() == expect.tobytes()


class TestDownscale:
    def test_constant_map_unchanged(self):
        t = np.ones((8, 8, 2, 2, 2)) * 3.25
        lo, valid = sc.downscale_tensor_map(t, factor=4)
        assert valid.all()
        assert np.array_equal(lo, np.ones((2, 2, 2, 2, 2)) * 3.25)

    def test_single_valid_pixel_block(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0, 1, (4, 4, 8))
        valid = np.zeros((4, 4), dtype=bool)
        valid[1, 2] = True
        lo, lo_valid = sc.downscale_tensor_map(t, valid, factor=4)
        assert lo_valid.all()
        assert np.array_equal(lo[0, 0], t[1, 2])

    def test_matches_naive_blockwise_mean(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(0, 1, (8, 12, 5))
        valid = rng.uniform(size=(8, 12)) > 0.3
        lo, lo_valid = sc.downscale_tensor_map(t, valid, factor=4)
        for br in range(2):
            for bc in range(3):
                block_t = t[br * 4:(br + 1) * 4, bc * 4:(bc + 1) * 4]
                block_v = valid[br * 4:(br + 1) * 4, bc * 4:(bc + 1) * 4]
                if block_v.any():
                    assert lo_valid[br, bc]
                    np.testing.assert_allclose(
                        lo[br, bc], block_t[block_v].mean(axis=0), rtol=1e-12)
                else:
                    assert not lo_valid[br, bc]
                    assert not lo[br, bc].any()

    @given(st.data())
    @settings(deadline=None, max_examples=50)
    def test_block_means_match_naive_loop(self, data):
        factor = data.draw(st.sampled_from([1, 2, 4]))
        br, bc = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rows, cols = br * factor, bc * factor
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 10.0, (rows, cols, 2, 3))
        valid = None if data.draw(st.booleans()) \
            else rng.uniform(size=(rows, cols)) < data.draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
        lo, lo_valid = sc.downscale_tensor_map(t, valid, factor=factor)
        assert lo.shape == (br, bc, 2, 3) and lo_valid.shape == (br, bc)
        for i in range(br):
            for j in range(bc):
                members = [t[r, c] for r in range(i * factor, (i + 1) * factor)
                           for c in range(j * factor, (j + 1) * factor)
                           if valid is None or valid[r, c]]
                assert lo_valid[i, j] == bool(members)
                if members:
                    # summation order differs from the loop: 16 terms at most
                    np.testing.assert_allclose(lo[i, j], sum(members) / len(members),
                                               rtol=64 * np.finfo(np.float64).eps)
                else:
                    assert not lo[i, j].any()

    def test_empty_block_invalid(self):
        t = np.ones((4, 4, 3))
        valid = np.zeros((4, 4), dtype=bool)
        lo, lo_valid = sc.downscale_tensor_map(t, valid, factor=4)
        assert not lo_valid.any() and not lo.any()

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            sc.downscale_tensor_map(np.ones((6, 8, 2)), factor=4)


class TestDownscaleConsistency:
    def test_block_constant_map_perfect(self):
        rng = np.random.default_rng(6)
        lo_t = rng.uniform(0.5, 1.0, (2, 2, 8))
        hi_t = np.repeat(np.repeat(lo_t, 4, axis=0), 4, axis=1)
        budget = metrics.LinkBudget(exclusion_threshold_db=-300.0)
        acc, tpr = sc.downscale_consistency(hi_t, lo_t, k=1, budget=budget)
        assert acc == 1.0 and tpr == 1.0

    def test_full_candidate_set_saturates(self):
        rng = np.random.default_rng(7)
        hi_t = rng.uniform(0.1, 1.0, (8, 8, 8))
        lo_t, _ = sc.downscale_tensor_map(hi_t, factor=4)
        budget = metrics.LinkBudget(exclusion_threshold_db=-300.0)
        acc, tpr = sc.downscale_consistency(hi_t, lo_t, k=8, budget=budget)
        assert acc == 1.0 and tpr == 1.0

    def test_boundary_straddling_block_between_zero_and_one(self):
        # two beams dominate different halves of one block
        hi_t = np.zeros((4, 4, 4))
        hi_t[:, :2, 0] = 1.0
        hi_t[:, :2, 1] = 0.4
        hi_t[:, 2:, 0] = 0.4
        hi_t[:, 2:, 1] = 1.0
        lo_t, _ = sc.downscale_tensor_map(hi_t, factor=4)
        budget = metrics.LinkBudget(exclusion_threshold_db=-300.0)
        acc, tpr = sc.downscale_consistency(hi_t, lo_t, k=1, budget=budget)
        assert 0.0 < acc < 1.0
        assert tpr >= acc

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sc.downscale_consistency(np.ones((8, 8, 4)), np.ones((3, 3, 4)), 1)


class TestPooling:
    def test_pool_heightmap_means(self):
        hm = sc.HeightMap(np.arange(16.0).reshape(4, 4),
                          np.zeros((4, 4)), resolution_m=1.0)
        lo = sc.pool_heightmap(hm, 2)
        assert lo.resolution_m == 2.0
        assert lo.building[0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_pool_tx(self):
        tx = sc.TxSite((9, 14), 20.0, ch.ArrayFrame(0.1, 0.2))
        lo = sc.pool_tx(tx, 4)
        assert lo.pixel == (2, 3) and lo.height_m == 20.0
