import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamgrid import channel as ch
from conftest import (beam_gain_reference, beam_tensor_reference, beam_weights,
                      instantaneous_gain_reference, on_grid_direction,
                      one_pixel_tensor, path_gains_reference, steering_vector_reference)

IDENTITY = ch.ArrayFrame(0.0, 0.0)
NO_PATHS = (np.zeros(0),) * 5


def random_paths(rng, n_paths=3):
    """(magnitude, phase, aod_azimuth, aod_elevation, aoa_azimuth) arrays."""
    return (rng.uniform(0.2, 2.0, n_paths), rng.uniform(0, 2 * np.pi, n_paths),
            rng.uniform(0, 2 * np.pi, n_paths), rng.uniform(-1.0, 0.5, n_paths),
            rng.uniform(0, 2 * np.pi, n_paths))


def without_phase(paths):
    mag, _, az, el, aoa = paths
    return mag, az, el, aoa


class TestSteeringVector:
    """Sanity checks of the oracle's array response."""

    def test_single_element(self):
        assert np.array_equal(steering_vector_reference(1, 2.7), np.array([1.0 + 0j]))

    def test_zero_phase(self):
        assert np.array_equal(steering_vector_reference(4, 0.0), np.ones(4, dtype=complex))

    def test_pi_alternation(self):
        np.testing.assert_allclose(steering_vector_reference(2, math.pi), [1, -1], atol=1e-15)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            steering_vector_reference(0, 1.0)

    @given(st.integers(1, 32), st.floats(-10, 10, allow_nan=False))
    @settings(deadline=None, max_examples=50)
    def test_entries(self, n, omega):
        a = steering_vector_reference(n, omega)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        k = np.arange(n)
        np.testing.assert_allclose(a, np.exp(1j * omega * k), atol=1e-12)


class TestArrayFrame:
    def test_boresight_maps_to_zero_polar(self):
        frame = ch.ArrayFrame(1.2, 0.3)
        # boresight direction: azimuth = boresight azimuth, elevation = -downtilt
        _, theta = ch.global_to_array_frame(1.2, -0.3, frame)
        assert abs(theta) < 1e-12

    def test_orthogonal_direction(self):
        frame = ch.ArrayFrame(0.0, 0.0)
        _, theta = ch.global_to_array_frame(math.pi / 2, 0.0, frame)
        assert abs(theta - math.pi / 2) < 1e-12

    def test_downtilt_45_composition(self):
        # independent oracle: compose the two rotation matrices explicitly
        bore, tilt = 0.6, math.pi / 4
        az, el = bore, -tilt  # 45 deg below horizontal at boresight azimuth
        d = np.array([math.cos(el) * math.cos(az),
                      math.cos(el) * math.sin(az),
                      math.sin(el)])
        rz = np.array([[math.cos(-bore), -math.sin(-bore), 0],
                       [math.sin(-bore), math.cos(-bore), 0],
                       [0, 0, 1]])
        ry = np.array([[math.cos(tilt), 0, -math.sin(tilt)],
                       [0, 1, 0],
                       [math.sin(tilt), 0, math.cos(tilt)]])
        local = ry @ rz @ d
        assert abs(local[0] - 1.0) < 1e-12  # lands on the array normal
        _, theta = ch.global_to_array_frame(az, el, ch.ArrayFrame(bore, tilt))
        assert abs(theta - math.acos(np.clip(local[0], -1, 1))) < 1e-12
        assert abs(theta) < 1e-7

    def test_downtilt_range_validated(self):
        with pytest.raises(ValueError):
            ch.ArrayFrame(0.0, 2.0)


class TestBeamspaceAngles:
    @pytest.mark.parametrize("phi,theta,expect", [
        (0.0, 0.0, (0.0, 0.0)),
        (0.0, math.pi / 2, (math.pi, 0.0)),
        (math.pi / 2, math.pi / 2, (0.0, math.pi)),
    ])
    def test_examples(self, phi, theta, expect):
        got = ch.beamspace_angles(phi, theta)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    @given(st.floats(-math.pi, math.pi), st.floats(0, math.pi))
    @settings(deadline=None, max_examples=50)
    def test_range(self, phi, theta):
        varphi, vartheta = ch.beamspace_angles(phi, theta)
        assert -math.pi - 1e-12 <= varphi <= math.pi + 1e-12
        assert -math.pi - 1e-12 <= vartheta <= math.pi + 1e-12


class TestSectorSelect:
    """The receive sector a path selects: sector_index."""

    def test_left_boundary(self):
        assert ch.sector_index(0.0, 4) == 0

    def test_half_open_boundary(self):
        assert ch.sector_index(math.pi, 4) == 2

    def test_wraparound(self):
        assert ch.sector_index(2 * math.pi + 0.1, 4) == 0

    @pytest.mark.parametrize("nr", [2, 3, 4, 6, 12])
    def test_tiny_negative_wraps_to_sector_zero(self, nr):
        # -1e-300 % 2pi rounds to 2pi exactly, one full turn: sector 0, the
        # sector of 0 rad, not the last one
        assert -1e-300 % ch.TWO_PI == ch.TWO_PI
        assert ch.sector_index(-1e-300, nr) == 0
        assert ch.sector_index(np.array([-1e-300]), nr)[0] == 0

    @given(st.floats(-50, 50, allow_nan=False), st.integers(1, 12))
    @settings(deadline=None, max_examples=100)
    def test_exactly_one_sector(self, phi, nr):
        (i,) = ch.sector_index(np.array([phi]), nr)
        assert isinstance(i, np.int64) and 0 <= i < nr
        assert ch.sector_index(np.array([0.0, phi]), nr)[1] == i

    def test_partition_of_centers(self):
        nr = 6
        centers = (np.arange(nr) + 0.5) * 2 * np.pi / nr
        assert np.array_equal(ch.sector_index(centers, nr), np.arange(nr))


class TestDftCodebook:
    def test_degenerate(self):
        cb = ch.dft_codebook(1, 1, 1)
        assert np.allclose(cb.tx_azimuth, [[1]]) and np.allclose(cb.tx_elevation, [[1]])
        assert (cb.na, cb.ne, cb.nr) == (1, 1, 1)

    def test_two_point(self):
        cb = ch.dft_codebook(2, 1, 1)
        r2 = 1 / math.sqrt(2)
        np.testing.assert_allclose(cb.tx_azimuth[:, 0], [r2, r2], atol=1e-15)
        np.testing.assert_allclose(cb.tx_azimuth[:, 1], [r2, -r2], atol=1e-15)

    def test_gram_identity(self, codebook):
        for m in (codebook.tx_azimuth, codebook.tx_elevation):
            gram = m.conj().T @ m
            assert np.abs(gram - np.eye(m.shape[0])).max() < 1e-12

    def test_dimensions(self, codebook):
        assert (codebook.na, codebook.ne, codebook.nr) == (8, 4, 4)

    def test_non_unitary_rejected(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            ch.Codebook(bad, np.eye(2, dtype=complex), 2)


class TestBeamGain:
    """Sanity checks of the oracle's per-beam power."""

    def test_empty_channel(self, codebook):
        gain = beam_gain_reference(*NO_PATHS[:4], *beam_weights(codebook, 0, 0, 0), IDENTITY)
        assert gain == 0.0

    def test_matched_on_grid_path(self, codebook):
        ia, ie, ir = 3, 1, 2
        az, el = on_grid_direction(ia, ie, codebook.na, codebook.ne)
        aoa = 2 * np.pi * ir / codebook.nr + 0.1
        gain = beam_gain_reference([1.0], [az], [el], [aoa],
                                   *beam_weights(codebook, ia, ie, ir), IDENTITY)
        assert abs(gain - codebook.na * codebook.ne) < 1e-9 * 32

    def test_orthogonal_on_grid_beam(self, codebook):
        ia, ie, ir = 3, 1, 2
        az, el = on_grid_direction(ia, ie, codebook.na, codebook.ne)
        gain = beam_gain_reference([1.0], [az], [el], [2 * np.pi * ir / codebook.nr],
                                   *beam_weights(codebook, 5, ie, ir), IDENTITY)
        assert gain < 1e-10

    def test_phase_invariance_exact(self, codebook):
        # the tensor map never reads the path phases
        rng = np.random.default_rng(7)
        mag, phase, az, el, aoa = random_paths(rng)
        frame = ch.ArrayFrame(0.8, np.pi / 4)
        before = one_pixel_tensor(mag, phase, az, el, aoa, codebook, frame)
        phase = rng.uniform(0, 2 * np.pi, phase.size)
        after = one_pixel_tensor(mag, phase, az, el, aoa, codebook, frame)
        assert after.tobytes() == before.tobytes()


class TestInstantaneousGain:
    """Sanity checks of the oracle's coherent gain."""

    def test_empty_channel(self, codebook):
        gain = instantaneous_gain_reference(*NO_PATHS, *beam_weights(codebook, 0, 0, 0),
                                            IDENTITY)
        assert gain == 0.0

    def test_single_path_equals_rss(self, codebook):
        rng = np.random.default_rng(3)
        paths = random_paths(rng, n_paths=1)
        beam = beam_weights(codebook, 2, 1, 0)
        frame = ch.ArrayFrame(0.2, 0.3)
        assert instantaneous_gain_reference(*paths, *beam, frame) == pytest.approx(
            beam_gain_reference(*without_phase(paths), *beam, frame), rel=1e-12)

    def test_destructive_interference(self, codebook):
        ia, ie, ir = 1, 0, 0
        az, el = on_grid_direction(ia, ie, codebook.na, codebook.ne)
        gain = instantaneous_gain_reference([1.0, 1.0], [0.0, np.pi], [az, az], [el, el],
                                            [0.1, 0.1], *beam_weights(codebook, ia, ie, ir),
                                            IDENTITY)
        assert gain < 1e-20

    def test_monte_carlo_matches_mean_power(self, codebook):
        # phase-averaged power is the fixed point of the random-phase draw
        rng = np.random.default_rng(11)
        mag, _, az, el, aoa = random_paths(rng, n_paths=3)
        frame = ch.ArrayFrame(1.0, np.pi / 4)
        # pick a beam whose sector one of the paths actually arrives in
        beam = beam_weights(codebook, 5, 2, ch.sector_index(aoa[0], codebook.nr))
        g = path_gains_reference(az, el, aoa, *beam, frame)
        m = 100_000
        phases = rng.uniform(0, 2 * np.pi, (m, 3))
        draws = np.abs((mag * np.exp(1j * phases)) @ g) ** 2
        # the vectorised draw equals the instantaneous gain on sampled rows
        for i in (0, 123, 4567):
            assert instantaneous_gain_reference(mag, phases[i], az, el, aoa, *beam,
                                                frame) == pytest.approx(draws[i], rel=1e-12)
        rss = beam_gain_reference(mag, az, el, aoa, *beam, frame)
        assert abs(draws.mean() - rss) / rss < 0.02


class TestFullTensorContraction:
    def test_factorised_gain_matches_tensor_contraction(self, codebook):
        # independent oracle: build the complex channel tensor from explicit
        # outer products and contract it with the beam's weight tensor
        rng = np.random.default_rng(73)
        frame = ch.ArrayFrame(0.7, 0.5)
        mag, phase, az, el, aoa = random_paths(rng, n_paths=4)
        h = np.zeros((codebook.na, codebook.ne, codebook.nr), dtype=complex)
        for p in range(mag.size):
            phi, theta = ch.global_to_array_frame(az[p], el[p], frame)
            bs = ch.beamspace_angles(phi, theta)
            a_az = steering_vector_reference(codebook.na, bs.varphi)
            a_el = steering_vector_reference(codebook.ne, bs.vartheta)
            b_rx = np.eye(codebook.nr)[ch.sector_index(aoa[p], codebook.nr)]
            h += mag[p] * np.exp(1j * phase[p]) * np.einsum("i,j,k->ijk", a_az, a_el, b_rx)
        for ia, ie, ir in ((0, 0, 0), (3, 1, 2), (7, 3, 3)):
            u, v, w = beam_weights(codebook, ia, ie, ir)
            w_tensor = np.einsum("i,j,k->ijk", u, v, w.astype(complex))
            contraction = np.einsum("ijk,ijk->", h, w_tensor.conj())
            assert instantaneous_gain_reference(mag, phase, az, el, aoa, u, v, w,
                                                frame) == pytest.approx(
                abs(contraction) ** 2, rel=1e-10)


class TestEffectiveTensor:
    """scene.effective_tensor_map on a single pixel."""

    def test_empty_channel(self, codebook):
        t = one_pixel_tensor(*NO_PATHS, codebook, IDENTITY)
        assert t.shape == (8, 4, 4) and not t.any()

    def test_single_path_rank_one(self, codebook):
        rng = np.random.default_rng(5)
        paths = random_paths(rng, n_paths=1)
        t = one_pixel_tensor(*paths, codebook, IDENTITY)
        sec = ch.sector_index(paths[4][0], codebook.nr)
        other = np.delete(t, sec, axis=2)
        assert not other.any()
        slab = t[:, :, sec]
        # rank-1: every 2x2 minor vanishes
        approx_rank = np.linalg.matrix_rank(slab, tol=1e-9)
        assert approx_rank == 1

    def test_matches_per_beam_bruteforce(self):
        cb = ch.dft_codebook(2, 2, 2)
        rng = np.random.default_rng(17)
        frame = ch.ArrayFrame(0.5, 0.6)
        for _ in range(10):
            paths = random_paths(rng, n_paths=3)
            t = one_pixel_tensor(*paths, cb, frame)
            brute = beam_tensor_reference(*without_phase(paths), cb, frame)
            np.testing.assert_allclose(t, brute, rtol=1e-10)

    def test_energy_conservation_single_path(self, codebook):
        rng = np.random.default_rng(23)
        frame = ch.ArrayFrame(0.3, 0.7)
        for _ in range(20):
            mag, phase, az, el, aoa = random_paths(rng, n_paths=1)
            t = one_pixel_tensor(mag, phase, az, el, aoa, codebook, frame)
            expect = mag[0] ** 2 * codebook.na * codebook.ne
            assert abs(t.sum() - expect) / expect < 1e-9
            # per-axis unitarity: the beam gains of one axis sum to its
            # element count regardless of the direction
            phi, theta = ch.global_to_array_frame(az[:1], el[:1], frame)
            bs = ch.beamspace_angles(phi, theta)
            g_az, g_el = ch.gain_profiles(bs.varphi, bs.vartheta, codebook)
            assert g_az.sum() == pytest.approx(codebook.na, rel=1e-12)
            assert g_el.sum() == pytest.approx(codebook.ne, rel=1e-12)

    def test_scaling_equivariance(self, codebook):
        rng = np.random.default_rng(31)
        mag, phase, az, el, aoa = random_paths(rng, n_paths=4)
        frame = ch.ArrayFrame(2.0, 0.2)
        t1 = one_pixel_tensor(mag, phase, az, el, aoa, codebook, frame)
        s = 3.7
        t2 = one_pixel_tensor(mag * s, phase, az, el, aoa, codebook, frame)
        np.testing.assert_allclose(t2, s**2 * t1, rtol=1e-12)
        assert np.argmax(t2) == np.argmax(t1)
