"""Geometric multipath channel in beamspace: angles, codebooks, beam gains.

The transmitter carries a uniform rectangular array (Na azimuth x Ne
elevation elements at half-wavelength spacing); the receiver is a set of Nr
coarse azimuth sectors. A propagation path is described by a linear
amplitude, a phase, departure azimuth/elevation in the global frame, and an
arrival azimuth. Per-beam received power is the average of the squared
channel gain over uniformly random path phases, which removes all cross
terms and factorises each path's contribution into azimuth, elevation, and
sector components: scene.effective_tensor_map sums those factors over the
paths of every pixel, taking the gains from gain_profiles. The unfactorised
per-beam steering-vector model lives in tests/conftest.py, as the oracle
the factorised path is tested against.

Conventions used throughout the package:

* global frame: x = east (+column), y = north (-row), z = up; azimuth is
  measured from east, counter-clockwise; elevation is measured above the
  horizontal plane;
* array frame: x' is the boresight (array normal), obtained by rotating the
  global frame by the boresight azimuth about the vertical and then tilting
  down by the downtilt angle; the antenna panel spans the y'-z' plane with
  the azimuth element axis along y' and the elevation element axis along z';
* theta is the polar angle from x', phi the azimuth in the y'-z' plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArrayFrame:
    """Orientation of the transmit panel: boresight azimuth and downtilt."""

    boresight_azimuth: float
    downtilt: float

    def __post_init__(self):
        if not 0.0 <= self.downtilt <= math.pi / 2:
            raise ValueError(f"downtilt must lie in [0, pi/2], got {self.downtilt}")


class BeamspaceAngles(NamedTuple):
    varphi: float
    vartheta: float


def global_to_array_frame(aod_azimuth, aod_elevation, frame):
    """Departure direction expressed in the array frame.

    Rotates the global unit direction by -boresight_azimuth about the
    vertical axis, then by -downtilt about the resulting transverse axis;
    returns (phi, theta) with theta the polar angle from the array normal
    and phi the azimuth in the y'-z' panel plane. Accepts scalars or arrays.
    """
    ce = np.cos(aod_elevation)
    dx = ce * np.cos(aod_azimuth)
    dy = ce * np.sin(aod_azimuth)
    dz = np.sin(aod_elevation)
    cb = math.cos(frame.boresight_azimuth)
    sb = math.sin(frame.boresight_azimuth)
    x1 = cb * dx + sb * dy
    y1 = -sb * dx + cb * dy
    ct = math.cos(frame.downtilt)
    st = math.sin(frame.downtilt)
    xl = x1 * ct - dz * st
    zl = x1 * st + dz * ct
    theta = np.arccos(np.clip(xl, -1.0, 1.0))
    phi = np.arctan2(zl, y1)
    return phi, theta


def beamspace_angles(phi, theta):
    """Phase-progression angles of the two panel axes for a departure direction.

    varphi drives the azimuth (y') element axis and vartheta the elevation
    (z') axis; both equal pi times the corresponding component of the unit
    direction in the array frame and therefore lie in [-pi, pi].
    """
    s = np.sin(theta)
    return BeamspaceAngles(np.pi * s * np.cos(phi), np.pi * s * np.sin(phi))


def sector_index(aoa_azimuth, nr):
    """Index of the half-open azimuth sector [2*pi*i/nr, 2*pi*(i+1)/nr)
    of each azimuth: an int64 array of the azimuths' shape."""
    if nr < 1:
        raise ValueError(f"sector count must be >= 1, got {nr}")
    a = np.asarray(aoa_azimuth, dtype=np.float64) % TWO_PI
    idx = (a * nr / TWO_PI).astype(np.int64)
    # a % 2pi can round up to exactly 2pi for tiny negative inputs
    return np.where(idx >= nr, 0, idx)


@dataclass
class Codebook:
    """Full beam set: Na azimuth x Ne elevation transmit weight vectors
    crossed with Nr receive sector selectors.

    Columns of the weight matrices are individual beams; they must be unit
    norm and pairwise orthogonal (unitary sub-codebooks), which makes the
    total radiated energy per path independent of the beam split. The flat
    beam index is ia * (Ne * Nr) + ie * Nr + ir.
    """

    tx_azimuth: np.ndarray
    tx_elevation: np.ndarray
    n_rx_sectors: int

    def __post_init__(self):
        self.tx_azimuth = np.asarray(self.tx_azimuth, dtype=np.complex128)
        self.tx_elevation = np.asarray(self.tx_elevation, dtype=np.complex128)
        for name, m in (("azimuth", self.tx_azimuth), ("elevation", self.tx_elevation)):
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
                raise ValueError(f"{name} weights must form a non-empty square matrix")
            gram = m.conj().T @ m
            if np.abs(np.diag(gram) - 1.0).max() > 1e-12:
                raise ValueError(f"{name} beam weights are not unit norm")
            if not np.allclose(gram, np.eye(m.shape[0]), atol=1e-9):
                raise ValueError(f"{name} sub-codebook is not unitary")
        if self.n_rx_sectors < 1:
            raise ValueError("need at least one receive sector")

    @property
    def na(self):
        return self.tx_azimuth.shape[0]

    @property
    def ne(self):
        return self.tx_elevation.shape[0]

    @property
    def nr(self):
        return int(self.n_rx_sectors)


def dft_codebook(na, ne, nr):
    """Unitary discrete-Fourier codebook; beam ia peaks at varphi = -2*pi*ia/na."""

    def dft(n):
        k = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)

    return Codebook(dft(na), dft(ne), nr)


def gain_profiles(varphi, vartheta, codebook):
    """Squared beam-matching gains of all azimuth/elevation beams.

    For 1-D arrays of P beamspace angles, returns (P, Na) and (P, Ne) arrays of
    |u^H a|^2 and |v^H a|^2. Shared by scene.effective_tensor_map and the
    geometry-only predictor so both rank beams identically.
    """
    a_az = np.exp(1j * varphi[:, None] * np.arange(codebook.na))
    a_el = np.exp(1j * vartheta[:, None] * np.arange(codebook.ne))
    g_az = np.abs(a_az @ codebook.tx_azimuth.conj()) ** 2
    g_el = np.abs(a_el @ codebook.tx_elevation.conj()) ** 2
    return g_az, g_el
