"""Geometric multipath channel in beamspace, codebooks, and per-beam power.

The transmitter carries a uniform rectangular array (Na azimuth x Ne
elevation elements at half-wavelength spacing); the receiver is a set of Nr
coarse azimuth sectors. A propagation path is described by a linear
amplitude, a phase, departure azimuth/elevation in the global frame, and an
arrival azimuth. Per-beam received power is the average of the squared
channel gain over uniformly random path phases, which removes all cross
terms and factorises each path's contribution into azimuth, elevation, and
sector components.

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

from . import _kernels

TWO_PI = 2.0 * math.pi


def steering_vector(n, omega):
    """Array response vector [1, e^{j*omega}, ..., e^{j*omega*(n-1)}]."""
    if n < 1:
        raise ValueError(f"steering vector length must be >= 1, got {n}")
    return np.exp(1j * omega * np.arange(n))


@dataclass
class PathParams:
    """One propagation path: amplitude, phase, and departure/arrival angles.

    Angles are radians in the global frame; the phase and arrival azimuth
    are normalised into [0, 2*pi).
    """

    magnitude: float
    phase: float
    aod_azimuth: float
    aod_elevation: float
    aoa_azimuth: float

    def __post_init__(self):
        if not self.magnitude >= 0.0:
            raise ValueError(f"path magnitude must be >= 0, got {self.magnitude}")
        self.phase = float(self.phase) % TWO_PI
        self.aoa_azimuth = float(self.aoa_azimuth) % TWO_PI


@dataclass
class MultipathChannel:
    """All paths between one transmitter and one receiver pixel.

    Stored as parallel arrays; zero paths is a legal deep-shadow channel and
    yields zero power under every beam.
    """

    magnitude: np.ndarray
    phase: np.ndarray
    aod_azimuth: np.ndarray
    aod_elevation: np.ndarray
    aoa_azimuth: np.ndarray
    tx_id: int = 0
    rx_pixel: tuple = (0, 0)

    def __post_init__(self):
        arrays = [self.magnitude, self.phase, self.aod_azimuth,
                  self.aod_elevation, self.aoa_azimuth]
        arrays = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
        n = arrays[0].size
        if any(a.size != n for a in arrays):
            raise ValueError("path arrays must share one length")
        if n and arrays[0].min() < 0.0:
            raise ValueError("path magnitudes must be >= 0")
        (self.magnitude, self.phase, self.aod_azimuth,
         self.aod_elevation, self.aoa_azimuth) = arrays

    @classmethod
    def from_paths(cls, paths, tx_id=0, rx_pixel=(0, 0)):
        return cls(
            magnitude=np.array([p.magnitude for p in paths]),
            phase=np.array([p.phase for p in paths]),
            aod_azimuth=np.array([p.aod_azimuth for p in paths]),
            aod_elevation=np.array([p.aod_elevation for p in paths]),
            aoa_azimuth=np.array([p.aoa_azimuth for p in paths]),
            tx_id=tx_id,
            rx_pixel=rx_pixel,
        )

    @classmethod
    def empty(cls, tx_id=0, rx_pixel=(0, 0)):
        z = np.zeros(0)
        return cls(z, z, z, z, z, tx_id=tx_id, rx_pixel=rx_pixel)

    @property
    def n_paths(self):
        return int(self.magnitude.size)


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
    """Index of the half-open azimuth sector [2*pi*i/nr, 2*pi*(i+1)/nr)."""
    if nr < 1:
        raise ValueError(f"sector count must be >= 1, got {nr}")
    a = np.asarray(aoa_azimuth, dtype=np.float64) % TWO_PI
    idx = (a * nr / TWO_PI).astype(np.int64)
    # a % 2pi can round up to exactly 2pi for tiny negative inputs
    idx = np.where(idx >= nr, 0, idx)
    if np.isscalar(aoa_azimuth) or idx.ndim == 0:
        return int(idx)
    return idx


def sector_select(aoa_azimuth, nr):
    """One-hot sector membership vector of length nr."""
    out = np.zeros(nr)
    out[sector_index(aoa_azimuth, nr)] = 1.0
    return out


@dataclass
class Beam:
    """One codebook entry: azimuth and elevation weights plus a sector pick."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    index: tuple


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
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} weights must form a square matrix")
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

    @property
    def size(self):
        return self.na * self.ne * self.nr

    def flat_index(self, ia, ie, ir):
        return (ia * self.ne + ie) * self.nr + ir

    def index_triple(self, flat):
        ia, rem = divmod(int(flat), self.ne * self.nr)
        ie, ir = divmod(rem, self.nr)
        return ia, ie, ir

    def beam(self, ia, ie, ir):
        w = np.zeros(self.nr)
        w[ir] = 1.0
        return Beam(self.tx_azimuth[:, ia].copy(), self.tx_elevation[:, ie].copy(),
                    w, (ia, ie, ir))

    def beams(self):
        for ia in range(self.na):
            for ie in range(self.ne):
                for ir in range(self.nr):
                    yield self.beam(ia, ie, ir)


def dft_codebook(na, ne, nr):
    """Unitary discrete-Fourier codebook; beam ia peaks at varphi = -2*pi*ia/na."""
    if min(na, ne, nr) < 1:
        raise ValueError("codebook dimensions must be >= 1")

    def dft(n):
        k = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)

    return Codebook(dft(na), dft(ne), nr)


def path_complex_gains(channel, beam, frame):
    """Per-path complex gain (u^H a)(v^H a)(w^H b), excluding amplitude/phase."""
    na = beam.u.size
    ne = beam.v.size
    nr = beam.w.size
    g = np.empty(channel.n_paths, dtype=np.complex128)
    for p in range(channel.n_paths):
        phi, theta = global_to_array_frame(
            channel.aod_azimuth[p], channel.aod_elevation[p], frame)
        bs = beamspace_angles(phi, theta)
        ga = np.vdot(beam.u, steering_vector(na, bs.varphi))
        ge = np.vdot(beam.v, steering_vector(ne, bs.vartheta))
        gr = beam.w[sector_index(channel.aoa_azimuth[p], nr)]
        g[p] = ga * ge * gr
    return g


def beam_gain(channel, beam, frame):
    """Phase-averaged received power under one beam (unit transmit power)."""
    if channel.n_paths == 0:
        return 0.0
    g = path_complex_gains(channel, beam, frame)
    return float(np.sum(channel.magnitude**2 * np.abs(g) ** 2))


def instantaneous_gain(channel, beam, frame):
    """Squared magnitude of the coherent (phase-bearing) channel gain."""
    if channel.n_paths == 0:
        return 0.0
    g = path_complex_gains(channel, beam, frame)
    total = np.sum(channel.magnitude * np.exp(1j * channel.phase) * g)
    return float(np.abs(total) ** 2)


def gain_profiles(varphi, vartheta, codebook):
    """Squared beam-matching gains of all azimuth/elevation beams.

    For beamspace angles of shape (P,), returns (P, Na) and (P, Ne) arrays of
    |u^H a|^2 and |v^H a|^2. Shared by the per-pixel tensor builder and the
    geometry-only predictor so both rank beams identically.
    """
    varphi = np.atleast_1d(np.asarray(varphi, dtype=np.float64))
    vartheta = np.atleast_1d(np.asarray(vartheta, dtype=np.float64))
    a_az = np.exp(1j * varphi[:, None] * np.arange(codebook.na))
    a_el = np.exp(1j * vartheta[:, None] * np.arange(codebook.ne))
    g_az = np.abs(a_az @ codebook.tx_azimuth.conj()) ** 2
    g_el = np.abs(a_el @ codebook.tx_elevation.conj()) ** 2
    return g_az, g_el


def effective_tensor(channel, codebook, frame):
    """Per-beam expected received power, shape (Na, Ne, Nr).

    Uses the factorised form: each path contributes an outer product of its
    azimuth gain profile, elevation gain profile, and one-hot sector vector,
    which matches the direct per-beam sum because the phase-averaged power
    is additive over paths. The paths are summed by
    _kernels.accumulate_tensors, the accumulation of the scene tensor map.
    """
    tensor = np.zeros((1, codebook.na, codebook.ne, codebook.nr))
    if channel.n_paths:
        phi, theta = global_to_array_frame(channel.aod_azimuth, channel.aod_elevation, frame)
        bs = beamspace_angles(phi, theta)
        g_az, g_el = gain_profiles(bs.varphi, bs.vartheta, codebook)
        sectors = np.atleast_1d(sector_index(channel.aoa_azimuth, codebook.nr))
        _kernels.accumulate_tensors(np.zeros(channel.n_paths, dtype=np.int64), sectors,
                                    channel.magnitude**2, g_az, g_el, tensor)
    return tensor[0]


def optimal_beam(tensor):
    """Argmax beam index triple and a validity flag.

    Ties resolve to the smallest flat index; an all-zero tensor returns
    flat index 0 with valid=False so callers can mask the sample.
    """
    values = np.asarray(tensor)
    flat = int(np.argmax(values))
    valid = bool(values.flat[flat] > 0)
    triple = np.unravel_index(flat, values.shape)
    return tuple(int(i) for i in triple), valid
