"""BLE array-signal synthesis, MUSIC bearing estimation and triangulation.

The receive model is a uniform linear array of ``n_elements`` antennas at
half-wavelength spacing. A narrowband source at azimuth theta (degrees, 0 to
180, measured from the array axis) and elevation phi reaches element ``m``
with phase ``exp(-2j pi (d / lambda) m cos(theta) cos(phi))``. Snapshots
stack M complex samples per element; the MUSIC spectrum scans the 181
integer azimuths of the half-plane with elevation fixed at zero.

Positions come from intersecting bearing lines of several fixed receivers in
a least-squares sense; a learned image classifier could replace that last
step, which is why the stacked per-receiver spectra are also exportable as a
square angle image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SPEED_OF_LIGHT = 3.0e8
AZIMUTH_GRID = np.arange(181)
ANGLE_IMAGE_SIDE = 28
ANGLE_IMAGE_BEACONS = 4
ANGLE_IMAGE_PAYLOAD = ANGLE_IMAGE_BEACONS * 181  # 724 spectrum samples


class NumericalRankError(Exception):
    """Covariance cannot support the requested subspace split."""


class DegenerateGeometryError(Exception):
    """Bearing lines are parallel or nearly so; no stable intersection."""


@dataclass(frozen=True)
class BlePulseConfig:
    """GFSK waveform parameters for the advertising transmitter."""

    symbol_energy: float = 1.0
    symbol_period: float = 1e-6
    modulation_index: float = 0.5
    initial_phase: float = 0.0
    carrier_hz: float = 2.44e9
    bt_product: float = 0.5
    samples_per_symbol: int = 8

    def __post_init__(self) -> None:
        if not 0.45 <= self.modulation_index <= 0.55:
            raise ValueError("modulation index must sit in [0.45, 0.55]")
        if not 2.4e9 <= self.carrier_hz <= 2.48e9:
            raise ValueError("carrier must sit in the 2.4 to 2.48 GHz band")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True)
class ChannelRealization:
    """Multipath gains/delays plus the additive-noise operating point."""

    attenuations: tuple[complex, ...]
    delays: tuple[float, ...]
    snr_db: Optional[float] = None
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if len(self.attenuations) < 1 or len(self.attenuations) != len(self.delays):
            raise ValueError("need at least one path, with one delay per gain")
        if any(d < 0 for d in self.delays):
            raise ValueError("path delays must be non-negative")
        if list(self.delays) != sorted(self.delays):
            raise ValueError("path delays must be sorted ascending")


def awgn_channel(snr_db: Optional[float]) -> ChannelRealization:
    """Single line-of-sight path with additive noise only."""
    return ChannelRealization(attenuations=(1.0 + 0.0j,), delays=(0.0,), snr_db=snr_db)


def gfsk_baseband(
    config: BlePulseConfig, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian-filtered FSK baseband samples of unit symbol energy scale.

    Random +/-1 symbols are pulse-shaped by a Gaussian filter whose
    normalized cumulative response advances the phase by pi times the
    modulation index per symbol.
    """
    sps = config.samples_per_symbol
    n_symbols = n_samples // sps + 4
    symbols = rng.choice(np.array([-1.0, 1.0]), size=n_symbols)

    # Gaussian frequency pulse truncated to +/-2 symbol periods.
    delta = math.sqrt(math.log(2.0)) / (2.0 * math.pi * config.bt_product)
    t = np.arange(-2 * sps, 2 * sps + 1) / sps
    pulse = np.exp(-(t ** 2) / (2.0 * delta ** 2))
    pulse /= pulse.sum()

    freq = np.convolve(np.repeat(symbols, sps), pulse, mode="same")
    phase = (
        config.initial_phase
        + np.pi * config.modulation_index * np.cumsum(freq) / sps
    )
    amplitude = math.sqrt(2.0 * config.symbol_energy / config.symbol_period)
    baseband = amplitude * np.exp(1j * phase)
    return baseband[:n_samples]


def steering_vector(
    azimuth_deg: float,
    elevation_deg: float,
    n_elements: int,
    spacing_over_lambda: float = 0.5,
) -> np.ndarray:
    """Per-element phase response of the linear array to a plane wave."""
    theta = math.radians(azimuth_deg)
    phi = math.radians(elevation_deg)
    phase_step = -2.0j * math.pi * spacing_over_lambda * math.cos(theta) * math.cos(phi)
    return np.exp(phase_step * np.arange(n_elements))


@dataclass(frozen=True)
class ArraySnapshot:
    elements: int
    spacing: float
    samples: np.ndarray  # complex, shape (elements, M)
    true_azimuth: float
    true_elevation: float
    wavelength: float


def synthesize_snapshot(
    config: BlePulseConfig,
    channel: ChannelRealization,
    azimuth_deg: float,
    elevation_deg: float,
    n_elements: int,
    n_samples: int,
    rng: np.random.Generator,
) -> ArraySnapshot:
    """Simulate what the array records for one advertising burst.

    The multipath sum collapses to one complex gain because path delays are
    tiny against the symbol period (narrowband assumption); the per-element
    noise level is set from the channel's SNR against the actual signal
    power, so the empirical SNR of the output matches the request.
    """
    if not 0.0 <= azimuth_deg <= 180.0:
        raise ValueError("azimuth must sit in [0, 180] degrees")
    if n_elements < 2:
        raise ValueError("need at least two array elements")
    if n_samples < n_elements:
        raise ValueError("need at least as many samples as elements")

    source = gfsk_baseband(config, n_samples, rng)
    gain = sum(
        rho * np.exp(-2j * np.pi * config.carrier_hz * tau)
        for rho, tau in zip(channel.attenuations, channel.delays)
    )
    steering = steering_vector(azimuth_deg, elevation_deg, n_elements)
    clean = np.outer(steering, gain * source)

    if channel.snr_db is None:
        sigma = channel.noise_sigma
    else:
        signal_power = float(np.mean(np.abs(clean) ** 2))
        sigma = math.sqrt(signal_power * 10.0 ** (-channel.snr_db / 10.0))
    noise = (
        rng.normal(size=clean.shape) + 1j * rng.normal(size=clean.shape)
    ) * (sigma / math.sqrt(2.0))

    return ArraySnapshot(
        elements=n_elements,
        spacing=config.wavelength / 2.0,
        samples=clean + noise,
        true_azimuth=azimuth_deg,
        true_elevation=elevation_deg,
        wavelength=config.wavelength,
    )


def snapshot_covariance(snapshot: ArraySnapshot) -> np.ndarray:
    """Sample covariance of the array output, forced exactly Hermitian."""
    x = snapshot.samples
    r = x @ x.conj().T / x.shape[1]
    r = (r + r.conj().T) / 2.0
    eigvals = np.linalg.eigvalsh(r)
    if eigvals[0] < -1e-9 * max(abs(eigvals[-1]), 1.0):
        raise NumericalRankError("covariance is not positive semidefinite")
    return r


def music_spectrum(snapshot: ArraySnapshot, n_sources: int) -> np.ndarray:
    """Pseudo-spectrum over integer azimuths 0..180 at elevation zero.

    Peaks appear where the steering vector falls out of the noise subspace
    spanned by the smallest covariance eigenvectors.
    """
    n_e = snapshot.elements
    if not 1 <= n_sources < n_e:
        raise ValueError("n_sources must sit in [1, n_elements)")
    if snapshot.samples.shape[1] < n_e:
        raise NumericalRankError(
            f"{snapshot.samples.shape[1]} samples cannot resolve {n_e} elements"
        )
    r = snapshot_covariance(snapshot)
    _, eigvecs = np.linalg.eigh(r)  # ascending eigenvalues
    noise_space = eigvecs[:, : n_e - n_sources]
    projector = noise_space @ noise_space.conj().T

    # All 181 steering vectors at once: column theta of A scans the grid.
    phase_step = -1j * np.pi * np.cos(np.radians(AZIMUTH_GRID))
    a = np.exp(np.outer(np.arange(n_e), phase_step))
    denom = np.real(np.einsum("it,it->t", a.conj(), projector @ a))
    return 1.0 / np.maximum(denom, np.finfo(float).tiny)


def spectrum_peak(spectrum: np.ndarray) -> int:
    """Azimuth of the global spectrum maximum, in whole degrees."""
    return int(np.argmax(spectrum))


def normalize_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Affine rescale onto [0, 1]; a flat spectrum maps to zeros."""
    lo, hi = float(np.min(spectrum)), float(np.max(spectrum))
    if hi <= lo:
        return np.zeros_like(spectrum)
    return (spectrum - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# Angle image
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleImage:
    spectra: np.ndarray  # (4, 181), each row normalized to [0, 1]
    padded: np.ndarray   # (28, 28)


def build_angle_image(
    spectra: Sequence[np.ndarray], n_beacons: int = ANGLE_IMAGE_BEACONS
) -> AngleImage:
    """Stack per-receiver spectra and zero-pad them into a 28 by 28 matrix.

    Four rows of 181 samples leave exactly 60 entries of padding; other
    receiver counts do not fit the square and are rejected.
    """
    if n_beacons != ANGLE_IMAGE_BEACONS:
        raise ValueError(f"angle image is defined for {ANGLE_IMAGE_BEACONS} receivers")
    if len(spectra) != n_beacons:
        raise ValueError(f"expected {n_beacons} spectra, got {len(spectra)}")
    rows = np.asarray(spectra, dtype=float)
    if rows.shape != (n_beacons, 181):
        raise ValueError(f"each spectrum must hold 181 samples, got {rows.shape}")
    if rows.size and (rows.min() < 0.0 or rows.max() > 1.0):
        raise ValueError("spectra rows must be normalized to [0, 1]")
    flat = np.zeros(ANGLE_IMAGE_SIDE * ANGLE_IMAGE_SIDE)
    flat[:ANGLE_IMAGE_PAYLOAD] = rows.reshape(-1)
    return AngleImage(
        spectra=rows, padded=flat.reshape(ANGLE_IMAGE_SIDE, ANGLE_IMAGE_SIDE)
    )


def unpad_angle_image(padded: np.ndarray) -> np.ndarray:
    """Recover the stacked (4, 181) spectra from the square image."""
    if padded.shape != (ANGLE_IMAGE_SIDE, ANGLE_IMAGE_SIDE):
        raise ValueError(f"expected a {ANGLE_IMAGE_SIDE}x{ANGLE_IMAGE_SIDE} image")
    flat = padded.reshape(-1)
    return flat[:ANGLE_IMAGE_PAYLOAD].reshape(ANGLE_IMAGE_BEACONS, 181)


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------

def estimate_position(
    beacon_positions: Sequence[Sequence[float]],
    bearings_deg: Sequence[float],
    condition_limit: float = 1e8,
) -> tuple[np.ndarray, float]:
    """Least-squares intersection of bearing lines from fixed receivers.

    Each bearing defines the line through its receiver along the given
    global direction; the normal-form equations are solved jointly. Returns
    the point and the residual norm, which callers can use as a quality
    gate. Near-parallel bearings raise :class:`DegenerateGeometryError`.
    """
    beacons = np.asarray(beacon_positions, dtype=float)
    angles = np.asarray(bearings_deg, dtype=float)
    if beacons.ndim != 2 or beacons.shape[1] != 2 or beacons.shape[0] < 2:
        raise ValueError("need at least two receivers with 2D positions")
    if beacons.shape[0] != angles.shape[0]:
        raise ValueError("one bearing per receiver required")
    if not np.all(np.isfinite(angles)):
        raise ValueError("bearings must be finite")

    rad = np.radians(angles)
    normals = np.stack([-np.sin(rad), np.cos(rad)], axis=1)
    offsets = np.einsum("ij,ij->i", normals, beacons)

    singular = np.linalg.svd(normals, compute_uv=False)
    if singular[-1] <= 0 or singular[0] / singular[-1] > condition_limit:
        raise DegenerateGeometryError("bearing lines are (near-)parallel")

    point, _, _, _ = np.linalg.lstsq(normals, offsets, rcond=None)
    residual = float(np.linalg.norm(normals @ point - offsets))
    return point, residual
