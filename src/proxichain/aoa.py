"""BLE array-signal synthesis, MUSIC bearing estimation and triangulation.

The receive model is a uniform linear array of ``n_elements`` antennas at
half-wavelength spacing (``SPACING_OVER_LAMBDA``). A narrowband source at
azimuth theta (degrees, 0 to 180, measured from the array axis) and
elevation phi reaches element ``m`` with phase
``exp(-2j pi (d / lambda) m cos(theta) cos(phi))``. Snapshots stack M
complex samples per element; the MUSIC spectrum scans the 181 integer
azimuths of the half-plane with elevation fixed at zero. Synthesis and MUSIC
each take a batch in one call: ``synthesize_snapshots`` records B arrays
through C channels, each channel drawing from its own generator, and
``music_spectra`` scans any stack of array outputs. The one-snapshot
functions are batches of one on plain arrays. Every call reads the element
spacing from ``SPACING_OVER_LAMBDA`` when it runs, so that constant is the
only one to change.

Positions come from intersecting bearing lines of several fixed receivers in
a least-squares sense; a learned image classifier could replace that last
step, which is why the stacked per-receiver spectra are also exportable as a
square angle image.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

AZIMUTH_GRID = np.arange(181)
ANGLE_IMAGE_SIDE = 28
ANGLE_IMAGE_BEACONS = 4
ANGLE_IMAGE_PAYLOAD = ANGLE_IMAGE_BEACONS * 181  # 724 spectrum samples
# Element spacing in wavelengths: synthesis, steering vectors and the MUSIC
# scan all read it from here at call time.
SPACING_OVER_LAMBDA = 0.5


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


@dataclass(frozen=True)
class ChannelRealization:
    """Multipath gains/delays plus the additive-noise operating point."""

    attenuations: tuple[complex, ...]
    delays: tuple[float, ...]
    snr_db: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.attenuations) < 1 or len(self.attenuations) != len(self.delays):
            raise ValueError("need at least one path, with one delay per gain")
        if any(d < 0 for d in self.delays):
            raise ValueError("path delays must be non-negative")
        if list(self.delays) != sorted(self.delays):
            raise ValueError("path delays must be sorted ascending")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(
                f"SNR must be a finite dB value, or None for noiseless; got {self.snr_db!r}"
            )


def awgn_channel(snr_db: Optional[float]) -> ChannelRealization:
    """Single line-of-sight path with additive noise only."""
    return ChannelRealization(attenuations=(1.0 + 0.0j,), delays=(0.0,), snr_db=snr_db)


@functools.lru_cache(maxsize=None)
def _gaussian_pulse(config: BlePulseConfig) -> np.ndarray:
    """Gaussian frequency pulse truncated to +/-2 symbol periods, unit sum."""
    sps = config.samples_per_symbol
    delta = math.sqrt(math.log(2.0)) / (2.0 * math.pi * config.bt_product)
    t = np.arange(-2 * sps, 2 * sps + 1) / sps
    pulse = np.exp(-(t ** 2) / (2.0 * delta ** 2))
    pulse /= pulse.sum()
    pulse.setflags(write=False)
    return pulse


_SYMBOLS = np.array([-1.0, 1.0])
_SYMBOLS.setflags(write=False)


def _draw_symbols(
    config: BlePulseConfig, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Random +/-1 symbols for one burst. Indexing an integer draw gives the
    values of ``rng.choice([-1.0, 1.0], size)`` and leaves ``rng`` in the same
    state, without ``choice``'s per-call overhead."""
    n_symbols = n_samples // config.samples_per_symbol + 4
    return _SYMBOLS[rng.integers(0, 2, size=n_symbols)]


def _modulate(config: BlePulseConfig, symbols: np.ndarray, n_samples: int) -> np.ndarray:
    """GFSK baseband for each row of +/-1 symbols: (R, n_symbols) -> (R, n_samples).

    The symbols are pulse-shaped by a Gaussian filter whose normalized
    cumulative response advances the phase by pi times the modulation index
    per symbol. Only the first ``n_samples`` of each row are kept, so the
    phase is accumulated and exponentiated only that far.
    """
    sps = config.samples_per_symbol
    pulse = _gaussian_pulse(config)
    held = np.repeat(symbols, sps, axis=1)
    freq = np.stack([np.convolve(row, pulse, mode="same")[:n_samples] for row in held])
    phase = (
        config.initial_phase
        + np.pi * config.modulation_index * np.cumsum(freq, axis=1) / sps
    )
    amplitude = math.sqrt(2.0 * config.symbol_energy / config.symbol_period)
    return amplitude * np.exp(1j * phase)


def steering_vector(azimuth_deg: float, elevation_deg: float, n_elements: int) -> np.ndarray:
    """Per-element phase response of the linear array to a plane wave."""
    theta = math.radians(azimuth_deg)
    phi = math.radians(elevation_deg)
    phase_step = -2.0j * math.pi * SPACING_OVER_LAMBDA * math.cos(theta) * math.cos(phi)
    return np.exp(phase_step * np.arange(n_elements))


def synthesize_snapshots(
    config: BlePulseConfig,
    channels: Sequence[ChannelRealization],
    azimuths_deg: Sequence[float],
    elevations_deg: Sequence[float],
    n_elements: int,
    n_samples: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Simulate what B arrays record for one advertising burst each, through
    each of C channels.

    Returns complex samples of shape ``(C, B, n_elements, n_samples)``: one
    array per (azimuth, elevation) pair, all of them once per channel. The
    multipath sum collapses to one complex gain because path delays are
    tiny against the symbol period (narrowband assumption); each array's
    noise level is set from its channel's SNR against its actual signal
    power, so the empirical SNR of every output matches the request.

    Channel ``c`` draws from ``rngs[c]`` array by array (the symbols, then
    the real and imaginary noise), so ``out[c]`` consumes that stream
    exactly as B one-array calls would and returns the same samples. The
    geometry is shared, so the steering vectors are computed once, and the
    bursts of all channels are modulated together.
    """
    if len(channels) != len(rngs) or len(channels) < 1:
        raise ValueError("need one generator per channel, and at least one channel")
    if len(azimuths_deg) != len(elevations_deg) or len(azimuths_deg) < 1:
        raise ValueError("need one elevation per azimuth, and at least one of each")
    if not all(0.0 <= az <= 180.0 for az in azimuths_deg):
        raise ValueError("azimuth must sit in [0, 180] degrees")
    if not all(-90.0 <= el <= 90.0 for el in elevations_deg):
        raise ValueError("elevation must be finite and sit in [-90, 90] degrees")
    if n_elements < 2:
        raise ValueError("need at least two array elements")
    if n_samples < n_elements:
        raise ValueError("need at least as many samples as elements")

    n_channels, n_arrays = len(channels), len(azimuths_deg)
    symbols, unit_noise = [], []
    for rng in rngs:
        for _ in range(n_arrays):
            symbols.append(_draw_symbols(config, n_samples, rng))
            unit_noise.append(rng.normal(size=(2, n_elements, n_samples)))
    source = _modulate(config, np.stack(symbols), n_samples)
    gains = np.array(
        [
            sum(
                rho * np.exp(-2j * np.pi * config.carrier_hz * tau)
                for rho, tau in zip(channel.attenuations, channel.delays)
            )
            for channel in channels
        ]
    )
    steering = np.stack(
        [
            steering_vector(az, el, n_elements)
            for az, el in zip(azimuths_deg, elevations_deg)
        ]
    )
    faded = gains[:, None, None] * source.reshape(n_channels, n_arrays, n_samples)
    out = steering[None, :, :, None] * faded[:, :, None, :]

    # Noise power per channel relative to each array's signal power; zero
    # for a noiseless channel.
    relative = np.array(
        [0.0 if ch.snr_db is None else 10.0 ** (-ch.snr_db / 10.0) for ch in channels]
    )
    signal_power = np.mean(np.abs(out) ** 2, axis=(2, 3))
    scale = np.sqrt(signal_power * relative[:, None]) / math.sqrt(2.0)
    noise = np.stack(unit_noise).reshape(n_channels, n_arrays, 2, n_elements, n_samples)
    noise *= scale[:, :, None, None, None]
    # Same bytes as out + (z0 + 1j z1) * scale, without complex temporaries.
    out.real += noise[:, :, 0]
    out.imag += noise[:, :, 1]
    return out


def synthesize_snapshot(
    config: BlePulseConfig,
    channel: ChannelRealization,
    azimuth_deg: float,
    elevation_deg: float,
    n_elements: int,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One array's recording of one advertising burst, shape
    ``(n_elements, n_samples)`` (see ``synthesize_snapshots``)."""
    return synthesize_snapshots(
        config, [channel], [azimuth_deg], [elevation_deg], n_elements, n_samples, [rng]
    )[0, 0]


def _covariances(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariances of stacked array outputs, forced exactly Hermitian,
    with their eigenvectors (ascending eigenvalues). Raises
    :class:`NumericalRankError` if any covariance is not positive semidefinite.
    """
    r = samples @ samples.conj().swapaxes(-1, -2) / samples.shape[-1]
    r = (r + r.conj().swapaxes(-1, -2)) / 2.0
    eigvals, eigvecs = np.linalg.eigh(r)
    bad = eigvals[:, 0] < -1e-9 * np.maximum(np.abs(eigvals[:, -1]), 1.0)
    if bad.any():
        raise NumericalRankError(
            f"covariance {int(np.argmax(bad))} of the batch is not positive semidefinite"
        )
    return r, eigvecs


def snapshot_covariance(samples: np.ndarray) -> np.ndarray:
    """Sample covariance of one array output, forced exactly Hermitian."""
    return _covariances(samples[None])[0][0]


@functools.lru_cache(maxsize=16)
def _steering_matrix(n_elements: int, spacing: float) -> np.ndarray:
    """All 181 grid steering vectors at elevation zero for elements ``spacing``
    wavelengths apart: column theta scans the grid."""
    phase_step = -2j * np.pi * spacing * np.cos(np.radians(AZIMUTH_GRID))
    a = np.exp(np.outer(np.arange(n_elements), phase_step))
    a.setflags(write=False)
    return a


def music_spectra(samples: np.ndarray, n_sources: int) -> np.ndarray:
    """Pseudo-spectra over integer azimuths 0..180 at elevation zero.

    ``samples`` stacks B array outputs, shape ``(B, n_elements, M)``; the
    result has shape ``(B, 181)``. Peaks appear where the steering vector
    falls out of the noise subspace spanned by the smallest covariance
    eigenvectors.
    """
    if samples.ndim != 3 or samples.shape[0] < 1:
        raise ValueError("samples must stack one or more arrays: (B, n_elements, M)")
    n_e, n_samples = samples.shape[1:]
    if not 1 <= n_sources < n_e:
        raise ValueError("n_sources must sit in [1, n_elements)")
    if n_samples < n_e:
        raise NumericalRankError(f"{n_samples} samples cannot resolve {n_e} elements")
    _, eigvecs = _covariances(samples)
    noise_space = eigvecs[:, :, : n_e - n_sources]
    projector = noise_space @ noise_space.conj().swapaxes(-1, -2)

    a = _steering_matrix(n_e, SPACING_OVER_LAMBDA)
    denom = np.real(np.einsum("it,bit->bt", a.conj(), projector @ a))
    return 1.0 / np.maximum(denom, np.finfo(float).tiny)


def music_spectrum(samples: np.ndarray, n_sources: int) -> np.ndarray:
    """One array output's MUSIC pseudo-spectrum (see ``music_spectra``)."""
    return music_spectra(samples[None], n_sources)[0]


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


def build_angle_image(spectra: Sequence[np.ndarray]) -> AngleImage:
    """Stack per-receiver spectra and zero-pad them into a 28 by 28 matrix.

    Four rows of 181 samples leave exactly 60 entries of padding; other
    receiver counts do not fit the square and are rejected.
    """
    if len(spectra) != ANGLE_IMAGE_BEACONS:
        raise ValueError(f"expected {ANGLE_IMAGE_BEACONS} spectra, got {len(spectra)}")
    rows = np.asarray(spectra, dtype=float)
    if rows.shape != (ANGLE_IMAGE_BEACONS, 181):
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
) -> tuple[np.ndarray, float]:
    """Least-squares intersection of bearing lines from fixed receivers.

    Each bearing defines the line through its receiver along the given
    global direction; the normal-form equations are solved jointly. Returns
    the point and the residual norm, which callers can use as a quality
    gate. Near-parallel bearings (condition number above 1e8) raise
    :class:`DegenerateGeometryError`.
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
    if singular[-1] <= 0 or singular[0] / singular[-1] > 1e8:
        raise DegenerateGeometryError("bearing lines are (near-)parallel")

    point, _, _, _ = np.linalg.lstsq(normals, offsets, rcond=None)
    residual = float(np.linalg.norm(normals @ point - offsets))
    return point, residual
