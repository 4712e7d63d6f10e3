"""BLE array-signal synthesis, MUSIC bearing estimation and triangulation.

The receive model is a uniform linear array of ``ARRAY_ELEMENTS`` antennas
at half-wavelength spacing (``SPACING_OVER_LAMBDA``), each recording
``SNAPSHOT_SAMPLES`` samples of a burst. A narrowband source at
azimuth theta (degrees, 0 to 180, measured from the array axis) and
elevation phi reaches element ``m`` with phase
``exp(-2j pi (d / lambda) m cos(theta) cos(phi))``. Snapshots stack M
complex samples per element; the MUSIC spectrum scans the 181 integer
azimuths of the half-plane with elevation fixed at zero. Synthesis and MUSIC
each take a batch in one call: ``synthesize_snapshots`` records, in each of
T trials, B arrays at each of C signal-to-noise ratios, each SNR of each
trial drawing from its own generator, and ``music_spectra`` scans any stack
of array outputs. ``synthesize_snapshots`` writes into a block the caller
passes as ``out``, if any, so a caller that synthesizes group after group
holds one block for all of them. A burst reaches an array on one
line-of-sight path, plus white noise at the requested SNR. The one-snapshot
functions are batches of one on plain arrays. Every call reads the element
spacing from ``SPACING_OVER_LAMBDA`` when it runs, so that constant is the
only one to change; the array's shape is fixed.

The transmitter sends one GFSK advertising burst, fixed by module constants:
``SYMBOL_ENERGY`` and ``SYMBOL_PERIOD`` set its amplitude,
``MODULATION_INDEX`` (BLE's 0.45 to 0.55 band) and ``INITIAL_PHASE`` its
phase, and ``BT_PRODUCT`` and ``SAMPLES_PER_SYMBOL`` the Gaussian pulse
``_PULSE``, which is built from them once, at import. The tables of the
pulse's filtered frequency (``_frequency_tables``), read off
``np.convolve``, are built once per process, at the first burst, so
modulating a burst is a table lookup, a running sum and one complex
exponential per sample.

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
# Every receiver is one array of this shape. A burst comes from one
# transmitter, so MUSIC splits off a one-dimensional signal subspace.
ARRAY_ELEMENTS = 4
SNAPSHOT_SAMPLES = 256
# The GFSK advertising burst.
SYMBOL_ENERGY = 1.0
SYMBOL_PERIOD = 1e-6
MODULATION_INDEX = 0.5
INITIAL_PHASE = 0.0
BT_PRODUCT = 0.5
SAMPLES_PER_SYMBOL = 8


class NumericalRankError(Exception):
    """Covariance cannot support the requested subspace split."""


class DegenerateGeometryError(Exception):
    """Bearing lines are parallel or nearly so; no stable intersection."""


def _check_snrs(snrs_db: Sequence[Optional[float]]) -> None:
    """``ValueError`` unless every SNR is a finite dB value or None."""
    for snr_db in snrs_db:
        if snr_db is not None and not math.isfinite(snr_db):
            raise ValueError(
                f"SNR must be a finite dB value, or None for noiseless; got {snr_db!r}"
            )


def _gaussian_pulse() -> np.ndarray:
    """Gaussian frequency pulse truncated to +/-2 symbol periods, unit sum."""
    sps = SAMPLES_PER_SYMBOL
    delta = math.sqrt(math.log(2.0)) / (2.0 * math.pi * BT_PRODUCT)
    t = np.arange(-2 * sps, 2 * sps + 1) / sps
    pulse = np.exp(-(t ** 2) / (2.0 * delta ** 2))
    pulse /= pulse.sum()
    pulse.setflags(write=False)
    return pulse


_PULSE = _gaussian_pulse()
_SYMBOLS = np.array([-1.0, 1.0])
_SYMBOLS.setflags(write=False)


def _draw_symbols(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Random +/-1 symbols for one burst. Indexing an integer draw gives the
    values of ``rng.choice([-1.0, 1.0], size)`` and leaves ``rng`` in the same
    state, without ``choice``'s per-call overhead."""
    n_symbols = n_samples // SAMPLES_PER_SYMBOL + 4
    return _SYMBOLS[rng.integers(0, 2, size=n_symbols)]


@functools.cache
def _frequency_tables() -> tuple[np.ndarray, np.ndarray]:
    """Every sample ``_modulate`` can need of a pulse-shaped burst, read off
    ``np.convolve`` itself, so a lookup gives its bytes. Built at the first
    burst, not at import: building them raises a process's peak RSS by
    0.25 MB, which a process that never synthesizes does not need.

    The pulse spans two symbols on each side, so a sample's window holds
    five symbols: the sample at phase ``r`` of symbol ``q >= 2`` is
    ``interior[pattern, r]``, ``pattern`` being symbols ``q - 2 .. q + 2``
    read as bits (+1 is 1), most significant first. The first two symbols'
    samples, where ``np.convolve`` truncates the window, depend only on the
    first four symbols: ``head[pattern]``. The two serve bursts of at least
    one symbol; a shorter one holds fewer samples than the pulse has taps,
    where ``np.convolve`` swaps its operands.
    """
    sps = SAMPLES_PER_SYMBOL

    def filtered(n_symbols: int) -> np.ndarray:
        bits = (np.arange(2 ** n_symbols)[:, None] >> np.arange(n_symbols - 1, -1, -1)) & 1
        held = np.repeat(_SYMBOLS[bits], sps, axis=1)
        return np.stack([np.convolve(row, _PULSE, mode="same") for row in held])

    five = filtered(5)
    tables = (five[:, 2 * sps : 3 * sps], five[::2, : 2 * sps])
    for table in tables:
        table.setflags(write=False)
    return tables


def _modulate(symbols: np.ndarray, n_samples: int) -> np.ndarray:
    """GFSK baseband for each row of +/-1 symbols: (R, n_symbols) -> (R, n_samples),
    for ``n_samples >= SAMPLES_PER_SYMBOL``.

    The symbols are pulse-shaped by a Gaussian filter whose normalized
    cumulative response advances the phase by pi times the modulation index
    per symbol. The filtered frequency is read from tables that hold
    ``np.convolve``'s bytes (see :func:`_frequency_tables`), and only the
    first ``n_samples`` of each row are made, so the phase is accumulated
    and exponentiated only that far.
    """
    sps = SAMPLES_PER_SYMBOL
    interior_table, head_table = _frequency_tables()
    bits = (symbols > 0).astype(np.intp)
    head = bits[:, 0] << 3 | bits[:, 1] << 2 | bits[:, 2] << 1 | bits[:, 3]
    # Symbols 2 .. n_held - 1 hold the samples past the head.
    n_held = max(-(-n_samples // sps), 2)
    windows = sum(bits[:, k : n_held - 2 + k] << (4 - k) for k in range(5))
    interior = interior_table[windows].reshape(len(bits), -1)
    freq = np.concatenate([head_table[head], interior], axis=1)[:, :n_samples]
    phase = INITIAL_PHASE + np.pi * MODULATION_INDEX * np.cumsum(freq, axis=1) / sps
    amplitude = math.sqrt(2.0 * SYMBOL_ENERGY / SYMBOL_PERIOD)
    return amplitude * np.exp(1j * phase)


def steering_vector(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Per-element phase response of the linear array to a plane wave."""
    theta = math.radians(azimuth_deg)
    phi = math.radians(elevation_deg)
    phase_step = -2.0j * math.pi * SPACING_OVER_LAMBDA * math.cos(theta) * math.cos(phi)
    return np.exp(phase_step * np.arange(ARRAY_ELEMENTS))


def synthesize_snapshots(
    snrs_db: Sequence[Optional[float]],
    azimuths_deg: Sequence[Sequence[float]],
    elevations_deg: Sequence[Sequence[float]],
    rngs: Sequence[Sequence[np.random.Generator]],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Simulate what B arrays record for one advertising burst each, at
    each of C signal-to-noise ratios, in each of T trials.

    Trial ``t`` places its B arrays at ``azimuths_deg[t]`` and
    ``elevations_deg[t]`` and draws from its C generators ``rngs[t]``.
    Returns complex samples of shape
    ``(T, C, B, ARRAY_ELEMENTS, SNAPSHOT_SAMPLES)``:
    one array per (azimuth, elevation) pair, all of them once per SNR.
    ``snrs_db[c]`` is in dB, or None for no noise; each array's noise level
    is set from it against the array's actual signal power, so the
    empirical SNR of every output matches the request.

    SNR ``c`` of trial ``t`` draws from ``rngs[t][c]`` array by array (the
    symbols, then the real and imaginary noise), so ``out[t, c]`` consumes
    that stream exactly as B one-array calls would and returns the same
    samples. The bursts of every trial and SNR are modulated together, and
    each array's steering vector is computed once for all SNRs.

    ``out``, if given, is the block the call writes: a C-contiguous
    complex128 array of exactly the result's shape, checked before any
    generator is drawn. It receives the unit noise and then the samples,
    and the call returns ``out`` itself, so a caller that hands the same
    block to the next call finds this result overwritten. Without it the
    call allocates a new block.
    """
    _check_snrs(snrs_db)
    if len(snrs_db) < 1 or any(len(trial) != len(snrs_db) for trial in rngs):
        raise ValueError("need one generator per SNR, and at least one SNR")
    if not len(azimuths_deg) == len(elevations_deg) == len(rngs) >= 1:
        raise ValueError("need azimuths, elevations and generators for each of one or more trials")
    n_arrays = len(azimuths_deg[0])
    if n_arrays < 1 or any(
        len(az) != n_arrays or len(el) != n_arrays for az, el in zip(azimuths_deg, elevations_deg)
    ):
        raise ValueError("need one elevation per azimuth, at least one of each, "
                         "and as many in every trial")
    if not all(0.0 <= az <= 180.0 for trial in azimuths_deg for az in trial):
        raise ValueError("azimuth must sit in [0, 180] degrees")
    if not all(-90.0 <= el <= 90.0 for trial in elevations_deg for el in trial):
        raise ValueError("elevation must be finite and sit in [-90, 90] degrees")

    shape = (len(rngs), len(snrs_db), n_arrays)
    n_elements, n_samples = ARRAY_ELEMENTS, SNAPSHOT_SAMPLES
    if out is None:
        out = np.empty((*shape, n_elements, n_samples), dtype=complex)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == (*shape, n_elements, n_samples)
        and out.dtype == np.complex128
        and out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous complex128 array of shape "
            f"{(*shape, n_elements, n_samples)}"
        )

    # Each array's unit noise is drawn into the block its samples will take:
    # real and imaginary noise planes fill as many bytes as the complex
    # samples, so a call holds one array of the output's size, not two. A
    # caller that synthesizes group after group passes them all one ``out``:
    # a block freed after every group (786 KB for four loc_eval trials) sits
    # on top of the C allocator's heap in many heap layouts, so it is handed
    # back to the system and page-faulted in again for the next group.
    noise = out.view(np.float64).reshape(*shape, 2, n_elements, n_samples)
    blocks = iter(noise.reshape(-1, 2, n_elements, n_samples))
    symbols = []
    for trial in rngs:
        for rng in trial:
            for _ in range(n_arrays):
                symbols.append(_draw_symbols(n_samples, rng))
                # rng.normal(size=...)'s draws: it returns 0.0 + z, which is
                # z but for the sign of a zero draw, and a zero of either
                # sign leaves a nonzero clean sample as it is.
                rng.standard_normal(out=next(blocks))
    bursts = _modulate(np.stack(symbols), n_samples).reshape(*shape, n_samples)
    # Noise power per SNR relative to each array's signal power; zero
    # without noise.
    relative = np.array([0.0 if snr is None else 10.0 ** (-snr / 10.0) for snr in snrs_db])
    steering = np.array(
        [
            [steering_vector(az, el) for az, el in zip(trial_az, trial_el)]
            for trial_az, trial_el in zip(azimuths_deg, elevations_deg)
        ]
    )
    # One trial at a time: its clean samples and scaled noise are the only
    # temporaries, and its result replaces its noise in ``out``.
    for t in range(len(rngs)):
        clean = steering[t, None, :, :, None] * bursts[t, :, :, None, :]
        signal_power = np.mean(np.abs(clean) ** 2, axis=(2, 3))
        scale = np.sqrt(signal_power * relative[:, None]) / math.sqrt(2.0)
        # Same bytes as clean + (z0 + 1j z1) * scale, without complex temporaries.
        scaled = noise[t] * scale[:, :, None, None, None]
        clean.real += scaled[:, :, 0]
        clean.imag += scaled[:, :, 1]
        out[t] = clean
    return out


def synthesize_snapshot(
    snr_db: Optional[float],
    azimuth_deg: float,
    elevation_deg: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One array's recording of one advertising burst, shape
    ``(ARRAY_ELEMENTS, SNAPSHOT_SAMPLES)`` (see ``synthesize_snapshots``)."""
    return synthesize_snapshots([snr_db], [[azimuth_deg]], [[elevation_deg]], [[rng]])[0, 0, 0]


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
def _steering_matrix(spacing: float) -> np.ndarray:
    """All 181 grid steering vectors at elevation zero for elements ``spacing``
    wavelengths apart: column theta scans the grid."""
    phase_step = -2j * np.pi * spacing * np.cos(np.radians(AZIMUTH_GRID))
    a = np.exp(np.outer(np.arange(ARRAY_ELEMENTS), phase_step))
    a.setflags(write=False)
    return a


def music_spectra(samples: np.ndarray) -> np.ndarray:
    """Pseudo-spectra over integer azimuths 0..180 at elevation zero.

    ``samples`` stacks B array outputs, shape ``(B, ARRAY_ELEMENTS, M)``;
    the result has shape ``(B, 181)``. Peaks appear where the steering
    vector falls out of the noise subspace: every covariance eigenvector
    but the one source's, the largest.
    """
    if samples.ndim != 3 or samples.shape[0] < 1 or samples.shape[1] != ARRAY_ELEMENTS:
        raise ValueError(f"samples must stack one or more arrays: (B, {ARRAY_ELEMENTS}, M)")
    n_samples = samples.shape[2]
    if n_samples < ARRAY_ELEMENTS:
        raise NumericalRankError(f"{n_samples} samples cannot resolve {ARRAY_ELEMENTS} elements")
    _, eigvecs = _covariances(samples)
    noise_space = eigvecs[:, :, : ARRAY_ELEMENTS - 1]
    projector = noise_space @ noise_space.conj().swapaxes(-1, -2)

    a = _steering_matrix(SPACING_OVER_LAMBDA)
    denom = np.real(np.einsum("it,bit->bt", a.conj(), projector @ a))
    return 1.0 / np.maximum(denom, np.finfo(float).tiny)


def music_spectrum(samples: np.ndarray) -> np.ndarray:
    """One array output's MUSIC pseudo-spectrum (see ``music_spectra``)."""
    return music_spectra(samples[None])[0]


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
