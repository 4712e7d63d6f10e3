import math

import numpy as np
import pytest

from proxichain.aoa import (
    ANGLE_IMAGE_PAYLOAD,
    ANGLE_IMAGE_SIDE,
    AZIMUTH_GRID,
    ArraySnapshot,
    BlePulseConfig,
    ChannelRealization,
    DegenerateGeometryError,
    NumericalRankError,
    awgn_channel,
    build_angle_image,
    estimate_position,
    music_spectra,
    music_spectrum,
    normalize_spectrum,
    snapshot_covariance,
    spectrum_peak,
    steering_vector,
    synthesize_snapshot,
    synthesize_snapshots,
    unpad_angle_image,
)

CONFIG = BlePulseConfig()


def _snapshot(azimuth, snr_db=None, seed=0, n_elements=4, n_samples=256, elevation=0.0):
    rng = np.random.default_rng(seed)
    return synthesize_snapshot(
        CONFIG, awgn_channel(snr_db), azimuth, elevation, n_elements, n_samples, rng
    )


def _baseband(n_samples, seed):
    """The GFSK source of one burst: element 0 of a noiseless array, whose
    steering phase and channel gain are both exactly 1."""
    rng = np.random.default_rng(seed)
    return synthesize_snapshots(CONFIG, awgn_channel(None), [90.0], [0.0], 2, n_samples, rng)[0, 0]


class TestWaveformConfig:
    def test_modulation_index_band(self):
        BlePulseConfig(modulation_index=0.45)
        BlePulseConfig(modulation_index=0.55)
        with pytest.raises(ValueError):
            BlePulseConfig(modulation_index=0.44)
        with pytest.raises(ValueError):
            BlePulseConfig(modulation_index=0.56)

    def test_carrier_band(self):
        BlePulseConfig(carrier_hz=2.4e9)
        BlePulseConfig(carrier_hz=2.48e9)
        with pytest.raises(ValueError):
            BlePulseConfig(carrier_hz=2.5e9)

    def test_wavelength(self):
        cfg = BlePulseConfig(carrier_hz=2.4e9)
        assert cfg.wavelength == pytest.approx(0.125)


class TestChannel:
    def test_path_count_and_delay_guards(self):
        with pytest.raises(ValueError):
            ChannelRealization(attenuations=(), delays=())
        with pytest.raises(ValueError):
            ChannelRealization(attenuations=(1.0 + 0j,), delays=(0.0, 1e-9))
        with pytest.raises(ValueError):
            ChannelRealization(attenuations=(1.0 + 0j,), delays=(-1e-9,))
        with pytest.raises(ValueError):
            ChannelRealization(attenuations=(1j, 1j), delays=(1e-9, 0.0))

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_is_rejected(self, snr_db):
        with pytest.raises(ValueError, match="finite"):
            awgn_channel(snr_db)

    def test_awgn_is_single_clean_path(self):
        ch = awgn_channel(snr_db=15.0)
        assert ch.attenuations == (1.0 + 0.0j,)
        assert ch.delays == (0.0,)
        assert ch.snr_db == 15.0


class TestBaseband:
    def test_length_and_constant_envelope(self):
        samples = _baseband(512, seed=1)
        assert samples.shape == (512,)
        expected = math.sqrt(2.0 * CONFIG.symbol_energy / CONFIG.symbol_period)
        assert np.allclose(np.abs(samples), expected)

    def test_seed_determinism(self):
        a = _baseband(256, seed=5)
        b = _baseband(256, seed=5)
        assert np.array_equal(a, b)


class TestSteering:
    def test_broadside_is_all_ones(self):
        v = steering_vector(90.0, 0.0, 6)
        assert np.allclose(v, np.ones(6))

    def test_endfire_alternates_sign(self):
        v = steering_vector(0.0, 0.0, 4)
        assert np.allclose(v, [1, -1, 1, -1])

    def test_unit_modulus(self):
        v = steering_vector(37.3, 12.0, 8)
        assert np.allclose(np.abs(v), 1.0)

    def test_elevation_compresses_phase(self):
        flat = np.angle(steering_vector(60.0, 0.0, 4)[1])
        tilted = np.angle(steering_vector(60.0, 45.0, 4)[1])
        assert abs(tilted) < abs(flat)


class TestSnapshot:
    def test_seed_determinism(self):
        a = _snapshot(70.0, snr_db=10.0, seed=8)
        b = _snapshot(70.0, snr_db=10.0, seed=8)
        assert np.array_equal(a.samples, b.samples)

    def test_input_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthesize_snapshot(CONFIG, awgn_channel(None), 190.0, 0.0, 4, 64, rng)
        with pytest.raises(ValueError):
            synthesize_snapshot(CONFIG, awgn_channel(None), 90.0, 0.0, 1, 64, rng)
        with pytest.raises(ValueError):
            synthesize_snapshot(CONFIG, awgn_channel(None), 90.0, 0.0, 4, 2, rng)

    def test_empirical_snr_matches_request(self):
        """Subtracting a same-seed noiseless run isolates the injected noise."""
        for target_db in (0.0, 10.0, 20.0):
            noisy = _snapshot(75.0, snr_db=target_db, seed=21, n_samples=20_000)
            clean = _snapshot(75.0, snr_db=None, seed=21, n_samples=20_000)
            noise = noisy.samples - clean.samples
            p_sig = np.mean(np.abs(clean.samples) ** 2)
            p_noise = np.mean(np.abs(noise) ** 2)
            measured = 10.0 * math.log10(p_sig / p_noise)
            assert measured == pytest.approx(target_db, abs=0.5)

    def test_multipath_collapses_to_scalar_gain(self):
        rng = np.random.default_rng(2)
        channel = ChannelRealization(
            attenuations=(0.8 + 0.1j, 0.3 - 0.2j), delays=(0.0, 30e-9)
        )
        snap = synthesize_snapshot(CONFIG, channel, 60.0, 0.0, 4, 128, rng)
        reference = synthesize_snapshot(
            CONFIG, awgn_channel(None), 60.0, 0.0, 4, 128, np.random.default_rng(2)
        )
        ratio = snap.samples / reference.samples
        assert np.allclose(ratio, ratio[0, 0])


class TestCovariance:
    def test_exactly_hermitian_and_psd(self):
        snap = _snapshot(50.0, snr_db=5.0, seed=3)
        r = snapshot_covariance(snap)
        assert np.array_equal(r, r.conj().T)
        assert np.linalg.eigvalsh(r)[0] >= -1e-9


class TestMusic:
    def test_noiseless_peak_is_exact_on_grid(self):
        for azimuth in (15, 47, 90, 122, 165):
            snap = _snapshot(float(azimuth), seed=azimuth)
            peak = spectrum_peak(music_spectrum(snap, n_sources=1))
            assert peak == azimuth

    def test_noiseless_off_grid_truth_rounds_to_neighbor(self):
        for azimuth in (33.4, 73.6, 128.5):
            snap = _snapshot(azimuth, seed=11)
            peak = spectrum_peak(music_spectrum(snap, n_sources=1))
            assert abs(peak - azimuth) <= 1.0

    def test_twenty_db_accuracy(self):
        rng = np.random.default_rng(14)
        hits = 0
        trials = 100
        for i in range(trials):
            azimuth = float(rng.uniform(20.0, 160.0))
            snap = _snapshot(azimuth, snr_db=20.0, seed=1000 + i)
            peak = spectrum_peak(music_spectrum(snap, n_sources=1))
            if abs(peak - azimuth) <= 2.0:
                hits += 1
        assert hits >= 95

    def test_two_sources_give_two_peaks(self):
        a = _snapshot(60.0, seed=31, n_samples=512)
        b = _snapshot(120.0, seed=32, n_samples=512)
        rng = np.random.default_rng(33)
        mixed = ArraySnapshot(
            elements=a.elements,
            spacing=a.spacing,
            samples=a.samples + b.samples + 1e-3 * rng.normal(size=a.samples.shape),
            true_azimuth=float("nan"),
            true_elevation=0.0,
            wavelength=a.wavelength,
        )
        spectrum = music_spectrum(mixed, n_sources=2)
        interior = spectrum[1:-1]
        local_max = np.where((interior > spectrum[:-2]) & (interior > spectrum[2:]))[0] + 1
        top_two = sorted(local_max[np.argsort(spectrum[local_max])][-2:])
        assert abs(top_two[0] - 60) <= 2
        assert abs(top_two[1] - 120) <= 2

    def test_source_count_guards(self):
        snap = _snapshot(80.0, seed=6)
        with pytest.raises(ValueError):
            music_spectrum(snap, n_sources=0)
        with pytest.raises(ValueError):
            music_spectrum(snap, n_sources=4)

    def test_global_phase_invariance(self):
        snap = _snapshot(95.0, snr_db=12.0, seed=17)
        rotated = ArraySnapshot(
            elements=snap.elements,
            spacing=snap.spacing,
            samples=snap.samples * np.exp(1j * 0.7),
            true_azimuth=snap.true_azimuth,
            true_elevation=snap.true_elevation,
            wavelength=snap.wavelength,
        )
        base = music_spectrum(snap, n_sources=1)
        spun = music_spectrum(rotated, n_sources=1)
        assert np.allclose(base, spun, rtol=1e-9, atol=0)

    def test_scan_uses_the_snapshot_spacing(self):
        """A 0.4-wavelength array peaks at the true bearing, not where a
        half-wavelength scan would put it (66 deg for a true 60 deg)."""
        source = _baseband(256, seed=4)
        snap = ArraySnapshot(
            elements=4,
            spacing=0.4 * CONFIG.wavelength,
            samples=np.outer(steering_vector(60.0, 0.0, 4, 0.4), source),
            true_azimuth=60.0,
            true_elevation=0.0,
            wavelength=CONFIG.wavelength,
        )
        assert spectrum_peak(music_spectrum(snap, n_sources=1)) == 60

    def test_spectrum_covers_whole_grid(self):
        spectrum = music_spectrum(_snapshot(44.0, seed=2), n_sources=1)
        assert spectrum.shape == AZIMUTH_GRID.shape


class TestBatch:
    """The batch functions compute what B one-snapshot calls compute."""

    AZIMUTHS = [12.5, 60.0, 91.3, 170.0]
    ELEVATIONS = [0.0, 1.5, 3.0, 4.9]

    @pytest.mark.parametrize(
        "channel",
        [
            awgn_channel(None),
            awgn_channel(20.0),
            ChannelRealization(
                attenuations=(0.8 + 0.1j, 0.3 - 0.2j), delays=(0.0, 30e-9), snr_db=10.0
            ),
        ],
        ids=["noiseless", "20dB", "two-path"],
    )
    def test_synthesis_matches_sequential_calls_bit_for_bit(self, channel):
        batch = synthesize_snapshots(
            CONFIG, channel, self.AZIMUTHS, self.ELEVATIONS, 4, 256, np.random.default_rng(9)
        )
        rng = np.random.default_rng(9)
        singles = [
            synthesize_snapshot(CONFIG, channel, az, el, 4, 256, rng).samples
            for az, el in zip(self.AZIMUTHS, self.ELEVATIONS)
        ]
        assert batch.shape == (4, 4, 256)
        assert batch.tobytes() == np.stack(singles).tobytes()

    def test_spectra_match_single_spectra(self):
        samples = synthesize_snapshots(
            CONFIG, awgn_channel(15.0), self.AZIMUTHS, self.ELEVATIONS, 4, 256,
            np.random.default_rng(10),
        )
        spectra = music_spectra(samples, n_sources=1)
        assert spectra.shape == (4, AZIMUTH_GRID.size)
        for row, x, az in zip(spectra, samples, self.AZIMUTHS):
            snap = ArraySnapshot(
                elements=4, spacing=CONFIG.wavelength / 2, samples=x,
                true_azimuth=az, true_elevation=0.0, wavelength=CONFIG.wavelength,
            )
            assert np.allclose(row, music_spectrum(snap, n_sources=1), rtol=1e-9, atol=0)

    def test_synthesis_guards_cover_every_member(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthesize_snapshots(CONFIG, awgn_channel(None), [30.0, 190.0], [0.0, 0.0], 4, 64, rng)
        with pytest.raises(ValueError):
            synthesize_snapshots(CONFIG, awgn_channel(None), [30.0, 60.0], [0.0], 4, 64, rng)
        with pytest.raises(ValueError):
            synthesize_snapshots(CONFIG, awgn_channel(None), [], [], 4, 64, rng)

    def test_spectra_guards(self):
        samples = synthesize_snapshots(
            CONFIG, awgn_channel(10.0), self.AZIMUTHS, self.ELEVATIONS, 4, 64,
            np.random.default_rng(3),
        )
        with pytest.raises(NumericalRankError):
            music_spectra(samples[:, :, :3], n_sources=1)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                music_spectra(samples, n_sources=bad)
        with pytest.raises(ValueError):
            music_spectra(samples[0], n_sources=1)

    def test_non_psd_member_fails_the_batch(self, monkeypatch):
        """One covariance with a clearly negative eigenvalue rejects the batch."""
        samples = synthesize_snapshots(
            CONFIG, awgn_channel(10.0), self.AZIMUTHS, self.ELEVATIONS, 4, 64,
            np.random.default_rng(3),
        )
        eigh = np.linalg.eigh

        def skewed(r):
            w, v = eigh(r)
            w = w.copy()
            w[2, 0] = -1e-3 * abs(w[2, -1]) - 1.0
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(NumericalRankError, match="covariance 2"):
            music_spectra(samples, n_sources=1)


class TestAngleImage:
    def _spectra(self, seed=0):
        rng = np.random.default_rng(seed)
        return [
            normalize_spectrum(music_spectrum(_snapshot(float(az), snr_db=15.0, seed=seed + k), 1))
            for k, az in enumerate(rng.uniform(10, 170, size=4))
        ]

    def test_padding_layout(self):
        image = build_angle_image(self._spectra())
        assert image.padded.shape == (ANGLE_IMAGE_SIDE, ANGLE_IMAGE_SIDE)
        flat = image.padded.reshape(-1)
        pad = flat[ANGLE_IMAGE_PAYLOAD:]
        assert pad.size == 60
        assert np.all(pad == 0.0)

    def test_unpad_is_inverse(self):
        spectra = self._spectra(seed=5)
        image = build_angle_image(spectra)
        assert np.array_equal(unpad_angle_image(image.padded), image.spectra)
        assert np.array_equal(image.spectra, np.asarray(spectra))

    def test_beacon_count_is_fixed(self):
        with pytest.raises(ValueError):
            build_angle_image(self._spectra()[:3])

    def test_row_length_checked(self):
        bad = [np.zeros(100)] * 4
        with pytest.raises(ValueError):
            build_angle_image(bad)

    def test_rows_must_be_normalized(self):
        bad = [np.full(181, 2.0)] * 4
        with pytest.raises(ValueError):
            build_angle_image(bad)

    def test_unpad_shape_guard(self):
        with pytest.raises(ValueError):
            unpad_angle_image(np.zeros((10, 10)))


class TestTriangulation:
    def test_two_beacon_golden(self):
        point, residual = estimate_position([(0.0, 0.0), (4.0, 0.0)], [45.0, 135.0])
        assert np.allclose(point, [2.0, 2.0])
        assert residual < 1e-12

    def test_overdetermined_consistent(self):
        target = np.array([3.0, 4.0])
        beacons = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        bearings = [
            math.degrees(math.atan2(target[1] - b[1], target[0] - b[0])) for b in beacons
        ]
        point, residual = estimate_position(beacons, bearings)
        assert np.allclose(point, target)
        assert residual < 1e-9

    def test_noisy_bearings_leave_residual(self):
        target = np.array([5.0, 5.0])
        beacons = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        bearings = [
            math.degrees(math.atan2(target[1] - b[1], target[0] - b[0])) + err
            for b, err in zip(beacons, (1.0, -1.5, 0.5, -0.5))
        ]
        point, residual = estimate_position(beacons, bearings)
        assert np.linalg.norm(point - target) < 0.5
        assert residual > 0

    def test_parallel_bearings_are_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            estimate_position([(0.0, 0.0), (0.0, 5.0)], [0.0, 0.0])

    def test_input_guards(self):
        with pytest.raises(ValueError):
            estimate_position([(0.0, 0.0)], [10.0])
        with pytest.raises(ValueError):
            estimate_position([(0.0, 0.0), (1.0, 0.0)], [10.0])
        with pytest.raises(ValueError):
            estimate_position([(0.0, 0.0), (1.0, 0.0)], [10.0, float("nan")])
