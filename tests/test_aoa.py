import math

import numpy as np
import pytest

from proxichain import aoa
from proxichain.aoa import (
    ANGLE_IMAGE_PAYLOAD,
    ANGLE_IMAGE_SIDE,
    AZIMUTH_GRID,
    CARRIER_HZ,
    ChannelRealization,
    DegenerateGeometryError,
    MODULATION_INDEX,
    NumericalRankError,
    SAMPLES_PER_SYMBOL,
    SYMBOL_ENERGY,
    SYMBOL_PERIOD,
    _draw_symbols,
    _modulate,
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


def _snapshot(azimuth, snr_db=None, seed=0, n_elements=4, n_samples=256, elevation=0.0):
    rng = np.random.default_rng(seed)
    return synthesize_snapshot(
        awgn_channel(snr_db), azimuth, elevation, n_elements, n_samples, rng
    )


def _baseband(n_samples, seed):
    """The GFSK source of one burst: element 0 of a noiseless array, whose
    steering phase and channel gain are both exactly 1."""
    rng = np.random.default_rng(seed)
    return synthesize_snapshots(
        [awgn_channel(None)], [90.0], [0.0], 2, n_samples, [rng]
    )[0, 0, 0]


class TestWaveform:
    def test_constants_sit_in_the_ble_bands(self):
        assert 0.45 <= MODULATION_INDEX <= 0.55
        assert 2.4e9 <= CARRIER_HZ <= 2.48e9


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
        expected = math.sqrt(2.0 * SYMBOL_ENERGY / SYMBOL_PERIOD)
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
        assert np.array_equal(a, b)

    def test_input_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthesize_snapshot(awgn_channel(None), 190.0, 0.0, 4, 64, rng)
        with pytest.raises(ValueError):
            synthesize_snapshot(awgn_channel(None), 90.0, 0.0, 1, 64, rng)
        with pytest.raises(ValueError):
            synthesize_snapshot(awgn_channel(None), 90.0, 0.0, 4, 2, rng)

    def test_empirical_snr_matches_request(self):
        """Subtracting a same-seed noiseless run isolates the injected noise."""
        for target_db in (0.0, 10.0, 20.0):
            noisy = _snapshot(75.0, snr_db=target_db, seed=21, n_samples=20_000)
            clean = _snapshot(75.0, snr_db=None, seed=21, n_samples=20_000)
            noise = noisy - clean
            p_sig = np.mean(np.abs(clean) ** 2)
            p_noise = np.mean(np.abs(noise) ** 2)
            measured = 10.0 * math.log10(p_sig / p_noise)
            assert measured == pytest.approx(target_db, abs=0.5)

    def test_multipath_collapses_to_scalar_gain(self):
        rng = np.random.default_rng(2)
        channel = ChannelRealization(
            attenuations=(0.8 + 0.1j, 0.3 - 0.2j), delays=(0.0, 30e-9)
        )
        snap = synthesize_snapshot(channel, 60.0, 0.0, 4, 128, rng)
        reference = synthesize_snapshot(
            awgn_channel(None), 60.0, 0.0, 4, 128, np.random.default_rng(2)
        )
        ratio = snap / reference
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
        mixed = a + b + 1e-3 * rng.normal(size=a.shape)
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
        rotated = snap * np.exp(1j * 0.7)
        base = music_spectrum(snap, n_sources=1)
        spun = music_spectrum(rotated, n_sources=1)
        assert np.allclose(base, spun, rtol=1e-9, atol=0)

    def test_one_spacing_drives_synthesis_and_scan(self, monkeypatch):
        """Steering and scan both read ``SPACING_OVER_LAMBDA`` when called: a
        0.4-wavelength array scanned at 0.4 peaks at the true bearing, and the
        same samples scanned at half a wavelength peak at 66 deg for a true
        60 deg."""
        source = _baseband(256, seed=4)
        monkeypatch.setattr(aoa, "SPACING_OVER_LAMBDA", 0.4)
        samples = np.outer(steering_vector(60.0, 0.0, 4), source)
        assert spectrum_peak(music_spectrum(samples, n_sources=1)) == 60
        monkeypatch.setattr(aoa, "SPACING_OVER_LAMBDA", 0.5)
        assert spectrum_peak(music_spectrum(samples, n_sources=1)) == 66

    def test_spectrum_covers_whole_grid(self):
        spectrum = music_spectrum(_snapshot(44.0, seed=2), n_sources=1)
        assert spectrum.shape == AZIMUTH_GRID.shape


class TestBatch:
    """The batch functions compute what one-snapshot or smaller-batch calls
    compute, bit for bit."""

    AZIMUTHS = [12.5, 60.0, 91.3, 170.0]
    ELEVATIONS = [0.0, 1.5, 3.0, 4.9]
    CHANNELS = [
        awgn_channel(None),
        awgn_channel(20.0),
        ChannelRealization(
            attenuations=(0.8 + 0.1j, 0.3 - 0.2j), delays=(0.0, 30e-9), snr_db=10.0
        ),
    ]

    def _batch(self, channels, seeds, n_samples=256):
        return synthesize_snapshots(
            channels, self.AZIMUTHS, self.ELEVATIONS, 4, n_samples,
            [np.random.default_rng(s) for s in seeds],
        )

    @pytest.mark.parametrize("channel", CHANNELS, ids=["noiseless", "20dB", "two-path"])
    def test_synthesis_matches_sequential_calls_bit_for_bit(self, channel):
        batch = self._batch([channel], [9])
        rng = np.random.default_rng(9)
        singles = [
            synthesize_snapshot(channel, az, el, 4, 256, rng)
            for az, el in zip(self.AZIMUTHS, self.ELEVATIONS)
        ]
        assert batch.shape == (1, 4, 4, 256)
        assert batch[0].tobytes() == np.stack(singles).tobytes()

    def test_channels_match_one_channel_calls_bit_for_bit(self):
        rngs = [np.random.default_rng(s) for s in (4, 5, 6)]
        batch = synthesize_snapshots(
            self.CHANNELS, self.AZIMUTHS, self.ELEVATIONS, 4, 256, rngs
        )
        assert batch.shape == (3, 4, 4, 256)
        for c, (channel, seed) in enumerate(zip(self.CHANNELS, (4, 5, 6))):
            rng = np.random.default_rng(seed)
            single = synthesize_snapshots(
                [channel], self.AZIMUTHS, self.ELEVATIONS, 4, 256, [rng]
            )
            assert batch[c].tobytes() == single[0].tobytes()
            assert rngs[c].bit_generator.state == rng.bit_generator.state

    def test_noise_mixing_matches_the_complex_formula(self):
        """Scaling the real noise and adding it to the real and imaginary
        parts gives the bytes of clean + (z0 + 1j z1) * sigma / sqrt(2)."""
        channel = self.CHANNELS[2]
        batch = self._batch([channel], [8])[0]
        rng = np.random.default_rng(8)
        gain = sum(
            rho * np.exp(-2j * np.pi * CARRIER_HZ * tau)
            for rho, tau in zip(channel.attenuations, channel.delays)
        )
        for samples, az, el in zip(batch, self.AZIMUTHS, self.ELEVATIONS):
            source = _modulate(_draw_symbols(256, rng)[None], 256)
            z = rng.normal(size=(2, 4, 256))
            clean = steering_vector(az, el, 4)[:, None] * (gain * source)
            sigma = np.sqrt(np.mean(np.abs(clean) ** 2) * 10.0 ** (-channel.snr_db / 10.0))
            expected = clean + (z[0] + 1j * z[1]) * (sigma / math.sqrt(2.0))
            assert samples.tobytes() == expected.tobytes()

    def test_twelve_array_spectra_match_three_four_array_calls(self):
        samples = self._batch(self.CHANNELS, [1, 2, 3])
        spectra = music_spectra(samples.reshape(12, 4, 256), n_sources=1)
        parts = [music_spectra(samples[c], n_sources=1) for c in range(3)]
        assert np.array_equal(spectra, np.concatenate(parts))

    @pytest.mark.parametrize("n_samples", [1, 8, 256, 264, 800])
    def test_symbols_match_choice(self, n_samples):
        """Odd symbol counts leave half a 64-bit draw buffered in the generator."""
        size = n_samples // SAMPLES_PER_SYMBOL + 4
        for seed in range(50):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            symbols = _draw_symbols(n_samples, ours)
            assert np.array_equal(symbols, theirs.choice(np.array([-1.0, 1.0]), size=size))
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_spectra_match_single_spectra(self):
        samples = self._batch([awgn_channel(15.0)], [10])[0]
        spectra = music_spectra(samples, n_sources=1)
        assert spectra.shape == (4, AZIMUTH_GRID.size)
        for row, x in zip(spectra, samples):
            assert np.allclose(row, music_spectrum(x, n_sources=1), rtol=1e-9, atol=0)

    def test_synthesis_guards_cover_every_member(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        noiseless = [awgn_channel(None)]

        def call(azimuths, elevations, channels=noiseless, rngs=(rng,)):
            synthesize_snapshots(channels, azimuths, elevations, 4, 64, list(rngs))

        with pytest.raises(ValueError):
            call([30.0, 190.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            call([30.0, 60.0], [0.0])
        with pytest.raises(ValueError):
            call([], [])
        for bad in (float("nan"), float("inf"), float("-inf"), 90.5, -91.0):
            with pytest.raises(ValueError, match="elevation"):
                call([30.0, 60.0], [0.0, bad])
        with pytest.raises(ValueError, match="generator"):
            call([30.0], [0.0], channels=noiseless * 2)
        with pytest.raises(ValueError, match="generator"):
            call([30.0], [0.0], channels=[], rngs=())
        # Every guard fires before the first draw.
        assert rng.bit_generator.state == state
        call([30.0, 60.0], [-90.0, 90.0])

    def test_spectra_guards(self):
        samples = self._batch([awgn_channel(10.0)], [3], n_samples=64)[0]
        with pytest.raises(NumericalRankError):
            music_spectra(samples[:, :, :3], n_sources=1)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                music_spectra(samples, n_sources=bad)
        with pytest.raises(ValueError):
            music_spectra(samples[0], n_sources=1)

    def test_non_psd_member_fails_the_batch(self, monkeypatch):
        """One covariance with a clearly negative eigenvalue rejects the batch."""
        samples = self._batch([awgn_channel(10.0)], [3], n_samples=64)[0]
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
