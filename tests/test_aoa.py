import math

import numpy as np
import pytest

from proxichain import aoa
from proxichain.aoa import (
    ANGLE_IMAGE_PAYLOAD,
    ANGLE_IMAGE_SIDE,
    ARRAY_ELEMENTS,
    AZIMUTH_GRID,
    DegenerateGeometryError,
    MODULATION_INDEX,
    NumericalRankError,
    SAMPLES_PER_SYMBOL,
    SNAPSHOT_SAMPLES,
    SYMBOL_ENERGY,
    SYMBOL_PERIOD,
    _draw_symbols,
    _modulate,
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


def _snapshot(azimuth, snr_db=None, seed=0, elevation=0.0):
    rng = np.random.default_rng(seed)
    return synthesize_snapshot(snr_db, azimuth, elevation, rng)


def _baseband(seed):
    """The GFSK source of one burst: element 0 of a noiseless array, whose
    steering phase is exactly 1."""
    rng = np.random.default_rng(seed)
    return synthesize_snapshots([None], [[90.0]], [[0.0]], [[rng]])[0, 0, 0, 0]


def _convolved_baseband(symbols, n_samples):
    """``_modulate`` as written with one ``np.convolve`` per row: the
    reference its frequency tables must reproduce."""
    sps = SAMPLES_PER_SYMBOL
    held = np.repeat(symbols, sps, axis=1)
    freq = np.stack([np.convolve(row, aoa._PULSE, mode="same")[:n_samples] for row in held])
    phase = aoa.INITIAL_PHASE + np.pi * MODULATION_INDEX * np.cumsum(freq, axis=1) / sps
    return math.sqrt(2.0 * SYMBOL_ENERGY / SYMBOL_PERIOD) * np.exp(1j * phase)


class TestWaveform:
    def test_constants_sit_in_the_ble_bands(self):
        assert 0.45 <= MODULATION_INDEX <= 0.55

    def test_snapshot_holds_a_symbol_and_resolves_the_array(self):
        """Synthesis checks neither per call: a snapshot spans at least one
        symbol, which the frequency tables need, and as many samples as the
        array has elements, which MUSIC needs for a full-rank covariance."""
        assert SNAPSHOT_SAMPLES >= max(ARRAY_ELEMENTS, SAMPLES_PER_SYMBOL)


class TestChannel:
    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_is_rejected(self, snr_db):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            synthesize_snapshot(snr_db, 90.0, 0.0, rng)
        with pytest.raises(ValueError, match="finite"):
            synthesize_snapshots([20.0, snr_db], [[90.0]], [[0.0]], [[rng, rng]])
        assert rng.bit_generator.state == state

    def test_awgn_is_single_clean_path(self):
        """Without noise an array records the burst on one path: each
        element is the burst times its steering phase, bit for bit; noise
        is added on top of that."""
        azimuth, elevation = 60.0, 2.0
        snap = _snapshot(azimuth, snr_db=None, seed=6, elevation=elevation)
        rng = np.random.default_rng(6)
        burst = _modulate(_draw_symbols(256, rng)[None], 256)
        clean = steering_vector(azimuth, elevation)[:, None] * burst
        assert snap.tobytes() == clean.tobytes()
        noisy = _snapshot(azimuth, snr_db=15.0, seed=6, elevation=elevation)
        assert not np.array_equal(noisy, snap)


class TestBaseband:
    def test_length_and_constant_envelope(self):
        samples = _baseband(seed=1)
        assert samples.shape == (SNAPSHOT_SAMPLES,)
        expected = math.sqrt(2.0 * SYMBOL_ENERGY / SYMBOL_PERIOD)
        assert np.allclose(np.abs(samples), expected)

    def test_seed_determinism(self):
        a = _baseband(seed=5)
        b = _baseband(seed=5)
        assert np.array_equal(a, b)

    def test_frequency_tables_give_convolve_bytes(self):
        """Random batches of 1-19 bursts of 8-599 samples, most of them not
        a whole number of symbols, and every length from one symbol up to
        three."""
        rng = np.random.default_rng(30)
        sps = SAMPLES_PER_SYMBOL
        shapes = [(int(rng.integers(1, 20)), int(rng.integers(sps, 600))) for _ in range(400)]
        shapes += [(16, n) for n in range(sps, 3 * sps)]
        for rows, n_samples in shapes:
            size = (rows, n_samples // SAMPLES_PER_SYMBOL + 4)
            symbols = np.where(rng.integers(0, 2, size=size) > 0, 1.0, -1.0)
            expected = _convolved_baseband(symbols, n_samples)
            assert _modulate(symbols, n_samples).tobytes() == expected.tobytes(), (rows, n_samples)


class TestSteering:
    def test_broadside_is_all_ones(self):
        v = steering_vector(90.0, 0.0)
        assert np.allclose(v, np.ones(ARRAY_ELEMENTS))

    def test_endfire_alternates_sign(self):
        v = steering_vector(0.0, 0.0)
        assert np.allclose(v, [1, -1, 1, -1])

    def test_unit_modulus(self):
        v = steering_vector(37.3, 12.0)
        assert np.allclose(np.abs(v), 1.0)

    def test_elevation_compresses_phase(self):
        flat = np.angle(steering_vector(60.0, 0.0)[1])
        tilted = np.angle(steering_vector(60.0, 45.0)[1])
        assert abs(tilted) < abs(flat)


class TestSnapshot:
    def test_seed_determinism(self):
        a = _snapshot(70.0, snr_db=10.0, seed=8)
        b = _snapshot(70.0, snr_db=10.0, seed=8)
        assert np.array_equal(a, b)

    def test_input_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthesize_snapshot(None, 190.0, 0.0, rng)

    def test_empirical_snr_matches_request(self):
        """Subtracting a same-seed noiseless run isolates the injected noise,
        here of 80 arrays (81,920 samples) in one call."""

        def arrays(snr_db):
            rng = np.random.default_rng(21)
            return synthesize_snapshots([snr_db], [[75.0] * 80], [[0.0] * 80], [[rng]])

        clean = arrays(None)
        for target_db in (0.0, 10.0, 20.0):
            noise = arrays(target_db) - clean
            p_sig = np.mean(np.abs(clean) ** 2)
            p_noise = np.mean(np.abs(noise) ** 2)
            measured = 10.0 * math.log10(p_sig / p_noise)
            assert measured == pytest.approx(target_db, abs=0.5)


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
            peak = spectrum_peak(music_spectrum(snap))
            assert peak == azimuth

    def test_noiseless_off_grid_truth_rounds_to_neighbor(self):
        for azimuth in (33.4, 73.6, 128.5):
            snap = _snapshot(azimuth, seed=11)
            peak = spectrum_peak(music_spectrum(snap))
            assert abs(peak - azimuth) <= 1.0

    def test_twenty_db_accuracy(self):
        rng = np.random.default_rng(14)
        hits = 0
        trials = 100
        for i in range(trials):
            azimuth = float(rng.uniform(20.0, 160.0))
            snap = _snapshot(azimuth, snr_db=20.0, seed=1000 + i)
            peak = spectrum_peak(music_spectrum(snap))
            if abs(peak - azimuth) <= 2.0:
                hits += 1
        assert hits >= 95

    def test_global_phase_invariance(self):
        snap = _snapshot(95.0, snr_db=12.0, seed=17)
        rotated = snap * np.exp(1j * 0.7)
        base = music_spectrum(snap)
        spun = music_spectrum(rotated)
        assert np.allclose(base, spun, rtol=1e-9, atol=0)

    def test_one_spacing_drives_synthesis_and_scan(self, monkeypatch):
        """Steering and scan both read ``SPACING_OVER_LAMBDA`` when called: a
        0.4-wavelength array scanned at 0.4 peaks at the true bearing, and the
        same samples scanned at half a wavelength peak at 66 deg for a true
        60 deg."""
        source = _baseband(seed=4)
        monkeypatch.setattr(aoa, "SPACING_OVER_LAMBDA", 0.4)
        samples = np.outer(steering_vector(60.0, 0.0), source)
        assert spectrum_peak(music_spectrum(samples)) == 60
        monkeypatch.setattr(aoa, "SPACING_OVER_LAMBDA", 0.5)
        assert spectrum_peak(music_spectrum(samples)) == 66

    def test_spectrum_covers_whole_grid(self):
        spectrum = music_spectrum(_snapshot(44.0, seed=2))
        assert spectrum.shape == AZIMUTH_GRID.shape


class TestBatch:
    """The batch functions compute what one-snapshot or smaller-batch calls
    compute, bit for bit."""

    AZIMUTHS = [12.5, 60.0, 91.3, 170.0]
    ELEVATIONS = [0.0, 1.5, 3.0, 4.9]
    SNRS = [None, 20.0, 10.0]

    def _batch(self, snrs, seeds):
        """One trial's samples, shape (C, B, ARRAY_ELEMENTS, SNAPSHOT_SAMPLES)."""
        return synthesize_snapshots(
            snrs, [self.AZIMUTHS], [self.ELEVATIONS], [[np.random.default_rng(s) for s in seeds]]
        )[0]

    @pytest.mark.parametrize("snr", SNRS[:2], ids=["noiseless", "20dB"])
    def test_synthesis_matches_sequential_calls_bit_for_bit(self, snr):
        batch = self._batch([snr], [9])
        rng = np.random.default_rng(9)
        singles = [
            synthesize_snapshot(snr, az, el, rng)
            for az, el in zip(self.AZIMUTHS, self.ELEVATIONS)
        ]
        assert batch.shape == (1, 4, 4, 256)
        assert batch[0].tobytes() == np.stack(singles).tobytes()

    def test_channels_match_one_channel_calls_bit_for_bit(self):
        rngs = [np.random.default_rng(s) for s in (4, 5, 6)]
        batch = synthesize_snapshots(self.SNRS, [self.AZIMUTHS], [self.ELEVATIONS], [rngs])
        assert batch.shape == (1, 3, 4, 4, 256)
        for c, (snr, seed) in enumerate(zip(self.SNRS, (4, 5, 6))):
            rng = np.random.default_rng(seed)
            single = synthesize_snapshots([snr], [self.AZIMUTHS], [self.ELEVATIONS], [[rng]])
            assert batch[0, c].tobytes() == single[0, 0].tobytes()
            assert rngs[c].bit_generator.state == rng.bit_generator.state

    def test_trials_match_one_trial_calls_bit_for_bit(self):
        """T trials in one call, each with its own geometry and generators,
        give the bytes of T one-trial calls and leave every generator in
        the state those calls leave it."""
        rng = np.random.default_rng(17)
        azimuths = rng.uniform(0.0, 180.0, size=(5, 4)).tolist()
        elevations = rng.uniform(-10.0, 10.0, size=(5, 4)).tolist()
        seeds = rng.integers(0, 2**32, size=(5, 3)).tolist()
        rngs = [[np.random.default_rng(s) for s in trial] for trial in seeds]
        batch = synthesize_snapshots(self.SNRS, azimuths, elevations, rngs)
        assert batch.shape == (5, 3, 4, 4, 256)
        for t, trial_seeds in enumerate(seeds):
            own = [np.random.default_rng(s) for s in trial_seeds]
            single = synthesize_snapshots(self.SNRS, [azimuths[t]], [elevations[t]], [own])
            assert batch[t].tobytes() == single[0].tobytes()
            for ours, theirs in zip(rngs[t], own):
                assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("trials", [1, 2, 3, 4])
    def test_out_block_gets_the_bytes_of_a_new_one(self, trials):
        """Synthesis into a caller's block, whole or a leading slice of a
        larger one (as a share's short last group gets), returns that block
        with the bytes of a call that allocates its own, leaves every
        generator where that call leaves it and writes nothing past it."""
        rng = np.random.default_rng(40 + trials)
        azimuths = rng.uniform(0.0, 180.0, size=(trials, 4)).tolist()
        elevations = rng.uniform(-10.0, 10.0, size=(trials, 4)).tolist()
        seeds = rng.integers(0, 2**32, size=(trials, 3)).tolist()

        def generators():
            return [[np.random.default_rng(s) for s in trial] for trial in seeds]

        drawn = generators()
        fresh = synthesize_snapshots(self.SNRS, azimuths, elevations, drawn)
        larger = np.full((5, *fresh.shape[1:]), np.nan, dtype=complex)
        for block in (np.full_like(fresh, np.nan), larger[:trials]):
            own = generators()
            result = synthesize_snapshots(self.SNRS, azimuths, elevations, own, out=block)
            assert result is block
            assert block.tobytes() == fresh.tobytes()
            for ours, theirs in zip(sum(own, []), sum(drawn, [])):
                assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.isnan(larger[trials:]).all()

    def test_out_block_is_checked_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        shape = (1, 2, 2, 4, 256)
        for bad in (
            np.empty((1, 2, 2, 4, 257), dtype=complex),
            np.empty((1, 2, 2, 3, 256), dtype=complex),
            np.empty((2, 2, 2, 4, 256), dtype=complex),
            np.empty(shape, dtype=np.complex64),
            np.empty(shape, dtype=np.float64),
            np.empty((1, 2, 2, 4, 512), dtype=complex)[..., ::2],
            np.empty(shape[::-1], dtype=complex).T,
        ):
            with pytest.raises(ValueError, match="out"):
                synthesize_snapshots(
                    [None, 10.0], [[30.0, 60.0]], [[0.0, 0.0]], [[rng, rng]], out=bad
                )
        assert rng.bit_generator.state == state
        block = np.empty(shape, dtype=complex)
        assert synthesize_snapshots(
            [None, 10.0], [[30.0, 60.0]], [[0.0, 0.0]], [[rng, rng]], out=block
        ) is block

    def test_noise_mixing_matches_the_complex_formula(self):
        """Scaling the real noise and adding it to the real and imaginary
        parts gives the bytes of clean + (z0 + 1j z1) * sigma / sqrt(2)."""
        snr = self.SNRS[2]
        batch = self._batch([snr], [8])[0]
        rng = np.random.default_rng(8)
        for samples, az, el in zip(batch, self.AZIMUTHS, self.ELEVATIONS):
            source = _modulate(_draw_symbols(256, rng)[None], 256)
            z = rng.normal(size=(2, 4, 256))
            clean = steering_vector(az, el)[:, None] * source
            sigma = np.sqrt(np.mean(np.abs(clean) ** 2) * 10.0 ** (-snr / 10.0))
            expected = clean + (z[0] + 1j * z[1]) * (sigma / math.sqrt(2.0))
            assert samples.tobytes() == expected.tobytes()

    def test_twelve_array_spectra_match_three_four_array_calls(self):
        samples = self._batch(self.SNRS, [1, 2, 3])
        spectra = music_spectra(samples.reshape(12, 4, 256))
        parts = [music_spectra(samples[c]) for c in range(3)]
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
        samples = self._batch([15.0], [10])[0]
        spectra = music_spectra(samples)
        assert spectra.shape == (4, AZIMUTH_GRID.size)
        for row, x in zip(spectra, samples):
            assert np.allclose(row, music_spectrum(x), rtol=1e-9, atol=0)

    def test_synthesis_guards_cover_every_member(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        noiseless = [None]

        def call(azimuths, elevations, snrs=noiseless, rngs=(rng,)):
            synthesize_snapshots(snrs, [azimuths], [elevations], [list(rngs)])

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
            call([30.0], [0.0], snrs=noiseless * 2)
        with pytest.raises(ValueError, match="generator"):
            call([30.0], [0.0], snrs=[], rngs=())
        # Across trials: one set of angles and generators per trial, as
        # many arrays and generators in each, and every angle in range.
        with pytest.raises(ValueError, match="trial"):
            synthesize_snapshots(noiseless, [[30.0], [60.0]], [[0.0]], [[rng], [rng]])
        with pytest.raises(ValueError, match="trial"):
            synthesize_snapshots(noiseless, [[30.0], [60.0]], [[0.0], [0.0]], [[rng]])
        with pytest.raises(ValueError, match="trial"):
            synthesize_snapshots(noiseless, [], [], [])
        with pytest.raises(ValueError, match="every trial"):
            synthesize_snapshots(
                noiseless, [[30.0], [60.0, 90.0]], [[0.0], [0.0, 0.0]], [[rng], [rng]]
            )
        with pytest.raises(ValueError, match="generator"):
            synthesize_snapshots(noiseless, [[30.0], [60.0]], [[0.0], [0.0]], [[rng], []])
        with pytest.raises(ValueError, match="azimuth"):
            synthesize_snapshots(
                noiseless, [[30.0], [181.0]], [[0.0], [0.0]], [[rng], [rng]]
            )
        with pytest.raises(ValueError, match="elevation"):
            synthesize_snapshots(
                noiseless, [[30.0], [60.0]], [[0.0], [float("nan")]], [[rng], [rng]]
            )
        # Every guard fires before the first draw.
        assert rng.bit_generator.state == state
        call([30.0, 60.0], [-90.0, 90.0])

    def test_spectra_guards(self):
        samples = self._batch([10.0], [3])[0]
        with pytest.raises(NumericalRankError):
            music_spectra(samples[:, :, :3])
        for bad in (samples[0], samples[:, :3], samples[:0]):
            with pytest.raises(ValueError):
                music_spectra(bad)

    def test_non_psd_member_fails_the_batch(self, monkeypatch):
        """One covariance with a clearly negative eigenvalue rejects the batch."""
        samples = self._batch([10.0], [3])[0]
        eigh = np.linalg.eigh

        def skewed(r):
            w, v = eigh(r)
            w = w.copy()
            w[2, 0] = -1e-3 * abs(w[2, -1]) - 1.0
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(NumericalRankError, match="covariance 2"):
            music_spectra(samples)


class TestAngleImage:
    def _spectra(self, seed=0):
        rng = np.random.default_rng(seed)
        return [
            normalize_spectrum(music_spectrum(_snapshot(float(az), snr_db=15.0, seed=seed + k)))
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
