"""
Bearing estimation and triangulation from array snapshots
=========================================================

Four wall-mounted receiver arrays record an advertising burst from a device
somewhere on the floor. Each array turns its snapshot into a pseudo-spectrum
whose peak is the bearing estimate; intersecting the bearing lines recovers
the position. The final section packs the four spectra into the square
angle-image layout used for downstream classifiers.
"""

import numpy as np

from proxichain import aoa
from proxichain.simulation import beacon_grid

beacons = beacon_grid()
target = np.array([6.3, 2.8])

# Use the four receivers closest to the device.
picked = beacons[np.argsort(np.linalg.norm(beacons - target, axis=1))[:4]]
print("target at", target, "picked receivers:\n", picked)

# ---------------------------------------------------------------------------
# One snapshot and bearing per receiver, at a few noise levels.

for snr in (None, 20.0, 10.0, 0.0):
    rng = np.random.default_rng(42)
    bearings = []
    spectra = []
    for b in picked:
        delta = target - b
        azimuth = float(np.degrees(np.arctan2(abs(delta[1]), delta[0])))
        snap = aoa.synthesize_snapshot(snr, azimuth, 0.0, rng)
        spectrum = aoa.music_spectrum(snap)
        spectra.append(aoa.normalize_spectrum(spectrum))
        estimate = aoa.spectrum_peak(spectrum)
        # A linear array cannot tell a source from its mirror image across
        # the array axis; the receiver knows which side the floor is on.
        bearings.append(float(estimate) if delta[1] >= 0 else -float(estimate))

    point, residual = aoa.estimate_position(picked, bearings)
    err = float(np.linalg.norm(point - target))
    label = "noiseless" if snr is None else f"{snr:g} dB"
    print(
        f"{label:>9}: position ({point[0]:.2f}, {point[1]:.2f})"
        f"  error {err:.3f} m  residual {residual:.3f}"
    )

# ---------------------------------------------------------------------------
# The four normalized spectra stack into a 28 x 28 image with 60 pad zeros.

image = aoa.build_angle_image(spectra)
flat = image.padded.reshape(-1)
print(
    f"\nangle image: shape {image.padded.shape}, payload {np.count_nonzero(flat[:724])}"
    f" live samples, {flat[724:].size} zero-pad entries"
)
print("unpad restores the spectra exactly:", np.array_equal(aoa.unpad_angle_image(image.padded), image.spectra))
