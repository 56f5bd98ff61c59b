"""
Clustered sparse channel model
==============================

Samples the angle-frequency channel used throughout the package and
prints its main statistics: how often elements are active, how the
activity clusters into bursts, and how the energy splits between the
large and the near-zero mixture components.  Also verifies the
row-orthonormality of the partial-DFT pilot matrices and the realized
measurement SNR.
"""

import numpy as np

from hmpce.channels import (
    make_pilot_set,
    sample_channel,
    sample_support,
    stationary_activation,
    synthesize_measurements,
)

N, M, P = 256, 103, 32
P10, P01 = 0.05, 0.20
SNR_DB = 20.0

# ---------------------------------------------------------------------------
# support chain

support = sample_support(N, P10, P01, rng_seed=1)
lam = stationary_activation(P10, P01)
print(f"support: {support.sum()}/{N} active, stationary activation {lam:.3f}")

runs = []
count = 0
for s in support:
    if s:
        count += 1
    elif count:
        runs.append(count)
        count = 0
if count:
    runs.append(count)
print(f"active bursts: {len(runs)}, lengths {sorted(runs)}")
print(f"expected burst length 1/p01 = {1.0 / P01:.1f}, observed mean "
      f"{np.mean(runs):.1f}")

# ---------------------------------------------------------------------------
# two-component gains

channel = sample_channel(support, P, vL_spread=(0.1, 10.0), vS=100.0, rng_seed=2)
mask = support.astype(bool)
power = np.abs(channel.gains) ** 2
print(f"\ngains: mean power {power[mask].mean():.3f} on active rows (target 1.0), "
      f"{power[~mask].mean():.4f} on quiet rows (target 0.01)")
v_large = 1.0 / channel.large_precisions[mask]
print(f"per-element large-component variances: min {v_large.min():.3f}, "
      f"max {v_large.max():.3f} (log-uniform spread)")

# a crude look at one subcarrier: active elements stand out by an order
# of magnitude
mag = np.abs(channel.gains[:, 0])
bar = "".join("#" if m > 0.3 else "." for m in mag[:80])
print(f"|h| profile, subcarrier 0, first 80 of {N} elements:\n  {bar}")

# ---------------------------------------------------------------------------
# pilots and measurements

pilots = make_pilot_set(N, M, P, rng_seed=3)
A = pilots.matrix
gram = A @ A.conj().swapaxes(1, 2)
print(f"\npilot rows: max ||A_p A_p^H - I|| over the {P} subcarriers = "
      f"{np.abs(gram - np.eye(M)).max():.2e} (row-orthonormal by construction)")
meas = synthesize_measurements(channel, pilots, SNR_DB, rng_seed=4)
clean_power = np.mean(np.abs(pilots.apply(channel.gains)) ** 2)
snr_hat = 10.0 * np.log10(clean_power / meas.noise_variance)
print(f"measurements: {meas.Y.shape[0]} x {meas.Y.shape[1]}, requested "
      f"{SNR_DB:.0f} dB, realized {snr_hat:.2f} dB")
