"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the speed available to one process drifts by tens of per
cent within seconds, so raw wall times of the same code spread widely from
run to run.  The harness runs a probe before and after every op and scales
the op's wall time by the probe's nominal time over the mean of the two
probe times: the adjusted time is the op's time at the host speed where
each kernel takes its REF_S.  A change to the package moves adjusted times
by exactly as much as raw ones, because the probe calls nothing from it.

The drift does not slow every kind of work alike, so there are four
kernels, one per kind of work the package does, and each workload probes
with the ones that track it (workloads.py):

- `loop`: a Python loop of small array ops, like the denoiser's chain sweeps;
- `wide`: FFTs and elementwise transcendentals over a 256 x 128 array, like
  the LMMSE stage and the posterior moments;
- `python`: plain interpreter work, like the turbo loop's bookkeeping;
- `big`: elementwise passes over arrays larger than the caches, like the
  state evolution's Monte-Carlo MMSE oracle.

Every kernel's inputs are fixed, so every call does the same work.
"""

import time

import numpy as np

_rng = np.random.default_rng(12345)
_CHAIN = _rng.random((8, 8))
_CHAIN /= _CHAIN.sum(axis=0)
_STATE = _rng.random(8)
_WIDE = _rng.standard_normal((256, 128)) + 1j * _rng.standard_normal((256, 128))
_GAIN = _rng.random((256, 128)) + 0.1
_BIG = _rng.standard_normal(1 << 19)


def _loop():
    state = _STATE.copy()
    for _ in range(1500):
        state = _CHAIN @ state
        state = np.exp(-np.abs(state))
        state /= state.sum()
    return state


def _wide():
    total = 0.0
    for _ in range(8):
        spectrum = np.fft.ifft(np.fft.fft(_WIDE, axis=0) * _GAIN, axis=0)
        total += float(np.sum(np.log(_GAIN) * np.abs(spectrum) ** 2 + np.exp(-_GAIN)))
    return total


def _python():
    counts = {}
    for i in range(60000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return counts


def _big():
    total = 0.0
    for _ in range(2):
        total += float(np.sum(np.exp(-0.5 * _BIG * _BIG) * _BIG))
    return total


KERNELS = {"loop": _loop, "wide": _wide, "python": _python, "big": _big}

# Nominal seconds of each kernel: about its median on a quiet 2-core Xeon VM.
REF_S = {"loop": 0.007, "wide": 0.007, "python": 0.008, "big": 0.012}


class Probe:
    """Times a fixed set of kernels; `adjust` scales wall times by them."""

    def __init__(self, kernels):
        self.kernels = [KERNELS[name] for name in kernels]
        self.ref_s = sum(REF_S[name] for name in kernels)

    def measure(self):
        """Seconds the kernels take now."""
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return time.perf_counter() - start

    def adjust(self, seconds, before, after):
        """Wall seconds scaled to the host speed at which the probe takes ref_s."""
        return seconds * self.ref_s * 2.0 / (before + after)
