"""Host-speed calibration: scale measured times to one reference speed.

On a shared 2-vCPU cloud host the speed of identical work drifts: the same
trial was seen to take 26 ms in one stretch of seconds and 48 ms in the
next, in CPU time as much as in wall time.  A run's raw figures then say
more about the stretch it fell in than about the program.

So the benchmark times a fixed kernel of its own between the pieces of work
it measures, and scales each piece by CAL_REF_S over the mean of the kernel
times taken just before and just after it.  The kernel does the kinds of
work the program does, in small units: SHA-256 over short byte strings (the
GGM walk and the PRG), building and parsing bit strings in pure Python (the
circuits' string interface), and 4x4 matrix products (the projectors).  No
change to the program changes the kernel, so a faster program still reads
faster, while a slow stretch of the host slows both and cancels out.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

CAL_REF_S = 0.010  # the kernel time that scaled figures are quoted at
CAL_EVERY_S = 0.25  # least time between two samples taken by tick()
HASHES, STRINGS, MATMULS = 2000, 1300, 500


def calibrate() -> float:
    """Seconds taken by one pass of the fixed kernel."""
    seed = bytes(16)
    total = 0
    m = np.arange(16.0).reshape(4, 4)
    start = perf_counter()
    for _ in range(HASHES):
        seed = hashlib.sha256(b"node0" + seed).digest()[:16]
    for i in range(STRINGS):
        flipped = "".join("1" if c == "0" else "0" for c in format(i, "012b"))
        total += int(flipped, 2)
    for _ in range(MATMULS):
        m = (m @ m) / (np.abs(m).sum() + 1.0)
    return perf_counter() - start


class Timeline:
    """Timed pieces of work interleaved with kernel samples."""

    def __init__(self):
        self.samples = [calibrate()]
        self.sampled_at = perf_counter()
        self.pieces: list[tuple[int, float]] = []  # (index of the sample before it, seconds)

    def tick(self, force: bool = False):
        """Take a sample if the last one is CAL_EVERY_S old; call between pieces."""
        if force or perf_counter() - self.sampled_at >= CAL_EVERY_S:
            self.samples.append(calibrate())
            self.sampled_at = perf_counter()

    def add(self, seconds: float):
        self.pieces.append((len(self.samples) - 1, seconds))

    def raw(self) -> list[float]:
        return [seconds for _, seconds in self.pieces]

    def scaled(self) -> list[float]:
        """Each piece times CAL_REF_S over the mean of the samples around it."""
        if self.pieces and self.pieces[-1][0] == len(self.samples) - 1:
            self.tick(force=True)
        s = self.samples
        return [seconds * 2.0 * CAL_REF_S / (s[i] + s[i + 1]) for i, seconds in self.pieces]
