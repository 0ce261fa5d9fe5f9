"""Host-speed calibration: the benchmark's times in reference seconds.

On a shared host the same pure-Python loop runs at 1.0-1.6x its fastest
time, in stretches of tens of seconds, and the process's CPU time grows with
it.  So the benchmark runs a fixed calibration chunk right after every timed
op, for a tenth of the op's time, and reports each time scaled by the host
speed measured around it:

    reported = measured * REF_CHUNK_S / (mean chunk time measured with it)

A reference second is a second on a host where one chunk takes
``REF_CHUNK_S``.  The chunk does the kinds of work greylp does (interpreter
arithmetic, small objects, formatting, numpy calls on tiny and 30x60
arrays) and calls nothing in greylp, so a change to the program moves the
reported times and leaves the calibration alone.
"""

from __future__ import annotations

import time

import numpy as np

# One chunk takes about this long on the host the bounds were set on, at
# its usual speed, so reference seconds are close to seconds there.
REF_CHUNK_S = 3e-4
# Calibration time run after an op, as a share of the op's time.
SHARE = 0.1

_RNG = np.random.default_rng(12345)
_TINY = _RNG.random((3, 6)) + 1.0
_MID = _RNG.random((31, 61)) + 1.0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def chunk() -> float:
    """A fixed piece of work, the unit of host speed."""
    acc = 0.0
    rows = []
    for i in range(400):
        p = _Pair(i * 0.5, (i % 7) + 1.0)
        acc += p.a / p.b
        rows.append((i, acc))
    table = dict(rows)
    text = ",".join(f"{v:.6f}" for v in list(table.values())[:60])
    tiny = _TINY.copy()
    for k in range(3):
        col = tiny[:, k]
        row = int(np.argmax(col))
        tiny -= np.outer(col / tiny[row, k], tiny[row]) * 1e-3
    mid = _MID.copy()
    for k in range(6):
        mid -= np.outer(mid[:, k] / mid[k, k], mid[k]) * 1e-3
    return acc + len(text) + float(tiny[0, 0] + mid[0, 0])


class Meter:
    """Host speed over a stretch of timed work, from the chunks run in it."""

    def __init__(self):
        self.seconds = 0.0
        self.chunks = 0

    def run(self, seconds: float) -> None:
        """Run chunks for at least ``seconds``, and at least one."""
        clock = time.perf_counter
        start = clock()
        while True:
            chunk()
            self.chunks += 1
            elapsed = clock() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    def after(self, busy_s: float) -> None:
        """Calibrate after ``busy_s`` seconds of timed work."""
        self.run(SHARE * busy_s)

    @property
    def chunk_s(self) -> float:
        return self.seconds / self.chunks


def reference_seconds(measured_s: float, chunk_s: float) -> float:
    """A measured time in reference seconds, given the mean chunk time
    measured with it."""
    return measured_s * REF_CHUNK_S / chunk_s
