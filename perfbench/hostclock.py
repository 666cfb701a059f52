"""A reference clock that tracks how fast the host runs right now.

On a shared host the same code runs 25–50% faster or slower from one
minute to the next, so a wall-clock time says as much about the host's
neighbours as about the program. The benchmark therefore times a fixed
piece of pure-Python reference work between its passes and scales each
pass's times to a host on which that work takes :data:`REFERENCE_S`:

    reported = measured × REFERENCE_S / (reference time around the pass)

The reference work runs in a child process that never imports the
program, so nothing the program does to its own interpreter (a tracing
hook, a busy background thread, different GC settings) can slow the
reference along with it and cancel out.

Run directly, this module is that child: it reads one line per sample on
standard input and answers with the sample's seconds, until end of input.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

#: Seconds the reference work takes on the nominal host; every scaled
#: time reads as if measured there.
REFERENCE_S = 0.070


def reference_work() -> float:
    """Run the fixed reference work once; return its wall seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    counts = {}
    for i in range(100_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    sorted(range(200_000, 0, -3))
    return time.perf_counter() - start


class HostClock:
    """The reference work in a child process, sampled on demand.

    Use as a context manager; the child is stopped and waited for on the
    way out.
    """

    def __init__(self) -> None:
        self._proc = None

    def __enter__(self) -> "HostClock":
        self._proc = subprocess.Popen(
            [sys.executable, "-I", os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.sample()  # the first sample pays the child's warm-up
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def sample(self) -> float:
        """Seconds the reference work takes now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two samples to nominal speed."""
    return REFERENCE_S / ((before + after) / 2)


if __name__ == "__main__":
    for _line in sys.stdin:
        print(reference_work(), flush=True)
