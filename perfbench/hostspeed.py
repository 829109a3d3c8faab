"""Host-speed calibration: times scaled to a fixed reference speed.

The benchmark runs on a shared host whose CPU speed drifts by 20-100%
for seconds to minutes at a time (neighbours on the same cores, turbo
frequency), which is far more than the program varies between runs and
often lasts a whole run, so no statistic of raw times is steady. Every
timed interval is therefore bracketed by a :func:`probe`: a fixed
pure-Python reference computation (dict, tuple, string and integer
work, like the interpreter-bound code under test) whose duration tracks
the host's speed at that moment. :func:`scaled` converts a measured
interval into the time it would have taken at the speed where one
probe takes :data:`REFERENCE_S`.

A change to the program moves the interval and not the probe, so it
shows in the scaled time in full; a slow host period moves both and
cancels. The probe is owned by the benchmark and never changes with the
program. Each workload uses the probe whose work resembles its own:
:func:`probe` for interpreter-bound loads, :func:`probe_mixed` for
loads that also run numpy kernels, and :class:`PairProbe` for loads
that keep both vCPUs busy.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: The reference speed: one probe takes this long. A probe takes 6-19 ms
#: on a shared 2-vCPU Xeon VM, so scaled times are of the order of real
#: ones there.
REFERENCE_S = 0.010

_ROUNDS = 16_000
_ARRAY = 300_000


def _reference_work() -> int:
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(_ROUNDS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + (i * i) % 7
    return total + len(table)


def probe() -> float:
    """Seconds one reference computation takes right now."""
    started = time.perf_counter()
    _reference_work()
    return time.perf_counter() - started


def probe_mixed() -> float:
    """The mean of :func:`probe` and a numpy reference of about its length.

    For loads that split their time between the interpreter and numpy
    kernels: numpy's memory-bound loops slow less than the interpreter
    when the host is busy, so the interpreter probe alone over-corrects
    them.
    """
    import numpy

    values = numpy.arange(_ARRAY, dtype=numpy.int64)
    started = time.perf_counter()
    for _ in range(3):
        classes = (values * 7 + 3) % 11
        numpy.bincount(classes, minlength=11)
        numpy.nonzero(classes == 3)
        numpy.sort(classes[: _ARRAY // 6])
    return (probe() + time.perf_counter() - started) / 2


def scaled(seconds: float, probes) -> float:
    """``seconds`` at the reference speed, given the probes taken around it.

    The host's speed is the median of ``probes``: the two around one op,
    or every probe of a phase when one probe is short next to the
    intervals it scales.
    """
    return seconds * REFERENCE_S / statistics.median(probes)


class PairProbe:
    """Probes both vCPUs at once, for loads that keep both busy.

    A helper process runs the reference computation while this one does;
    the probe is the mean of the two. A single probe sees only the vCPU
    it runs on, while a load spread over two processes also slows when
    the host takes the other one away.
    """

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        own = probe()
        return (own + float(self._helper.stdout.readline())) / 2

    def close(self) -> None:
        """Stop the helper and wait for it to end."""
        try:
            self._helper.stdin.close()
            self._helper.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


def _serve_probes() -> None:
    """The :class:`PairProbe` helper: one probe per line read, until EOF."""
    for _ in sys.stdin:
        print(probe(), flush=True)


if __name__ == "__main__":
    _serve_probes()
