"""Host speed, so that measured times can be scaled to a reference speed.

Small shared virtual machines change speed for reasons outside the
measured process: on a 2-vCPU KVM guest a fixed pure-Python loop ran
either at full speed or about 1.7x slower, switching every 10 to 200 ms,
with the share of slow time drifting over minutes.  The guest showed no
steal time, and CPU time moved with wall time.  Code that runs while the
host is slow is slow, so that share moved op times by up to 25 % between
runs of the same inputs.

So the benchmark samples the host's speed with a short fixed loop in the
measured process itself: once right before and once right after each op,
and on every TICK_CPU_S of process CPU time in between, from a SIGPROF
handler (so in the main thread, between bytecodes of the library; no
thread is started).  The ticks also cover set-up, which is too long to
bracket.  An interval, less the ticks' own time, is multiplied by
``REF_LOOP_S / mean loop time``: the result is the time it would have
taken on a host that runs the loop in exactly REF_LOOP_S.  Raw
wall-clock figures are printed beside the scaled ones.  The loop
belongs to the benchmark, not to the library, so no library change
moves it.
"""

from __future__ import annotations

import signal
import time

# Loop time at the reference speed: a fixed constant of the order of the
# loop's time on the guest above (Python 3.11), so that scaled times are
# of the order of raw ones there.
REF_LOOP_S = 0.0004
_ITERATIONS = 3_000
# Process CPU time between two ticks.
TICK_CPU_S = 0.015


def _loop() -> int:
    # Only ints and one list: nothing the cyclic garbage collector tracks
    # is allocated, so no collection of the library's heap lands in here.
    table = [0] * 64
    acc = 0
    for i in range(_ITERATIONS):
        j = (acc ^ i) & 63
        table[j] += i
        acc = (acc * 31 + table[j]) & 0xFFFFF
    return acc


def trimmed(loop_s: list[float]) -> list[float]:
    """The loop times without the fastest and slowest tenth: a loop that
    a millisecond-long stall of the host landed in would otherwise weigh
    as much as a dozen loops of true speed."""
    cut = len(loop_s) // 10
    return sorted(loop_s)[cut:len(loop_s) - cut]


def scale(raw_s: float, loop_s: list[float]) -> float:
    """`raw_s` at the reference speed, given loop times taken during it."""
    loops = trimmed(loop_s)
    return raw_s * REF_LOOP_S * len(loops) / sum(loops)


class Gauge:
    """Times the loop on demand and on every SIGPROF tick from start() to stop()."""

    def __init__(self):
        self.ticks: list[float] = []
        # While set, ticks are skipped: the caller is reading clocks whose
        # difference a loop must not land in.
        self.hold = False
        self._in_loop = False

    def loop(self) -> float:
        """Time one run of the loop; 0.0 if called while one is running."""
        if self._in_loop:
            return 0.0
        self._in_loop = True
        try:
            t0 = time.perf_counter()
            _loop()
            return time.perf_counter() - t0
        finally:
            self._in_loop = False

    def _tick(self, signum, frame) -> None:
        if self.hold:
            return
        seconds = self.loop()
        if seconds:
            self.ticks.append(seconds)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
