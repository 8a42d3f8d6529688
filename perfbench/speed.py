"""The machine's momentary speed, read from a fixed probe.

On a shared virtual machine the same code runs up to 1.8x slower for spells
of tens of milliseconds to minutes.  Two causes show on a 2-core x86-64
guest: the host runs another guest on our virtual core (steal time: 3% on
average there, up to a quarter of a half-second window), and a busy
sibling of the physical core slows every instruction.  Either moves a
call's time whatever the call does, and a run's medians jump between seeds
however much work the run holds.

Steal is left out by timing CPU time (`time.thread_time`), which the guest
kernel does not charge for steal; for the benchmark's single-threaded,
in-memory calls it is their wall time on an otherwise idle machine.  The
slower instructions are scaled out by a probe: a fixed piece of pure-Python
work that owes nothing to `stc`.  `Sampler` runs it every INTERVAL_S from a
timer signal, so that it is also taken in the middle of a long call, where
a spell begins or ends.  A call's CPU time, less the probes inside it, is
scaled by REF_PROBE_S over the mean CPU time of the probes within PAD_S of
the call.  Reported times are therefore CPU seconds at the speed where one
probe takes REF_PROBE_S, and a change to the program moves them exactly as
it moves the raw times.

Measured on that guest: a 0.35-s decision repeated for 30 s varied 15-21%
(coefficient of variation) in wall time, 6% scaled by the probes taken
inside it, and 15% scaled by probes taken only before and after it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

# About one probe's time on that host; it only fixes the unit of the
# scaled times, any constant would do.
REF_PROBE_S = 0.002
INTERVAL_S = 0.05       # a probe this often, in and between calls
PAD_S = 0.1             # probes this close to a call set its speed

# One round over a small structure, so that the probe adds little to
# peak RSS and about 4% to a run's time.
PROBE_ROUNDS, PROBE_SIZE = 1, 1500
_KEYS = [f"v{i}" for i in range(2 * PROBE_SIZE)]


def probe():
    """CPU seconds one run of the fixed probe work takes now.  The work is
    what `stc` spends its time on: small dicts, sets, tuples and frozensets
    built, sorted and dropped.  The collector is off meanwhile, so that the
    probe's time does not depend on what the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    start = thread_time()
    for _ in range(PROBE_ROUNDS):
        children = {}
        for i in range(PROBE_SIZE):
            children.setdefault(_KEYS[i], set()).add((_KEYS[(i * 7 + 1) % len(_KEYS)], i % 5))
        ranked = sorted((len(v), k) for k, v in children.items())
        frozen = [frozenset(v) for v in children.values()]
        del children, ranked, frozen
    took = thread_time() - start
    if enabled:
        gc.enable()
    return took


def scale(seconds, probe_times):
    """`seconds` at the reference speed, given probe times around it."""
    return seconds * REF_PROBE_S / statistics.mean(probe_times)


class Sampler:
    """Probe times along a run, taken from a SIGALRM handler.  A handler
    runs between two bytecodes of the main thread, so it may interrupt a
    timed call; its whole time is recorded and taken out of the call."""

    def __init__(self):
        self.starts = []    # handler entry wall times, increasing
        self.ends = []      # handler exit wall times
        self.cpu = []       # handler CPU times
        self.times = []     # probe CPU times
        self._old = None

    def _tick(self, signum, frame):
        start, cpu = perf_counter(), thread_time()
        took = probe()
        self.times.append(took)
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.cpu.append(thread_time() - cpu)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def busy(self, start, end, cpu_start, cpu_end):
        """(wall, CPU) seconds of a span, each less the probe handlers
        inside it."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        wall = sum(min(e, end) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return end - start - wall, cpu_end - cpu_start - sum(self.cpu[lo:hi])

    def scaled(self, start, end, cpu_start, cpu_end):
        """The span's CPU seconds at the reference speed."""
        lo = bisect_left(self.starts, start - PAD_S)
        hi = bisect_right(self.starts, end + PAD_S)
        if lo == hi:    # no probe near: the nearest one
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return scale(self.busy(start, end, cpu_start, cpu_end)[1], self.times[lo:hi])
