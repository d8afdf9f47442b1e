"""The host's speed, sampled all through a pass by short fixed probes.

The benchmark runs on a few cores of a shared host whose speed swings
by a third within seconds and drifts over minutes, and the program's
own CPU time swings with it.  ``Sampler`` measures that speed inside
the pass: a CPU-time interval timer (``ITIMER_PROF``) interrupts the
program every ``PERIOD_S`` of CPU time, and the signal handler runs one
probe, a fixed piece of pure-Python work, and records its CPU time.
The probes take turns: an arithmetic loop (interpreter speed), lookups
spread over a dictionary larger than the core's private caches (memory
speed, and the cache misses the program pays too) and a sort of fresh
small tuples into a set of frozensets (allocation and hashing).

``speed`` turns the samples into a factor: 1 when the probes' median
times equal their reference times ``REF_S``, 0.8 when they are a
quarter longer.  A pass's CPU seconds times that factor are its CPU
seconds at the reference speed, so a slow minute of the host no longer
reads as a slower program.  On the reference host the raw CPU time of
a table2 pass follows the probes' time with a log-log slope of 1.01,
and scaling cut its spread over 16 passes from 16 % to 4.5 %.  The
probes are benchmark code, so a change to the program moves the scaled
time as it moves the raw time.  The probes' own CPU time, about 2 % of
a pass, is reported so that it can be taken off the pass.

Only the standard library is used, so a pass can start sampling before
it imports the package, and set-up is measured the same way.
"""

import random
import signal
import statistics
import time

PERIOD_S = 0.01

_KEYS = list(range(0, 1 << 21, 64))            # 32768 keys
_TABLE = {k: k & 0xFF for k in _KEYS}
random.Random(0).shuffle(_KEYS)
_LOOKUPS = _KEYS[:400]


def _loop():
    s = 0
    for i in range(1500):
        s = (s * 31 + i) & 0xFFFF
    return s


def _lookup():
    s = 0
    for k in _LOOKUPS:
        s += _TABLE[k]
    return s


def _objects():
    items = [(i * 7919 % 211, i) for i in range(120)]
    items.sort()
    seen = set()
    for a, b in items:
        seen.add(frozenset((a, b % 17)))
    return len(seen)


PROBES = {"loop": _loop, "lookup": _lookup, "objects": _objects}

#: median CPU seconds of each probe run from the signal handler during a
#: pass, on a 2-vCPU KVM guest of a Sapphire Rapids Xeon host
REF_S = {"loop": 1.6e-4, "lookup": 2.3e-4, "objects": 1.55e-4}


class Sampler:
    """Runs the probes from a ``SIGPROF`` handler while started."""

    def __init__(self):
        self.samples = []       # (probe name, CPU seconds)
        self._order = list(PROBES)
        self._tick = 0

    def _handler(self, signum, frame):
        name = self._order[self._tick % len(self._order)]
        self._tick += 1
        t0 = time.thread_time()
        PROBES[name]()
        self.samples.append((name, time.thread_time() - t0))

    def start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        # ignored rather than reset: the default action of SIGPROF ends the
        # process, and one may still be pending when the timer stops
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def take(self):
        """The samples since the last call, which are then dropped."""
        out, self.samples = self.samples, []
        return out


def speed(samples):
    """Mean over the probes of reference time / median time."""
    times = medians(samples)
    if not times:
        raise ValueError("no probe samples: the interval was too short to scale")
    return statistics.fmean(REF_S[name] / t for name, t in times.items())


def medians(samples):
    """Median CPU seconds of each probe."""
    by_probe = {}
    for name, seconds in samples:
        by_probe.setdefault(name, []).append(seconds)
    return {name: statistics.median(v) for name, v in by_probe.items()}


def probe_seconds(samples):
    return sum(seconds for _, seconds in samples)
