"""How fast the host runs Python right now, sampled while a repetition runs.

On a shared virtual machine the host's speed can drift by tens of percent
within seconds: on a 2-vCPU Xeon KVM guest a pure-Python loop timed back
to back slowed from 0.32 s to 0.41 s and back, with no steal time.  Raw
wall times of two runs of the same code then differ by more than any
change worth detecting.  The speedometer times a small fixed probe ten
times a second, from a SIGALRM handler in the process being measured, so
the probe sees the same host conditions as the work it interleaves with.
A repetition's work time (wall time minus the probe's own time) divided
by the mean probe time and multiplied by REFERENCE_PROBE_S gives its wall
time on a host where the probe takes REFERENCE_PROBE_S: a time that a
change to regcert moves and a change of host speed does not.

The probe does what regcert's hot loops do (monomial divisibility through
zip, all() and a generator, over a few hundred exponent tuples) and calls
nothing in regcert, so a change to regcert cannot change it.
"""

import random
import signal
import statistics
import time

REFERENCE_PROBE_S = 0.002   # probe time of the reference host
INTERVAL_S = 0.1            # between two samples while work runs
BURST = 20                  # samples taken back to back, outside timing
WARM_UP = 5                 # untimed probes when a speedometer is made

_rng = random.Random(20220215)
_GENS = [tuple(_rng.randrange(6) for _ in range(5)) for _ in range(400)]
_CANDS = [tuple(_rng.randrange(3) for _ in range(5)) for _ in range(4)]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def probe():
    """One fixed unit of pure-Python work; returns its duration."""
    t = time.perf_counter()
    hits = 0
    for v in _CANDS:
        for g in _GENS:
            if _divides(g, v):
                hits += 1
    return time.perf_counter() - t


class Speedometer:
    """Samples probe() every INTERVAL_S seconds while started."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0   # seconds the samples took from the work
        for _ in range(WARM_UP):   # let the interpreter specialise probe()
            probe()

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def top_up(self):
        """Samples back to back up to BURST in all, for work too short to
        be sampled while it ran; call it outside the timed section."""
        while len(self.samples) < BURST:
            self.samples.append(probe())

    def scale(self):
        """Factor from seconds on this host now to reference seconds."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)
