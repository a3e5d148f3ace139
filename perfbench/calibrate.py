"""Host speed, measured by a fixed pure-Python kernel run beside the workload.

The benchmark shares a few cores of a host with other tenants.  On a 2-core
x86-64 VM, the time of one fixed pure-Python loop spread by a quarter of its
median from second to second, and CPU time spread as much as wall time, so
the slow phases come from sharing physical cores, not from waiting for one.
A faster or slower phase changes the speed of any interpreted loop alike:
over one minute, 0.7-s windows of ``matroid.bases`` spread 25% while their
ratio to this kernel, timed between the same calls, spread 6%.

Every timed operation is therefore measured alongside calibration chunks.
A chunk is fixed work that never calls the package: the benchmark's own
integer elimination on a fixed cord set, and a short sum of Fractions.
Chunks run after every operation, and, from a timer signal, every
``INTERVAL_S`` while it runs; the time the latter take is taken off the
operation's time.  An operation's host-normalised time is its time
multiplied by ``NOMINAL_CHUNK_S`` over the median time of the chunks run
during, just before and just after it, i.e. the time it would have taken
when one chunk takes ``NOMINAL_CHUNK_S``.  A change to the package moves the
operation's time and not the chunks', so it shows in full; a phase of the
host moves both and cancels.  The worker pins itself to one core, so that
operation and chunks run on the same one.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import inputs
import reference

# A typical chunk time on a 2-core x86-64 VM with Python 3.11 shared with
# other tenants (0.18 ms in its fast phases, 0.3-0.36 ms in its slow ones).
# It only scales the normalised figures, so that they read close to wall time.
NOMINAL_CHUNK_S = 0.0003
INTERVAL_S = 0.025    # chunks during an operation: about 3.5% of its time
KEEP = 2              # chunks kept per sample, after one that is discarded
MIN_CHUNKS = 8        # an operation's factor uses at least this many chunks

_LABELS = [f"c{i}" for i in range(10)]
_SHAPE = inputs.random_binary(random.Random(7), _LABELS)
_CORDS = inputs.random_cords(random.Random(8), _LABELS, 14)
_FRACTIONS = [Fraction(i + 1, 2 * i + 3) for i in range(16)]


def chunk():
    """One unit of fixed work; returns its time in seconds."""
    start = perf_counter()
    reference.rank(_SHAPE, _CORDS)
    total = Fraction(0)
    for f in _FRACTIONS:
        total += f * f
    return perf_counter() - start


def chunks(n):
    return [chunk() for _ in range(n)]


def sample():
    """Chunks for one calibration sample.

    The first chunk after other work finds its code and data evicted from
    the caches and runs slower; it is run but not kept, so that the sample
    follows the host and not what the operation left in the caches.
    """
    chunk()
    return chunks(KEEP)


class During:
    """Context manager that samples the host's speed while an operation runs.

    A timer signal every ``INTERVAL_S`` runs one sample between two bytecodes
    of the operation.  ``samples`` holds the chunks and ``spent`` the
    seconds the samples took, to be taken off the operation's time.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples += sample()
        self.spent += perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def factor(samples):
    """Normalisation factor for work done while ``samples`` were measured."""
    return NOMINAL_CHUNK_S / statistics.median(samples)


def factors(during, after):
    """Per-operation factors.

    ``during[i]`` holds the chunks run while operation i ran, ``after[i]``
    those run after it, so operation i ran between ``after[i - 1]`` and
    ``after[i]``.  Its factor uses those three, widened one operation each
    side until there are ``MIN_CHUNKS``.
    """
    n, out = len(after), []

    def at(chunk_lists, j):
        return chunk_lists[j] if 0 <= j < n else []

    for i in range(n):
        near = list(during[i]) + at(after, i - 1) + at(after, i)
        w = 0
        while len(near) < MIN_CHUNKS and (i - w - 1 >= 0 or i + w < n - 1):
            w += 1
            near += at(during, i - w) + at(after, i - w - 1) + at(during, i + w) + at(after, i + w)
        out.append(factor(near))
    return out
