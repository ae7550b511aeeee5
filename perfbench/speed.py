"""Interpreter speed probe: scales measured times to a reference speed.

The shared machine the benchmark runs on changes speed by up to 1.7x
within seconds, and thread CPU time follows wall time, so a raw time
says as much about the neighbours as about the program.  A ``Sampler``
thread runs a fixed slice of pure-Python work (``burst``) every
``INTERVAL`` seconds while the program runs and times it in its own
thread CPU time.  The program's time scaled by the speed those bursts
saw over the same interval is its time at the reference speed, the
speed at which one burst takes ``REFERENCE_S``.

The burst depends only on the interpreter, never on the library, so a
change to the library moves the scaled time by exactly as much as the
raw time.
"""

import threading
import time
from fractions import Fraction

# One burst's thread CPU time at the reference speed.
REFERENCE_S = 0.002
INTERVAL = 0.2


def burst():
    """Thread CPU seconds of one fixed slice of small-rational, tuple,
    dict and sorting work, the kinds of interpreter work the library
    does most."""
    start = time.thread_time()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
    counts = {}
    for i in range(900):
        key = (i % 13, i % 17, (i * 7) % 5)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.thread_time() - start


def scale(samples):
    """Factor that turns a time measured while ``samples`` were taken
    into a time at the reference speed.

    Speed is proportional to 1 / burst time; the work done in an
    interval is its length times the mean speed over it, so the factor
    is the mean of REFERENCE_S / sample.
    """
    if not samples:
        raise ValueError("no speed samples")
    return sum(REFERENCE_S / s for s in samples) / len(samples)


class Sampler:
    """Takes one burst every INTERVAL seconds on a daemon thread from
    start() until stop(); stop() returns the samples."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        self.samples.append(burst())
        while not self._stop.wait(INTERVAL):
            self.samples.append(burst())

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.samples
