"""Timing primitives shared by the workloads: deadlines, decision records and
the speed meter that puts every time on one reference speed."""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction


class DeadlineExceeded(BaseException):
    """A decision ran past its wall-clock deadline.

    A BaseException, like KeyboardInterrupt, so that no `except Exception` in
    the code under test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


signal.signal(signal.SIGALRM, _on_alarm)


class Deadline:
    """Raise DeadlineExceeded in the main thread after `seconds` of wall time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        if self.seconds:
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        if self.seconds:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return False


class Record:
    """One decision: input index, perf_counter at start and end (None if it
    never ran), the output kept for the untimed check, and why it failed."""

    __slots__ = ("key", "start", "end", "output", "error")

    def __init__(self, key, start, end, output=None, error=None):
        self.key = key
        self.start = start
        self.end = end
        self.output = output
        self.error = error


@dataclass(frozen=True)
class _Pair:
    """A frozen value class with a checked constructor, as the engine's are."""

    x0: Fraction
    x1: Fraction

    def __post_init__(self):
        if not isinstance(self.x0, Fraction):
            raise TypeError("x0 must be a Fraction")

    def add(self, other):
        return _Pair(self.x0 + other.x0, self.x1 + other.x1)

    def below(self, other):
        return (self.x0 - other.x0) < (self.x1 - other.x1)


class _Key:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return self.v.below(other.v)


def calibration_slice():
    """Fixed interpreter work of the kind the engine does: small Fraction
    arithmetic inside frozen value objects, exact comparisons and sorts
    through a key class.  About 4 ms on a 2020s server core; its cost depends
    on the machine and the interpreter, never on the code under test."""
    x = _Pair(Fraction(0), Fraction(1))
    kept = []
    for i in range(1, 121):
        x = x.add(_Pair(Fraction(i % 7 + 1, i % 11 + 1), Fraction(i % 5 + 2, i % 5 + 1)))
        kept.append(x)
        if i % 20 == 0:
            kept.sort(key=_Key)
            kept = kept[-5:]
    return x


class SpeedMeter:
    """Samples how fast the machine runs, so that times can be reported at a
    reference speed.

    Shared machines change speed by tens of percent within seconds.  The meter
    runs `calibration_slice` every `interval_s` of CPU time (SIGPROF, so also
    inside a long decision) and whenever `tick` finds no sample in the last
    `interval_s` of wall time (between subprocess decisions).  `scaled(t0, t1)`
    is the wall time of [t0, t1] without the slices in it, each stretch
    multiplied by REF_S over the duration of the slices around it: the time the
    interval would have taken on a machine where one slice takes REF_S.
    """

    REF_S = 0.004
    SMOOTH_S = 0.1  # seconds either side of a slice that its smoothing spans

    def __init__(self, interval_s=0.02):
        self.interval_s = interval_s
        self.starts = []
        self.ends = []
        self._smooth = []
        self._busy = False

    def sample(self):
        if self._busy:  # SIGPROF arrived during a tick's slice
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            calibration_slice()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
        finally:
            self._busy = False

    def tick(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.interval_s:
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()
        return False

    def _factor(self, i):
        """REF_S over the local slice duration, for the stretch after slice i.

        Each slice's duration is smoothed to the median of the slices started
        within SMOOTH_S of it, since one slice alone is noisy; the stretch
        takes the mean of the smoothed slices at its two ends."""
        n = len(self.starts)
        if len(self._smooth) != n:
            d = [e - s for s, e in zip(self.starts, self.ends)]
            self._smooth = []
            lo = hi = 0
            for j, t in enumerate(self.starts):
                while self.starts[lo] < t - self.SMOOTH_S:
                    lo += 1
                while hi < n and self.starts[hi] <= t + self.SMOOTH_S:
                    hi += 1
                self._smooth.append(statistics.median(d[lo:hi]))
        a, b = min(max(i, 0), n - 1), min(max(i + 1, 0), n - 1)
        return self.REF_S / ((self._smooth[a] + self._smooth[b]) / 2)

    def scaled(self, t0, t1, raw=False):
        """Time of [t0, t1] at the reference speed; with raw, at the speed it
        ran (both leave out the slices inside the interval)."""
        starts, ends = self.starts, self.ends
        i = bisect.bisect_right(starts, t0) - 1  # last slice started by t0
        total = 0.0
        cur = t0
        while cur < t1:
            if i >= 0 and cur < ends[i]:
                cur = ends[i]  # inside slice i: not the decision's time
                continue
            stop = min(starts[i + 1] if i + 1 < len(starts) else t1, t1)
            total += (stop - cur) * (1.0 if raw else self._factor(i))
            cur = stop
            i += 1
        return total


def run_items(items, decide, deadline_s, hard_stop, meter):
    """Closed loop over items: the next decision starts when the last ends."""
    recs = []
    for key, item in enumerate(items):
        if time.monotonic() > hard_stop:
            recs.append(Record(key, None, None, error="not started: run time budget spent"))
            continue
        t0 = time.perf_counter()
        try:
            with Deadline(deadline_s):
                out = decide(item)
            err = None
        except DeadlineExceeded:
            out, err = None, "did not finish within its deadline"
        except Exception as e:  # a raising decision is a failed decision
            out, err = None, f"raised {type(e).__name__}: {e}"
        recs.append(Record(key, t0, time.perf_counter(), out, err))
        if meter is not None:
            meter.tick()
    return recs
