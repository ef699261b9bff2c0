"""Timing and checking of the operations of one pass.

The machine the benchmark runs on may change speed from one tenth of a
second to the next (other tenants share its cores), by as much as 2x.  A
sampler therefore runs a fixed probe kernel every PROBE_EVERY_S from a
SIGALRM handler in the main thread, and every timing is reported together
with the mean probe time around it.  run.py scales timings by that speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from time import perf_counter

PROBE_EVERY_S = 0.05


def _probe_kernel() -> int:
    """About half a millisecond of fixed pure-Python work in the style of
    the library: tuple permutations composed and hashed into a dict, then
    integer arithmetic."""
    cycle = tuple(range(1, 24)) + (0,)
    p = tuple(range(24))
    seen = {}
    for i in range(300):
        p = tuple(cycle[j] for j in p)
        seen[p] = i
    x = 1
    for _ in range(800):
        x = (x * 1103515245 + 12345) % (1 << 61)
    return len(seen) + x


class Sampler:
    """Probe samples (time, seconds per kernel run) taken every
    PROBE_EVERY_S while running; ``spent`` is the time the samples took,
    which timed regions subtract."""

    def __init__(self):
        self.at = []
        self.took = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        enabled = gc.isenabled()
        gc.disable()  # the library's heap size must not change the probe
        t = perf_counter()
        _probe_kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.at.append(end)
        self.took.append(end - t)
        self.spent += perf_counter() - t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean probe time over [start, end], including the last sample
        before it and the first after it."""
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = bisect.bisect_left(self.at, end) + 1
        return statistics.fmean(self.took[lo:hi])


class ProgramError(Exception):
    """The CLI exited non-zero with an error object; ``error`` is the name
    it reported (the library's exception class)."""

    def __init__(self, error: str, message: str):
        super().__init__(message)
        self.error = error


def identity(x):
    return x


def check_equal(answer, expected):
    return None if answer == expected else f"{answer!r} != reference {expected!r}"


class Pass:
    """Times and checks the operations of one pass.

    With a reference, every answer is compared and each failure recorded
    as [label, kind, error, message]: kind is "raised" (error is the
    exception's class name), "exit" (the CLI returned a non-zero code with
    an error object; error is the name it gave) or "wrong" (the answer
    differs from the reference; error is empty).  Without a reference,
    answers are recorded under their reference keys instead.

    ``timed`` holds one [label, seconds, probe time] per operation, failed
    ones included (run.py drops them, except the known failure): seconds
    leave out the time spent in probe samples, and the probe time is the
    mean around the operation (0.0 without a sampler)."""

    def __init__(self, reference: dict | None, sampler: Sampler | None = None):
        self.reference = reference
        self.sampler = sampler
        self.recorded = {}
        self.attempted = 0
        self.timed = []
        self.failures = []
        self.setup_at = None
        self.setup_spent = 0.0
        self.setup_speed = None

    def setup_done(self):
        self.setup_at = time.monotonic()
        if self.sampler is not None:
            self.setup_spent = self.sampler.spent
            self.setup_speed = self.sampler.speed(self.sampler.at[0], perf_counter())

    def op(self, label, ref_key, call, answer=identity, check=check_equal):
        self.attempted += 1
        spent = self.sampler.spent if self.sampler is not None else 0.0
        t = perf_counter()
        result = failure = None
        try:
            result = call()
        except ProgramError as exc:
            failure = ["exit", exc.error, str(exc)]
        except Exception as exc:  # any raise from the program is a failed operation
            failure = ["raised", type(exc).__name__, str(exc)]
        end = perf_counter()
        if self.sampler is None:
            self.timed.append([label, end - t, 0.0])
        else:
            took = end - t - (self.sampler.spent - spent)
            self.timed.append([label, took, self.sampler.speed(t, end)])
        if failure is None:
            failure = self._check(label, ref_key, result, answer, check)
        if failure is not None:
            self.failures.append([label] + failure)
            return None
        return result

    def _check(self, label, ref_key, result, answer, check):
        """None when the answer is right (or was recorded), else a failure."""
        try:
            got = answer(result)
        except Exception as exc:  # a malformed result
            return ["raised", type(exc).__name__, str(exc)]
        if self.reference is None:
            if ref_key is not None and self.recorded.setdefault(ref_key, got) != got:
                raise RuntimeError(f"{label}: answer differs between operations on {ref_key}")
            return None
        expected = None if ref_key is None else self.reference.get(ref_key)
        if ref_key is not None and expected is None:
            problem = f"no reference answer under {ref_key!r}"
        else:
            problem = check(got, expected)
        return ["wrong", "", problem] if problem else None
