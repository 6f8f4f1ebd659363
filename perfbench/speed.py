"""Machine-speed samples, so that timings taken on a host whose speed drifts
can be compared.

The reference machine is a shared VM whose speed changes by up to 2x within
seconds (perfbench/README.md).  So while a timed piece of work runs, a
`Sampler` interrupts it every `TICK_S` seconds (SIGALRM) and times `probe()`,
a fixed kernel of the same kind as k3lab's hot loop: a sparse product of two
dicts with tuple keys and Fraction values.  The work's *reference time* is
its own time (probes excluded) times the mean of `PROBE_REF_S / probe time`
over the probes taken during it (`Sampler.speed` adds those within
`WINDOW_S` of it): the seconds it would have taken had the machine run the
probe in `PROBE_REF_S` throughout.  The probe is the benchmark's own code
and never calls k3lab, so a change to the program moves the reference time,
while a change of machine speed moves the probe too and mostly cancels.

Run a program under a sampler in a fresh interpreter:

    python3 perfbench/speed.py PROBES.json -m k3lab verify --suite all
    python3 perfbench/speed.py PROBES.json -c CODE

as ``python3 -m ...`` or ``python3 -c ...`` would, then write the probe
times to PROBES.json and exit with the program's exit code.
"""

from __future__ import annotations

import bisect
import json
import random
import runpy
import signal
import sys
import time
from fractions import Fraction
from operator import add

TICK_S = 0.25
WINDOW_S = 2 * TICK_S     # speed() also counts probes this close to the work
PROBE_REF_S = 0.008       # about the probe's median time on the reference machine
PROBE_TERMS = 32


def _operand(rng: random.Random) -> dict:
    return {tuple(rng.randint(0, 6) for _ in range(6)):
            Fraction(rng.randint(1, 10**12), rng.randint(1, 10**6))
            for _ in range(PROBE_TERMS)}


_rng = random.Random(20170213)
_A, _B = _operand(_rng), _operand(_rng)


def probe() -> dict:
    """The fixed kernel: the same work on every call."""
    out: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class Sampler:
    """While active (``with sampler:``), times `probe()` on entry, every
    `TICK_S` s of wall time and on exit, so that short work gets two.  `at`
    and `took` are each probe's start and duration; `spent` is their sum,
    to be taken out of the work's own time."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._probing = False

    def _tick(self, signum, frame) -> None:
        if self._probing:  # a tick while the probe runs is dropped
            return
        self._probing = True
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took
        self._probing = False

    def __enter__(self) -> "Sampler":
        self._tick(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(signal.SIGALRM, None)

    def speed(self, start: float, end: float) -> float:
        """Mean of `PROBE_REF_S / probe time` over the probes that started
        within `WINDOW_S` of [start, end], or of the probe that started
        nearest to it if none did.  Work shorter than a tick, such as one
        family query, so takes the mean of about four probes."""
        start, end = start - WINDOW_S, end + WINDOW_S
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if lo == hi:
            if not self.at:
                raise ValueError("no probe was taken")
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            if lo + 1 < len(self.at) and self.at[lo + 1] - end < start - self.at[lo]:
                lo += 1
            hi = lo + 1
        return mean_speed(self.took[lo:hi])


class Unsampled:
    """Stands in for a `Sampler` outside the timed loop, as in a warm-up
    pass: the reference time is then the wall time."""

    spent = 0.0

    def speed(self, start: float, end: float) -> float:
        return 1.0


def mean_speed(took) -> float:
    """Mean of `PROBE_REF_S / t` over the probe times `took`."""
    return sum(PROBE_REF_S / t for t in took) / len(took)


def reference_s(wall_s: float, spent_s: float, speed: float) -> float:
    """Reference seconds of work that took `wall_s`, of which `spent_s` were
    probes, at the mean `speed` the probes showed."""
    return (wall_s - spent_s) * speed


def main(argv) -> int:
    out, how, target, *args = argv
    if how not in ("-m", "-c"):
        raise SystemExit(f"speed.py: expected -m or -c, got {how}")
    sampler = Sampler()
    code = 0
    try:
        with sampler:
            if how == "-m":
                sys.argv = [target, *args]
                runpy.run_module(target, run_name="__main__", alter_sys=True)
            else:
                sys.argv = ["-c", *args]
                exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w") as f:
            json.dump({"took": sampler.took}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
