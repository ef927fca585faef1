"""Machine-speed gauge: short ticks of fixed work timed inside each process.

The benchmark's host is a shared 2-vCPU VM.  Each vCPU changes speed by up
to 1.8x, on its own, in phases that last from half a second to minutes, so
raw wall times of the same code spread by 15-40% from run to run.  The
gauge takes that out:

* ``run.py`` pins itself and every child to one CPU, so the gauge and the
  measured code always share one vCPU's speed.
* Every timed process runs a ``Sampler`` thread that, every INTERVAL_S,
  times one ``tick`` (about 2 ms of exact Gaussian elimination, the kind
  of work wadm spends its time on) while it holds the GIL.  The
  domains_warm worker ticks between its ops instead (``Ticker``).
* ``scaled`` turns a wall time into the time at the speed where a tick
  takes REF_TICK_S: it drops the ticks' own time and multiplies the rest by
  REF_TICK_S times the mean tick speed (1 / tick time) over the interval.

A speed phase slows the ticks and the measured code alike and cancels; a
change to wadm moves only the measured code.  The tick imports nothing
from wadm.  On the machine the bounds were set on, scaling cut the spread
of one check's time over 28-s windows from 4-5% to 1%.
"""

from __future__ import annotations

import json
import random
import statistics
import threading
import time
from fractions import Fraction

# A tick's time on a 2-vCPU x86-64 VM (Python 3.11) in its slow phase.  Any
# constant would do; this one keeps scaled times close to that machine's
# usual wall times.
REF_TICK_S = 0.0025
INTERVAL_S = 0.05

_rng = random.Random(3)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(6)] for _ in range(6)]


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def tick() -> float:
    """Wall seconds of one tick of the gauge's work."""
    t0 = time.perf_counter()
    _rank(_MATRIX)
    _rank(_MATRIX)
    return time.perf_counter() - t0


def scaled(wall: float, ticks) -> float:
    """``wall`` without the ticks' own time, at the gauge's nominal speed."""
    return (wall - sum(ticks)) * REF_TICK_S * statistics.fmean(1 / t for t in ticks)


class Sampler:
    """A daemon thread that ticks once at start, then every INTERVAL_S."""

    def __init__(self):
        self.ticks = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        self.ticks.append(tick())
        while not self._stop.wait(INTERVAL_S):
            self.ticks.append(tick())

    def stop(self) -> list:
        self._stop.set()
        self._thread.join()
        return self.ticks

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.stop(), fh)


class Ticker:
    """Inline ticks for a loop of short timed ops: ``maybe(i)`` ticks before
    op i once INTERVAL_S has passed since the last tick, and ``close(n)``
    ticks after the last of n ops."""

    def __init__(self):
        self.at = [0]
        self.ticks = [tick()]
        self._next = time.perf_counter() + INTERVAL_S

    def maybe(self, i: int) -> None:
        if time.perf_counter() >= self._next:
            self.at.append(i)
            self.ticks.append(tick())
            self._next = time.perf_counter() + INTERVAL_S

    def close(self, n: int) -> None:
        self.at.append(n)
        self.ticks.append(tick())


def factors(n: int, at, ticks) -> list:
    """Per-op scale factors from a ``Ticker``'s record: op i, which ran
    between the ticks at positions at[k] <= i < at[k+1], gets REF_TICK_S
    times the mean speed of those two ticks."""
    out = []
    for k in range(len(at) - 1):
        f = REF_TICK_S * (1 / ticks[k] + 1 / ticks[k + 1]) / 2
        out += [f] * (at[k + 1] - at[k])
    if len(out) != n:
        raise ValueError(f"ticks cover {len(out)} ops, not {n}")
    return out
