"""Host-speed reference for the benchmark's reported times.

Host speed on a shared VM swings by up to 1.6x within seconds to minutes,
because other tenants share the cores, and CPU time swings with it.  So a
fixed pure-Python reference loop, independent of synsim, is timed right
before and right after each measured call, on as many cores as the call
uses, and each reported time is scaled to a host on which the loop takes
CAL_REF_S:

    reported = raw * speed,   speed = CAL_REF_S / mean(loop s before, loop s after)

Changing the loop or CAL_REF_S redefines every reported time.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
import statistics
import time

CAL_ARRIVALS = 150_000
CAL_REF_S = 0.25


class _LossSystem:
    __slots__ = ("heap", "busy", "area", "clock", "counts")

    def __init__(self):
        self.heap, self.busy, self.area, self.clock = [], 0, 0.0, 0.0
        self.counts = {"arrivals": 0, "blocked": 0}

    def advance(self, t):
        if t > self.clock:
            self.area += (t - self.clock) * self.busy
        self.clock = t

    def arrive(self, t, rng, m):
        self.counts["arrivals"] += 1
        if self.busy >= m:
            self.counts["blocked"] += 1
        else:
            self.busy += 1
            heapq.heappush(self.heap, t + rng.expovariate(1.0))


def loop_seconds() -> float:
    """Host seconds for a fixed M/M/10/10 loss-system loop (stdlib only)."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    q = _LossSystem()
    t = 0.0
    for _ in range(CAL_ARRIVALS):
        t += rng.expovariate(5.0)
        while q.heap and q.heap[0] <= t:
            q.advance(heapq.heappop(q.heap))
            q.busy -= 1
        q.advance(t)
        q.arrive(t, rng, 10)
    return time.perf_counter() - t0


def speed(before_s: float, after_s: float) -> float:
    return 2 * CAL_REF_S / (before_s + after_s)


def _serve(conn, parent_end) -> None:
    parent_end.close()  # so the helper sees EOF if the benchmark dies
    try:
        while conn.recv():
            conn.send(loop_seconds())
    except EOFError:
        pass


class HostSpeed:
    """Times the loop on `cores` cores at once: this process plus helpers.

    The helpers are forked processes driven over pipes, so the benchmark
    process holds no extra threads when the program forks its own pool.
    They are forked, not spawned: spawning would start multiprocessing's
    resource tracker, a process that outlives the benchmark.
    """

    def __init__(self, cores: int):
        self.cores = cores
        self._helpers: list = []

    def __enter__(self) -> HostSpeed:
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.cores - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(theirs, ours), daemon=True)
            proc.start()
            theirs.close()
            self._helpers.append((proc, ours))
        if self._helpers:
            self.loop_seconds()  # wait until every helper is up
        return self

    def loop_seconds(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [loop_seconds()] + [conn.recv() for _, conn in self._helpers]
        return statistics.fmean(times)

    def __exit__(self, *exc) -> None:
        for proc, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass  # the helper is already gone
            conn.close()
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers.clear()
