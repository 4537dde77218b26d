"""Machine-speed probe for the end-to-end timings.

The benchmark's host is a small virtual machine whose effective speed drifts
by up to a quarter over minutes while other tenants come and go: process CPU
time follows wall time and steal time stays near zero, so no clock removes
the drift.  The probe measures it instead.  A timer interrupts the rows every
``INTERVAL_S`` seconds and times one fixed reference unit, pure Python shaped
like the program's hot loops: a max-plus fixed-point sweep over routes, as in
the cooperative start-time relaxation, and a heap-based shortest-path search
with dict look-ups and a sort.  Dividing a pass's time by the mean unit time
sampled during that pass gives its cost in reference units, which tracks the
program and not the machine.  The unit's code and data are fixed here and
never come from the program under test.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time

INTERVAL_S = 0.2
clock = time.perf_counter


class SpeedProbe:
    """Times the reference unit on a wall-clock timer while installed.

    ``spent`` is the wall time the probe took from the code it interrupted,
    so callers subtract it from their own timings.
    """

    def __init__(self):
        rng = random.Random(11)
        n = 60
        self.t = [[abs(rng.gauss(10.0, 4.0)) for _ in range(n)] for _ in range(n)]
        self.opens = [rng.random() * 200.0 for _ in range(n)]
        self.dur = [rng.random() * 5.0 for _ in range(n)]
        self.routes = [rng.sample(range(1, n), 25) for _ in range(3)]
        self.graph = {u: [(v, rng.random()) for v in rng.sample(range(400), 6)] for u in range(400)}
        self.spent = 0.0
        self._samples: list[float] = []
        self._saved_handler = None

    def _sweep(self) -> int:
        t, dur, opens = self.t, self.dur, self.opens
        s = list(opens)
        rounds = 0
        while rounds < 80:
            rounds += 1
            new_s = list(opens)
            for route in self.routes:
                depart = 0.0
                prev = 0
                for v in route:
                    arr = depart + t[prev][v]
                    if arr > new_s[v]:
                        new_s[v] = arr
                    depart = s[v] + dur[v]
                    prev = v
            if new_s == s:
                break
            s = new_s
        return rounds

    def _shortest_paths(self, src: int) -> float:
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, w in self.graph[u]:
                nd = du + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return sum(sorted(dist.values())[:50])

    def unit(self) -> float:
        """Run the reference unit once (a few ms); returns its wall time."""
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not change the unit's cost
        try:
            t0 = clock()
            for _ in range(5):
                self._sweep()
            for src in range(3):
                self._shortest_paths(src)
            return clock() - t0
        finally:
            if collecting:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        self._samples.append(self.unit())
        self.spent += clock() - t0

    def take(self) -> tuple[float, int]:
        """Mean unit time since the last take, and the sample count."""
        if not self._samples:
            self._samples.append(self.unit())
        samples, self._samples = self._samples, []
        return sum(samples) / len(samples), len(samples)

    def __enter__(self) -> "SpeedProbe":
        self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)
