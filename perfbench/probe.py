"""Host-speed probe: rescales iteration times to a nominal host speed.

The benchmark shares a few cores of a busy host, and the host's speed drifts
by tens of percent over seconds to minutes; process CPU time drifts with it,
so neither wall nor CPU time of one run is comparable with another's.  While
an iteration runs, :class:`HostProbe` times a fixed piece of work from a
``SIGALRM`` handler every ``INTERVAL_S``: scipy's adaptive Runge-Kutta
solver on a two-variable ODE, which like frgelab runs many small numpy
calls from a Python loop spread over much interpreter and library code.
Of the probes tried, it tracked frgelab's slow-downs best; a probe confined
to a few hot calls tracks them worse.  A probe lasts about 2 ms, long
enough that the cache misses of its first calls after an interruption do
not dominate it.  The mean probe duration over the iteration measures how
fast the host ran meanwhile, so

    normalized = (measured - probe time) * REF_PROBE_S / mean probe duration

is the iteration's time on a host running the probe in ``REF_PROBE_S``: the
probe's median duration on the reference host, a 2-vCPU Xeon VM.  The
handler runs between bytecodes of the main thread, so a long native call
delays a probe but is never interrupted by one.
"""

from __future__ import annotations

import signal
import time

from scipy.integrate import solve_ivp

INTERVAL_S = 0.08
REF_PROBE_S = 1.8e-3


def _decay(t, y):
    return -y * (1.0 + 0.1 * y * y)


def probe_work() -> float:
    """The fixed work one probe times: an adaptive Runge-Kutta solve."""
    sol = solve_ivp(_decay, (0.0, 3.0), [1.0, 0.5], rtol=1e-7, atol=1e-9)
    return float(sol.y[0, -1])


class HostProbe:
    """Times ``probe_work`` once at ``start``, then every ``INTERVAL_S``
    until ``stop``.

    The probe at ``start`` runs before the caller starts its clock, so even
    an iteration shorter than ``INTERVAL_S`` has a sample; only the probes
    after it fall inside the timed region.
    """

    def __init__(self):
        self.durations: list[float] = []
        self._previous = None

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t0)

    def _handler(self, signum, frame):
        self._probe()

    def start(self) -> None:
        self.durations = []
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """REF_PROBE_S over the mean duration of the probes since ``start``."""
        return REF_PROBE_S * len(self.durations) / sum(self.durations)

    def total_s(self) -> float:
        """Time the probes took inside the timed region."""
        return sum(self.durations[1:])
