"""A fixed pure-Python reference workload that measures host speed.

The benchmark's host shares its cores with other tenants, whose load
changes how fast the same code runs by up to 2x over minutes.  This
module runs a small, frozen fluid-flow simulation (a heap of events,
flows sharing links by progressive filling, slotted objects, dicts,
floats) whose mix of work resembles the simulator's.  Timing it next to
the simulator, and in short pauses inside a timed call
(:class:`HostSampler`), gives the host's current speed; scaling
simulator time by it cancels drift that both see.

:func:`chunk` and ``REFERENCE_CHUNK_S`` must never change: any change
rescales every normalized time the benchmark has reported.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import Dict, List, Tuple

#: Seconds one :func:`chunk` takes on the reference host (a quiet
#: 2.1 GHz core).  Normalized times are host seconds on that host.
REFERENCE_CHUNK_S = 0.022
FLOWS = 28


class _Flow:
    __slots__ = ("fid", "links", "left", "rate")

    def __init__(self, fid: int, links: Tuple[int, ...], size: float) -> None:
        self.fid = fid
        self.links = links
        self.left = size
        self.rate = 0.0


def _fill(flows: List[_Flow], capacity: Dict[int, float]) -> None:
    """Max-min fair rates by progressive filling."""
    remaining = dict(capacity)
    active = sorted(flows, key=lambda flow: flow.fid)
    for flow in active:
        flow.rate = 0.0
    while active:
        members: Dict[int, int] = {}
        for flow in active:
            for link in flow.links:
                members[link] = members.get(link, 0) + 1
        link, count = min(members.items(),
                          key=lambda item: remaining[item[0]] / item[1])
        share = remaining[link] / count
        for flow in active:
            flow.rate += share
            for other in flow.links:
                remaining[other] -= share
        active = [flow for flow in active if link not in flow.links]


def chunk() -> float:
    """One fixed unit of reference work; returns a checksum."""
    capacity = {link: 10.0 + link % 5 for link in range(24)}
    events: List[Tuple[float, int, _Flow]] = []
    active: List[_Flow] = []
    now = 0.0
    for fid in range(FLOWS):
        links = tuple(sorted({fid % 24, (fid * 7 + 3) % 24, (fid * 5) % 24}))
        flow = _Flow(fid, links, 1.0 + fid % 9)
        heapq.heappush(events, (fid * 0.05, fid, flow))
    checksum = 0.0
    while events:
        at, _, flow = heapq.heappop(events)
        for other in active:
            other.left -= other.rate * (at - now)
        now = at
        if flow.left > 0 and flow not in active:
            active.append(flow)
        active = [other for other in active if other.left > 1e-9]
        _fill(active, capacity)
        if active:
            nxt = min(active, key=lambda other: other.left / other.rate)
            heapq.heappush(events, (now + nxt.left / nxt.rate, -nxt.fid, nxt))
        checksum += now
    return checksum


def time_chunk() -> float:
    """Seconds one :func:`chunk` takes now.

    The cyclic collector is off meanwhile, so a chunk never pays for
    garbage the simulator left: it measures host speed only.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        chunk()
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSampler:
    """Times a chunk after every ``interval`` seconds of the block.

    A context manager around a timed call: ``SIGALRM`` pauses the call
    between two bytecodes, one chunk runs and is timed, and the call
    resumes, so host speed is sampled all through a long call instead
    of only around it.  The timer is re-armed only once a chunk ends, so
    chunks never nest and the call always runs ``interval`` seconds
    between two of them.  ``times`` holds the chunk durations, which the
    caller subtracts from the call's time.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.times: List[float] = []
        self._active = False

    def _sample(self, signum, frame) -> None:
        if self._active:  # a signal still pending after __exit__ is dropped
            self.times.append(time_chunk())
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
