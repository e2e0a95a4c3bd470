"""Fluid-flow transfer network with weighted max-min fair sharing.

Transfers are *flows*: a byte count streaming over a
:class:`~repro.hardware.topology.Route`.  Concurrent flows share link
capacity by weighted max-min fairness, recomputed whenever a flow starts or
finishes (the standard fluid approximation for congestion-controlled
fabrics such as NVLink, PCIe, and RoCE with PFC).

SerDes contention (Section III-C4 of the paper) enters as a *consumption
weight*: a flow whose route is derated to fraction ``d`` consumes ``1/d``
units of pool capacity per delivered byte, so a contended path attains
``d x`` the link bandwidth whether one flow or many use it — matching the
stress-test observation that four kernels together reach only ~47-52 % of
theoretical.

Every settled interval is recorded into each traversed link's
:class:`~repro.hardware.link.BandwidthLedger`, which is where the paper's
Table IV statistics and Figs. 9/10/12 time-series come from.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Protocol, Set, Tuple

from ..errors import SimulationError
from ..units import Bytes, BytesPerSecond
from ..hardware.link import Link
from ..hardware.topology import PoolKey, Route
from ..hardware.serdes import TrafficProfile
from .engine import BaseEvent, BatchHandler, Engine, SimEvent


class Flow:
    """One in-flight transfer."""

    _ids = itertools.count()

    def __init__(self, route: Route, num_bytes: Bytes, *,
                 profile: TrafficProfile, cap: Optional[BytesPerSecond],
                 label: str = "", weight_multiplier: float = 1.0) -> None:
        if weight_multiplier < 1.0:
            raise SimulationError("weight_multiplier must be >= 1")
        self.id = next(Flow._ids)
        self.route = route
        self.label = label
        self.profile = profile
        self.bytes_total = float(num_bytes)
        self.bytes_remaining = float(num_bytes)
        self._user_cap = cap
        self.weight_multiplier = weight_multiplier
        self.weight = 1.0
        self.cap = float("inf")
        self.rate = 0.0
        self.completion: Optional[SimEvent] = None
        self.started_at: Optional[float] = None
        #: :attr:`Link.capacity_epoch` that ``weight``/``cap`` were
        #: derived at; -1 forces the first derivation
        self._epoch = -1
        self.refresh_capacity()

    #: residues below this are floating-point dust, not real payload
    EPSILON_BYTES = 1e-3

    @property
    def done(self) -> bool:
        return self.bytes_remaining <= self.EPSILON_BYTES

    def refresh_capacity(self) -> None:
        """Recompute ``weight`` and ``cap`` from the route's current state.

        Link capacities are time-varying under fault injection, so the
        allocator calls this on every rate allocation.  Both values
        depend only on link capacities, which change only through
        :meth:`Link.set_capacity_fraction`/:meth:`Link.reset_capacity`;
        those bump :attr:`Link.capacity_epoch`, so the call returns at
        once while the epoch is the one the values were derived at:

        * ``weight`` — extra pool capacity consumed per delivered byte
          (>= 1).  ``weight_multiplier`` models protocol inefficiency
          (e.g. NCCL's proxy path over RoCE): the aggregate attainable
          rate over a pool scales down by the multiplier no matter how
          many flows pile on.
        * ``cap`` — hard per-flow rate ceiling: the derated route
          bandwidth, further clamped by any caller-supplied cap (e.g.
          NVMe media bandwidth).  A fully-down link on the route pins the
          cap to zero; the flow stalls until the link is restored.
        """
        epoch = Link.capacity_epoch
        if self._epoch == epoch:
            return
        self._epoch = epoch
        if not self.route.links:
            self.weight = 1.0
            self.cap = (
                float("inf") if self._user_cap is None else self._user_cap
            )
            return
        derate = self.route.bandwidth(self.profile)
        if derate <= 0.0:
            self.weight = self.weight_multiplier
            self.cap = 0.0
            return
        bottleneck = min(
            link.capacity_per_direction for link in self.route.links
        )
        self.weight = bottleneck / derate * self.weight_multiplier
        self.cap = (
            derate if self._user_cap is None else min(derate, self._user_cap)
        )


class FlowObserver(Protocol):
    """What :class:`FlowNetwork` tells its observers about flows."""

    def flow_started(self, flow: Flow) -> None: ...

    def flow_finished(self, flow: Flow, now: float) -> None: ...


class FlowNetwork:
    """Shares link capacity among active flows and completes them in order."""

    def __init__(self, engine: Engine, *,
                 observers: Tuple[FlowObserver, ...] = ()) -> None:
        self.engine = engine
        self._active: Set[Flow] = set()
        #: ``_active`` sorted by id; None after an add until re-sorted
        self._ordered: Optional[List[Flow]] = []
        self._generation = 0
        self._last_update = engine.now
        self.completed_flows = 0
        self.total_bytes_moved = 0.0
        #: flow observers (the trace recorder, the leak sanitizer), told
        #: of every flow start and finish in order.  Their hooks only
        #: append to Python containers and never schedule events or
        #: touch engine state, so an attached observer cannot perturb
        #: the simulated schedule; with none attached no per-flow call
        #: is made.
        self.observers = observers
        #: Batchable activation: a collective launching N flows at one
        #: instant folds into a single settle + N adds + one reallocate,
        #: replacing N full water-filling rounds (see
        #: :class:`~repro.sim.engine.BatchHandler`).
        self._activate = BatchHandler(self._activate_one,
                                      self._activate_batch)

    # -- public API -------------------------------------------------------------
    def transfer(self, route: Route, num_bytes: Bytes, *,
                 profile: TrafficProfile = TrafficProfile.BURSTY,
                 cap: Optional[BytesPerSecond] = None,
                 label: str = "",
                 weight_multiplier: float = 1.0) -> BaseEvent:
        """Start a transfer; returns an event fired at completion.

        The flow begins streaming after the route's end-to-end latency.
        Zero-byte or loopback transfers complete after just the latency.
        """
        event = self.engine.event()
        if num_bytes <= 0 or route.is_loopback:
            delay = 0.0 if route.is_loopback else route.latency()
            self.engine.schedule_at(self.engine.now + delay, event.succeed, None)
            return event
        flow = Flow(route, num_bytes, profile=profile, cap=cap, label=label,
                    weight_multiplier=weight_multiplier)
        flow.completion = event
        self.engine.schedule_at(
            self.engine.now + route.latency(), self._activate, flow
        )
        return event

    @property
    def active_count(self) -> int:
        return len(self._active)

    def settle(self) -> None:
        """Account in-flight transfers up to the current simulated time.

        Ledger records are normally written when flows start or finish;
        open-ended measurements (the stress tests run flows that outlive
        the measurement window) call this before reading the ledgers.
        """
        self._settle()

    def rebalance(self) -> None:
        """Recompute fair-share rates after an external capacity change.

        The fault injector calls :meth:`settle` *before* degrading or
        restoring link capacity (so in-flight intervals are accounted at
        the rates that actually applied) and this afterwards, so every
        active flow's rate reflects the new capacities from this instant.
        """
        self._settle()
        self._reallocate()

    def _ordered_active(self) -> List[Flow]:
        """Active flows in creation order.

        ``_active`` is a set of objects whose iteration order follows
        memory addresses; every float accumulation over the flows must
        instead use this deterministic order, or repeated runs of the
        same configuration drift in the last ulp.  The sorted list is
        cached until the next add; callers must not mutate it.
        """
        ordered = self._ordered
        if ordered is None:
            ordered = sorted(self._active, key=lambda flow: flow.id)
            self._ordered = ordered
        return ordered

    # -- internals -----------------------------------------------------------------
    def _activate_one(self, flow: Flow) -> None:
        flow.started_at = self.engine.now
        for observer in self.observers:
            observer.flow_started(flow)
        self.engine.note_touch("flows:allocator")
        self._settle()
        self._active.add(flow)
        self._ordered = None
        self._reallocate()

    def _activate_batch(self, batch: List[Tuple[Flow]]) -> None:
        """Activate a same-timestamp run of flows with one allocation.

        Equivalent to :meth:`_activate_one` per flow in order: between
        same-timestamp activations no simulated time elapses, so the
        intermediate ``_settle`` calls account nothing and the
        intermediate rate allocations never apply (their completion
        checks are superseded by ``_generation``).  Only the final
        allocation over the full flow set has observable effect — which
        is exactly what this computes once.
        """
        self.engine.note_touch("flows:allocator")
        self._settle()
        for (flow,) in batch:
            flow.started_at = self.engine.now
            for observer in self.observers:
                observer.flow_started(flow)
            self._active.add(flow)
        self._ordered = None
        self._reallocate()

    def _settle(self) -> None:
        """Account bytes moved since the last change at the current rates."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            start = now - elapsed
            engine = self.engine
            for flow in self._ordered_active():
                moved = min(flow.rate * elapsed, flow.bytes_remaining)
                if moved > 0:
                    if engine.sanitizer is not None:
                        for link in flow.route.links:
                            engine.note_touch(f"ledger:{link.name}")
                    # Absorb floating-point dust: crediting rate x elapsed
                    # can undershoot the true remainder by ~1 ulp, which
                    # would otherwise strand a nanobyte whose completion
                    # time rounds to zero clock advance.
                    if flow.bytes_remaining - moved <= Flow.EPSILON_BYTES:
                        moved = flow.bytes_remaining
                    flow.bytes_remaining -= moved
                    self.total_bytes_moved += moved
                    flow.route.record(start, now, moved)
        self._last_update = now

    def _reallocate(self) -> None:
        """Weighted max-min fair rates, then schedule the next completion."""
        self.engine.note_touch("flows:allocator")
        self._generation += 1
        ordered = self._ordered_active()
        finished = [flow for flow in ordered if flow.done]
        if finished:
            self._ordered = [flow for flow in ordered if not flow.done]
        for flow in finished:
            self._active.discard(flow)
            self.completed_flows += 1
            for observer in self.observers:
                observer.flow_finished(flow, self.engine.now)
            assert flow.completion is not None
            flow.completion.succeed(None)
        if not self._active:
            return
        self._compute_rates()
        self._schedule_next_completion()

    def _compute_rates(self) -> None:
        ordered = self._ordered_active()
        pools: Dict[PoolKey, float] = {}
        pool_members: Dict[PoolKey, List[Flow]] = {}
        for flow in ordered:
            # Link capacities may have changed since the last allocation
            # (fault injection); re-derive the flow's ceiling and weight
            # if so.
            flow.refresh_capacity()
            flow.rate = 0.0
            for key in flow.route.pool_keys:
                members = pool_members.get(key)
                if members is None:
                    pools[key] = key[0].capacity_per_direction
                    pool_members[key] = [flow]
                else:
                    members.append(flow)
        unfrozen = set(ordered)
        guard = len(self._active) + len(pools) + 4
        # Pools that may still have unfrozen members; once a pool's
        # members are all frozen it stays out of every later round.
        live = list(pools)
        while unfrozen and guard > 0:
            guard -= 1
            delta = min(
                (flow.cap - flow.rate for flow in unfrozen),
                default=float("inf"),
            )
            limiting_pools: List[PoolKey] = []
            weight_sums: List[Tuple[PoolKey, float]] = []
            for key in live:
                weights = [f.weight for f in pool_members[key]
                           if f in unfrozen]
                if not weights:
                    continue
                weight_sum = sum(weights)
                weight_sums.append((key, weight_sum))
                share = pools[key] / weight_sum
                if share < delta - 1e-15:
                    delta = share
                    limiting_pools = [key]
                elif abs(share - delta) <= 1e-15:
                    limiting_pools.append(key)
            live = [key for key, _ in weight_sums]
            if delta == float("inf"):
                break
            delta = max(delta, 0.0)
            for flow in unfrozen:
                flow.rate += delta
            for key, weight_sum in weight_sums:
                pools[key] -= delta * weight_sum
            newly_frozen = {
                flow for flow in unfrozen if flow.rate >= flow.cap - 1e-9
            }
            for key in limiting_pools:
                newly_frozen.update(
                    f for f in pool_members[key] if f in unfrozen
                )
            if not newly_frozen:
                break
            unfrozen -= newly_frozen

    def _schedule_next_completion(self) -> None:
        soonest = float("inf")
        for flow in self._ordered_active():
            if flow.rate > 0:
                soonest = min(soonest, flow.bytes_remaining / flow.rate)
        if soonest == float("inf"):
            if any(flow.cap <= 0.0 for flow in self._active):
                # Every runnable flow is stalled behind a fully-down link.
                # No completion can be scheduled; the fault injector's
                # restore callback will rebalance and resume them.  If no
                # restore is pending the engine drains and the liveness
                # diagnostics name the stalled processes.
                return
            raise SimulationError(
                "active flows exist but none has a positive rate"
            )
        # Guarantee measurable clock advance even for residual payloads.
        soonest = max(soonest, 1e-12)
        generation = self._generation
        self.engine.schedule_at(
            self.engine.now + soonest, self._on_completion_check, generation
        )

    def _on_completion_check(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a newer allocation epoch
        self._settle()
        self._reallocate()
