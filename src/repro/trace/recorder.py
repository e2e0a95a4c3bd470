"""Opt-in live recorder plus the post-run trace builder.

:class:`TraceRecorder` is the only live instrumentation tracing adds.
It is deliberately inert: every hook appends to a Python list and never
touches the engine (no events, no timeouts, no ``note_touch``), so an
attached recorder cannot perturb the schedule — the tracing-invariance
test pins this with the perturbation differ.  An untraced run has no
recorder among the flow network's observers and no collective sink, so
no hook is called at all — the zero-cost-when-disabled guarantee.

Everything else a trace holds is *derived after the run ends* by
:func:`build_trace` (the serving and cluster builders share its
:func:`recorded_trace` core): rank-lane spans come from the executor's
timeline, fault windows from the injector's materialized plan, link accounts and
counter tracks from the bandwidth ledgers (sampled on a
:data:`DEFAULT_COUNTER_SAMPLES`-bin grid), and per-rank memory from the
pools.  Post-run derivation keeps the recording surface minimal and
guarantees the accounts reconcile with the ledgers by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple

from .model import (
    CollectiveSpan,
    CounterTrack,
    FaultSpan,
    FlowSpan,
    LinkAccount,
    Trace,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.cluster import Cluster
    from ..runtime.executor import ExecutionResult
    from ..sim.flows import Flow

#: Bins in each per-link utilization counter track.
DEFAULT_COUNTER_SAMPLES = 200


class CollectiveSink(Protocol):
    """Receives collective phases: a recorder, or a facade over one."""

    def collective_phase(self, comm: str, group_index: int, kind: str,
                         payload_bytes: float, launch_count: int,
                         ranks: Tuple[int, ...], start: float,
                         end: float) -> None: ...


class TraceRecorder:
    """Collects flow and collective phases as they happen.

    :class:`~repro.sim.instruments.Instruments` makes one for traced
    runs and attaches it as a flow observer of the network and as the
    collective sink of the executor or serving scheduler.  All methods
    are append-only.
    """

    def __init__(self) -> None:
        self.flows: List[FlowSpan] = []
        self.collectives: List[CollectiveSpan] = []
        self._open_flows: Dict[int, "Flow"] = {}

    # -- flow network hooks ----------------------------------------------------
    def flow_started(self, flow: "Flow") -> None:
        self._open_flows[flow.id] = flow

    def flow_finished(self, flow: "Flow", now: float) -> None:
        self._open_flows.pop(flow.id, None)
        self.flows.append(self._span_of(flow, now, completed=True))

    # -- executor hook ---------------------------------------------------------
    def collective_phase(self, comm: str, group_index: int, kind: str,
                         payload_bytes: float, launch_count: int,
                         ranks: Tuple[int, ...], start: float,
                         end: float) -> None:
        self.collectives.append(CollectiveSpan(
            comm=comm,
            group_index=group_index,
            kind=kind,
            payload_bytes=payload_bytes,
            launch_count=launch_count,
            ranks=ranks,
            start=start,
            end=end,
        ))

    def open_flow_ids(self) -> List[int]:
        """IDs of spans opened but not yet closed or drained.

        Non-empty after the run only if teardown skipped
        :meth:`drain_open_flows` — the trace-span leak the runtime
        sanitizer audits (``RES007``).
        """
        return sorted(self._open_flows)

    # -- finalization ----------------------------------------------------------
    def drain_open_flows(self, end: float) -> None:
        """Close out flows still streaming when the run ended.

        Their spans cover only the bytes that actually moved, and are
        marked ``completed=False``.
        """
        for flow_id in sorted(self._open_flows):
            flow = self._open_flows[flow_id]
            self.flows.append(self._span_of(flow, end, completed=False))
        self._open_flows.clear()

    @staticmethod
    def _span_of(flow: "Flow", end: float, *, completed: bool) -> FlowSpan:
        moved = flow.bytes_total - (0.0 if completed else flow.bytes_remaining)
        return FlowSpan(
            flow_id=flow.id,
            label=flow.label,
            source=flow.route.source,
            destination=flow.route.destination,
            links=tuple(link.name for link in flow.route.links),
            num_bytes=moved,
            start=flow.started_at if flow.started_at is not None else end,
            end=end,
            completed=completed,
        )


def recorded_trace(cluster: "Cluster", recorder: Optional[TraceRecorder],
                   total_time: float, *,
                   meta: Optional[Dict[str, object]] = None,
                   counter_samples: int = DEFAULT_COUNTER_SAMPLES) -> Trace:
    """The part of a :class:`Trace` every kind of run shares.

    ``meta`` plus ``total_time``, the recorder's flow and collective
    spans (flows still streaming are drained at ``total_time``), and an
    account and a bytes/s counter track for every link that carried
    traffic.  The training, serving and cluster builders add their own
    spans and memory tracks.
    """
    trace = Trace(meta=dict(meta or {}))
    trace.meta.setdefault("total_time", total_time)
    if recorder is not None:
        recorder.drain_open_flows(total_time)
        trace.flows = list(recorder.flows)
        trace.collectives = list(recorder.collectives)
    for link in cluster.topology.links:
        ledger = link.ledger
        if len(ledger) == 0:
            continue
        trace.links.append(LinkAccount(
            name=link.name,
            link_class=str(link.link_class),
            total_bytes=ledger.total_bytes,
            record_count=len(ledger),
            degraded=tuple(ledger.degraded_intervals()),
        ))
        if total_time > 0 and counter_samples > 0:
            trace.counters.append(CounterTrack(
                name=f"link:{link.name}",
                unit="bytes/s",
                start=0.0,
                period=total_time / counter_samples,
                values=tuple(ledger.sample(0.0, total_time,
                                           counter_samples)),
            ))
    return trace


def build_trace(cluster: "Cluster", result: "ExecutionResult",
                recorder: Optional[TraceRecorder] = None, *,
                meta: Optional[Dict[str, object]] = None,
                counter_samples: int = DEFAULT_COUNTER_SAMPLES) -> Trace:
    """Assemble the full :class:`Trace` for one finished run.

    Call this *after* all ledger charges are in (in particular after
    :func:`repro.core.runner._record_host_background`), so the link
    accounts equal the final ledger state exactly.
    """
    duration = result.total_time
    trace = recorded_trace(cluster, recorder, duration, meta=meta,
                           counter_samples=counter_samples)
    trace.meta.setdefault("iterations", len(result.iteration_times))
    trace.spans = list(result.timeline.spans)
    trace.faults = [
        FaultSpan(
            kind=str(event.kind),
            target=event.target,
            magnitude=event.magnitude,
            start=event.start,
            end=event.end,
        )
        for event in result.fault_events
    ]
    for rank in range(cluster.num_gpus):
        gpu = cluster.gpu(rank)
        dram = cluster.dram_for_rank(rank)
        trace.counters.append(CounterTrack(
            name=f"rank{rank}:device_mem",
            unit="bytes",
            start=0.0,
            period=duration if duration > 0 else 1.0,
            values=(gpu.memory.used_bytes,),
        ))
        trace.counters.append(CounterTrack(
            name=f"rank{rank}:host_mem",
            unit="bytes",
            start=0.0,
            period=duration if duration > 0 else 1.0,
            values=(dram.memory.used_bytes,),
        ))
    return trace
