"""The cluster trace: every job's activity on one shared timeline.

Where :func:`~repro.trace.recorder.build_trace` assembles one run's
trace from one executor's result, :func:`build_cluster_trace` assembles
a *service* trace: rank-lane spans from every job's collected timeline
(already mapped to global ranks and prefixed ``job_id:`` by the
service), flow and collective spans from the one shared
:class:`~repro.trace.recorder.TraceRecorder`, and link accounts plus
utilization counter tracks from the shared ledgers
(:func:`~repro.trace.recorder.recorded_trace`) — which, because the
ledgers are shared, show *cross-job* contention directly.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hardware.cluster import Cluster
from ..trace.model import CounterTrack, Trace
from ..trace.recorder import (
    DEFAULT_COUNTER_SAMPLES,
    TraceRecorder,
    recorded_trace,
)
from .jobs import JobStore


def build_cluster_trace(cluster: Cluster, store: JobStore,
                        recorder: TraceRecorder, total_time: float, *,
                        meta: Optional[Dict[str, object]] = None,
                        counter_samples: int = DEFAULT_COUNTER_SAMPLES
                        ) -> Trace:
    """Assemble the shared-machine :class:`Trace` for a cluster run."""
    trace = recorded_trace(cluster, recorder, total_time, meta=meta,
                           counter_samples=counter_samples)
    trace.meta.setdefault("jobs", len(store.records))
    for record in store.records:  # submission order: deterministic
        trace.spans.extend(record.spans)
    for rank in range(cluster.num_gpus):
        trace.counters.append(CounterTrack(
            name=f"rank{rank}:device_mem",
            unit="bytes",
            start=0.0,
            period=total_time if total_time > 0 else 1.0,
            values=(cluster.gpu(rank).memory.used_bytes,),
        ))
    return trace
