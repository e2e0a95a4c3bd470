"""Job specs, lifecycle states, and the per-tenant job store.

A :class:`JobSpec` is pure serializable data (the cluster analog of
:class:`~repro.api.RunSpec` fields); a :class:`JobRecord` is the live
mutable state the scheduler owns — lifecycle transitions, queue waits,
GPU-second accounting, preemption bookkeeping.  The :class:`JobStore`
assigns sequential job ids, aggregates per-tenant accounts, and tracks
the in-system high-water mark (the heavy-traffic acceptance figure).

The state machine::

    PENDING --start--> RUNNING --finish--> COMPLETED
       ^                  | \\--oom/error--> FAILED
       |                  v
       +---requeue--- PREEMPTED

A preempted job re-enters the queue with its completed iterations
retained; the restart cost is charged when it next starts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

from ..api.spec import check_choice, check_number
from ..errors import ConfigurationError
from ..sim.engine import BaseEvent

#: Fidelities a job may request (mirrors :data:`repro.api.spec.FIDELITIES`).
JOB_FIDELITIES = ("full", "hybrid")

#: Workload kinds the shared service schedules (mirrors
#: :data:`repro.api.workload.WORKLOAD_KINDS`, re-declared as data so
#: this module stays import-cycle-free like :mod:`repro.api.spec`).
JOB_WORKLOADS = ("train", "inference")


@dataclass(frozen=True)
class JobSpec:
    """One submitted job, as pure serializable data.

    ``workload`` selects the job body: ``"train"`` runs the executor
    over ``strategy``/``size_billions`` exactly as a
    :class:`~repro.api.RunSpec` would; ``"inference"`` runs the serving
    scheduler (:mod:`repro.inference`) with ``gpus`` as the
    tensor-parallel degree and ``iterations`` as the request count —
    one unit of progress is one completed request, so preemption,
    SJF ordering, and the store's bookkeeping apply uniformly.  The
    ``request_*`` fields shape an inference job's open-loop traffic and
    are ignored for training jobs (they must stay at their defaults so
    train-job cache keys are unaffected).

    ``gpus`` is the allocation size the scheduler must pack (k GPUs on
    one node, or whole nodes).  ``priority`` is the base scheduling
    priority (higher preempts lower); NVMe-offload strategies are
    rejected because per-rank swap volumes are node-exclusive resources
    the shared service does not arbitrate yet.
    """

    name: str
    tenant: str = "default"
    strategy: str = "ddp"
    size_billions: float = 0.7
    gpus: int = 4
    iterations: int = 4
    warmup_iterations: int = 1
    priority: int = 0
    fidelity: str = "full"
    micro_batch_per_gpu: int = 16
    workload: str = "train"
    #: inference traffic shape (requests arrive open-loop after launch)
    request_rate_per_s: float = 2.0
    request_mix: str = "chat"
    request_seed: int = 7
    max_batch_tokens: int = 4096
    max_batch_requests: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("job needs a name")
        if not self.tenant:
            raise ConfigurationError("job needs a tenant")
        check_choice("workload", self.workload, JOB_WORKLOADS)
        if "nvme" in self.strategy:
            raise ConfigurationError(
                f"job {self.name!r}: NVMe-offload strategies are not "
                f"schedulable on the shared cluster service"
            )
        check_number("size_billions", self.size_billions, above=0)
        if self.gpus < 1:
            raise ConfigurationError("gpus must be >= 1")
        if self.workload == "inference":
            if self.iterations < 1:
                raise ConfigurationError(
                    "an inference job needs at least one request"
                )
            check_number("request_rate_per_s", self.request_rate_per_s,
                         above=0)
            if self.max_batch_tokens < 1:
                raise ConfigurationError("max_batch_tokens must be >= 1")
            if self.max_batch_requests < 1:
                raise ConfigurationError("max_batch_requests must be >= 1")
        elif self.iterations <= self.warmup_iterations:
            raise ConfigurationError(
                "need more iterations than warmup iterations"
            )
        check_choice("fidelity", self.fidelity, JOB_FIDELITIES)

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown JobSpec fields {unknown}; known: {sorted(known)}"
            )
        if "name" not in payload:
            raise ConfigurationError("JobSpec payload needs a name")
        return cls(**dict(payload))  # type: ignore[arg-type]

    @property
    def work_units(self) -> float:
        """The SJF ordering key: a size-weighted iteration count."""
        return self.iterations * self.size_billions * self.gpus


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    PREEMPTED = "preempted"
    COMPLETED = "completed"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Legal lifecycle transitions (see the module docstring's machine).
_TRANSITIONS = {
    JobState.PENDING: (JobState.RUNNING,),
    JobState.RUNNING: (JobState.COMPLETED, JobState.FAILED,
                       JobState.PREEMPTED),
    JobState.PREEMPTED: (JobState.RUNNING,),
    JobState.COMPLETED: (),
    JobState.FAILED: (),
}


@dataclass
class JobRecord:
    """The scheduler-owned live state of one submitted job."""

    job_id: str
    spec: JobSpec
    submit_index: int
    submitted_at: float
    state: JobState = JobState.PENDING
    #: when the job last (re-)entered the queue — the aging clock
    queued_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    completed_iterations: int = 0
    preemptions: int = 0
    #: accumulated queue wait over all residencies (first wait + requeues)
    queue_wait_s: float = 0.0
    gpu_seconds: float = 0.0
    checkpoint_overhead_s: float = 0.0
    failure: str = ""
    #: cooperative-preemption flag the job body polls between iterations
    preempt_requested: bool = False
    #: fires when preemption is requested, so a job holding resources in
    #: its analytic fast-path window releases them promptly
    preempt_event: Optional[BaseEvent] = None
    #: memoized per-pool memory demand (filled by the daemon's prober)
    memory_demand: Optional[float] = None
    #: the job's timeline spans mapped to global ranks (cluster trace)
    spans: List[object] = field(default_factory=list)

    def transition(self, new_state: JobState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise ConfigurationError(
                f"job {self.job_id}: illegal transition "
                f"{self.state} -> {new_state}"
            )
        self.state = new_state

    @property
    def remaining_iterations(self) -> int:
        return max(0, self.spec.iterations - self.completed_iterations)

    @property
    def done(self) -> bool:
        return self.state in (JobState.COMPLETED, JobState.FAILED)


@dataclass
class TenantAccount:
    """Aggregated accounting for one tenant."""

    tenant: str
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    preemptions: int = 0
    gpu_seconds: float = 0.0
    checkpoint_overhead_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "preemptions": self.preemptions,
            "gpu_seconds": round(self.gpu_seconds, 9),
            "checkpoint_overhead_s": round(self.checkpoint_overhead_s, 9),
        }


class JobStore:
    """All jobs the service has seen, with deterministic identity.

    Job ids are dense (``job0``, ``job1``, ...) in submission order;
    submission order is the DES arrival order, which is itself seeded,
    so the whole store enumerates identically across runs.
    """

    def __init__(self) -> None:
        self.records: List[JobRecord] = []
        self.tenants: Dict[str, TenantAccount] = {}
        self._running = 0
        self.max_concurrent = 0
        #: high-water mark of jobs in the system (submitted, not done) —
        #: the heavy-traffic acceptance figure (queue + running)
        self.max_in_system = 0

    def _note_in_system(self) -> None:
        in_system = sum(1 for record in self.records if not record.done)
        self.max_in_system = max(self.max_in_system, in_system)

    def submit(self, spec: JobSpec, now: float) -> JobRecord:
        record = JobRecord(
            job_id=f"job{len(self.records)}",
            spec=spec,
            submit_index=len(self.records),
            submitted_at=now,
            queued_at=now,
        )
        self.records.append(record)
        account = self.tenants.setdefault(spec.tenant,
                                          TenantAccount(spec.tenant))
        account.jobs_submitted += 1
        self._note_in_system()
        return record

    # -- lifecycle hooks (the daemon calls these) ------------------------------
    def mark_started(self, record: JobRecord, now: float) -> None:
        record.transition(JobState.RUNNING)
        record.queue_wait_s += now - record.queued_at
        if record.started_at is None:
            record.started_at = now
        self._running += 1
        self.max_concurrent = max(self.max_concurrent, self._running)

    def mark_completed(self, record: JobRecord, now: float) -> None:
        record.transition(JobState.COMPLETED)
        record.finished_at = now
        self._running -= 1
        self.tenants[record.spec.tenant].jobs_completed += 1

    def mark_failed(self, record: JobRecord, now: float,
                    reason: str) -> None:
        record.transition(JobState.FAILED)
        record.finished_at = now
        record.failure = reason
        self._running -= 1
        self.tenants[record.spec.tenant].jobs_failed += 1

    def mark_preempted(self, record: JobRecord, now: float) -> None:
        record.transition(JobState.PREEMPTED)
        record.queued_at = now
        record.preemptions += 1
        record.preempt_requested = False
        record.preempt_event = None
        self._running -= 1
        self.tenants[record.spec.tenant].preemptions += 1

    def charge_gpu_seconds(self, record: JobRecord, seconds: float) -> None:
        record.gpu_seconds += seconds
        self.tenants[record.spec.tenant].gpu_seconds += seconds

    def charge_checkpoint(self, record: JobRecord, seconds: float) -> None:
        record.checkpoint_overhead_s += seconds
        self.tenants[record.spec.tenant].checkpoint_overhead_s += seconds

    # -- queries ---------------------------------------------------------------
    def waiting(self) -> List[JobRecord]:
        """Schedulable jobs, in submission order."""
        return [r for r in self.records
                if r.state in (JobState.PENDING, JobState.PREEMPTED)]

    def running(self) -> List[JobRecord]:
        return [r for r in self.records if r.state is JobState.RUNNING]

    def all_done(self) -> bool:
        return all(r.done for r in self.records)

    def counts(self) -> Dict[str, int]:
        out = {state.value: 0 for state in JobState}
        for record in self.records:
            out[record.state.value] += 1
        return out
