"""Public facade: the canonical :class:`RunSpec` API.

The one import new code needs for spec-driven simulation::

    from repro.api import RunSpec, run_spec

    metrics = run_spec(RunSpec("zero2", size_billions=1.4))

``RunSpec`` consolidates :func:`repro.core.runner.run_training`'s
keyword sprawl into one frozen, JSON-round-trippable value with a
documented stable :meth:`~repro.api.spec.RunSpec.cache_key` — the hash
the campaign result cache (:mod:`repro.campaign`) is keyed on.

``RunSpec`` is one of two workload specs satisfying the
:class:`~repro.api.workload.Workload` protocol; the other is
:class:`repro.inference.InferenceSpec` (serving).  Code that wants to
stay workload-agnostic — campaigns, the cluster daemon, the CLI —
dispatches through :func:`workload_class`/:func:`spec_from_payload`
rather than importing concrete spec classes; see DESIGN.md
("Workloads & the spec API").
"""

from .build import (
    build_cluster,
    build_fault_plan,
    build_model,
    build_placement,
    build_retry_policy,
    build_strategy,
    build_training,
    run_spec,
)
from .spec import (
    TIE_ORDERS,
    RunSpec,
    canonical_json,
    default_salt,
    stable_key,
)
from .workload import (
    WORKLOAD_KINDS,
    Workload,
    spec_from_payload,
    workload_class,
    workload_kind,
)

__all__ = [
    "RunSpec",
    "TIE_ORDERS",
    "WORKLOAD_KINDS",
    "Workload",
    "build_cluster",
    "build_fault_plan",
    "build_model",
    "build_placement",
    "build_retry_policy",
    "build_strategy",
    "build_training",
    "canonical_json",
    "default_salt",
    "run_spec",
    "spec_from_payload",
    "stable_key",
    "workload_class",
    "workload_kind",
]
