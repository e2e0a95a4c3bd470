"""Canonical serializable inference workload: the :class:`InferenceSpec`.

The serving analog of :class:`repro.api.RunSpec` — and the second
implementation of the :class:`repro.api.workload.Workload` protocol.
An ``InferenceSpec`` pins one tensor-parallel serving instance (model
size, TP degree, node count), its open-loop traffic (seeded Poisson
parameters or an explicit request trace), the batching policy and
admission limits, and the latency SLOs the report scores against, with
the same round-trip and cache-key contract as ``RunSpec``, so
campaigns sweep and cache serving runs exactly like training runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Tuple

from ..api.spec import TIE_ORDERS, check_choice, check_number, stable_key
from ..errors import ConfigurationError
from .requests import REQUEST_MIXES, Request, poisson_requests, trace_requests

#: Batch-admission policies the serving scheduler implements.
#: ``continuous`` admits at every token-level step (Orca/vLLM-style
#: continuous batching); ``static`` drains the whole running batch
#: before admitting the next one (the classical serving baseline).
BATCHING_POLICIES = ("continuous", "static")


@dataclass(frozen=True)
class InferenceSpec:
    """One simulated serving run, as pure serializable data.

    Exactly one of ``size_billions`` / ``num_layers`` selects the model
    depth, mirroring ``RunSpec``.  ``gpus`` is the tensor-parallel
    degree of the single serving instance; with ``nodes > 1`` the TP
    all-reduces cross the NIC exactly like training collectives.
    ``arrivals`` selects the traffic profile: ``"poisson"`` generates
    ``num_requests`` seeded arrivals at ``rate_per_second`` from
    ``request_mix``; ``"trace"`` replays ``trace_requests`` verbatim.
    """

    size_billions: Optional[float] = None
    num_layers: Optional[int] = None
    gpus: int = 4
    nodes: int = 1
    #: open-loop traffic
    arrivals: str = "poisson"
    rate_per_second: float = 4.0
    num_requests: int = 32
    arrival_seed: int = 7
    request_mix: str = "chat"
    trace_requests: Tuple[Dict[str, object], ...] = ()
    #: batching / admission
    batching: str = "continuous"
    max_batch_tokens: int = 8192
    max_batch_requests: int = 16
    #: fraction of post-weights free device memory given to the KV budget
    kv_fraction: float = 0.9
    #: latency SLOs the report scores attainment against
    slo_ttft_s: float = 1.0
    slo_tpot_s: float = 0.2
    precision_bytes: int = 2
    #: determinism / observability hooks (same semantics as RunSpec)
    tie_order: str = "fifo"
    tie_seed: int = 7
    trace: bool = False
    leak_check: bool = False

    def __post_init__(self) -> None:
        if (self.size_billions is None) == (self.num_layers is None):
            raise ConfigurationError(
                "InferenceSpec needs exactly one of size_billions / num_layers"
            )
        if self.size_billions is not None:
            check_number("size_billions", self.size_billions, above=0)
        if self.num_layers is not None and self.num_layers < 1:
            raise ConfigurationError("num_layers must be >= 1")
        if self.gpus < 1:
            raise ConfigurationError("gpus (tensor-parallel degree) must be >= 1")
        if self.nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if self.arrivals not in ("poisson", "trace"):
            raise ConfigurationError(
                f"unknown arrival profile {self.arrivals!r} "
                f"(expected 'poisson' or 'trace')"
            )
        if self.arrivals == "poisson":
            check_number("rate_per_second", self.rate_per_second, above=0)
            if self.num_requests < 1:
                raise ConfigurationError("num_requests must be >= 1")
            if self.request_mix not in REQUEST_MIXES:
                raise ConfigurationError(
                    f"unknown request mix {self.request_mix!r}; "
                    f"known: {sorted(REQUEST_MIXES)}"
                )
        elif not self.trace_requests:
            raise ConfigurationError(
                "trace arrivals need at least one trace_requests entry"
            )
        check_choice("batching policy", self.batching, BATCHING_POLICIES)
        if self.max_batch_tokens < 1:
            raise ConfigurationError("max_batch_tokens must be >= 1")
        if self.max_batch_requests < 1:
            raise ConfigurationError("max_batch_requests must be >= 1")
        check_number("kv_fraction", self.kv_fraction, above=0, at_most=1)
        check_number("SLO target slo_ttft_s", self.slo_ttft_s, above=0)
        check_number("SLO target slo_tpot_s", self.slo_tpot_s, above=0)
        if self.precision_bytes not in (2, 4):
            raise ConfigurationError("precision must be fp16 (2) or fp32 (4)")
        check_choice("tie order", self.tie_order, TIE_ORDERS)
        if not isinstance(self.trace_requests, tuple):
            object.__setattr__(self, "trace_requests", tuple(
                dict(entry) for entry in self.trace_requests
            ))

    def expand_requests(self) -> List[Request]:
        """The spec's concrete request stream, deterministically.

        Also enforces the liveness invariant the scheduler relies on:
        every request must fit an *empty* batch (token budget), or it
        could never be admitted and the run would never terminate.
        """
        if self.arrivals == "poisson":
            stream = poisson_requests(
                self.rate_per_second, self.num_requests,
                seed=self.arrival_seed, mix=self.request_mix)
        else:
            stream = trace_requests(self.trace_requests)
        for request in stream:
            if request.total_tokens > self.max_batch_tokens:
                raise ConfigurationError(
                    f"request {request.name!r} needs {request.total_tokens} "
                    f"batch tokens but max_batch_tokens is "
                    f"{self.max_batch_tokens}; it could never be admitted"
                )
        return stream

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict holding every field."""
        payload: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "trace_requests":
                value = [dict(entry) for entry in value]
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "InferenceSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown InferenceSpec fields {unknown}; "
                f"known: {sorted(known)}"
            )
        data = dict(payload)
        entries = data.get("trace_requests")
        if entries is not None:
            data["trace_requests"] = tuple(dict(entry) for entry in entries)
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as error:
            raise ConfigurationError(
                f"bad InferenceSpec payload: {error}"
            ) from None

    def cache_key(self, *, salt: Optional[str] = None) -> str:
        """Stable content hash (same contract as ``RunSpec.cache_key``)."""
        return stable_key({"kind": "inference", "spec": self.to_dict()},
                          salt=salt)

    def replace(self, **changes: object) -> "InferenceSpec":
        """A copy with ``changes`` applied, re-validated on construction."""
        known = {spec_field.name for spec_field in fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown {type(self).__name__} fields {unknown}; "
                f"known: {sorted(known)}"
            )
        return replace(self, **changes)  # type: ignore[arg-type]

    @property
    def label(self) -> str:
        """A short human-readable identity, used for job ids."""
        size = (f"{self.size_billions:g}b" if self.size_billions is not None
                else f"{self.num_layers}l")
        traffic = (f"p{self.rate_per_second:g}x{self.num_requests}"
                   if self.arrivals == "poisson"
                   else f"t{len(self.trace_requests)}")
        return (f"infer-{size}-tp{self.gpus}-n{self.nodes}"
                f"-{self.batching}-{traffic}")

    def run(self):
        """Simulate this spec (see :func:`repro.inference.run_inference`)."""
        from .service import run_inference

        return run_inference(self)
