"""Canonical serializable cluster scenarios (the RunSpec analog).

A :class:`ClusterScenario` pins everything a cluster-service run depends
on — fabric size, scheduling policy, the arrival profile (seeded
Poisson parameters or an explicit trace), aging rate, tie order, and
the observability flags — with the same round-trip and cache-key
contract as :class:`~repro.api.RunSpec`, so campaigns can sweep and
cache cluster runs exactly like training runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Tuple

from ..api.spec import TIE_ORDERS, check_choice, check_number, stable_key
from ..errors import ConfigurationError
from .arrivals import JOB_MIXES, Arrival, poisson_arrivals, trace_arrivals
from .daemon import POLICIES


@dataclass(frozen=True)
class ClusterScenario:
    """One cluster-service run, as pure serializable data.

    ``arrivals`` selects the profile: ``"poisson"`` generates
    ``num_jobs`` seeded arrivals at ``rate_per_hour`` from ``mix``;
    ``"trace"`` replays ``trace_jobs`` (tuples of JSON-safe job dicts
    with a ``time`` field) verbatim.
    """

    name: str = "cluster"
    nodes: int = 4
    policy: str = "fifo"
    arrivals: str = "poisson"
    rate_per_hour: float = 1200.0
    num_jobs: int = 12
    arrival_seed: int = 7
    mix: str = "default"
    trace_jobs: Tuple[Dict[str, object], ...] = ()
    #: effective priority grows by this per queued second (0 = no aging)
    aging_rate: float = 0.0
    tie_order: str = "fifo"
    tie_seed: int = 7
    leak_check: bool = False
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a name")
        if self.nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        check_choice("policy", self.policy, POLICIES)
        if self.arrivals not in ("poisson", "trace"):
            raise ConfigurationError(
                f"unknown arrival profile {self.arrivals!r} "
                f"(expected 'poisson' or 'trace')"
            )
        if self.arrivals == "poisson":
            check_number("rate_per_hour", self.rate_per_hour, above=0)
            if self.num_jobs < 1:
                raise ConfigurationError("num_jobs must be >= 1")
            if self.mix not in JOB_MIXES:
                raise ConfigurationError(
                    f"unknown job mix {self.mix!r}; "
                    f"known: {sorted(JOB_MIXES)}"
                )
        elif not self.trace_jobs:
            raise ConfigurationError(
                "trace arrivals need at least one trace_jobs entry"
            )
        check_number("aging_rate", self.aging_rate, at_least=0)
        check_choice("tie order", self.tie_order, TIE_ORDERS)
        if not isinstance(self.trace_jobs, tuple):
            object.__setattr__(self, "trace_jobs", tuple(
                dict(entry) for entry in self.trace_jobs
            ))

    def expand_arrivals(self) -> List[Arrival]:
        """The scenario's concrete arrival stream, deterministically."""
        if self.arrivals == "poisson":
            return poisson_arrivals(self.rate_per_hour, self.num_jobs,
                                    seed=self.arrival_seed, mix=self.mix)
        return trace_arrivals(self.trace_jobs)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "trace_jobs":
                value = [dict(entry) for entry in value]
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ClusterScenario":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown ClusterScenario fields {unknown}; "
                f"known: {sorted(known)}"
            )
        data = dict(payload)
        trace_jobs = data.get("trace_jobs")
        if trace_jobs is not None:
            data["trace_jobs"] = tuple(dict(entry) for entry in trace_jobs)
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as error:
            raise ConfigurationError(
                f"bad ClusterScenario payload: {error}"
            ) from None

    def cache_key(self, *, salt: Optional[str] = None) -> str:
        """Stable content hash (same contract as ``RunSpec.cache_key``)."""
        return stable_key({"kind": "cluster", "spec": self.to_dict()},
                          salt=salt)

    def replace(self, **changes: object) -> "ClusterScenario":
        return replace(self, **changes)  # type: ignore[arg-type]

    @property
    def label(self) -> str:
        """A short human-readable identity, used for campaign job ids."""
        profile = (f"p{self.rate_per_hour:g}x{self.num_jobs}"
                   if self.arrivals == "poisson"
                   else f"t{len(self.trace_jobs)}")
        return f"{self.name}-{self.policy}-n{self.nodes}-{profile}"
