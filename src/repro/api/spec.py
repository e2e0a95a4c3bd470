"""Canonical, serializable run specification: the :class:`RunSpec`.

:func:`repro.core.runner.run_training` grew eleven loose keyword
arguments over the first PRs — live ``Cluster``/``TrainingStrategy``/
``ModelConfig`` objects plus placement, swap volumes, fault plans and
four determinism/observability flags.  None of that has a canonical
serializable form, so nothing sound existed to key a result cache on.

``RunSpec`` is that form: a frozen dataclass of *names and scalars only*
(strategy name, placement key, fault spec strings, tie-order policy
name) with a documented round trip (``from_dict(to_dict(s)) == s``) and
a documented stable content hash (:meth:`RunSpec.cache_key`).
Materializing the live simulator objects from a spec is
:mod:`repro.api.build`'s job, keeping this module importable from
anywhere (including :mod:`repro.core.runner`) without cycles.

**Cache-key stability contract.**  ``cache_key()`` is a SHA-256 over the
salt plus the canonical JSON encoding of :meth:`to_dict` (sorted keys,
compact separators).  It is therefore:

* independent of dict insertion order and of the process that computes
  it (no ``id()``/hash-seed/wall-clock inputs);
* changed by exactly two things — a field value changing, or the salt
  changing.  The default salt (:func:`default_salt`) embeds the package
  version and the results schema version, so upgrading either safely
  invalidates every cached result.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError

#: Tie-order policy names accepted by :attr:`RunSpec.tie_order`
#: (materialized in :mod:`repro.api.build`).
TIE_ORDERS = ("fifo", "reversed", "seeded")

#: Fidelity names accepted by :attr:`RunSpec.fidelity` (defined in
#: :mod:`repro.sim.fastpath`; re-declared here as data so this module
#: stays import-cycle-free).
FIDELITIES = ("full", "hybrid")


def check_choice(what: str, value: object, choices: Tuple[str, ...]) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is one of
    ``choices`` (the spec validators' shared name check)."""
    if value not in choices:
        raise ConfigurationError(
            f"unknown {what} {value!r} (expected one of {choices})"
        )


def check_number(what: str, value: object, *,
                 above: Optional[float] = None,
                 at_least: Optional[float] = None,
                 at_most: Optional[float] = None) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a finite
    real number within the given bounds.

    NaN compares false against every bound, so a plain ``value <= 0``
    check lets it through; this check rejects NaN and infinities first.
    """
    number = (value if isinstance(value, (int, float))
              and not isinstance(value, bool) else math.nan)
    if not (math.isfinite(number)
            and (above is None or number > above)
            and (at_least is None or number >= at_least)
            and (at_most is None or number <= at_most)):
        bounds = [f"{op} {bound:g}" for op, bound in (
            (">", above), (">=", at_least), ("<=", at_most))
            if bound is not None]
        raise ConfigurationError(
            f"{what} must be a finite number {' and '.join(bounds)}, "
            f"got {value!r}"
        )


def default_salt() -> str:
    """The code-version salt mixed into every cache key.

    Bumping the package version or the results schema version changes
    the salt, so stale cached payloads can never be confused for current
    ones.  Imported lazily to keep this module cycle-free.
    """
    from .. import __version__
    from ..core.results import SCHEMA_VERSION

    return f"repro/{__version__}/results-v{SCHEMA_VERSION}"


def canonical_json(payload: Mapping[str, object]) -> str:
    """The canonical encoding content hashes are computed over.

    Sorted keys and compact separators make the encoding independent of
    dict ordering; ``allow_nan=False`` keeps the payload portable.
    """
    try:
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"payload is not canonically JSON-serializable: {error}"
        ) from None


def stable_key(payload: Mapping[str, object], *,
               salt: Optional[str] = None) -> str:
    """SHA-256 hex digest of ``salt`` + the canonical JSON of ``payload``."""
    if salt is None:
        salt = default_salt()
    body = salt + "\n" + canonical_json(payload)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One simulated training run, as pure serializable data.

    Exactly one of ``size_billions`` / ``num_layers`` selects the model
    depth (``size_billions`` goes through the paper's layers-for-target
    search; ``num_layers`` pins the depth exactly).  Everything else
    mirrors one ``run_training`` keyword; see
    :func:`repro.api.build.materialize` for the mapping.
    """

    strategy: str
    size_billions: Optional[float] = None
    num_layers: Optional[int] = None
    nodes: int = 1
    placement: str = "B"
    iterations: int = 3
    warmup_iterations: int = 1
    #: training hyperparameters (``TrainingConfig``)
    micro_batch_per_gpu: int = 16
    precision_bytes: int = 2
    activation_recompute: bool = True
    #: fault injection: spec strings in :meth:`repro.faults.FaultPlan.parse`
    #: syntax, plus the seed/horizon the plan is expanded with
    faults: Tuple[str, ...] = ()
    fault_seed: int = 0
    fault_horizon: Optional[float] = None
    #: transport retry policy; ``None`` everywhere means library defaults
    retry_timeout_s: Optional[float] = None
    retry_backoff: Optional[float] = None
    retry_max_retries: Optional[int] = None
    #: determinism / observability hooks
    tie_order: str = "fifo"
    tie_seed: int = 7
    sanitize: bool = False
    trace: bool = False
    #: attach the runtime leak sanitizer (:mod:`repro.sim.leaksan`) and
    #: audit pools/ledgers/flows for outstanding balance at teardown
    leak_check: bool = False
    preflight: bool = True
    #: simulation fidelity: "full" runs every iteration on the DES;
    #: "hybrid" measures a steady window and extrapolates the rest
    #: (:mod:`repro.sim.fastpath`).  Part of the cache key by
    #: construction, so full and hybrid results can never be conflated.
    fidelity: str = "full"

    def __post_init__(self) -> None:
        if not self.strategy:
            raise ConfigurationError("RunSpec needs a strategy name")
        if (self.size_billions is None) == (self.num_layers is None):
            raise ConfigurationError(
                "RunSpec needs exactly one of size_billions / num_layers"
            )
        if self.size_billions is not None:
            check_number("size_billions", self.size_billions, above=0)
        if self.num_layers is not None and self.num_layers < 1:
            raise ConfigurationError("num_layers must be >= 1")
        if self.nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if self.iterations <= self.warmup_iterations:
            raise ConfigurationError(
                "need more iterations than warmup iterations"
            )
        check_choice("tie order", self.tie_order, TIE_ORDERS)
        check_choice("fidelity", self.fidelity, FIDELITIES)
        # Normalize list -> tuple so from_dict round-trips to equality.
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict holding every field (``faults`` as a list)."""
        payload: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec fields {unknown}; known: {sorted(known)}"
            )
        if "strategy" not in payload:
            raise ConfigurationError("RunSpec payload needs a strategy")
        try:
            return cls(**dict(payload))  # type: ignore[arg-type]
        except TypeError as error:
            raise ConfigurationError(f"bad RunSpec payload: {error}") from None

    def cache_key(self, *, salt: Optional[str] = None) -> str:
        """The stable content hash caching is keyed on (see module doc)."""
        return stable_key({"kind": "run", "spec": self.to_dict()}, salt=salt)

    def replace(self, **changes: object) -> "RunSpec":
        """A copy with ``changes`` applied, re-validated on construction.

        Goes back through ``__init__`` (and therefore ``__post_init__``)
        so an invalid field combination — e.g. setting ``num_layers`` on
        a ``size_billions`` spec, or ``nodes=0`` — raises the same
        :class:`ConfigurationError` it would at construction time
        instead of sneaking past as a mutated copy.  Unknown field names
        are a :class:`ConfigurationError` too, matching ``from_dict``.
        """
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
        return f"{self.strategy}-{size}-n{self.nodes}-{self.placement}"

    def run(self):
        """Materialize and simulate this spec (see :func:`repro.api.run_spec`)."""
        from .build import run_spec

        return run_spec(self)
