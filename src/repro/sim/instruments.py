"""One instrumentation surface for training, serving and cluster runs.

:class:`Instruments` turns the fields every workload spec shares
(``tie_order``/``tie_seed``, ``trace``, ``leak_check``, and the
training-only ``sanitize``) into the engine's tie order, the
:class:`~repro.sim.sanitizer.ScheduleSanitizer`, the
:class:`~repro.trace.recorder.TraceRecorder` and the
:class:`~repro.sim.leaksan.LeakSanitizer`, wires them into one
engine/network pair, and produces their reports at teardown.  Every
observer only appends to Python containers, so a run's schedule is the
same with any of them on or off.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..trace.recorder import TraceRecorder
from .engine import Engine, ReversedTies, SeededTies, TieOrder
from .flows import FlowNetwork, FlowObserver
from .leaksan import LeakReport, LeakSanitizer
from .sanitizer import SanitizerReport, ScheduleSanitizer


def tie_order_for(name: str, seed: int) -> Optional[TieOrder]:
    """The engine policy for a tie-order name in
    :data:`repro.api.spec.TIE_ORDERS` (``None``: fifo, the default)."""
    if name == "reversed":
        return ReversedTies()
    if name == "seeded":
        return SeededTies(seed)
    return None


class Instruments:
    """The observers of one run: built once, finalized once."""

    def __init__(self, *, tie_order: Optional[TieOrder] = None,
                 sanitize: bool = False, trace: bool = False,
                 leak_check: bool = False) -> None:
        self.tie_order = tie_order
        self.sanitize = sanitize
        self.recorder = TraceRecorder() if trace else None
        self.leaksan = LeakSanitizer() if leak_check else None
        self.sanitizer: Optional[ScheduleSanitizer] = None
        self._cluster: Any = None
        self._network: Optional[FlowNetwork] = None

    @classmethod
    def for_spec(cls, spec: Any) -> "Instruments":
        """The instruments a workload spec selects.

        Serving specs and cluster scenarios have no ``sanitize`` field;
        their runs are never schedule-sanitized.
        """
        return cls(tie_order=tie_order_for(spec.tie_order, spec.tie_seed),
                   sanitize=getattr(spec, "sanitize", False),
                   trace=spec.trace, leak_check=spec.leak_check)

    def build(self, cluster: Any) -> Tuple[Engine, FlowNetwork]:
        """The run's engine and flow network, observed as selected.

        Call before anything is allocated in ``cluster``'s pools, so the
        leak sanitizer sees every allocation.
        """
        engine = Engine(tie_order=self.tie_order)
        if self.sanitize:
            self.sanitizer = ScheduleSanitizer(engine)
        observers: List[FlowObserver] = []
        if self.recorder is not None:
            observers.append(self.recorder)
        if self.leaksan is not None:
            observers.append(self.leaksan)
        network = FlowNetwork(engine, observers=tuple(observers))
        # A pool keeps its observer across runs: an unchecked run on a
        # cluster an earlier run leak-checked must detach that run's
        # sanitizer, or its finished report keeps counting.
        if self.leaksan is not None:
            self.leaksan.attach(cluster)
        else:
            LeakSanitizer.detach(cluster)
        self._cluster = cluster
        self._network = network
        return engine, network

    def finalize(self) -> Tuple[Optional[SanitizerReport],
                                Optional[LeakReport]]:
        """The sanitizer and leak reports, ``None`` where not selected.

        Call at teardown, after the driver released what it holds and
        after any trace was built (building drains the recorder's open
        flow spans, which the leak audit would otherwise report).
        """
        sanitizer = (self.sanitizer.finalize(self._cluster)
                     if self.sanitizer is not None else None)
        leaks = (self.leaksan.finalize(self._cluster, network=self._network,
                                       recorder=self.recorder)
                 if self.leaksan is not None else None)
        return sanitizer, leaks
