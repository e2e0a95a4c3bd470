"""Per-layer attribution for the traced run: profiler folding and spans.

Nothing here touches the simulator's code.  :class:`Tracer` attaches
:mod:`cProfile` around traced executions and, while attached, wraps a
fixed set of layer entry points in span recorders.  Self time is folded
by the module a function lives in; time in builtins and the standard
library is charged to the calling layer.  Counts are profiler call
counts at layer entry points plus public result fields.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro

#: Module path (relative to the ``repro`` package) -> layer.  First
#: match wins.  ``preflight``/``plan``/``search`` self time counts as
#: attributed but is reported as entry-point cumulative time instead.
LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "engine"),
    ("sim/flows.py", "flows"),
    ("sim/fastpath/", "fastpath"),
    ("hardware/link.py", "ledger"),
    ("hardware/topology.py", "route"),
    ("hardware/serdes.py", "route"),
    ("collectives/", "nccl"),
    ("runtime/", "executor"),
    ("telemetry/", "telemetry"),
    ("trace/", "telemetry"),
    ("inference/costmodel.py", "costmodel"),
    ("inference/kvcache.py", "kvcache"),
    ("inference/", "batching"),
    ("cluster/", "daemon"),
    ("analysis/", "preflight"),
    ("parallel/", "plan"),
    ("core/search.py", "search"),
)
#: Layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("engine", "flows", "fastpath", "ledger", "route", "nccl",
                    "executor", "telemetry", "batching", "costmodel",
                    "kvcache", "daemon")
OTHER = "other"
#: Functions outside ``repro`` whose time is not the simulator's.
OUTSIDE = "outside"

_REPRO_ROOT = Path(repro.__file__).resolve().parent
_PREFIX = str(_REPRO_ROOT) + "/"

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, ``OTHER`` for the rest of
    ``repro``, and ``None`` outside the package."""
    if not filename.startswith(_PREFIX):
        return None
    relative = filename[len(_PREFIX):]
    for prefix, layer in LAYER_PATHS:
        if relative.startswith(prefix):
            return layer
    return OTHER


def _is_library(filename: str) -> bool:
    """Builtins and the standard library: charged to their caller."""
    return (filename == "~" or filename.startswith("<")
            or "/lib/python" in filename)


class Profile:
    """Aggregated :mod:`pstats` view with layer folding and count queries."""

    def __init__(self, profiler: cProfile.Profile) -> None:
        self.stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        self._shares: Dict[FuncKey, Dict[str, float]] = {}

    def _share(self, func: FuncKey, depth: int = 0) -> Dict[str, float]:
        """How ``func``'s own time splits over layers."""
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        filename = func[0]
        layer = layer_of(filename)
        if layer is not None:
            result = {layer: 1.0}
        elif not _is_library(filename) or depth > 32:
            result = {OUTSIDE: 1.0}
        else:
            self._shares[func] = {OUTSIDE: 1.0}  # breaks caller cycles
            callers = self.stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            total = sum(entry[2] for entry in callers.values())
            if total <= 0:
                result = {OUTSIDE: 1.0}
            else:
                result = {}
                for caller, entry in callers.items():
                    for name, weight in self._share(caller, depth + 1).items():
                        result[name] = (result.get(name, 0.0)
                                        + weight * entry[2] / total)
        self._shares[func] = result
        return result

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer (plus ``other`` and ``outside``)."""
        totals: Dict[str, float] = {}
        for func, (_, _, own, _, _) in self.stats.items():
            for name, weight in self._share(func).items():
                totals[name] = totals.get(name, 0.0) + own * weight
        return totals

    def _matching(self, path: str, name: str) -> List[FuncKey]:
        suffix = "/" + path
        return [func for func in self.stats
                if func[2] == name and func[0].endswith(suffix)]

    def calls(self, path: str, name: str) -> int:
        """Total calls of ``name`` defined in the module at ``path``."""
        return sum(self.stats[func][1] for func in self._matching(path, name))

    def calls_from(self, path: str, name: str,
                   caller_path: str, caller_name: str) -> int:
        """Calls of ``path:name`` made by ``caller_path:caller_name``."""
        total = 0
        suffix = "/" + caller_path
        for func in self._matching(path, name):
            for caller, entry in self.stats[func][4].items():
                if caller[2] == caller_name and caller[0].endswith(suffix):
                    total += entry[0]
        return total

    def entry_cum(self, entries: List[Tuple[str, str]]) -> float:
        """Cumulative seconds inside any of ``entries``, counted at the
        outermost entry so nested entries are not double counted."""
        funcs = {func for path, name in entries
                 for func in self._matching(path, name)}
        total = 0.0
        for func in funcs:
            for caller, entry in self.stats[func][4].items():
                if caller not in funcs:
                    total += entry[3]
        return total


#: (owner import path, attribute, span name): the layer entry points
#: wrapped in spans while tracing.  Attributes are patched where the
#: callers look them up, and restored afterwards.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.build", "run_training", "run_training"),
    ("repro.runtime.executor:Executor", "run", "Executor.run"),
    ("repro.sim.engine:Engine", "run", "Engine.run"),
    ("repro.core.runner", "analyze_run_config", "analyze_run_config"),
    ("repro.core.search", "max_model_size", "max_model_size"),
    ("repro.core.runner", "extrapolate_execution", "extrapolate_execution"),
    ("repro.telemetry.bandwidth:BandwidthMonitor", "table",
     "BandwidthMonitor.table"),
    ("repro.inference.service", "run_inference", "run_inference"),
    ("repro.cluster.service", "run_cluster", "run_cluster"),
)


def _resolve(owner: str) -> object:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Profiles traced executions and records coarse spans in memory.

    Each phase (set-up, timed rounds) has its own profile.  A span is
    ``[name, start, end, parent index, unit id]`` with times in seconds
    since ``origin`` (a ``time.perf_counter()`` reading).
    """

    def __init__(self, origin: float) -> None:
        self.profilers: Dict[str, cProfile.Profile] = {}
        self.spans: List[list] = []
        self.unit: Optional[str] = None
        self._stack: List[int] = []
        self._origin = origin

    def _wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter() - self._origin,
                               None, parent, self.unit])
            self._stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter() - self._origin
        return traced

    @contextmanager
    def attached(self, unit: str, phase: str) -> Iterator[None]:
        """Profile (into ``phase``) and span-trace the block."""
        profiler = self.profilers.setdefault(phase, cProfile.Profile())
        patched = []
        for owner_path, attribute, name in SPAN_TARGETS:
            owner = _resolve(owner_path)
            original = vars(owner)[attribute]
            patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        self.unit = unit
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            self.unit = None
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)

    def profile(self, phase: str) -> Profile:
        return Profile(self.profilers[phase])

    def span_records(self) -> List[Dict[str, object]]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "unit": unit}
                for name, start, end, parent, unit in self.spans]
