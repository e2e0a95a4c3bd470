"""Input bundle handed to every analysis pass."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

from ..faults.plan import FaultPlan
from ..hardware.cluster import Cluster
from ..model.config import ModelConfig, TrainingConfig
from ..parallel.placement import PlacementConfig
from ..parallel.strategy import StrategyContext, TrainingStrategy
from .program import DEFAULT_SOURCE_ROOT, SourceTree


@dataclass
class AnalysisContext:
    """Everything known about a run before the engine fires an event.

    ``cluster`` may be absent for source-only analysis (the ``source``
    family lints a tree, not a machine); every hardware-facing pass goes
    through :meth:`require_cluster`.  ``strategy``/``model`` may be
    absent for topology-only analysis.  ``tensor_parallel``/
    ``pipeline_parallel`` are *requested* degrees (CLI overrides): they
    let the divisibility lints vet a degree the shipped strategies would
    never derive themselves, e.g. TP=3 on 8 GPUs.  ``fault_plan`` is the
    fault-injection schedule, when the run has one; the ``faults``
    family of passes vets it against the cluster.  ``source_root`` is
    the tree the source-reading families (``source``, ``dims``,
    ``lifecycle``) scan; it defaults to the installed ``repro`` package,
    and :attr:`sources` parses it once for all of them.
    """

    cluster: Optional[Cluster] = None
    strategy: Optional[TrainingStrategy] = None
    model: Optional[ModelConfig] = None
    training: Optional[TrainingConfig] = None
    placement: Optional[PlacementConfig] = None
    tensor_parallel: Optional[int] = None
    pipeline_parallel: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    source_root: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.training is None:
            self.training = TrainingConfig()
        if self.source_root is None:
            self.source_root = DEFAULT_SOURCE_ROOT

    @cached_property
    def sources(self) -> SourceTree:
        """The tree under :attr:`source_root`, parsed on first use."""
        assert self.source_root is not None
        return SourceTree(self.source_root)

    def require_cluster(self) -> Cluster:
        if self.cluster is None:
            raise ValueError("this analysis pass requires a cluster")
        return self.cluster

    @property
    def world_size(self) -> int:
        return self.require_cluster().num_gpus

    def strategy_context(self) -> StrategyContext:
        if self.strategy is None or self.model is None:
            raise ValueError("strategy and model required for strategy lints")
        assert self.training is not None
        return StrategyContext(self.require_cluster(), self.model,
                               self.training)
