"""The four benchmark workloads: seeded inputs, units, and output checks.

Every input is built here from the seed; the simulator only ever sees
the resulting specs (``RunSpec`` / ``InferenceSpec`` /
``ClusterScenario``).  One *execution* runs one spec.  It carries
``count`` units in the sense of the failure ratio: one training run,
one request per request of a serving trace, one job per job of a
cluster trace.

The work a seed draws is kept at a fixed size and shape, so host time
stays comparable across seeds: the dual-node workload only reorders
five fixed runs, the hybrid sample takes a fixed number of points from
every Table V strategy, and the serving and cluster traces are fixed
multisets of shapes and jobs whose order and arrival times the seed
draws.  What the simulator then does with a trace still depends on the
seed: how batches fill, and whether one or two jobs get preempted.
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import RunSpec
from repro.api import build as api_build
from repro.cluster import ClusterScenario
from repro.cluster import service as cluster_service
from repro.cluster.arrivals import JOB_MIXES
from repro.core import search
from repro.core.validate import validate_run
from repro.experiments import paper_data
from repro.hardware.link import LinkClass
from repro.inference import InferenceSpec
from repro.inference import service as inference_service
from repro.inference.requests import REQUEST_MIXES
from repro.model.config import paper_model
from repro.model.params import layers_for_target_params
from repro.units import billion

#: Relative tolerance for pinned floating-point outputs.  The simulator
#: is bit-deterministic; the slack only absorbs libm differences
#: between hosts, far below any change a model edit would cause.
REL_TOL = 1e-9

CORE = ("ddp", "megatron", "zero1", "zero2", "zero3")
#: Table IV classes the paper reports for dual-node runs.
TABLE_IV_CLASSES = (LinkClass.NVLINK, LinkClass.ROCE, LinkClass.PCIE_GPU,
                    LinkClass.PCIE_NIC, LinkClass.XGMI)
#: Table V points drawn per strategy by ``train_single_hybrid``.
HYBRID_POINTS_PER_STRATEGY = 4
HYBRID_ITERATIONS = 10
#: ``serve_tp2``: requests drawn per mix, and the open-loop rate.
SERVE_REQUESTS_PER_MIX = 240
SERVE_RATE_PER_S = 25.0
#: ``cluster_mixed``: arrival windows (simulated seconds) of the jobs
#: below base priority 2 and of the priority-2 jobs.  The lower jobs
#: fill the 4-node fabric before the first of them can finish (the
#: shortest runs about 0.5 s), so the priority-2 jobs must preempt.
CLUSTER_LOW_WINDOW_S = (0.0, 0.1)
CLUSTER_HIGH_WINDOW_S = (0.2, 0.3)
CLUSTER_NODES = 4
CLUSTER_COPIES = 2


@dataclass(frozen=True)
class Unit:
    """One execution of the simulator on one generated spec."""

    uid: str
    kind: str  # "train" | "inference" | "cluster"
    spec: object
    #: failure-ratio units this execution carries
    count: int = 1
    #: published values this execution is compared with
    paper: Dict[str, float] = field(default_factory=dict)
    #: the trace is built to force preemption; a run without any fails
    preempts: bool = False


@dataclass
class Outcome:
    """What one execution produced and how it fared in the checks."""

    uid: str
    count: int
    seconds: float = 0.0
    #: mean calibration-chunk time around and inside a plain timed
    #: execution
    calibration_s: Optional[float] = None
    headline: Optional[Dict[str, object]] = None
    #: exact counters the traced run reports per layer
    counters: Dict[str, float] = field(default_factory=dict)
    #: absolute relative errors against published values
    paper_errors: List[float] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str, units: Optional[int] = None) -> None:
        self.problems.append(problem)
        self.failed = max(self.failed, self.count if units is None else units)


@dataclass
class Inputs:
    """A workload's generated inputs for one seed."""

    units: List[Unit]
    warmup: Unit
    #: Table V points the simulator cannot fit, reported, never run
    unfit: List[str] = field(default_factory=list)


# -- input generation ----------------------------------------------------------
def _max_layers(spec: RunSpec) -> int:
    result = search.max_model_size(
        api_build.build_cluster(spec), api_build.build_strategy(spec),
        training=api_build.build_training(spec),
        placement=api_build.build_placement(spec))
    return result.max_layers


def build_train_dual_full(seed: int) -> Inputs:
    """The five core strategies at their dual-node max size, full fidelity.

    One simulated iteration per run (no warm-up iteration): iterations
    of one configuration are identical, so a second one would double
    host time without adding a regime.
    """
    units = []
    for name in CORE:
        probe = RunSpec(strategy=name, num_layers=1, nodes=2, iterations=1,
                        warmup_iterations=0)
        spec = probe.replace(num_layers=_max_layers(probe))
        paper = {"tflops": paper_data.THROUGHPUT_DUAL_NODE[name]}
        for cls in TABLE_IV_CLASSES:
            paper[f"bw_{cls.value}"] = (
                paper_data.DUAL_NODE_BANDWIDTH_AVG[name][cls.value])
        units.append(Unit(f"{name}@2n", "train", spec, paper=paper))
    warmup = units[0]
    random.Random(seed).shuffle(units)
    return Inputs(units, warmup)


def table_v_points() -> Tuple[Dict[str, List[Tuple[float, RunSpec]]],
                              List[str]]:
    """Every Table V point as a fitting spec, plus the ones that cannot fit.

    ``RunSpec(size_billions=...)`` rounds the layer count up and so can
    exceed the memory ceiling; points are therefore built as explicit
    layer counts and checked against :func:`max_model_size`.
    """
    fitting: Dict[str, List[Tuple[float, RunSpec]]] = {}
    unfit: List[str] = []
    for name, cells in paper_data.TABLE_V.items():
        probe = RunSpec(strategy=name, num_layers=1, nodes=1,
                        iterations=HYBRID_ITERATIONS, fidelity="hybrid")
        ceiling = _max_layers(probe)
        fitting[name] = []
        for size in sorted(cells):
            layers = layers_for_target_params(paper_model(1), billion(size))
            if layers > ceiling:
                unfit.append(f"{name}@{size:g}B needs {layers} layers, "
                             f"max {ceiling}")
                continue
            fitting[name].append((size, probe.replace(num_layers=layers)))
    return fitting, unfit


def build_train_single_hybrid(seed: int) -> Inputs:
    """A seeded Table V sample on one node at hybrid fidelity."""
    rng = random.Random(seed)
    fitting, unfit = table_v_points()
    units = []
    for name, points in fitting.items():
        drawn = min(HYBRID_POINTS_PER_STRATEGY, len(points))
        for size, spec in rng.sample(points, drawn):
            units.append(Unit(f"{name}@{size:g}B", "train", spec, paper={
                "tflops": float(paper_data.TABLE_V[name][size])}))
    rng.shuffle(units)
    size, spec = fitting["ddp"][0]
    warmup = Unit(f"ddp@{size:g}B", "train", spec)
    return Inputs(units, warmup, unfit)


def _serve_spec(entries: Sequence[Dict[str, object]]) -> InferenceSpec:
    return InferenceSpec(size_billions=0.7, gpus=2, nodes=1,
                         arrivals="trace", trace_requests=tuple(entries),
                         batching="continuous")


def build_serve_tp2(seed: int) -> Inputs:
    """A request trace over all three mixes through one TP-2 instance.

    The shape multiset is fixed (each mix's templates in proportion to
    their weights); the seed draws the order and the Poisson arrivals.
    """
    rng = random.Random(seed)
    shapes: List[Dict[str, int]] = []
    for mix in sorted(REQUEST_MIXES):
        for weight, shape in REQUEST_MIXES[mix]:
            shapes.extend([dict(shape)] * round(weight
                                                * SERVE_REQUESTS_PER_MIX))
    rng.shuffle(shapes)
    now = 0.0
    entries = []
    for index, shape in enumerate(shapes):
        now += rng.expovariate(SERVE_RATE_PER_S)
        entries.append({"time": round(now, 6), "name": f"r{index}", **shape})
    unit = Unit("serve", "inference", _serve_spec(entries), count=len(entries))
    warmup = Unit("serve-warmup", "inference", _serve_spec(entries[:1]))
    return Inputs([unit], warmup)


def _cluster_spec(entries: Sequence[Dict[str, object]]) -> ClusterScenario:
    return ClusterScenario(name="bench", nodes=CLUSTER_NODES, policy="fifo",
                           arrivals="trace", trace_jobs=tuple(entries))


def build_cluster_mixed(seed: int) -> Inputs:
    """A job trace of the ``mixed`` and ``heavy`` templates on 4 nodes.

    Every template appears ``CLUSTER_COPIES`` times; the seed draws the
    order within each base priority and the arrival times, uniform in
    the window of the job's priority class.
    """
    rng = random.Random(seed)
    templates = [dict(template) for mix in ("mixed", "heavy")
                 for _, template in JOB_MIXES[mix]] * CLUSTER_COPIES
    rng.shuffle(templates)
    templates.sort(key=lambda template: template["priority"])
    low = sum(template["priority"] < 2 for template in templates)
    times = [*sorted(rng.uniform(*CLUSTER_LOW_WINDOW_S) for _ in range(low)),
             *sorted(rng.uniform(*CLUSTER_HIGH_WINDOW_S)
                     for _ in templates[low:])]
    entries = [{"time": round(at, 6), "name": f"job{index}", **template}
               for index, (at, template) in enumerate(zip(times, templates))]
    unit = Unit("cluster", "cluster", _cluster_spec(entries),
                count=len(entries), preempts=True)
    warmup = Unit("cluster-warmup", "cluster", _cluster_spec(entries[:1]))
    return Inputs([unit], warmup)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Inputs]
    #: pinned outputs are keyed per unit (seed-independent) or per seed
    pin_by_seed: bool


WORKLOADS: Dict[str, Workload] = {
    "train_dual_full": Workload("train_dual_full", build_train_dual_full,
                                False),
    "train_single_hybrid": Workload("train_single_hybrid",
                                    build_train_single_hybrid, False),
    "serve_tp2": Workload("serve_tp2", build_serve_tp2, True),
    "cluster_mixed": Workload("cluster_mixed", build_cluster_mixed, True),
}


# -- execution -----------------------------------------------------------------
def execute(unit: Unit, *, verify: bool = False,
            sampler=None) -> Outcome:
    """Run one unit; only the simulator call itself is timed.

    ``verify`` turns on the leak sanitizer and the run validator, the
    expensive checks kept out of timed executions.  A ``sampler``
    (:class:`calibrate.HostSampler`) times calibration chunks inside
    the simulator call; their time is taken out of ``seconds``.  Any
    exception the simulator raises fails every unit the execution
    carries.
    """
    outcome = Outcome(unit.uid, unit.count)
    try:
        if unit.kind == "train":
            _execute_train(unit, outcome, verify, sampler)
        elif unit.kind == "inference":
            _execute_serve(unit, outcome, verify, sampler)
        else:
            _execute_cluster(unit, outcome, verify, sampler)
    except Exception as error:  # a failed unit is a result, not a crash
        outcome.fail(f"{type(error).__name__}: {error}")
        outcome.problems.append(traceback.format_exc(limit=3))
    return outcome


@contextmanager
def _stopwatch(outcome: Outcome, sampler) -> Iterator[None]:
    """Time the block into ``outcome.seconds``, less the sampler's chunks."""
    start = time.perf_counter()
    with sampler if sampler is not None else nullcontext():
        yield
    outcome.seconds = time.perf_counter() - start
    if sampler is not None:
        outcome.seconds -= sum(sampler.times)


def _leaks_clean(outcome: Outcome, leaks) -> None:
    if leaks is None or not leaks.clean:
        outcome.fail(f"leak check not clean: {leaks}")


def _execute_train(unit: Unit, outcome: Outcome, verify: bool,
                   sampler) -> None:
    spec: RunSpec = unit.spec  # type: ignore[assignment]
    if verify:
        spec = spec.replace(leak_check=True)
    cluster = api_build.build_cluster(spec)
    with _stopwatch(outcome, sampler):
        metrics = api_build.run_spec(spec, cluster=cluster)
    class_bytes: Dict[str, float] = {}
    for link in cluster.topology.links:
        key = link.link_class.value
        class_bytes[key] = class_bytes.get(key, 0.0) + link.ledger.total_bytes
    execution = metrics.execution
    outcome.headline = {
        "iteration_times": list(execution.iteration_times),
        "tflops": metrics.tflops,
        "class_bytes": dict(sorted(class_bytes.items())),
        "events_processed": execution.events_processed,
    }
    fastpath = metrics.fastpath
    outcome.counters = {
        "events": execution.events_processed,
        "folded": execution.events_folded,
        "timeline_records": len(execution.timeline),
        "hybrid_runs": 1 if fastpath is not None else 0,
        "hybrid_applied": 1 if fastpath is not None and fastpath.applied else 0,
        "iterations": len(execution.iteration_times),
        "extrapolated_iterations": execution.extrapolated_iterations,
    }
    if "tflops" in unit.paper:
        outcome.paper_errors.append(
            abs(metrics.tflops / unit.paper["tflops"] - 1.0))
    for cls in TABLE_IV_CLASSES:
        published = unit.paper.get(f"bw_{cls.value}")
        if published is not None:
            simulated = metrics.bandwidth[cls].average_gbps
            outcome.paper_errors.append(abs(simulated / published - 1.0))
    if verify:
        report = validate_run(cluster, metrics)
        if not report.ok:
            failed = [name for name, ok in report.checks.items() if not ok]
            outcome.fail(f"validate_run failed: {failed}")
        _leaks_clean(outcome, metrics.leaks)


def _execute_serve(unit: Unit, outcome: Outcome, verify: bool,
                   sampler) -> None:
    spec: InferenceSpec = unit.spec  # type: ignore[assignment]
    if verify:
        spec = spec.replace(leak_check=True)
    with _stopwatch(outcome, sampler):
        report = inference_service.run_inference(spec).report
    outcome.headline = {
        key: getattr(report, key) for key in (
            "requests_completed", "total_time_s",
            "ttft_p50_s", "ttft_p99_s", "tpot_p50_s", "tpot_p99_s",
            "queue_wait_p50_s", "queue_wait_p99_s", "events_processed")
    }
    outcome.counters = {
        "events": report.events_processed,
        "folded": report.events_folded,
        "batching_steps": report.prefill_steps + report.decode_steps,
    }
    missing = report.requests_submitted - report.requests_completed
    if missing or report.requests_submitted != unit.count:
        outcome.fail(f"{missing} of {unit.count} requests incomplete",
                     units=max(missing, 1))
    if verify:
        _leaks_clean(outcome, report.leaks)


def _execute_cluster(unit: Unit, outcome: Outcome, verify: bool,
                     sampler) -> None:
    spec: ClusterScenario = unit.spec  # type: ignore[assignment]
    if verify:
        spec = spec.replace(leak_check=True)
    with _stopwatch(outcome, sampler):
        report = cluster_service.run_cluster(spec).report
    outcome.headline = {
        key: getattr(report, key) for key in (
            "jobs_completed", "preemptions", "total_time_s",
            "queue_wait_p50_s", "queue_wait_p99_s", "events_processed")
    }
    outcome.counters = {
        "events": report.events_processed,
        "folded": report.events_folded,
        "preemptions": report.preemptions,
    }
    missing = report.jobs_submitted - report.jobs_completed
    if missing or report.jobs_failed or report.jobs_submitted != unit.count:
        outcome.fail(f"{missing} of {unit.count} jobs incomplete, "
                     f"{report.jobs_failed} failed", units=max(missing, 1))
    if unit.preempts and not report.preemptions:
        outcome.fail("no job was preempted; the trace is built to force "
                     "preemption")
    if verify:
        _leaks_clean(outcome, report.leaks)


# -- output comparison ---------------------------------------------------------
def mismatches(expected: object, actual: object, path: str = "") -> List[str]:
    """Where ``actual`` differs from ``expected`` (floats within REL_TOL)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                problems.append(f"{path}/{key}: present on one side only")
            else:
                problems.extend(mismatches(expected[key], actual[key],
                                           f"{path}/{key}"))
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [problem for index, (e, a) in enumerate(zip(expected, actual))
                for problem in mismatches(e, a, f"{path}[{index}]")]
    if isinstance(expected, bool) or isinstance(actual, bool):
        same = expected == actual
    elif isinstance(expected, int) and isinstance(actual, int):
        same = expected == actual
    elif isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        scale = max(abs(expected), abs(actual))
        same = abs(expected - actual) <= REL_TOL * scale
    else:
        same = expected == actual
    return [] if same else [f"{path}: {actual!r} != expected {expected!r}"]
