"""Host-time benchmark of the simulator: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_dual_full --seed 1 \\
        --seconds 5 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of a profiled run.  An
untraced run also times two cold set-ups, each in a child process of
this script (``--setup-only``) that it waits for.  Inputs, results,
and spans are written under ``.perfbench/`` in the repository.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
#: Set-ups timed per run: this process's own, and the rest each in a
#: fresh process, so every one starts cold.  ``setup_s`` is the median.
SETUP_RUNS = 3
#: The timed window runs whole rounds until ``--seconds`` pass; a
#: workload of one long trace, one execution per round, runs at least
#: this many, so its median rests on enough executions.
SINGLE_UNIT_ROUNDS = 7
#: Seconds between the calibration chunks timed inside a plain timed
#: execution (one more is timed right before it and one right after).
SAMPLE_INTERVAL_S = 0.25
#: Calibration chunks timed right after a set-up.
SETUP_CHUNKS = 3


def import_program() -> None:
    """Put this checkout's simulator sources first on the import path."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found in {source}")
    sys.path.insert(0, str(source))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one cold set-up, print it, and stop.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_expected() -> Dict[str, Dict[str, object]]:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())


def cold_setup(args: argparse.Namespace) -> Tuple[float, float]:
    """Set-up seconds of a fresh process on the same inputs, and the
    mean calibration-chunk time measured right after it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=150)
    figures = json.loads(done.stdout.splitlines()[-1])
    return figures["setup_s"], figures["chunk_s"]


def run_round(units, tracer=None):
    """Execute every unit once, in the seeded order.

    A plain round times calibration chunks right before each unit,
    inside it, and right after it, so its time can be rescaled by the
    host speed measured while it ran.
    """
    from calibrate import HostSampler, time_chunk
    from workloads import execute

    outcomes = []
    for unit in units:
        if tracer is None:
            before = time_chunk()
            sampler = HostSampler(SAMPLE_INTERVAL_S)
            outcome = execute(unit, sampler=sampler)
            outcome.calibration_s = statistics.fmean(
                [before, *sampler.times, time_chunk()])
            outcomes.append(outcome)
        else:
            with tracer.attached(unit.uid, "rounds"):
                outcomes.append(execute(unit))
    return outcomes


def check(workload, inputs, seed: int, rounds, verified,
          expected) -> List[str]:
    """Compare every execution with the verified one and the pinned values.

    Marks mismatching outcomes failed; returns a note per pinned key
    that was compared.
    """
    from workloads import mismatches

    pinned = expected.get(workload.name, {})
    notes = []
    for index, (unit, reference) in enumerate(zip(inputs.units, verified)):
        key = f"seed{seed}" if workload.pin_by_seed else unit.uid
        if reference.headline is not None and key in pinned:
            problems = mismatches(pinned[key], reference.headline)
            notes.append(f"pinned {key}: "
                         f"{'ok' if not problems else 'MISMATCH'}")
            if problems:
                reference.fail(f"pinned outputs differ: {problems[:3]}")
        for outcome in (rnd[index] for rnd in rounds):
            if outcome.failed or reference.headline is None:
                continue
            problems = mismatches(reference.headline, outcome.headline)
            if problems:
                outcome.fail(f"timed outputs differ from the verified "
                             f"run: {problems[:3]}")
    return notes


def tally(outcomes) -> Tuple[int, int]:
    """Units attempted and units failed over all executions."""
    return (sum(o.count for o in outcomes), sum(o.failed for o in outcomes))


def layer_metrics(tracer, traced_rounds, plain_rounds) -> Dict[str, float]:
    """Per-round per-layer metrics from the profiled rounds."""
    from layers import OTHER, OUTSIDE, SELF_TIME_LAYERS

    per_round = 1.0 / len(traced_rounds)
    profile = tracer.profile("rounds")
    self_s = profile.self_times()
    inside = sum(seconds for layer, seconds in self_s.items()
                 if layer != OUTSIDE)
    metrics: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) * per_round
    metrics["other.self_s"] = self_s.get(OTHER, 0.0) * per_round
    metrics["trace.attributed_share"] = (
        (inside - self_s.get(OTHER, 0.0)) / inside if inside else 0.0)

    def counter(name: str) -> float:
        return sum(o.counters.get(name, 0) for o in traced_rounds[0])

    def per(count: float) -> float:
        return count * per_round

    metrics["engine.events"] = counter("events")
    metrics["engine.folded"] = counter("folded")
    allocs = profile.calls("sim/flows.py", "_compute_rates")
    checks = profile.calls("sim/flows.py", "_on_completion_check")
    metrics["flows.transfers"] = per(profile.calls("sim/flows.py",
                                                   "transfer"))
    metrics["flows.allocs"] = per(allocs)
    metrics["flows.active_per_alloc"] = (
        profile.calls_from("sim/flows.py", "refresh_capacity",
                           "sim/flows.py", "_compute_rates") / allocs
        if allocs else 0.0)
    metrics["flows.useful_check_ratio"] = (
        profile.calls_from("sim/flows.py", "_settle",
                           "sim/flows.py", "_on_completion_check") / checks
        if checks else 0.0)
    metrics["ledger.records"] = per(profile.calls("hardware/link.py",
                                                  "record"))
    metrics["route.bandwidth_calls"] = per(
        profile.calls("hardware/topology.py", "bandwidth"))
    metrics["nccl.collectives"] = per(profile.calls("collectives/nccl.py",
                                                    "run"))
    metrics["preflight.cum_s"] = per(profile.entry_cum(
        [("analysis/api.py", "analyze_run_config")]))
    metrics["plan.cum_s"] = per(profile.entry_cum(
        [("core/runner.py", "apply_memory_plan")]
        + [(f"parallel/{module}.py", name)
           for module in ("strategy", "ddp", "megatron", "zero", "hybrid",
                          "pipeline")
           for name in ("memory_plan", "build_schedule")]))
    metrics["search.cum_s"] = tracer.profile("setup").entry_cum(
        [("core/search.py", "max_model_size")])
    hybrid_runs = counter("hybrid_runs")
    iterations = counter("iterations")
    metrics["fastpath.applied_ratio"] = (
        counter("hybrid_applied") / hybrid_runs if hybrid_runs else 0.0)
    metrics["fastpath.extrapolated_share"] = (
        counter("extrapolated_iterations") / iterations
        if iterations else 0.0)
    metrics["telemetry.timeline_records"] = counter("timeline_records")
    metrics["batching.steps"] = per(profile.calls("inference/costmodel.py",
                                                  "activation_payload"))
    metrics["daemon.dispatches"] = per(profile.calls("cluster/service.py",
                                                     "launch"))
    metrics["daemon.preemptions"] = counter("preemptions")
    traced = statistics.median(sum(o.seconds for o in rnd)
                               for rnd in traced_rounds)
    plain = statistics.median(sum(o.seconds for o in rnd)
                              for rnd in plain_rounds)
    metrics["trace.overhead_ratio"] = traced / plain
    return metrics


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("active_per_alloc"):
        return "flows"
    return "count"


def write_outputs(directory: Path, inputs, payload: Dict[str, object],
                  spans: Optional[list]) -> None:
    """Spec payloads (replayable via ``from_dict``), results, and spans."""
    specs = directory / "inputs"
    specs.mkdir(parents=True, exist_ok=True)
    for unit in [*inputs.units, inputs.warmup]:
        (specs / f"{unit.uid}.json").write_text(json.dumps(
            {"kind": unit.kind, "spec": unit.spec.to_dict()}, indent=1))
    (directory / "results.json").write_text(json.dumps(payload, indent=1))
    if spans is not None:
        (directory / "spans.json").write_text(json.dumps(spans))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_program()
    from calibrate import REFERENCE_CHUNK_S, time_chunk
    from layers import Tracer
    from workloads import WORKLOADS, execute

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(WORKLOADS)}")
    tracer = Tracer(_PROCESS_START) if args.trace else None

    # Set-up: inputs from the seed (with their max-size searches) and
    # one untimed warm-up unit.
    if tracer is not None:
        with tracer.attached("setup", "setup"):
            inputs = workload.build(args.seed)
    else:
        inputs = workload.build(args.seed)
    warmup = execute(inputs.warmup)
    setup_raw = time.perf_counter() - _PROCESS_START
    setups = [(setup_raw, statistics.fmean(time_chunk()
                                           for _ in range(SETUP_CHUNKS)))]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_raw, "chunk_s": setups[0][1]}))
        return 0

    # Untimed verification pass, with leak checking and run validation.
    # Being a whole round, it also fills every process-wide cache, so
    # the timed rounds that follow all run warm.
    verified = [execute(unit, verify=True) for unit in inputs.units]

    # Timed window: whole rounds of the fixed work until --seconds pass
    # and enough plain rounds ran.  A traced run alternates plain and
    # profiled rounds, and needs one plain and one profiled round.
    min_rounds = 1 if len(inputs.units) > 1 else SINGLE_UNIT_ROUNDS
    rounds: List[list] = []
    traced_rounds: List[list] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        profiled = tracer is not None and len(rounds) > len(traced_rounds)
        if profiled:
            traced_rounds.append(run_round(inputs.units, tracer))
        else:
            rounds.append(run_round(inputs.units))
        enough = (traced_rounds if tracer is not None
                  else len(rounds) >= min_rounds)
        if time.perf_counter() >= deadline and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = check(workload, inputs, args.seed, rounds + traced_rounds,
                  verified, load_expected())

    outcomes = [warmup, *verified,
                *(o for rnd in rounds + traced_rounds for o in rnd)]
    attempted, failed = tally(outcomes)
    errors = [e for o in verified for e in o.paper_errors]
    paper_err_pct = 100.0 * statistics.fmean(errors) if errors else None
    # Each execution's host seconds, rescaled to the reference host by
    # the calibration chunks timed around and inside it; the median per
    # unit.
    scaled: Dict[str, List[float]] = {}
    for outcome in (o for rnd in rounds for o in rnd if not o.failed):
        scaled.setdefault(outcome.uid, []).append(
            outcome.seconds * REFERENCE_CHUNK_S / outcome.calibration_s)
    unit_s = {uid: statistics.median(values)
              for uid, values in scaled.items()}

    if tracer is None:
        # The cold set-ups of fresh processes, each rescaled by the
        # chunks timed right after it.
        setups += [cold_setup(args) for _ in range(SETUP_RUNS - 1)]
        setup_s = statistics.median(seconds * REFERENCE_CHUNK_S / chunk_s
                                    for seconds, chunk_s in setups)
        values = {"wall_s": sum(unit_s.values()),
                  "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    else:
        values = layer_metrics(tracer, traced_rounds, rounds)
        values["units.failed_ratio"] = failed / attempted
        values["paper.err_pct"] = paper_err_pct or 0.0
        units = {name: layer_unit(name) for name in values}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in sorted(values.items())}

    problems = [f"{o.uid}: {p}" for o in outcomes for p in o.problems]
    directory = OUT / f"{workload.name}-seed{args.seed}"
    write_outputs(directory, inputs, {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "attempted": attempted, "failed": failed,
        "paper_err_pct": paper_err_pct,
        "unfit_table_v_points": inputs.unfit,
        "unit_seconds": unit_s,
        "setup_seconds_and_chunk_s": setups,
        "round_seconds": [sum(o.seconds for o in rnd) for rnd in rounds],
        "round_calibration_s": [statistics.fmean(o.calibration_s
                                                 for o in rnd)
                                for rnd in rounds],
        "checks": notes, "problems": problems,
        "headlines": {o.uid: o.headline for o in verified},
        "metrics": metrics,
    }, tracer.span_records() if tracer is not None else None)

    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(rounds)} timed rounds, {len(traced_rounds)} traced rounds")
    for uid, seconds in unit_s.items():
        print(f"  {uid}: {seconds:.4f} s (reference host)")
    for line in inputs.unfit:
        print(f"  unfit Table V point: {line}")
    for note in notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  FAILED {problem.splitlines()[0]}")
    if paper_err_pct is not None:
        print(f"  paper_err_pct {paper_err_pct:.3f} %")
    print(f"  failed_ratio {failed / attempted:.6f} "
          f"({failed} of {attempted} units)")
    print(f"  results in {directory.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
