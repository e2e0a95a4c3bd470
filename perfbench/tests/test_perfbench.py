"""Self-checks of the benchmark: determinism, failure counting, contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import HostSampler  # noqa: E402
from repro.api import RunSpec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def payloads(inputs):
    return [(unit.uid, unit.kind, unit.spec.to_dict()) for unit in inputs.units]


def short(unit, entries: int):
    """``unit`` cut down to its first ``entries`` requests or jobs (too
    few to force preemption)."""
    spec = unit.spec
    if unit.kind == "inference":
        spec = spec.replace(trace_requests=spec.trace_requests[:entries])
    else:
        spec = spec.replace(trace_jobs=spec.trace_jobs[:entries])
    return dataclasses.replace(unit, spec=spec, count=entries,
                               preempts=False)


def test_same_seed_builds_identical_inputs():
    for workload in workloads.WORKLOADS.values():
        assert payloads(workload.build(11)) == payloads(workload.build(11))


def test_different_seeds_build_different_traces():
    for workload in workloads.WORKLOADS.values():
        assert payloads(workload.build(1)) != payloads(workload.build(2))


def test_repeated_executions_repeat_exactly():
    units = [
        workloads.build_train_single_hybrid(3).warmup,
        short(workloads.build_serve_tp2(3).units[0], 12),
        short(workloads.build_cluster_mixed(3).units[0], 3),
    ]
    for unit in units:
        first, second = workloads.execute(unit), workloads.execute(unit)
        assert not first.failed, first.problems
        assert first.headline == second.headline
        assert first.counters == second.counters


def test_host_sampling_leaves_outputs_unchanged():
    unit = short(workloads.build_serve_tp2(3).units[0], 12)
    sampler = HostSampler(0.01)
    sampled = workloads.execute(unit, sampler=sampler)
    plain = workloads.execute(unit)
    assert sampler.times and sampled.seconds > 0
    assert not sampled.failed and sampled.headline == plain.headline
    assert sampled.counters == plain.counters


def test_unfit_table_v_points_are_listed_not_dropped():
    fitting, unfit = workloads.table_v_points()
    drawn = sum(len(points) for points in fitting.values())
    published = sum(len(cells) for cells in
                    workloads.paper_data.TABLE_V.values())
    assert unfit and drawn + len(unfit) == published
    assert any(line.startswith("zero2@5.2B") for line in unfit)


def test_raised_out_of_memory_counts_as_failed():
    unit = workloads.Unit("oom", "train",
                          RunSpec(strategy="ddp", num_layers=4000, nodes=1,
                                  iterations=1, warmup_iterations=0))
    outcome = workloads.execute(unit)
    assert outcome.failed == 1
    assert "OutOfMemoryError" in outcome.problems[0]
    assert run.tally([outcome]) == (1, 1)


def test_cluster_run_without_preemption_counts_as_failed():
    unit = short(workloads.build_cluster_mixed(3).units[0], 3)
    outcome = workloads.execute(dataclasses.replace(unit, preempts=True))
    assert outcome.headline["preemptions"] == 0
    assert outcome.failed == unit.count
    assert "no job was preempted" in outcome.problems[0]


def test_planted_output_mismatch_counts_as_failed():
    inputs = workloads.build_train_single_hybrid(5)
    inputs = dataclasses.replace(inputs, units=[inputs.warmup])
    workload = workloads.WORKLOADS["train_single_hybrid"]
    verified = [workloads.execute(inputs.warmup)]
    timed = [[workloads.execute(inputs.warmup)]]
    headline = dict(verified[0].headline)
    honest = {workload.name: {inputs.warmup.uid: headline}}
    assert run.check(workload, inputs, 5, timed, verified, honest)
    assert run.tally(verified + timed[0]) == (2, 0)

    planted = dict(headline, tflops=headline["tflops"] * 1.001)
    notes = run.check(workload, inputs, 5, timed, verified,
                      {workload.name: {inputs.warmup.uid: planted}})
    assert "MISMATCH" in notes[0]
    assert run.tally(verified + timed[0]) == (2, 1)

    timed[0][0].headline["events_processed"] += 1
    run.check(workload, inputs, 5, timed, verified, {})
    assert run.tally(verified + timed[0]) == (2, 2)


def test_benchmark_json_names():
    names = [metric["name"] for key in ("end_to_end", "per_layer")
             for metric in BENCHMARK[key]]
    names += [workload["name"] for workload in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(
        workloads.WORKLOADS)


def last_json_line(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(argv) == 0
    return json.loads(stdout.getvalue().splitlines()[-1])


def test_runs_report_exactly_the_declared_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = last_json_line(["--workload", "serve_tp2", "--seed", "0",
                                 "--seconds", "0.1", "--trace", str(trace)])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == declared
        assert all(NAME.fullmatch(name) for name in reported)
