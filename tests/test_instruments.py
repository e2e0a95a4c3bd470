"""One instrumentation surface: wiring, teardown, and invariance.

:class:`~repro.sim.instruments.Instruments` wires the tie order, the
schedule sanitizer, the trace recorder and the leak sanitizer the same
way for training, serving and cluster runs.  Every observer only
appends to Python containers, so a serving or cluster run must give the
same headline with trace and leak check on as with both off — under
FIFO and under a perturbed tie order alike (the training side is pinned
by ``test_trace_invariance.py`` and ``test_leak_check_is_schedule_
invariant``).
"""

import pytest

from repro.api import RunSpec
from repro.cluster import ClusterScenario, run_cluster
from repro.core.runner import run_training
from repro.hardware import single_node_cluster
from repro.inference import InferenceSpec, run_inference
from repro.model import paper_model
from repro.parallel import DdpStrategy
from repro.sim.engine import ReversedTies, SeededTies
from repro.sim.instruments import Instruments, tie_order_for

TIE_ORDERS = ["fifo", "reversed"]


class TestWiring:
    def test_tie_order_names_map_to_engine_policies(self):
        assert tie_order_for("fifo", 7) is None
        assert isinstance(tie_order_for("reversed", 7), ReversedTies)
        seeded = tie_order_for("seeded", 11)
        assert isinstance(seeded, SeededTies) and seeded.seed == 11

    def test_nothing_selected_attaches_nothing(self):
        cluster = single_node_cluster()
        instruments = Instruments()
        engine, network = instruments.build(cluster)
        assert network.observers == ()
        assert engine.sanitizer is None
        assert instruments.recorder is None
        assert all(device.memory.observer is None
                   for device in cluster.topology.devices
                   if device.memory is not None)
        assert instruments.finalize() == (None, None)

    def test_everything_selected_attaches_once(self):
        cluster = single_node_cluster()
        spec = RunSpec("ddp", size_billions=0.7, tie_order="seeded",
                       tie_seed=3, sanitize=True, trace=True,
                       leak_check=True)
        instruments = Instruments.for_spec(spec)
        engine, network = instruments.build(cluster)
        assert network.observers == (instruments.recorder,
                                     instruments.leaksan)
        assert engine.sanitizer is instruments.sanitizer
        assert engine.tie_order.name == "seeded[3]"
        pool = cluster.gpu(0).memory
        assert pool.observer is instruments.leaksan
        pool.allocate("x", 1.0)
        pool.free("x")
        sanitizer, leaks = instruments.finalize()
        assert sanitizer is not None and sanitizer.clean
        assert leaks is not None and leaks.clean
        assert leaks.pool_events == 2

    def test_unchecked_run_detaches_an_earlier_runs_sanitizer(self):
        cluster = single_node_cluster()
        checked = run_training(cluster, DdpStrategy(), paper_model(4),
                               iterations=2, leak_check=True)
        report = checked.leaks.to_dict()
        run_training(cluster, DdpStrategy(), paper_model(4), iterations=2)
        assert checked.leaks.to_dict() == report
        assert cluster.gpu(0).memory.observer is None

    def test_serving_and_cluster_specs_are_never_sanitized(self):
        for spec in (InferenceSpec(size_billions=0.35),
                     ClusterScenario(num_jobs=2)):
            assert not Instruments.for_spec(spec).sanitize


def _serving_headline(tie_order, instrumented):
    spec = InferenceSpec(size_billions=0.35, gpus=2, num_requests=10,
                         rate_per_second=8.0, tie_order=tie_order,
                         trace=instrumented, leak_check=instrumented)
    run = run_inference(spec)
    assert (run.trace is not None) == instrumented
    assert (run.leaks is not None) == instrumented
    if instrumented:
        assert run.leaks.clean, run.leaks.to_dict()
    return run.report.headline()


def _cluster_headline(tie_order, instrumented):
    scenario = ClusterScenario(name="instrumented", nodes=2,
                               rate_per_hour=3000.0, num_jobs=4,
                               mix="mixed", tie_order=tie_order,
                               trace=instrumented,
                               leak_check=instrumented)
    run = run_cluster(scenario)
    assert (run.trace is not None) == instrumented
    assert (run.leaks is not None) == instrumented
    if instrumented:
        assert run.leaks.clean, run.leaks.to_dict()
    return run.report.headline()


class TestInstrumentationInvariance:
    """Exact comparison, no rounding: no observer may move a float."""

    @pytest.mark.parametrize("tie_order", TIE_ORDERS)
    def test_serving_headline_identical_with_instruments_on(self,
                                                            tie_order):
        assert (_serving_headline(tie_order, instrumented=True)
                == _serving_headline(tie_order, instrumented=False))

    @pytest.mark.parametrize("tie_order", TIE_ORDERS)
    def test_cluster_headline_identical_with_instruments_on(self,
                                                            tie_order):
        assert (_cluster_headline(tie_order, instrumented=True)
                == _cluster_headline(tie_order, instrumented=False))
