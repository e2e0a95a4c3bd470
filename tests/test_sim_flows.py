"""Fluid-flow network: sharing, caps, weights, and ledger accounting."""

import pytest

from repro.api import RunSpec
from repro.api import build as api_build
from repro.hardware import single_node_cluster
from repro.hardware.link import Link
from repro.hardware.serdes import TrafficProfile
from repro.sim.engine import Engine
from repro.sim.flows import FlowNetwork


@pytest.fixture()
def cluster():
    c = single_node_cluster()
    c.reset()
    return c


def run_transfer(cluster, src, dst, num_bytes, count=1, **kwargs):
    engine = Engine()
    network = FlowNetwork(engine)
    route = cluster.topology.route(src, dst)
    times = []
    for _ in range(count):
        event = network.transfer(route, num_bytes, **kwargs)
        event.add_callback(lambda e: times.append(engine.now))
    engine.run()
    return times, network


class TestSingleFlow:
    def test_duration_matches_bandwidth(self, cluster):
        # GPU pair: 4 NVLinks x 25 GB/s x 0.9 = 90 GB/s.
        times, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9)
        assert times[0] == pytest.approx(0.1, rel=1e-3)

    def test_zero_bytes_completes_after_latency(self, cluster):
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")
        engine = Engine()
        network = FlowNetwork(engine)
        event = network.transfer(route, 0.0)
        engine.run()
        assert event.triggered
        assert engine.now == pytest.approx(route.latency())

    def test_loopback_is_instant(self, cluster):
        route = cluster.topology.route("node0/gpu0", "node0/gpu0")
        engine = Engine()
        network = FlowNetwork(engine)
        network.transfer(route, 5e9)
        engine.run()
        assert engine.now == pytest.approx(0.0)

    def test_cap_limits_rate(self, cluster):
        times, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9,
                                cap=9e9)
        assert times[0] == pytest.approx(1.0, rel=1e-3)

    def test_weight_multiplier_scales_attained_rate(self, cluster):
        fast, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9)
        slow, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9,
                               weight_multiplier=3.0)
        assert slow[0] == pytest.approx(3 * fast[0], rel=1e-2)


class TestSharing:
    def test_two_flows_halve_rate(self, cluster):
        times, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9,
                                count=2)
        assert times[-1] == pytest.approx(0.2, rel=1e-2)

    def test_aggregate_is_work_conserving(self, cluster):
        times, network = run_transfer(cluster, "node0/gpu0", "node0/gpu1",
                                      9e9, count=3)
        # 27 GB over a 90 GB/s pool: 0.3 s regardless of flow count.
        assert times[-1] == pytest.approx(0.3, rel=1e-2)

    def test_disjoint_routes_do_not_contend(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        r1 = cluster.topology.route("node0/gpu0", "node0/gpu1")
        r2 = cluster.topology.route("node0/gpu2", "node0/gpu3")
        done = []
        for route in (r1, r2):
            network.transfer(route, 9e9).add_callback(
                lambda e: done.append(engine.now))
        engine.run()
        assert done[-1] == pytest.approx(0.1, rel=1e-2)

    def test_weighted_flow_consumes_more_pool(self, cluster):
        """A weighted flow burns extra pool capacity, so a plain+heavy
        pair finishes later than two plain flows of the same size."""
        def pair_completion(heavy_weight):
            engine = Engine()
            network = FlowNetwork(engine)
            route = cluster.topology.route("node0/gpu0", "node0/gpu1")
            network.transfer(route, 9e9, label="plain")
            network.transfer(route, 9e9, weight_multiplier=heavy_weight,
                             label="second")
            return engine.run()

        assert pair_completion(2.0) > pair_completion(1.0) * 1.2

    def test_opposite_directions_full_duplex(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        fwd = cluster.topology.route("node0/gpu0", "node0/gpu1")
        rev = cluster.topology.route("node0/gpu1", "node0/gpu0")
        done = []
        network.transfer(fwd, 9e9).add_callback(lambda e: done.append(engine.now))
        network.transfer(rev, 9e9).add_callback(lambda e: done.append(engine.now))
        engine.run()
        # Full duplex: both finish as if alone.
        assert done[-1] == pytest.approx(0.1, rel=1e-2)

    def test_half_duplex_dram_shares_one_pool(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        to_dram = cluster.topology.route("node0/gpu0", "node0/dram0")
        from_dram = cluster.topology.route("node0/dram0", "node0/gpu0")
        done = []
        payload = 10e9
        network.transfer(to_dram, payload).add_callback(
            lambda e: done.append(engine.now))
        solo_time = None
        engine.run()
        solo_time = done[-1]
        done.clear()
        engine2 = Engine()
        network2 = FlowNetwork(engine2)
        cluster.reset()
        to_dram = cluster.topology.route("node0/gpu0", "node0/dram0")
        from_dram = cluster.topology.route("node0/dram0", "node0/gpu0")
        network2.transfer(to_dram, payload).add_callback(
            lambda e: done.append(engine2.now))
        network2.transfer(from_dram, payload).add_callback(
            lambda e: done.append(engine2.now))
        engine2.run()
        # DRAM is half duplex: concurrent opposite flows contend there
        # unless PCIe is the bottleneck; they must not finish faster.
        assert done[-1] >= solo_time


class TestLedgers:
    def test_bytes_recorded_on_every_link(self, cluster):
        run_transfer(cluster, "node0/gpu0", "node0/dram0", 5e9)
        route = cluster.topology.route("node0/gpu0", "node0/dram0")
        for link in route.links:
            assert link.ledger.total_bytes == pytest.approx(5e9)

    def test_settle_records_partial_progress(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")
        network.transfer(route, 900e9)  # 10 s at 90 GB/s
        engine.run(until=1.0)
        network.settle()
        moved = route.links[0].ledger.total_bytes
        assert moved == pytest.approx(90e9, rel=0.05)

    def test_completion_counters(self, cluster):
        _, network = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 1e9,
                                  count=3)
        assert network.completed_flows == 3
        assert network.total_bytes_moved == pytest.approx(3e9)


class TestNumericalRobustness:
    def test_many_small_sequential_transfers_terminate(self, cluster):
        """Regression: fp residue must not stall the clock (zero-dt loop)."""
        engine = Engine()
        network = FlowNetwork(engine)
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")

        def proc():
            for _ in range(200):
                yield network.transfer(route, 54765568.0)  # awkward size

        engine.process(proc())
        engine.run(max_events=200_000)
        assert network.completed_flows == 200


class FlowCatcher:
    """Minimal flow observer that keeps every flow the network starts."""

    def __init__(self):
        self.flows = []

    def flow_started(self, flow):
        self.flows.append(flow)

    def flow_finished(self, flow, now):
        pass


class TestFlowObservers:
    """``FlowNetwork.observers``: every observer sees every flow start
    and finish, in the order the network made them."""

    def test_two_observers_see_every_start_and_finish_in_order(
            self, cluster):
        calls = []

        class Log:
            def __init__(self, name):
                self.name = name

            def flow_started(self, flow):
                calls.append((self.name, "start", flow.id, flow.started_at))

            def flow_finished(self, flow, now):
                calls.append((self.name, "finish", flow.id, now))

        engine = Engine()
        network = FlowNetwork(engine, observers=(Log("a"), Log("b")))
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")
        for _ in range(3):  # one instant: a batched activation
            network.transfer(route, 1e9)
        network.transfer(route, 0)  # zero bytes: no flow, no calls
        engine.schedule_at(0.005, network.transfer, route, 2e9)
        engine.run()

        first = [call[1:] for call in calls[0::2]]
        assert [call[0] for call in calls] == ["a", "b"] * len(first)
        assert [call[1:] for call in calls[1::2]] == first
        starts = [flow_id for kind, flow_id, _ in first if kind == "start"]
        finishes = [flow_id for kind, flow_id, _ in first
                    if kind == "finish"]
        assert len(starts) == network.completed_flows == 4
        assert sorted(finishes) == sorted(starts)
        position = {(kind, flow_id): index
                    for index, (kind, flow_id, _) in enumerate(first)}
        for flow_id in starts:
            assert position["start", flow_id] < position["finish", flow_id]
        stamps = [stamp for _, _, stamp in first]
        assert stamps == sorted(stamps)
        assert first[-1][2] == engine.now

    def test_no_observers_by_default(self):
        assert FlowNetwork(Engine()).observers == ()


def link_named(cluster, name):
    return next(link for link in cluster.topology.links if link.name == name)


class TestCapacityEpoch:
    """A flow's ``cap``/``weight`` are cached behind ``Link.capacity_epoch``;
    every way a link's capacity can change must invalidate them."""

    # gpu0 -> nic1 crosses xGMI: two contended SerDes joints, so the
    # pool weight is above 1 while the route is up.
    ROUTE = ("node0/gpu0", "node0/nic1")

    def live_flow(self, cluster):
        engine = Engine()
        catcher = FlowCatcher()
        network = FlowNetwork(engine, observers=(catcher,))
        route = cluster.topology.route(*self.ROUTE)
        network.transfer(route, 1e12)  # far longer than the test window
        engine.run(until=1e-3)
        (flow,) = catcher.flows
        return engine, network, route, flow

    @staticmethod
    def expected(route, flow):
        derated = route.bandwidth(flow.profile)
        bottleneck = min(link.capacity_per_direction for link in route.links)
        return derated, bottleneck / derated

    def test_follows_set_capacity_fraction_and_rebalance(self, cluster):
        engine, network, route, flow = self.live_flow(cluster)
        healthy_cap, healthy_weight = flow.cap, flow.weight
        assert healthy_weight > 1.0
        xgmi = link_named(cluster, "node0/xgmi")
        network.settle()
        xgmi.set_capacity_fraction(0.25, at_time=engine.now)
        network.rebalance()
        cap, weight = self.expected(route, flow)
        assert (flow.cap, flow.weight) == (cap, weight)
        assert flow.cap < healthy_cap
        assert flow.rate == flow.cap
        # A hard outage pins the ceiling to zero and the weight to the
        # multiplier.
        network.settle()
        xgmi.set_capacity_fraction(0.0, at_time=engine.now)
        network.rebalance()
        assert (flow.cap, flow.weight, flow.rate) == (0.0, 1.0, 0.0)
        network.settle()
        xgmi.set_capacity_fraction(1.0, at_time=engine.now)
        network.rebalance()
        assert (flow.cap, flow.weight) == (healthy_cap, healthy_weight)

    def test_follows_reset_capacity(self, cluster):
        engine, network, route, flow = self.live_flow(cluster)
        healthy = (flow.cap, flow.weight)
        network.settle()
        link_named(cluster, "node0/pcie-nic1").set_capacity_fraction(
            0.0, at_time=engine.now)
        network.rebalance()
        assert flow.cap == 0.0
        # The cluster-wide reset path (every link's reset_capacity).
        cluster.reset()
        network.rebalance()
        assert (flow.cap, flow.weight) == healthy
        assert flow.rate == flow.cap

    def test_clusters_never_share_stale_values(self):
        first, second = single_node_cluster(), single_node_cluster()
        _, net_a, route_a, flow_a = self.live_flow(first)
        _, net_b, route_b, flow_b = self.live_flow(second)
        healthy = (flow_b.cap, flow_b.weight)
        assert (flow_a.cap, flow_a.weight) == healthy

        link_named(first, "node0/xgmi").set_capacity_fraction(0.25)
        net_a.rebalance()
        net_b.rebalance()
        assert flow_a.cap < healthy[0]
        assert (flow_b.cap, flow_b.weight) == healthy

        link_named(second, "node0/pcie-gpu0").set_capacity_fraction(0.5)
        net_b.rebalance()
        net_a.rebalance()
        assert (flow_a.cap, flow_a.weight) == self.expected(route_a, flow_a)
        assert (flow_b.cap, flow_b.weight) == self.expected(route_b, flow_b)
        assert flow_a.cap != flow_b.cap

        first.reset()
        net_a.rebalance()
        net_b.rebalance()
        assert (flow_a.cap, flow_a.weight) == healthy
        assert (flow_b.cap, flow_b.weight) == self.expected(route_b, flow_b)
        assert flow_b.cap < healthy[0]

    def test_refresh_is_free_until_a_capacity_changes(self, cluster):
        _, network, route, flow = self.live_flow(cluster)
        calls = []
        bandwidth = route.bandwidth

        def counting(profile=TrafficProfile.SUSTAINED):
            calls.append(profile)
            return bandwidth(profile)

        route.bandwidth = counting
        network.rebalance()
        network.rebalance()
        assert calls == []
        link_named(cluster, "node0/xgmi").set_capacity_fraction(0.5)
        network.rebalance()
        network.rebalance()
        assert calls == [flow.profile]


class TestCachedVersusUncached:
    """Differential oracle: forcing the capacity cache to miss on every
    allocation must not move a single simulated bit."""

    SPECS = {
        "dual_node": RunSpec("megatron", size_billions=1.4, nodes=2,
                             iterations=2, warmup_iterations=1),
        "fault_plan": RunSpec(
            "zero3", size_billions=1.4, nodes=2, iterations=2,
            warmup_iterations=1,
            faults=("node0/xgmi:degrade@t=2ms,dur=3ms,mag=0.5",
                    "node0/nic0:down@t=4ms,dur=2ms"),
        ),
    }

    @staticmethod
    def outputs(spec):
        cluster = api_build.build_cluster(spec)
        metrics = api_build.run_spec(spec, cluster=cluster)
        execution = metrics.execution
        return {
            "iteration_times": list(execution.iteration_times),
            "tflops": metrics.tflops,
            "events_processed": execution.events_processed,
            "ledger_bytes": {link.name: link.ledger.total_bytes
                             for link in cluster.topology.links},
            "ledger_records": {link.name: len(link.ledger)
                               for link in cluster.topology.links},
        }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_bit_identical(self, name, monkeypatch):
        spec = self.SPECS[name]
        cached = self.outputs(spec)

        compute_rates = FlowNetwork._compute_rates

        def always_miss(network):
            Link.capacity_epoch += 1
            compute_rates(network)

        monkeypatch.setattr(FlowNetwork, "_compute_rates", always_miss)
        uncached = self.outputs(spec)
        assert cached == uncached

    def test_fault_plan_changes_the_run(self):
        healthy = self.outputs(self.SPECS["fault_plan"].replace(faults=()))
        faulted = self.outputs(self.SPECS["fault_plan"])
        assert healthy["iteration_times"] != faulted["iteration_times"]
        assert healthy["events_processed"] != faulted["events_processed"]
