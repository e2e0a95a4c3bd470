"""Link specs and the bandwidth ledger."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.link import (
    BandwidthLedger,
    Link,
    LinkClass,
    LinkSpec,
    SERDES_CLASSES,
)


def make_spec(**overrides):
    base = dict(link_class=LinkClass.PCIE_GPU,
                bandwidth_per_direction=32e9, latency=1e-6,
                efficiency=0.9)
    base.update(overrides)
    return LinkSpec(**base)


class TestLinkSpec:
    def test_bidirectional_duplex(self):
        spec = make_spec()
        assert spec.bandwidth_bidirectional == pytest.approx(64e9)

    def test_bidirectional_half_duplex(self):
        spec = make_spec(duplex=False)
        assert spec.bandwidth_bidirectional == pytest.approx(32e9)

    def test_attainable_applies_efficiency(self):
        spec = make_spec(efficiency=0.5)
        assert spec.attainable_per_direction == pytest.approx(16e9)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            make_spec(bandwidth_per_direction=0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigurationError):
            make_spec(efficiency=0.0)
        with pytest.raises(ConfigurationError):
            make_spec(efficiency=1.5)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            make_spec(latency=-1e-9)


class TestLink:
    def test_capacity_scales_with_count(self):
        link = Link("l", make_spec(), "a", "b", count=4)
        assert link.capacity_per_direction == pytest.approx(4 * 32e9 * 0.9)

    def test_capacity_bidirectional_uses_theoretical(self):
        link = Link("l", make_spec(), "a", "b", count=2)
        assert link.capacity_bidirectional == pytest.approx(2 * 64e9)

    def test_other_end(self):
        link = Link("l", make_spec(), "a", "b")
        assert link.other_end("a") == "b"
        assert link.other_end("b") == "a"

    def test_other_end_rejects_stranger(self):
        link = Link("l", make_spec(), "a", "b")
        with pytest.raises(ConfigurationError):
            link.other_end("c")

    def test_connects(self):
        link = Link("l", make_spec(), "a", "b")
        assert link.connects("a", "b")
        assert link.connects("b", "a")
        assert not link.connects("a", "c")

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            Link("l", make_spec(), "a", "b", count=0)


class TestSerdesClasses:
    def test_pcie_and_xgmi_are_serdes(self):
        for cls in (LinkClass.XGMI, LinkClass.PCIE_GPU,
                    LinkClass.PCIE_NVME, LinkClass.PCIE_NIC):
            assert cls in SERDES_CLASSES

    def test_nvlink_dram_roce_are_not(self):
        for cls in (LinkClass.NVLINK, LinkClass.DRAM, LinkClass.ROCE):
            assert cls not in SERDES_CLASSES


class TestBandwidthLedger:
    def test_total_bytes(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 10e9)
        ledger.record(1.0, 2.0, 5e9)
        assert ledger.total_bytes == pytest.approx(15e9)

    def test_zero_byte_records_are_dropped(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 0.0)
        assert len(ledger) == 0

    def test_rejects_reversed_interval(self):
        ledger = BandwidthLedger()
        with pytest.raises(ConfigurationError):
            ledger.record(2.0, 1.0, 1.0)

    def test_rejects_negative_bytes(self):
        ledger = BandwidthLedger()
        with pytest.raises(ConfigurationError):
            ledger.record(0.0, 1.0, -5.0)

    def test_utilization_at_instant(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 2.0, 20e9)  # 10 GB/s
        ledger.record(1.0, 2.0, 5e9)   # 5 GB/s
        assert ledger.utilization_at(0.5) == pytest.approx(10e9)
        assert ledger.utilization_at(1.5) == pytest.approx(15e9)
        assert ledger.utilization_at(2.5) == 0.0

    def test_sample_conserves_bytes(self):
        ledger = BandwidthLedger()
        ledger.record(0.1, 0.9, 8e9)
        samples = ledger.sample(0.0, 1.0, 10)
        bin_width = 0.1
        assert sum(s * bin_width for s in samples) == pytest.approx(8e9)

    def test_sample_uniform_rate(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 10e9)
        samples = ledger.sample(0.0, 1.0, 4)
        for s in samples:
            assert s == pytest.approx(10e9)

    def test_sample_instantaneous_record(self):
        ledger = BandwidthLedger()
        ledger.record(0.5, 0.5, 1e9)
        samples = ledger.sample(0.0, 1.0, 10)
        assert sum(s * 0.1 for s in samples) == pytest.approx(1e9)

    def test_sample_rejects_bad_window(self):
        ledger = BandwidthLedger()
        with pytest.raises(ConfigurationError):
            ledger.sample(1.0, 1.0, 10)
        with pytest.raises(ConfigurationError):
            ledger.sample(0.0, 1.0, 0)

    def test_clear(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 1e9)
        ledger.clear()
        assert len(ledger) == 0
        assert ledger.total_bytes == 0.0

    def test_sample_outside_window_is_zero(self):
        ledger = BandwidthLedger()
        ledger.record(10.0, 11.0, 1e9)
        samples = ledger.sample(0.0, 1.0, 5)
        assert all(s == 0.0 for s in samples)


CAPACITY_CHANGES = st.lists(
    st.one_of(
        st.tuples(st.just("set"),
                  st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False)),
        st.tuples(st.just("reset"), st.just(1.0)),
    ),
    max_size=12,
)


class TestCapacityEpoch:
    @settings(max_examples=60, deadline=None)
    @given(changes=CAPACITY_CHANGES,
           count=st.integers(min_value=1, max_value=4),
           efficiency=st.floats(min_value=0.05, max_value=1.0))
    def test_capacity_matches_fraction_bitwise(self, changes, count,
                                               efficiency):
        link = Link("l", make_spec(efficiency=efficiency), "a", "b",
                    count=count)
        now = 0.0
        for verb, fraction in changes:
            epoch = Link.capacity_epoch
            if verb == "set":
                now += 1e-3
                link.set_capacity_fraction(fraction, at_time=now)
            else:
                link.reset_capacity()
                now = 0.0
            assert Link.capacity_epoch > epoch
            expected = (link.base_capacity_per_direction
                        * link.capacity_fraction)
            assert (struct.pack("<d", link.capacity_per_direction)
                    == struct.pack("<d", expected))
