"""Cross-cutting property-based tests on system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.database import ContentDatabase
from repro.core import OdrMiddleware, UserContext
from repro.core.decision import Action, DataSource
from repro.netsim.ip import IpAllocator
from repro.netsim.isp import ISP
from repro.sim import Simulator, Timeout
from repro.transfer.protocols import Protocol
from repro.transfer.session import DownloadSession, SessionLimits
from repro.transfer.source import HOME_VANTAGE, SourceModel

ALLOCATOR = IpAllocator()
IPS = {isp: ALLOCATOR.allocate(isp) for isp in ISP}


class TestEngineProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6),
                           min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_all_processes_complete_and_time_is_their_max(self, delays):
        sim = Simulator()

        def sleeper(delay):
            yield Timeout(delay)
            return delay

        processes = [sim.process(sleeper(d)) for d in delays]
        sim.run()
        assert all(p.done for p in processes)
        assert sim.now == pytest.approx(max(delays))

    @given(depths=st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_nested_process_chains_resolve(self, depths):
        sim = Simulator()

        def chain(depth):
            if depth == 0:
                yield Timeout(1.0)
                return 0
            value = yield sim.process(chain(depth - 1))
            return value + 1

        process = sim.process(chain(depths))
        sim.run()
        assert process.result == depths
        assert sim.now == pytest.approx(1.0)


class TestSessionProperties:
    @given(size=st.floats(min_value=1.0, max_value=5e9),
           demand=st.integers(min_value=0, max_value=5000),
           protocol=st.sampled_from(list(Protocol)),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=120, deadline=None)
    def test_outcomes_are_always_physical(self, size, demand, protocol,
                                          seed):
        source = SourceModel().build("f", protocol, demand)
        session = DownloadSession(
            source, size, HOME_VANTAGE,
            limits=SessionLimits(rate_caps=(2.5e6,)))
        outcome = session.simulate(np.random.default_rng(seed))
        assert 0.0 <= outcome.bytes_obtained <= size
        assert outcome.duration > 0.0
        assert outcome.average_rate <= 2.5e6 + 1e-6
        assert outcome.traffic >= 0.0
        if outcome.success:
            assert outcome.bytes_obtained == size
            assert outcome.failure_cause is None
        else:
            assert outcome.failure_cause is not None
        assert outcome.peak_rate >= outcome.average_rate - 1e-9


class TestOdrDecisionProperties:
    @given(popularity=st.integers(min_value=0, max_value=5000),
           cached=st.booleans(),
           bandwidth=st.one_of(
               st.none(),
               st.floats(min_value=1e3, max_value=1e7)),
           isp=st.sampled_from(list(ISP)),
           protocol=st.sampled_from(list(Protocol)))
    @settings(max_examples=200, deadline=None)
    def test_every_input_yields_a_coherent_decision(
            self, popularity, cached, bandwidth, isp, protocol):
        database = ContentDatabase()
        for when in range(min(popularity, 200)):
            database.record_request("f", 1e8, float(when))
        if popularity > 200:
            database.row("f").request_count = popularity
        database.set_cached("f", cached)
        context = UserContext(IPS[isp], bandwidth, None)
        decision = OdrMiddleware(database).decide(context, "f", protocol)

        # Structural coherence:
        assert isinstance(decision.action, Action)
        assert isinstance(decision.data_source, DataSource)
        assert decision.rationale
        # Without an AP, no decision can involve one.
        assert decision.action not in (Action.SMART_AP,
                                       Action.CLOUD_THEN_SMART_AP)
        # Uncached non-hot files always go through the cloud
        # pre-download path (Bottleneck 3).
        if popularity <= 84 and not cached:
            assert decision.action is Action.CLOUD_PREDOWNLOAD
        # Highly popular P2P never burns cloud delivery bandwidth.
        if popularity > 84 and protocol.is_p2p:
            assert not decision.uses_cloud_bandwidth
