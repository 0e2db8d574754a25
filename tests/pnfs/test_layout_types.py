"""Validation tests for layout types and config objects."""

import pytest

from repro.nfs import NfsConfig, Session
from repro.pnfs import FileLayout, SyntheticFileLayoutProvider
from repro.pvfs2 import Pvfs2Config
from repro.sim import Simulator


class TestFileLayout:
    def test_valid_layout(self):
        lo = FileLayout(
            device_slots=[0, 1, 2],
            fhs=[7, 7, 7],
            aggregation={"type": "round_robin", "nslots": 3, "stripe_unit": 1024},
        )
        assert len(lo.device_slots) == 3
        # Stateids come from the issuing MDS, not construction: a bare
        # layout is "not yet issued".
        assert lo.stateid == 0

    def test_stateids_unique_once_issued(self):
        sim = Simulator(seed=7)
        mk = lambda: FileLayout(
            device_slots=[0], fhs=[1], aggregation={"type": "round_robin"}
        )
        issued = []
        for _ in range(3):
            lo = mk()
            lo.stateid = sim.next_id("layout-stateid")
            issued.append(lo.stateid)
        assert len(set(issued)) == 3
        assert all(s > 0 for s in issued)

    def test_stateids_replay_identically(self):
        # Two same-seed simulators hand out the same stateid stream —
        # the property the process-global counter could not provide.
        streams = []
        for _ in range(2):
            sim = Simulator(seed=7)
            streams.append([sim.next_id("layout-stateid") for _ in range(4)])
        assert streams[0] == streams[1] == [1, 2, 3, 4]

    def test_mismatched_fhs_rejected(self):
        with pytest.raises(ValueError):
            FileLayout(device_slots=[0, 1], fhs=[1], aggregation={"type": "x"})

    def test_empty_devices_rejected(self):
        with pytest.raises(ValueError):
            FileLayout(device_slots=[], fhs=[], aggregation={"type": "x"})

    def test_untyped_aggregation_rejected(self):
        with pytest.raises(ValueError):
            FileLayout(device_slots=[0], fhs=[1], aggregation={})


class TestSyntheticProvider:
    def test_rotates_first_slot_per_file(self):
        provider = SyntheticFileLayoutProvider(3, 1024)

        def get(fh):
            gen = provider.get_layout(fh, "/x")
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value
            raise AssertionError("provider should not yield")

        slots = [get(fh).aggregation["first_slot"] for fh in (10, 11, 12, 13)]
        assert slots == [0, 1, 2, 0]

    def test_stable_per_fh(self):
        provider = SyntheticFileLayoutProvider(4, 512)

        def get(fh):
            gen = provider.get_layout(fh, "/y")
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

        assert get(42).aggregation["first_slot"] == get(42).aggregation["first_slot"]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticFileLayoutProvider(0, 1024)
        with pytest.raises(ValueError):
            SyntheticFileLayoutProvider(3, 0)


class TestConfigValidation:
    def test_nfs_config_bounds(self):
        with pytest.raises(ValueError):
            NfsConfig(rsize=0)
        with pytest.raises(ValueError):
            NfsConfig(server_threads=0)
        with pytest.raises(ValueError):
            NfsConfig(readahead=-1)

    def test_pvfs2_config_bounds(self):
        with pytest.raises(ValueError):
            Pvfs2Config(stripe_size=0)
        with pytest.raises(ValueError):
            Pvfs2Config(flow_buffers=0)
        with pytest.raises(ValueError):
            Pvfs2Config(dirty_watermark=1)


class TestSession:
    def test_slot_accounting(self):
        sim = Simulator()
        session = Session(sim, slots=2)

        def user():
            if not session.slots.try_acquire():
                yield session.slots.acquire()
            yield sim.timeout(1)
            session.slots.release()

        sim.process(user())
        sim.process(user())
        sim.process(user())
        sim.run()
        assert session.slots.high_water == 2
        assert session.slots.in_use == 0

    def test_session_ids_unique(self):
        sim = Simulator()
        assert Session(sim, 1).sessionid != Session(sim, 1).sessionid
