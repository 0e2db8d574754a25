"""The reference model's oracles, exercised directly."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.check.model import Model
from repro.check.program import SHARED, Op, generate, ns_path, private_path
from tests.check.reference_model import owner_map


def _model(seed=3):
    return Model(generate(seed, n_clients=2))


def _bytes(size, fills):
    buf = np.zeros(size, dtype=np.uint8)
    for start, end, tag in fills:
        buf[start:end] = tag
    return buf.tobytes()


class TestReadOracle:
    def test_accepts_any_historical_value(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 100, tag=5)
        m.on_write_ack(path, i0)
        i1 = m.on_write_start(0, path, 0, 100, tag=6)
        m.on_write_ack(path, i1)
        # A *different* client may see the old value, the new one, or a
        # hole — close-to-open consistency allows staleness.
        for fills in ([(0, 100, 5)], [(0, 100, 6)], [], [(0, 50, 5), (50, 100, 6)]):
            data = _bytes(size, fills)[:100]
            assert m.check_read(1, path, 0, data, 100) == []

    def test_rejects_invented_values(self):
        m = _model()
        path = private_path(0)
        data = _bytes(100, [(10, 20, 99)])
        out = m.check_read(1, path, 0, data, 100)
        assert len(out) == 1 and "never written" in out[0]

    def test_read_your_writes_enforced(self):
        m = _model()
        path = private_path(0)
        i0 = m.on_write_start(0, path, 0, 100, tag=5)
        m.on_write_ack(path, i0)
        stale = _bytes(100, [])  # zeros where own write put tag 5
        out = m.check_read(0, path, 0, stale, 100)
        assert any("read-your-writes" in v for v in out)
        # ... but not after an I/O error was surfaced to that client.
        m.on_error(0, path, "fsync")
        assert m.check_read(0, path, 0, stale, 100) == []

    def test_synthetic_payload_skips_content_checks(self):
        m = _model()
        assert m.check_read(0, SHARED, 0, None, 4096) == []
        assert m.synthetic_reads == 1


class TestDurabilityOracle:
    def test_fsynced_write_must_survive(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        m.on_durable(0, path)
        assert m.check_final(path, _bytes(size, [(0, 200, 7)]), size) == []
        lost = m.check_final(path, _bytes(size, []), size)
        assert len(lost) == 1 and "silent-loss" in lost[0]

    def test_unfsynced_write_may_be_lost(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        # No fsync: both the new value and a hole are acceptable.
        assert m.check_final(path, _bytes(size, [(0, 200, 7)]), size) == []
        assert m.check_final(path, _bytes(size, []), size) == []

    def test_later_unfsynced_overwrite_is_acceptable(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        m.on_durable(0, path)
        i1 = m.on_write_start(0, path, 50, 150, tag=8)
        m.on_write_ack(path, i1)
        # tag 8 flushed (or not) — but tag 7 may never resurface below 8.
        assert (
            m.check_final(path, _bytes(size, [(0, 200, 7), (50, 150, 8)]), size)
            == []
        )
        assert m.check_final(path, _bytes(size, [(0, 200, 7)]), size) == []

    def test_reverting_below_floor_is_a_violation(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        i1 = m.on_write_start(0, path, 0, 200, tag=8)
        m.on_write_ack(path, i1)
        m.on_durable(0, path)  # floor now at tag 8
        out = m.check_final(path, _bytes(size, [(0, 200, 7)]), size)
        assert len(out) == 1 and "durability" in out[0]

    def test_attempted_unacked_write_is_allowed(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        m.on_write_start(0, path, 0, 100, tag=9)  # never acked
        assert m.check_final(path, _bytes(size, [(0, 100, 9)]), size) == []


class TestGetattrOracle:
    def test_the_sole_writer_must_see_the_exact_size(self):
        m = _model()
        path = private_path(0)
        m.on_write_ack(path, m.on_write_start(0, path, 0, 100, tag=5))
        m.on_trunc_ack(path, m.on_trunc_start(0, path, 300), 300)
        # Above the owner's own extend, below the cap: only the exact
        # size after the truncate is right.
        out = m.check_getattr(0, path, SimpleNamespace(size=200))
        assert len(out) == 1 and "sole writer" in out[0]
        assert m.check_getattr(0, path, SimpleNamespace(size=300)) == []

    def test_the_shared_file_has_no_sole_writer(self):
        m = _model()
        chunk = m.program.chunk  # client 1's first slot
        m.on_write_ack(SHARED, m.on_write_start(1, SHARED, chunk, chunk + 100, tag=5))
        # Client 0 has no acknowledged extend here: any size up to the
        # largest attempted write is a legal view of the race.
        assert m.check_getattr(0, SHARED, SimpleNamespace(size=50)) == []


def _array_bytes(st) -> int:
    return sum(v.nbytes for v in vars(st).values() if isinstance(v, np.ndarray))


class TestLayout:
    """Per-file state: index arrays as wide as the program needs, one
    writer array, and ownership as one value per file."""

    def test_default_widths_hold_five_bytes_per_file_byte(self):
        """A ceiling, so the layout cannot grow back unnoticed (the
        per-byte owner map with int32 indices held 12)."""
        m = _model()
        for st in m.files.values():
            assert st.last_acked_idx.dtype == st.floor_idx.dtype == np.int16
            assert st.acked_writer.dtype == np.int8
            assert _array_bytes(st) <= 5 * st.size

    def test_long_program_gets_int32_indices_that_do_not_wrap(self):
        base = generate(3, n_clients=2)
        p = replace(base, ops=[[Op("sleep")] * 2**15, []])
        m = Model(p)
        path = private_path(0)
        st = m.files[path]
        assert st.last_acked_idx.dtype == st.floor_idx.dtype == np.int32
        for k in range(40_001):
            idx = m.on_write_start(0, path, 0, 8, tag=k % 255 + 1)
        assert idx == 40_000
        m.on_write_ack(path, idx)
        m.on_durable(0, path)
        assert (st.last_acked_idx[:8] == 40_000).all()
        assert (st.floor_idx[:8] == 40_000).all()
        own = bytes([40_000 % 255 + 1]) * 8
        assert m.check_read(0, path, 0, own, 8) == []

    def test_many_clients_widen_the_writer_array(self):
        p = replace(generate(3, n_clients=2), n_clients=2**7)
        assert Model(p).files[SHARED].acked_writer.dtype == np.int16

    @staticmethod
    def _per_byte_sole_writer(p, path, client) -> bool:
        """The per-byte rule ``check_getattr`` used: every byte has the
        same owner, and that owner is ``client``."""
        owners = owner_map(p, path)
        return bool((owners == owners[0]).all()) and int(owners[0]) == client

    @pytest.mark.parametrize(
        "kw",
        [{"n_clients": 1}, {}, {"metadata_ops": True}],
        ids=["one-client", "data", "metadata"],
    )
    def test_sole_writer_equals_the_per_byte_rule(self, kw):
        for seed in range(10):
            p = generate(seed, **kw)
            m = Model(p)
            paths = p.files + [ns_path(p.ns_slot_of(c)) for c in range(p.n_clients)]
            for path in paths:
                sole = m._state(path).sole_writer
                for client in range(p.n_clients):
                    expect = self._per_byte_sole_writer(p, path, client)
                    assert (sole == client) == expect, (seed, kw, path, client)
