"""Tests for Payload and FileData."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vfs import FileData, Payload


class TestPayload:
    def test_real_payload_roundtrip(self):
        p = Payload(b"hello")
        assert p.nbytes == 5
        assert not p.is_synthetic
        assert p.data == b"hello"

    def test_synthetic_payload(self):
        p = Payload.synthetic(1000)
        assert p.nbytes == 1000
        assert p.is_synthetic
        assert p.data is None

    def test_negative_synthetic_rejected(self):
        with pytest.raises(ValueError):
            Payload.synthetic(-1)

    def test_slice_real(self):
        p = Payload(b"abcdef")
        assert p.slice(1, 3).data == b"bcd"

    def test_slice_clamps_to_bounds(self):
        p = Payload(b"abc")
        assert p.slice(2, 100).data == b"c"
        assert p.slice(10, 5).nbytes == 0

    def test_slice_synthetic(self):
        p = Payload.synthetic(100)
        s = p.slice(90, 50)
        assert s.is_synthetic and s.nbytes == 10

    def test_concat_real(self):
        assert Payload.concat([Payload(b"ab"), Payload(b"cd")]).data == b"abcd"

    def test_concat_mixed_becomes_synthetic(self):
        out = Payload.concat([Payload(b"ab"), Payload.synthetic(3)])
        assert out.is_synthetic and out.nbytes == 5

    @pytest.mark.parametrize(
        "pieces, expected",
        [
            # every piece full: plain concatenation
            ([(2, Payload(b"ab")), (2, Payload(b"cd"))], Payload(b"abcd")),
            # short piece followed by data: a hole, zero-filled to its asked length
            (
                [(3, Payload(b"a")), (2, Payload(b"")), (2, Payload(b"yz"))],
                Payload(b"a\0\0\0\0yz"),
            ),
            # trailing shortfall (and what follows it): EOF, stays short
            ([(2, Payload(b"ab")), (4, Payload(b"c")), (4, Payload(b""))], Payload(b"abc")),
            # a synthetic short piece gets a synthetic pad
            (
                [(8, Payload.synthetic(3)), (4, Payload.synthetic(4))],
                Payload.synthetic(12),
            ),
            # nothing asked, or nothing there at all
            ([], Payload(b"")),
            ([(4, Payload(b"")), (4, Payload(b""))], Payload(b"")),
        ],
    )
    def test_assemble_zero_fills_holes_but_not_eof(self, pieces, expected):
        got = Payload.assemble(pieces)
        assert (got.nbytes, got.data) == (expected.nbytes, expected.data)

    def test_accepts_bytearray_and_memoryview(self):
        assert Payload(bytearray(b"ab")).data == b"ab"
        assert Payload(memoryview(b"ab")).data == b"ab"

    def test_pickle_round_trip(self):
        fd = FileData()
        fd.write(0, Payload(b"abcd"))
        for p in (fd.read(0, 4), Payload(b"abcd").slice(1, 2), Payload.synthetic(9)):
            clone = pickle.loads(pickle.dumps(p))
            assert (clone.nbytes, clone.data) == (p.nbytes, p.data)


class TestSnapshotAtRead:
    """A read payload owns its bytes: it keeps observing the store as
    of the ``read`` call whatever happens to the store afterwards."""

    def test_read_observes_bytes_as_of_the_read(self):
        fd = FileData()
        fd.write(0, Payload(b"aaaa"))
        snap = fd.read(0, 4)
        fd.write(0, Payload(b"bbbb"))
        assert snap.data == b"aaaa"
        assert fd.read(0, 4).data == b"bbbb"

    def test_read_survives_later_truncate(self):
        fd = FileData()
        fd.write(0, Payload(b"abcdef"))
        snap = fd.read(0, 6)
        fd.truncate(2)
        assert snap.data == b"abcdef"
        assert fd.read(0, 6).data == b"ab"

    def test_read_survives_degradation_to_synthetic(self):
        fd = FileData(cap=8)
        fd.write(0, Payload(b"12345678"))
        snap = fd.read(0, 8)
        fd.write(8, Payload(b"xx"))  # over cap: store goes size-only
        assert snap.data == b"12345678"
        assert fd.read(0, 4).is_synthetic

    def test_many_reads_survive_one_overwrite(self):
        fd = FileData()
        fd.write(0, Payload(bytes(range(64))))
        snaps = [fd.read(i, 8) for i in range(0, 64, 8)]
        fd.write(0, Payload(b"\xff" * 64))
        for i, snap in enumerate(snaps):
            assert snap.data == bytes(range(i * 8, i * 8 + 8))


class TestFileData:
    def test_write_read_roundtrip(self):
        fd = FileData()
        fd.write(0, Payload(b"hello world"))
        assert fd.read(0, 11).data == b"hello world"
        assert fd.size == 11

    def test_sparse_hole_reads_zero(self):
        fd = FileData()
        fd.write(10, Payload(b"xy"))
        assert fd.read(0, 12).data == b"\x00" * 10 + b"xy"

    def test_read_truncated_at_eof(self):
        fd = FileData()
        fd.write(0, Payload(b"abc"))
        assert fd.read(1, 100).data == b"bc"
        assert fd.read(5, 10).nbytes == 0

    def test_overwrite(self):
        fd = FileData()
        fd.write(0, Payload(b"aaaa"))
        fd.write(1, Payload(b"bb"))
        assert fd.read(0, 4).data == b"abba"

    def test_synthetic_write_degrades_to_size_only(self):
        fd = FileData()
        fd.write(0, Payload(b"real"))
        fd.write(100, Payload.synthetic(50))
        assert fd.size == 150
        out = fd.read(0, 150)
        assert out.is_synthetic and out.nbytes == 150

    def test_cap_degrades_to_size_only(self):
        fd = FileData(cap=100)
        fd.write(0, Payload(b"x" * 200))
        assert fd.size == 200
        assert fd.read(0, 10).is_synthetic

    def test_truncate_shrinks(self):
        fd = FileData()
        fd.write(0, Payload(b"abcdef"))
        fd.truncate(3)
        assert fd.size == 3
        assert fd.read(0, 10).data == b"abc"

    def test_truncate_grows_sparse(self):
        fd = FileData()
        fd.write(0, Payload(b"ab"))
        fd.truncate(5)
        assert fd.read(0, 5).data == b"ab\x00\x00\x00"

    def test_invalid_args(self):
        fd = FileData()
        with pytest.raises(ValueError):
            fd.write(-1, Payload(b"x"))
        with pytest.raises(ValueError):
            fd.read(-1, 1)
        with pytest.raises(ValueError):
            fd.truncate(-1)

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 200), st.binary(min_size=0, max_size=64)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference_bytearray(self, writes):
        """FileData agrees with a plain bytearray reference model."""
        fd = FileData()
        ref = bytearray()
        for offset, data in writes:
            fd.write(offset, Payload(data))
            end = offset + len(data)
            if len(ref) < end:
                ref.extend(b"\x00" * (end - len(ref)))
            ref[offset:end] = data
        assert fd.size == len(ref)
        assert fd.read(0, len(ref)).data == bytes(ref)
        # Random window
        assert fd.read(7, 31).data == bytes(ref[7 : 7 + 31])
