"""Sparse file-content store with graceful degradation to size-only mode.

Functional tests write real bytes and read them back exactly; benchmark
workloads write synthetic payloads hundreds of megabytes long.  A
:class:`FileData` starts *exact* (a real zero-filled buffer) and drops
to size-only accounting as soon as a synthetic payload arrives or the
file outgrows the materialisation cap; from then on reads return
synthetic payloads of the correct length.  The switch is one-way and
per-file, so small functional files keep full fidelity even in runs
that also move synthetic gigabytes.
"""

from __future__ import annotations

from repro.vfs.api import Payload

__all__ = ["FileData"]

#: Files larger than this stop storing real bytes (per storage object).
MATERIALISE_CAP = 64 * 1024 * 1024


class FileData:
    """Contents of one storage object (whole file or one server's stripe)."""

    __slots__ = ("size", "_buf", "exact")

    def __init__(self):
        self.size = 0
        self._buf = bytearray()
        self.exact = True

    def write(self, offset: int, payload: Payload) -> None:
        """Store ``payload`` at ``offset``, extending the object if needed."""
        if offset < 0:
            raise ValueError("offset must be >= 0")
        end = offset + payload.nbytes
        if end > self.size:
            self.size = end
        if not self.exact:
            return
        if payload.is_synthetic or end > MATERIALISE_CAP:
            # One-way degradation to size-only accounting.
            self.exact = False
            self._buf = bytearray()
            return
        if len(self._buf) < end:
            self._buf.extend(b"\x00" * (end - len(self._buf)))
        self._buf[offset:end] = payload.data  # type: ignore[index]

    def read(self, offset: int, nbytes: int) -> Payload:
        """Read up to ``nbytes`` at ``offset``; truncated at EOF.

        The payload owns a copy of the bytes as of this call.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset/nbytes must be >= 0")
        size = self.size
        start = offset if offset < size else size
        length = size - start
        if nbytes < length:
            length = nbytes
        if not self.exact:
            return Payload.synthetic(length)
        end = start + length
        if len(self._buf) < end:
            # Sparse tail beyond what was materialised: zero-fill.
            self._buf.extend(b"\x00" * (end - len(self._buf)))
        # One copy: bytes() of a view, not of a sliced bytearray.
        return Payload(memoryview(self._buf)[start:end])

    def truncate(self, new_size: int) -> None:
        """Set the object size; shrinking discards trailing bytes."""
        if new_size < 0:
            raise ValueError("size must be >= 0")
        self.size = new_size
        if self.exact and len(self._buf) > new_size:
            del self._buf[new_size:]
