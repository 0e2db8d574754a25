"""In-memory local file system.

A zero-cost :class:`~repro.vfs.api.FileSystemClient` used as (a) the
reference implementation in conformance tests and (b) a standalone-NFS
export backend in unit tests.  An optional fixed per-operation delay
and per-byte media rate let tests give it a crude timing envelope.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.vfs.api import (
    FileSystemClient,
    FsError,
    IsDirectory,
    OpenFile,
    Payload,
)
from repro.vfs.filedata import FileData
from repro.vfs.namespace import Namespace

__all__ = ["LocalFileSystem", "LocalClient"]


class LocalFileSystem:
    """Shared state of an in-memory file system."""

    def __init__(self):
        self.namespace = Namespace()
        self.contents: dict[int, FileData] = {}

    def data_for(self, handle: int) -> FileData:
        fd = self.contents.get(handle)
        if fd is None:
            fd = FileData()
            self.contents[handle] = fd
        return fd


class LocalClient(FileSystemClient):
    """Client view onto a :class:`LocalFileSystem`."""

    label = "localfs"

    def __init__(self, sim: Simulator, fs: LocalFileSystem, op_delay: float = 0.0):
        self.sim = sim
        self.fs = fs
        self.op_delay = op_delay

    def _tick(self):
        if self.op_delay > 0:
            yield self.sim.timeout(self.op_delay)

    def mount(self):
        yield from self._tick()
        return {"root": self.fs.namespace.root.handle}

    def create(self, path: str):
        yield from self._tick()
        entry = self.fs.namespace.create(path, now=self.sim.now)
        return OpenFile(path=path, handle=entry.handle, client=self)

    def open(self, path: str, write: bool = True):
        yield from self._tick()
        entry = self.fs.namespace.resolve(path)
        if entry.is_dir:
            raise IsDirectory(path)
        return OpenFile(path=path, handle=entry.handle, client=self, writable=write)

    def open_by_handle(self, handle: int):
        yield from self._tick()
        entry = self.fs.namespace.by_handle(handle)
        if entry.is_dir:
            raise IsDirectory(f"handle {handle}")
        # As Pvfs2Client.open_by_handle: a handle-bound file has no path.
        return OpenFile(path=f"handle:{handle}", handle=handle, client=self)

    def read(self, f: OpenFile, offset: int, nbytes: int):
        yield from self._tick()
        return self.fs.data_for(f.handle).read(offset, nbytes)

    def write(self, f: OpenFile, offset: int, payload: Payload):
        yield from self._tick()
        self.fs.data_for(f.handle).write(offset, payload)
        entry = self.fs.namespace.by_handle(f.handle)
        entry.attrs.size = self.fs.data_for(f.handle).size
        entry.attrs.mtime = self.sim.now
        return payload.nbytes

    def fsync(self, f: OpenFile):
        yield from self._tick()

    def close(self, f: OpenFile):
        yield from self._tick()

    def getattr(self, path: str):
        yield from self._tick()
        entry = self.fs.namespace.resolve(path)
        attrs = entry.attrs.copy()
        if not entry.is_dir:
            attrs.size = self.fs.data_for(entry.handle).size
        return attrs

    def mkdir(self, path: str):
        yield from self._tick()
        self.fs.namespace.create(path, is_dir=True, now=self.sim.now)

    def readdir(self, path: str):
        yield from self._tick()
        return self.fs.namespace.listdir(path)

    def remove(self, path: str):
        yield from self._tick()
        entry = self.fs.namespace.resolve(path)
        self.fs.namespace.remove(path, now=self.sim.now)
        self.fs.contents.pop(entry.handle, None)

    def rename(self, old: str, new: str):
        yield from self._tick()
        try:
            victim = self.fs.namespace.resolve(new)
        except FsError:
            victim = None
        entry = self.fs.namespace.rename(old, new, now=self.sim.now)
        if victim is not None and victim is not entry:
            # Renamed-over target: its contents die with its handle.
            self.fs.contents.pop(victim.handle, None)

    def truncate(self, path: str, size: int):
        yield from self._tick()
        entry = self.fs.namespace.resolve(path)
        if entry.is_dir:
            raise IsDirectory(path)
        self.fs.data_for(entry.handle).truncate(size)
        entry.attrs.size = size
        entry.attrs.mtime = self.sim.now
        entry.attrs.ctime = self.sim.now

    def setattr(self, path: str, mode: int):
        yield from self._tick()
        entry = self.fs.namespace.resolve(path)
        entry.attrs.mode = mode
        entry.attrs.ctime = self.sim.now
        return entry.attrs.copy()

    def size_hint(self, handle, size):
        yield from self._tick()
        entry = self.fs.namespace.by_handle(handle)
        if size is not None:
            entry.attrs.size = max(entry.attrs.size, size)
        entry.attrs.mtime = self.sim.now
