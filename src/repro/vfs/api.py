"""The application-facing file-system interface.

Every architecture in the reproduction — native PVFS2, NFSv4, file-based
pNFS (2- and 3-tier), and Direct-pNFS — exposes the same
:class:`FileSystemClient` interface, and every workload (IOR, ATLAS,
BTIO, OLTP, Postmark, SSH-build) is written against it.  This is the
reproduction's analogue of the POSIX VFS boundary that lets the paper
run identical benchmarks over five different stacks.

All I/O methods are *simulation process generators*: callers must drive
them with ``yield from`` (or wrap them in :meth:`Simulator.process`), so
the same implementation provides both functional behaviour (bytes move,
metadata updates) and timing behaviour (resources are held for the
modelled durations).

Payloads
--------
Benchmarks move hundreds of gigabytes of simulated data; materialising
those bytes would be pointless.  :class:`Payload` therefore carries
either real ``bytes`` (used throughout the functional tests, stored and
returned faithfully) or a bare length ("synthetic" data whose content is
never inspected).  Both kinds flow through exactly the same code paths.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "Exists",
    "FileAttributes",
    "FileSystemClient",
    "FsError",
    "InvalidArgument",
    "IsDirectory",
    "NoEntry",
    "NotDirectory",
    "OpenFile",
    "Payload",
]


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------


class FsError(Exception):
    """Base class for file-system protocol errors."""


class NoEntry(FsError):
    """Path component does not exist (ENOENT / NFS4ERR_NOENT)."""


class Exists(FsError):
    """Target already exists (EEXIST / NFS4ERR_EXIST)."""


class NotDirectory(FsError):
    """Path component is not a directory (ENOTDIR)."""


class IsDirectory(FsError):
    """File operation applied to a directory (EISDIR)."""


class InvalidArgument(FsError):
    """Operation arguments are structurally invalid (EINVAL) — e.g.
    renaming a directory into one of its own descendants."""


# --------------------------------------------------------------------------
# Payload
# --------------------------------------------------------------------------


class Payload:
    """A chunk of file data: real bytes or a synthetic length.

    ``Payload(b"abc")`` carries real bytes; ``Payload.synthetic(n)``
    carries only a length.  Slicing and concatenation work on both kinds.
    A real payload owns an immutable copy of its bytes, so it keeps
    observing what was read even if the store it came from changes.
    """

    __slots__ = ("nbytes", "data")

    def __init__(self, data: bytes | bytearray | memoryview):
        #: The payload bytes (``None`` when synthetic).
        self.data: Optional[bytes] = bytes(data)
        self.nbytes: int = len(self.data)

    @classmethod
    def synthetic(cls, nbytes: int) -> "Payload":
        """A payload of ``nbytes`` whose content is never inspected."""
        if nbytes < 0:
            raise ValueError("payload size must be >= 0")
        p = cls.__new__(cls)
        p.data = None
        p.nbytes = nbytes
        return p

    @property
    def is_synthetic(self) -> bool:
        return self.data is None

    def slice(self, start: int, length: int) -> "Payload":
        """Sub-payload ``[start, start+length)``; clamped to bounds."""
        if start < 0 or length < 0:
            raise ValueError("negative slice bounds")
        nbytes = self.nbytes
        if start > nbytes:
            start = nbytes
        if length > nbytes - start:
            length = nbytes - start
        if self.data is None:
            return Payload.synthetic(length)
        return Payload(self.data[start : start + length])

    @staticmethod
    def concat(parts: list["Payload"]) -> "Payload":
        """Join payloads; any synthetic part makes the result synthetic."""
        total = 0
        synthetic = False
        for p in parts:
            total += p.nbytes
            if p.data is None:
                synthetic = True
        if synthetic:
            return Payload.synthetic(total)
        return Payload(b"".join([p.data for p in parts]))  # type: ignore[arg-type]

    @staticmethod
    def assemble(pieces: list[tuple[int, "Payload"]]) -> "Payload":
        """Join the replies of one striped read, given in file order as
        ``(asked_length, payload)``.

        A piece shorter than asked *and followed by data* is a hole in a
        sparse file: it is zero-filled to its asked length (synthetically
        if the short piece is synthetic).  A trailing shortfall is
        end-of-file and stays short.
        """
        last_with_data = -1
        for i, (_want, p) in enumerate(pieces):
            if p.nbytes:
                last_with_data = i
        parts = []
        for i, (want, p) in enumerate(pieces):
            if i < last_with_data and p.nbytes < want:
                gap = want - p.nbytes
                pad = Payload.synthetic(gap) if p.data is None else Payload(bytes(gap))
                p = Payload.concat([p, pad])
            parts.append(p)
        return Payload.concat(parts)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "synthetic" if self.is_synthetic else "bytes"
        return f"<Payload {kind} len={self.nbytes}>"


# --------------------------------------------------------------------------
# Attributes and open-file records
# --------------------------------------------------------------------------


@dataclass
class FileAttributes:
    """The attribute subset the protocols exchange (NFSv4 fattr4-ish)."""

    size: int = 0
    is_dir: bool = False
    mode: int = 0o644
    mtime: float = 0.0
    ctime: float = 0.0
    nlink: int = 1

    def copy(self) -> "FileAttributes":
        return FileAttributes(
            size=self.size,
            is_dir=self.is_dir,
            mode=self.mode,
            mtime=self.mtime,
            ctime=self.ctime,
            nlink=self.nlink,
        )


@dataclass(eq=False)
class OpenFile:
    """Client-side open-file record returned by ``open``/``create``.

    ``handle`` is the backend's opaque file identifier.  A protocol
    client returns its own subclass, whose fields are what that open
    adds (an NFS open's page cache and layout, a PVFS2 open's
    datafiles).  Records compare by identity: two opens of one path are
    two opens.
    """

    path: str
    handle: object
    client: "FileSystemClient"
    writable: bool = True


# --------------------------------------------------------------------------
# The interface
# --------------------------------------------------------------------------


class FileSystemClient(ABC):
    """Uniform client API over any of the five architectures.

    Methods are generator-processes: drive them with ``yield from``
    inside a simulation process.  Example::

        def app(sim, fsc):
            yield from fsc.mount()
            f = yield from fsc.create("/data/out")
            yield from fsc.write(f, 0, Payload(b"hello"))
            yield from fsc.fsync(f)
            yield from fsc.close(f)

        sim.process(app(sim, client))
        sim.run()
    """

    #: Human-readable architecture tag ("direct-pnfs", "pvfs2", ...).
    label: str = "abstract"

    @abstractmethod
    def mount(self) -> Iterator:
        """Attach to the file system (fetch root handle, device lists)."""

    @abstractmethod
    def create(self, path: str) -> Iterator:
        """Create a regular file; returns an :class:`OpenFile`."""

    @abstractmethod
    def open(self, path: str, write: bool = True) -> Iterator:
        """Open an existing regular file; returns an :class:`OpenFile`.

        ``write=False`` declares a read-only open — protocol stacks may
        exploit the weaker intent (NFSv4 grants read delegations to
        read-only opens with no conflicting writers).
        """

    @abstractmethod
    def read(self, f: OpenFile, offset: int, nbytes: int) -> Iterator:
        """Read up to ``nbytes`` at ``offset``; returns a :class:`Payload`.

        Reads past end-of-file are truncated (a zero-length payload at
        or past EOF), matching POSIX semantics.
        """

    @abstractmethod
    def write(self, f: OpenFile, offset: int, payload: Payload) -> Iterator:
        """Write ``payload`` at ``offset``; returns bytes accepted.

        Durability follows the architecture's semantics: NFS-based
        stacks may buffer in the client cache until ``fsync``/``close``.
        """

    @abstractmethod
    def fsync(self, f: OpenFile) -> Iterator:
        """Flush cached dirty data and commit it to stable storage."""

    @abstractmethod
    def close(self, f: OpenFile) -> Iterator:
        """Flush, commit, and release the open-file record."""

    @abstractmethod
    def getattr(self, path: str) -> Iterator:
        """Return :class:`FileAttributes` for ``path``."""

    @abstractmethod
    def mkdir(self, path: str) -> Iterator:
        """Create a directory."""

    @abstractmethod
    def readdir(self, path: str) -> Iterator:
        """Return sorted child names of directory ``path``."""

    @abstractmethod
    def remove(self, path: str) -> Iterator:
        """Remove a file (or empty directory)."""

    @abstractmethod
    def rename(self, old: str, new: str) -> Iterator:
        """Atomically rename ``old`` to ``new``."""


def split_path(path: str) -> list[str]:
    """Split an absolute path into components; validates the shape."""
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise ValueError(f"path may not contain {p!r}: {path!r}")
    return parts
