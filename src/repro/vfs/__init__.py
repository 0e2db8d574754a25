"""Generic file-system abstractions shared by every protocol stack.

:mod:`repro.vfs.api` defines the application-facing
:class:`~repro.vfs.api.FileSystemClient` interface that all five
architectures implement and all workloads program against, plus the
:class:`~repro.vfs.api.Payload` byte-or-synthetic data carrier and the
error hierarchy.  :mod:`repro.vfs.filedata` stores file contents;
:mod:`repro.vfs.namespace` provides the server-side directory tree;
:mod:`repro.vfs.striping` is the one striped-placement walk that the
PVFS2 distributions and the Direct-pNFS aggregation drivers both build
on.
"""

from repro.vfs.api import (
    AccessDenied,
    Exists,
    FileAttributes,
    FileSystemClient,
    FsError,
    IsDirectory,
    NoEntry,
    NotDirectory,
    OpenFile,
    Payload,
)
from repro.vfs.filedata import FileData
from repro.vfs.namespace import Namespace

__all__ = [
    "AccessDenied",
    "Exists",
    "FileAttributes",
    "FileData",
    "FileSystemClient",
    "FsError",
    "IsDirectory",
    "Namespace",
    "NoEntry",
    "NotDirectory",
    "OpenFile",
    "Payload",
]
