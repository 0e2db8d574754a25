"""Server-side directory tree.

Used by the PVFS2 metadata server (and, through it, by every NFS/pNFS
metadata server in the reproduction) to manage the namespace: path
resolution, create/remove/rename, and directory listings.  Entries map
names to opaque per-filesystem object identifiers ("handles").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.vfs.api import (
    Exists,
    FileAttributes,
    InvalidArgument,
    IsDirectory,
    NoEntry,
    NotDirectory,
    split_path,
)

__all__ = ["Namespace", "NsEntry"]


@dataclass
class NsEntry:
    """One namespace object: a directory (with children) or a file."""

    handle: int
    attrs: FileAttributes
    children: Optional[dict[str, "NsEntry"]] = None  # None for files
    parent: Optional["NsEntry"] = None
    name: str = ""

    @property
    def is_dir(self) -> bool:
        return self.children is not None


class Namespace:
    """A rooted directory tree handing out monotonically increasing handles.

    Handles start above ``handle_base`` (the root takes the first), so
    namespaces with different bases never hand out the same handle.
    """

    def __init__(self, handle_base: int = 0):
        self._next_handle = handle_base + 2
        self.root = NsEntry(
            handle=handle_base + 1,
            attrs=FileAttributes(is_dir=True, mode=0o755, nlink=2),
            children={},
            name="/",
        )
        self._by_handle: dict[int, NsEntry] = {self.root.handle: self.root}

    def _alloc_handle(self) -> int:
        h = self._next_handle
        self._next_handle += 1
        return h

    # -- resolution ------------------------------------------------------
    def resolve(self, path: str) -> NsEntry:
        """Resolve an absolute path; raises :class:`NoEntry`/:class:`NotDirectory`."""
        entry = self.root
        for part in split_path(path):
            if not entry.is_dir:
                raise NotDirectory(f"{entry.name!r} in {path!r}")
            assert entry.children is not None
            try:
                entry = entry.children[part]
            except KeyError:
                raise NoEntry(path) from None
        return entry

    def resolve_parent(self, path: str) -> tuple[NsEntry, str]:
        """Resolve the parent directory of ``path``; returns (dir, leaf)."""
        parts = split_path(path)
        if not parts:
            raise IsDirectory("cannot operate on the root")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self.resolve(parent_path)
        if not parent.is_dir:
            raise NotDirectory(parent_path)
        return parent, parts[-1]

    def by_handle(self, handle: int) -> NsEntry:
        """Look up an entry by handle; raises :class:`NoEntry` if stale."""
        try:
            return self._by_handle[handle]
        except KeyError:
            raise NoEntry(f"handle {handle}") from None

    # -- mutation ----------------------------------------------------------
    def create(self, path: str, is_dir: bool = False, now: float = 0.0) -> NsEntry:
        """Create a file or directory; raises :class:`Exists` on conflict."""
        parent, leaf = self.resolve_parent(path)
        assert parent.children is not None
        if leaf in parent.children:
            raise Exists(path)
        attrs = FileAttributes(
            is_dir=is_dir,
            mode=0o755 if is_dir else 0o644,
            mtime=now,
            ctime=now,
            nlink=2 if is_dir else 1,
        )
        entry = NsEntry(
            handle=self._alloc_handle(),
            attrs=attrs,
            children={} if is_dir else None,
            parent=parent,
            name=leaf,
        )
        parent.children[leaf] = entry
        parent.attrs.mtime = now
        self._by_handle[entry.handle] = entry
        return entry

    def remove(self, path: str, now: float = 0.0) -> NsEntry:
        """Unlink a file or *empty* directory; returns the removed entry."""
        parent, leaf = self.resolve_parent(path)
        assert parent.children is not None
        try:
            entry = parent.children[leaf]
        except KeyError:
            raise NoEntry(path) from None
        if entry.is_dir and entry.children:
            raise FsErrorNotEmpty(path)
        del parent.children[leaf]
        parent.attrs.mtime = now
        del self._by_handle[entry.handle]
        entry.parent = None
        return entry

    def rename(self, old: str, new: str, now: float = 0.0) -> NsEntry:
        """Move ``old`` to ``new``, replacing a non-directory target."""
        entry = self.resolve(old)
        new_parent, new_leaf = self.resolve_parent(new)
        assert new_parent.children is not None
        if entry.is_dir:
            # Renaming a directory under itself would detach a cycle
            # from the tree (EINVAL, as rename(2) specifies).
            node: Optional[NsEntry] = new_parent
            while node is not None:
                if node is entry:
                    raise InvalidArgument(f"rename {old!r} into itself: {new!r}")
                node = node.parent
        existing = new_parent.children.get(new_leaf)
        if existing is entry:
            # Renaming a path onto itself is a no-op (POSIX rename(2));
            # falling through would drop the entry from _by_handle.
            return entry
        if existing is not None:
            if existing.is_dir:
                raise Exists(new)
            if entry.is_dir:
                # A directory cannot replace a file (ENOTDIR per
                # rename(2)); silently unlinking the file here would
                # lose it without any remove ever being issued.
                raise NotDirectory(new)
            del self._by_handle[existing.handle]
            existing.parent = None
        old_parent, old_leaf = self.resolve_parent(old)
        assert old_parent.children is not None
        del old_parent.children[old_leaf]
        new_parent.children[new_leaf] = entry
        entry.parent = new_parent
        entry.name = new_leaf
        old_parent.attrs.mtime = now
        new_parent.attrs.mtime = now
        return entry

    def listdir(self, path: str) -> list[str]:
        """Sorted child names of directory ``path``."""
        entry = self.resolve(path)
        if not entry.is_dir:
            raise NotDirectory(path)
        assert entry.children is not None
        return sorted(entry.children)


class FsErrorNotEmpty(Exists):
    """Directory not empty (ENOTEMPTY) — a flavour of Exists."""
