"""Tests for the server-side namespace tree."""

import pytest

from repro.vfs import Exists, Namespace, NoEntry, NotDirectory
from repro.vfs.api import split_path


class TestSplitPath:
    def test_root(self):
        assert split_path("/") == []

    def test_components(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_relative_rejected(self):
        with pytest.raises(ValueError):
            split_path("a/b")

    def test_dots_rejected(self):
        with pytest.raises(ValueError):
            split_path("/a/../b")


class TestNamespace:
    def test_create_and_resolve_file(self):
        ns = Namespace()
        entry = ns.create("/f")
        assert ns.resolve("/f") is entry
        assert not entry.is_dir

    def test_create_nested(self):
        ns = Namespace()
        ns.create("/d", is_dir=True)
        ns.create("/d/e", is_dir=True)
        f = ns.create("/d/e/file")
        assert ns.resolve("/d/e/file") is f

    def test_create_without_parent_fails(self):
        ns = Namespace()
        with pytest.raises(NoEntry):
            ns.create("/missing/file")

    def test_duplicate_create_fails(self):
        ns = Namespace()
        ns.create("/f")
        with pytest.raises(Exists):
            ns.create("/f")

    def test_file_component_in_path_fails(self):
        ns = Namespace()
        ns.create("/f")
        with pytest.raises(NotDirectory):
            ns.resolve("/f/child")

    def test_handles_unique_and_resolvable(self):
        ns = Namespace()
        a = ns.create("/a")
        b = ns.create("/b")
        assert a.handle != b.handle
        assert ns.by_handle(a.handle) is a
        assert ns.by_handle(b.handle) is b

    def test_stale_handle_raises(self):
        ns = Namespace()
        a = ns.create("/a")
        ns.remove("/a")
        with pytest.raises(NoEntry):
            ns.by_handle(a.handle)

    def test_remove_nonempty_dir_fails(self):
        ns = Namespace()
        ns.create("/d", is_dir=True)
        ns.create("/d/f")
        with pytest.raises(Exists):
            ns.remove("/d")

    def test_remove_empty_dir(self):
        ns = Namespace()
        ns.create("/d", is_dir=True)
        ns.remove("/d")
        with pytest.raises(NoEntry):
            ns.resolve("/d")

    def test_listdir_sorted(self):
        ns = Namespace()
        for name in ("zeta", "alpha", "mid"):
            ns.create(f"/{name}")
        assert ns.listdir("/") == ["alpha", "mid", "zeta"]

    def test_listdir_on_file_fails(self):
        ns = Namespace()
        ns.create("/f")
        with pytest.raises(NotDirectory):
            ns.listdir("/f")

    def test_rename_moves_entry(self):
        ns = Namespace()
        ns.create("/d", is_dir=True)
        f = ns.create("/f")
        ns.rename("/f", "/d/g")
        assert ns.resolve("/d/g") is f
        with pytest.raises(NoEntry):
            ns.resolve("/f")

    def test_rename_replaces_file_target(self):
        ns = Namespace()
        src = ns.create("/src")
        tgt = ns.create("/tgt")
        ns.rename("/src", "/tgt")
        assert ns.resolve("/tgt") is src
        with pytest.raises(NoEntry):
            ns.by_handle(tgt.handle)

    def test_rename_onto_directory_fails(self):
        ns = Namespace()
        ns.create("/src")
        ns.create("/d", is_dir=True)
        with pytest.raises(Exists):
            ns.rename("/src", "/d")

    def test_mtime_updates_on_mutation(self):
        ns = Namespace()
        ns.create("/f", now=5.0)
        assert ns.root.attrs.mtime == 5.0
        assert ns.resolve("/f").attrs.ctime == 5.0
