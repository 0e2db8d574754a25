"""Package-level API surface tests."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_exports_resolve(self, name):
        module = importlib.import_module(name)
        assert module.__all__, f"{name} declares no __all__"
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"

    def test_every_subpackage_is_checked(self):
        assert {"repro.core", "repro.pvfs2", "repro.vfs"} <= set(SUBPACKAGES)

    def test_architectures_registered(self):
        assert sorted(repro.ARCHITECTURES) == [
            "direct-pnfs",
            "direct-pnfs-sharded",  # extension (§6.4.3 future work)
            "nfsv4",
            "pnfs-2tier",
            "pnfs-3tier",
            "pvfs2",
        ]

    def test_quickstart_snippet_from_docstring(self):
        """The module docstring's quick start must actually run."""
        deployment = repro.make_deployment("direct-pnfs", n_clients=1)
        tb = deployment.testbed
        client = deployment.make_client(tb.client_nodes[0])

        def app():
            yield from client.mount()
            f = yield from client.create("/hello")
            yield from client.write(f, 0, repro.Payload(b"world"))
            yield from client.close(f)

        tb.sim.run(until=tb.sim.process(app()))
        stored = sum(
            fd.size for d in deployment.pvfs.daemons for fd in d.bstreams.values()
        )
        assert stored == 5
