"""Layering: the simulated system does not import its observers.

Metrics, spans and the torture oracles watch the product from outside
(``repro.obs.attach`` reads counters, a ``SpanCollector`` wraps entry
points while it is installed, ``repro.check.runner`` wraps the lock
tables and the reply cache for an episode), so no module of the
simulator, the protocols or the file systems, nor the cell harness
they are measured by, imports ``repro.obs`` or ``repro.check``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PRODUCT = ["sim", "rpc.py", "nfs", "pnfs", "pvfs2", "core", "vfs", "bench/runner.py"]
#: The observer packages no product module may import.
OBSERVERS = ("repro.obs", "repro.check")


def _module_name(path: pathlib.Path, root: pathlib.Path = SRC) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported(path: pathlib.Path, root: pathlib.Path = SRC) -> set[str]:
    """Absolute names of every module ``path`` imports (and, for
    ``from X import Y``, of ``X.Y`` too: ``Y`` may be a submodule)."""
    module = _module_name(path, root)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _product_files():
    for entry in PRODUCT:
        path = SRC / "repro" / entry
        yield from [path] if path.is_file() else sorted(path.rglob("*.py"))


def test_product_modules_do_not_import_obs():
    files = list(_product_files())
    assert len(files) > 40  # the scan sees the packages it names
    offenders = {
        _module_name(path): sorted(
            name for name in _imported(path)
            for observer in OBSERVERS
            if name == observer or name.startswith(observer + ".")
        )
        for path in files
    }
    assert {m: names for m, names in offenders.items() if names} == {}


def test_scan_resolves_every_import_form(tmp_path):
    pkg = tmp_path / "repro" / "nfs"
    pkg.mkdir(parents=True)
    forms = [
        "import repro.obs",
        "from repro import obs",
        "from repro.obs.spans import ACTIVE",
        "from ..obs import SpanCollector",
        "from .. import obs",
    ]
    for i, line in enumerate(forms):
        path = pkg / f"m{i}.py"
        path.write_text(line + "\n")
        assert any(n.startswith("repro.obs") for n in _imported(path, tmp_path)), line
