"""Every attribute product code writes has a product reader.

The call census (``scripts/reach.py``) works at function grain: a
counter bumped inside a function that traffic enters passes it even if
only tests ever look at the count.  This is the same rule at attribute
grain, read off the source without running anything.  An attribute that
a class in ``src/repro`` writes on ``self`` must be

* loaded by product code (``self.n += 1`` is a write, not a load, and
  so is ``self.n = max(self.n, k)``: a load of ``self.n`` inside the
  value stored to ``self.n``; a ``getattr`` / ``hasattr`` with the name
  spelled out is a load), or
* named in :mod:`repro.obs.attach`, which registers it as a gauge that
  ``repro metrics`` and the :class:`~repro.obs.Sampler` read.

A counter only tests read is registered there or deleted.  Reads are
matched by name, whichever class they load it from.  Fields of
exception classes are exempt: whoever catches the exception reads them.
"""

import ast
import builtins
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
ATTACH = PACKAGE / "obs" / "attach.py"


def _trees() -> dict[pathlib.Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}


def _exception_classes(trees) -> set[str]:
    bases = {
        node.name: [ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases]
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    return {name for name in bases if is_exception(name)}


def _self_writes(cls: ast.ClassDef):
    """Names ``cls``'s own methods store on ``self`` (not a nested class's)."""
    stack = list(cls.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_updates(tree: ast.Module) -> set[int]:
    """Ids of the ``self.x`` loads inside the value of a ``self.x = …``:
    the attribute feeding its own next value, which is no reader."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            stored = {target.attr for target in node.targets if _is_self_attr(target)}
            out.update(
                id(load)
                for load in ast.walk(node.value)
                if _is_self_attr(load) and load.attr in stored
            )
    return out


def _reads(path: pathlib.Path, tree: ast.Module):
    updates = _self_updates(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) not in updates:
                yield node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value
        elif path == ATTACH and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def write_only_attributes() -> list[str]:
    """``module:Class.attr`` of every attribute written and never read."""
    trees = _trees()
    exempt = _exception_classes(trees)
    read = {name for path, tree in trees.items() for name in _reads(path, tree)}
    out = set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name not in exempt:
                out.update(
                    f"{module}:{cls.name}.{attr}"
                    for attr in _self_writes(cls)
                    if attr not in read
                )
    return sorted(out)


def test_every_written_attribute_has_a_product_reader():
    assert write_only_attributes() == []


def test_the_scan_sees_writes_reads_and_the_exemption():
    trees = _trees()
    exempt = _exception_classes(trees)
    assert {"RpcTimeout", "Interrupt", "NoEntry", "DiskFailed"} <= exempt
    assert "RpcServer" not in exempt
    read = {name for path, tree in trees.items() for name in _reads(path, tree)}
    # Registered as gauges, loaded nowhere else.
    assert {"delegations_granted", "layouts_recalled", "conflicts"} <= read
    rpc_server = next(
        node
        for node in ast.walk(trees[PACKAGE / "rpc.py"])
        if isinstance(node, ast.ClassDef) and node.name == "RpcServer"
    )
    assert {"calls_served", "calls_replayed", "up"} <= set(_self_writes(rpc_server))


def test_an_attribute_feeding_its_own_next_value_is_not_read():
    tree = ast.parse(
        "class A:\n"
        "    def f(self, k):\n"
        "        self.hi = max(self.hi, k)\n"
        "        self.n = self.hi + self.m\n"
    )
    assert sorted(_reads(PACKAGE / "a.py", tree)) == ["hi", "m"]
