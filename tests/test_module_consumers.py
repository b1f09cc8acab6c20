"""Every module under ``src/repro`` has a consumer that is not a test.

A module earns its place in the product package by being used.  A
consumer is a module of the package that is not an ``__init__``, a
file under ``benchmarks/`` or a script under ``examples/``.  It reaches
a module by importing it, or by importing one of the module's exported
names through any ``repro`` package — ``from repro.core import
WritableLearnedIndex`` reaches ``repro.core.writable``, and so does
``repro.core.WritableLearnedIndex`` after ``import repro.core``.  A
module's exported names are its ``__all__`` (its public top-level names
when it has none, as for ``import *``).  The imports are read with
:mod:`ast`; nothing is executed.

A module with no consumer leaves the package: to ``tests/`` if it is
still a useful oracle, otherwise it is deleted.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def exported_names(tree: ast.Module) -> set[str]:
    public = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets:
                return set(ast.literal_eval(node.value))
            public.update(targets)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            public.add(node.name)
    return {name for name in public if not name.startswith("_")}


def imports_of(path: Path, tree: ast.Module) -> set[tuple[str, str | None]]:
    """``(module, name)`` per imported name, relative imports resolved:
    ``import a.b`` is ``("a.b", None)``, ``from a import b`` is
    ``("a", "b")``, and ``b.c`` on a local name ``b`` bound to a
    ``repro`` module is ``("a.b", "c")``."""
    out: set[tuple[str, str | None]] = set()
    bound: dict[str, str] = {}  # local name -> repro module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add((alias.name, None))
                # ``import a.b`` binds ``a``; ``import a.b as c``
                # binds ``c`` to ``a.b``.
                head = alias.name.partition(".")[0]
                bound[alias.asname or head] = (
                    alias.name if alias.asname else head
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module_name(path).split(".")
                if path.name != "__init__.py":
                    package = package[:-1]
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                out.add((base, alias.name))
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and is_repro(bound.get(node.value.id, ""))
        ):
            out.add((bound[node.value.id], node.attr))
    return out


def test_every_product_module_has_a_consumer():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root, pattern in (
            (SRC / "repro", "**/*.py"),
            (ROOT / "benchmarks", "**/*.py"),
            (ROOT / "examples", "*.py"),
        )
        for path in root.glob(pattern)
    }
    modules = {
        module_name(path): tree
        for path, tree in trees.items()
        if path.is_relative_to(SRC) and path.name != "__init__.py"
    }
    owners: dict[str, set[str]] = defaultdict(set)
    for module, tree in modules.items():
        for name in exported_names(tree):
            owners[name].add(module)

    reached: set[str] = set()
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for base, name in imports_of(path, tree):
            if not is_repro(base):
                continue
            reached.add(base)
            if name is not None:
                reached.add(f"{base}.{name}")
                reached |= owners.get(name, set())

    # The scan must see the package's well-known edges, or it proves
    # nothing.
    assert {"repro.core.writable", "repro.lsm.store"} <= reached
    orphans = sorted(set(modules) - reached)
    assert not orphans, f"no product code, bench or example uses {orphans}"
