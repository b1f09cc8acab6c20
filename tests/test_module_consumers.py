"""Every module under ``src/repro``, and every function and class it
exports, has a consumer that is not a test.

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

The same holds one level down.  A function or class defined at the top
of a module and exported — in the module's ``__all__`` (its public
names when it has none) or in a package ``__init__``'s — is reached
when a consumer imports that name from any ``repro`` module or reads it
as an attribute of one, or when its own module uses it (a result type,
a raised exception, a helper of an exported function).

A module or definition with no consumer leaves the package: to
``tests/`` if it is still a useful oracle, otherwise it is deleted.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from functools import lru_cache
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


@lru_cache(maxsize=1)
def parsed() -> dict[Path, ast.Module]:
    """Every product, benchmark and example file, parsed."""
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for root, pattern in (
            (SRC / "repro", "**/*.py"),
            (ROOT / "benchmarks", "**/*.py"),
            (ROOT / "examples", "*.py"),
        )
        for path in root.glob(pattern)
    }


def test_every_product_module_has_a_consumer():
    trees = parsed()
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


def test_every_exported_definition_has_a_consumer():
    trees = parsed()
    package_exports: set[str] = set()
    for path, tree in trees.items():
        if path.is_relative_to(SRC) and path.name == "__init__.py":
            package_exports |= exported_names(tree)
    definitions: dict[str, str] = {}  # name -> defining module
    reached: set[str] = set()
    for path, tree in trees.items():
        if not path.is_relative_to(SRC) or path.name == "__init__.py":
            continue
        module = module_name(path)
        exported = exported_names(tree) | package_exports
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in exported
        }
        definitions.update(dict.fromkeys(defined, module))
        reached |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in defined
        }
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        reached |= {
            name
            for base, name in imports_of(path, tree)
            if is_repro(base) and name is not None
        }

    # The scan must see the package's well-known edges, or it proves
    # nothing.
    assert {"RecursiveModelIndex", "SortedRun", "ErrorStats"} <= reached
    orphans = sorted(
        f"{module}.{name}"
        for name, module in definitions.items()
        if name not in reached
    )
    assert not orphans, f"no product code, bench or example uses {orphans}"


#: The index packages, and the storage and serving packages built on
#: top of them: nothing below may import anything above.
INDEX_LAYERS = ("repro.core", "repro.btree", "repro.families", "repro.models")
SYSTEM_LAYERS = ("repro.lsm", "repro.serving")


def within(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def test_index_layers_import_no_storage_or_serving():
    """The learned indexes stand alone: the LSM store and the serving
    layer compose them, never the other way round."""
    scanned, offenders = set(), set()
    for path, tree in parsed().items():
        if not path.is_relative_to(SRC):
            continue
        module = module_name(path)
        if not within(module, INDEX_LAYERS):
            continue
        scanned.add(module)
        for base, name in imports_of(path, tree):
            targets = {base} if name is None else {base, f"{base}.{name}"}
            offenders |= {
                f"{module} -> {t}" for t in targets if within(t, SYSTEM_LAYERS)
            }
    # The scan must see the modules it guards, or it proves nothing.
    assert {"repro.core.writable", "repro.families.pgm"} <= scanned
    assert not offenders, sorted(offenders)


def calls_of(tree: ast.AST, name: str) -> bool:
    """Does ``tree`` call ``name`` (bare or as an attribute)?"""
    return any(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
        for node in ast.walk(tree)
    )


def test_one_scalar_lookup_and_one_btree():
    """The Section 3.4 lookup is written once: the scalar window search,
    its verification and its exponential fix-up live in
    ``plan_index.py``, and the string index and the hybrid only plug
    into it; the one B-Tree index serves numbers and strings alike."""
    trees = {
        path.relative_to(SRC / "repro").as_posix(): tree
        for path, tree in parsed().items()
        if path.is_relative_to(SRC)
    }
    fix_ups = {
        path for path, tree in trees.items()
        if path.startswith("core/") and calls_of(tree, "exponential_search")
    }
    # Besides the scalar lookup: the batch plan's fix-up (engine.py)
    # and the "exponential" strategy itself (search.py).
    assert fix_ups == {"core/plan_index.py", "core/engine.py", "core/search.py"}
    for path in ("core/string_index.py", "core/hybrid.py"):
        tree = trees[path]
        assert not any(isinstance(n, ast.While) for n in ast.walk(tree)), path
        assert not calls_of(tree, "bisect_left"), path
    btrees = {
        node.name
        for path, tree in trees.items()
        if path.startswith("btree/")
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.endswith("BTreeIndex")
    }
    assert btrees == {"BTreeIndex"}
