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

And one level further down:

* every public method or property of an exported class is read by a
  consumer — some consumer reads an attribute of its name (by name: the
  AST cannot tell an object's type);
* every defaulted keyword option of an exported function, constructor
  or public method is set by some call, tests included — by keyword,
  by position, through a ``*args`` / ``**kwargs`` splat whose keys the
  calling file names, through a wrapper that forwards its ``**kwargs``,
  or through a subclass's constructor or its ``super().__init__``;
* every ``REPRO_*`` environment variable the package reads is named
  by the CI workflow, a benchmark or an example.

A module or definition with no consumer leaves the package: to
``tests/`` if it is still a useful oracle, otherwise it is deleted.  A
method nothing reads is deleted with the tests that only exercised
it, and an option no call sets becomes a module constant.  The
exceptions are safety seams, listed in :data:`SAFETY_SEAMS` with
their reasons.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


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


def test_one_adam_update():
    """The neural models train one way: the Adam moment update is
    written once, in ``models/nn.py``'s ``train_adam``, and the MLP and
    the GRU both train through it."""
    trees = {
        path.relative_to(SRC / "repro").as_posix(): tree
        for path, tree in parsed().items()
        if path.is_relative_to(SRC)
    }

    def decays(node: ast.AST) -> bool:
        # Adam's second-moment decay: a ``beta2`` name or 0.999.
        return any(
            (isinstance(n, ast.Name) and n.id == "beta2")
            or (isinstance(n, ast.Constant) and n.value == 0.999)
            for n in ast.walk(node)
        )

    updates = [
        f"{path}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and decays(node)
    ]
    assert updates == ["models/nn.py:train_adam"]
    for path in ("models/nn.py", "models/gru.py"):
        assert calls_of(trees[path], "train_adam"), path


# -- one level down: methods, options, environment variables ------------------

#: What the checks below leave in place although no consumer reads it
#: or no call sets it: safety seams, each with its reason.
SAFETY_SEAMS = {
    "repro.lsm.store.LearnedLSMStore(wal_group_commit_interval)": (
        "bounds how long an acknowledged write waits for its fsync under "
        "group commit; a durability bound is set per deployment, not by "
        "the benchmark"
    ),
}


def exported_classes_and_functions():
    """``(module, definition)`` for every exported top-level class and
    function of a product module."""
    trees = parsed()
    package_exports: set[str] = set()
    for path, tree in trees.items():
        if path.is_relative_to(SRC) and path.name == "__init__.py":
            package_exports |= exported_names(tree)
    for path, tree in trees.items():
        if not path.is_relative_to(SRC) or path.name == "__init__.py":
            continue
        exported = exported_names(tree) | package_exports
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in exported
            ):
                yield module_name(path), node


def public_methods(cls: ast.ClassDef):
    return [
        node for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def test_every_public_method_has_a_reader():
    read = {
        node.attr
        for path, tree in parsed().items()
        if path.name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    methods = {
        f"{module}.{cls.name}.{method.name}": method.name
        for module, cls in exported_classes_and_functions()
        if isinstance(cls, ast.ClassDef)
        for method in public_methods(cls)
    }
    # The scan must see the package's well-known edges, or it proves
    # nothing.
    assert "repro.lsm.store.LearnedLSMStore.lookup_batch" in methods
    assert {"lookup_batch", "append_puts", "root_predict_batch"} <= read
    unread = sorted(
        label for label, name in methods.items() if name not in read
    )
    assert not unread, f"no product code, bench or example reads {unread}"


def defaulted_options(fn: ast.FunctionDef, bound: bool) -> dict:
    """Option name -> its index among the positional arguments a call
    passes (``None`` for keyword-only), for each parameter with a
    default; ``bound`` drops ``self`` / ``cls``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    options = {
        arg.arg: i - bound
        for i, arg in enumerate(positional)
        if i >= first
    }
    options.update(
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return options


def callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def sets(call: ast.Call, option: str, index: int | None, named: set) -> bool:
    """Does ``call`` set ``option``?  ``named``: the option names a
    ``**mapping`` splat in the call's file may carry."""
    if any(k.arg == option for k in call.keywords):
        return True
    if any(k.arg is None for k in call.keywords) and option in named:
        return True
    if index is None:
        return False
    star = next(
        (i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
        None,
    )
    return index < len(call.args) if star is None else index >= star


def test_every_keyword_option_is_set():
    """Every defaulted keyword option of an exported function,
    constructor or public method is set by some call, tests included.

    A call is matched to a definition by the callee's *name* as the
    call spells it (``f(...)``, ``obj.f(...)``, ``Cls(...)``).  So an
    option set only through an alias reads as unset: a loop variable
    bound to the class (``for family in (PGMIndex, ...): family(k,
    epsilon=4)``), a parametrized class or factory fixture, or a
    lambda or dict of factories that calls it.  Such an option needs a
    call by its own name somewhere, or a :data:`SAFETY_SEAMS` entry;
    aliases are not resolved.
    """
    trees = dict(parsed())
    trees.update(
        (path, ast.parse(path.read_text(), filename=str(path)))
        for path in TESTS.glob("*.py")
    )
    calls: dict[str, list] = defaultdict(list)  # callee -> [(call, named)]
    init_calls: dict[str, list] = defaultdict(list)  # class -> base inits
    bases: dict[str, set[str]] = defaultdict(set)
    own_init: dict[str, bool] = {}
    for tree in trees.values():
        # Names a ``**`` splat in this file may carry: dict literal keys,
        # ``dict(...)`` keywords, and what the file's calls pass to a
        # function of its own that forwards its ``**kwargs`` (added as
        # the walk meets them; the set is shared, so every call of the
        # file sees them all).
        named = {
            key.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        } | {
            k.arg
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and callee(node) == "dict"
            for k in node.keywords
            if k.arg
        }
        forwarders = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.args.kwarg is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and callee(node):
                calls[callee(node)].append((node, named))
                if callee(node) in forwarders:
                    named |= {k.arg for k in node.keywords if k.arg}
            elif isinstance(node, ast.ClassDef):
                bases[node.name] |= {
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in node.bases
                    if isinstance(b, (ast.Name, ast.Attribute))
                }
                own_init[node.name] = any(
                    isinstance(f, ast.FunctionDef) and f.name == "__init__"
                    for f in node.body
                )
                init_calls[node.name] += [
                    (call, named)
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and callee(call) == "__init__"
                ]

    def constructed_as(cls: str) -> set[str]:
        """``cls`` and its subclasses that inherit its ``__init__``."""
        names, grew = {cls}, True
        while grew:
            more = {
                sub for sub, of in bases.items()
                if of & names and not own_init.get(sub, False)
            }
            grew = not more <= names
            names |= more
        return names

    options = []  # (label, option, index, [(call, named, drops self)])
    for module, node in exported_classes_and_functions():
        if isinstance(node, ast.FunctionDef):
            found = defaulted_options(node, bound=False)
            options += [
                (f"{module}.{node.name}", name, index, calls[node.name])
                for name, index in found.items()
            ]
            continue
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list
            )
            found = defaulted_options(fn, bound=not static)
            if fn.name == "__init__":
                names = constructed_as(node.name)
                via = [c for name in names for c in calls[name]]
                # ``super().__init__(...)`` passes no self;
                # ``Base.__init__(self, ...)`` does.
                via += [
                    (call, named) if isinstance(call.func.value, ast.Call)
                    else (ast.Call(call.func, call.args[1:], call.keywords),
                          named)
                    for sub, of in bases.items()
                    if of & names and own_init.get(sub, False)
                    for call, named in init_calls[sub]
                ]
                label = f"{module}.{node.name}"
            elif fn.name.startswith("_"):
                continue
            else:
                via = [
                    (call, named) for call, named in calls[fn.name]
                    if isinstance(call.func, ast.Attribute)
                ]
                label = f"{module}.{node.name}.{fn.name}"
            options += [
                (label, name, index, via) for name, index in found.items()
            ]

    # The scan must see the package's well-known edges, or it proves
    # nothing.
    labels = {f"{label}({name})" for label, name, _, _ in options}
    assert {
        "repro.lsm.store.LearnedLSMStore(memtable_capacity)",
        "repro.families.pgm.PGMIndex(epsilon)",
        "repro.core.plan_index.CompiledPlanIndex.lookup_batch(sort)",
    } <= labels
    unset = {
        f"{label}({name})"
        for label, name, index, via in options
        if not any(sets(call, name, index, named) for call, named in via)
    }
    assert set(SAFETY_SEAMS) <= unset, "a safety seam is set after all"
    unset = sorted(unset - set(SAFETY_SEAMS))
    assert not unset, f"no call sets {unset}"


ENV_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def test_every_environment_variable_is_set_outside_tests():
    read = {
        node.value
        for path, tree in parsed().items()
        if path.is_relative_to(SRC)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ENV_KNOB.fullmatch(node.value)
    }
    setters = [ROOT / ".github" / "workflows" / "ci.yml"] + [
        path
        for root in (ROOT / "benchmarks", ROOT / "examples")
        for path in root.rglob("*")
        if path.is_file() and path.suffix in (".py", ".md", ".yml", ".sh")
    ]
    named = {
        name for path in setters for name in ENV_KNOB.findall(path.read_text())
    }
    # The scan must see the package's well-known knob, or it proves
    # nothing.
    assert "REPRO_OBS" in read
    unset = sorted(read - named)
    assert not unset, f"nothing outside tests sets {unset}"
