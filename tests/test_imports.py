"""Every module of the package and of the test suite reads each name
that it imports at the top level.  ``kostka/__init__.py`` is exempt: its
imports are the package's exports.  Every ``functools`` cache of the
package declares a finite ``maxsize``, so no cache grows with the
inputs a process sees.  Every private module-level name of the package
is read by the package itself, so no helper lives on for tests alone.
Every span of the benchmark's tracer keeps a binding in the package, so
no change to ``src/`` blinds a per-layer metric.  Each cap of
``config`` is read only by the functions that guard with it, so no
caller re-tests the cap of a function it then calls.  Every exception
the package raises is a :class:`KostkaError`, an ``AssertionError`` or
a ``click.UsageError``, so the CLI gives each one its exit code.  The
CLI exits only from ``_guarded`` (exit 2 or 3), ``_emit`` (exit 1) and
``basis`` (a fixture mismatch, exit 3), and every command takes
``--format``.  The functions a small pair's graph detection runs
through call no numpy.  Only the functions that build the library's own
pairs read ``partitions._certified``, so outside input (the CLI, a
loaded catalog, a parsed partition) keeps the constructor's type
census, and only the subset-sum proof and the equivalence check read
``subsetsum._proof_halves``, which reports the halves it is handed
unchecked."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import click
import pytest
from test_config import CASES

from kostka import cli, errors

ROOT = Path(__file__).resolve().parent.parent
EXPORTS = ROOT / "src" / "kostka" / "__init__.py"
PACKAGE = sorted((ROOT / "src" / "kostka").glob("*.py"))
MODULES = sorted(
    path
    for path in (*(ROOT / "src" / "kostka").glob("*.py"), *(ROOT / "tests").glob("*.py"))
    if path != EXPORTS
)


def unread_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no
    expression of the module reads, in import order."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += (alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES]
)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_guard_sees_an_unread_import():
    source = "import os\nimport numpy as np\nfrom typing import Any, Sequence\nnp.zeros(Any)\n"
    assert unread_imports(source) == ["os", "Sequence"]


def unbounded_caches(source: str) -> list[int]:
    """The lines of the module's ``functools`` caches that do not
    declare a positive integer ``maxsize``: ``cache``, a bare
    ``lru_cache`` and ``lru_cache`` called without one or with None."""
    lines: list[int] = []
    for node in ast.walk(ast.parse(source)):
        if _named(node) == "functools.cache":
            lines.append(node.lineno)
        for dec in getattr(node, "decorator_list", []):
            if _named(dec) in ("cache", "lru_cache", "functools.lru_cache"):
                lines.append(dec.lineno)
        if isinstance(node, ast.Call) and _named(node.func) in (
            "lru_cache",
            "functools.lru_cache",
        ):
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            size = (sizes or node.args[:1] or [None])[0]
            if not (
                isinstance(size, ast.Constant)
                and type(size.value) is int
                and size.value > 0
            ):
                lines.append(node.lineno)
    return sorted(lines)


def _named(node: ast.AST) -> str | None:
    """``name`` or ``module.name`` for a plain or dotted name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[str(path.relative_to(ROOT)) for path in PACKAGE]
)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []


def test_the_guard_sees_an_unbounded_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\ndef a(x): return x\n"
        "@cache\ndef b(x): return x\n"
        "@functools.lru_cache\ndef c(x): return x\n"
        "@lru_cache(maxsize=None)\ndef d(x): return x\n"
        "@functools.lru_cache(None)\ndef e(x): return x\n"
        "@functools.lru_cache()\ndef f(x): return x\n"
        "@functools.lru_cache(maxsize=8)\ndef g(x): return x\n"
        "@lru_cache(16)\ndef h(x): return x\n"
        "i = functools.lru_cache(maxsize=None)(len)\n"
    )
    assert unbounded_caches(source) == [3, 5, 7, 9, 11, 13, 19]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level function, class or assigned
    name with one leading underscore (dunders are exempt) that no other
    top-level statement of the given modules reads, by name or as an
    attribute; a recursive helper's calls to itself do not count."""
    defined: list[tuple[str, str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [
                    leaf.id
                    for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name)
                ]
            else:
                names = []
            defined += (
                (module, name, node)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            )
    reads = {
        id(node): {
            leaf.id if isinstance(leaf, ast.Name) else leaf.attr
            for leaf in ast.walk(node)
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)
            or isinstance(leaf, ast.Attribute)
        }
        for node in statements
    }
    return [
        f"{module}:{name}"
        for module, name, home in defined
        if not any(name in reads[id(node)] for node in statements if node is not home)
    ]


def test_every_private_name_is_read_by_the_package():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []


def test_the_guard_sees_a_dead_helper():
    sources = {
        "a": (
            "def _used(x): return x\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "def _dead(): return _used(1)\n"
            "class _Shape: pass\n"
            "_CACHE, _SEEN = {}, set()\n"
            "_LIMIT: int = 3\n"
            "__all__ = ['public']\n"
            "def public(): return _CACHE, _LIMIT\n"
        ),
        "b": "from .a import _Shape\nimport a\nprint(_Shape, a._SEEN)\n",
    }
    assert unread_private_names(sources) == ["a:_recursive", "a:_dead"]


# the functions a small pair's graph detection and column sweep run
# through: Ryser's procedure, the matrices read off its record, the
# graph on lists, its subtree, the sweep and the split, by module and
# qualified name
RECORD_PATH = {
    "ryser": (
        "_fixing_stages",
        "_cut_sums",
        "_record_canonical",
        "_RecordCanonical._row_sums",
        "_record_star",
        "_star_vertices",
        "matrix_reducible",
        "sweep_proper_subsets",
        "split_pair",
    ),
    "kgr": (
        "_build_lists",
        "_column_roots",
        "_first_columns",
        "_list_referee",
        "_find_on_lists",
        "find_conservative_subtree",
        "fast_reducibility",
    ),
}


def numpy_reads(source: str, names) -> dict[str, list[int]]:
    """For each of the module's functions or methods named (as
    ``function`` or ``Class.method``), the lines where it reads an
    attribute of ``np``; a name the module does not define maps to None."""
    found: dict[str, list[int] | None] = dict.fromkeys(names)
    tree = ast.parse(source)
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [
        (f"{node.name}.{item.name}", item)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    ]
    for name, node in defs:
        if name in found:
            found[name] = [
                leaf.lineno
                for leaf in ast.walk(node)
                if (_named(leaf) or "").startswith("np.")
            ]
    return found


def test_the_record_path_calls_no_numpy():
    for module, names in RECORD_PATH.items():
        source = (ROOT / "src" / "kostka" / f"{module}.py").read_text()
        assert numpy_reads(source, names) == dict.fromkeys(names, []), module


def test_the_guard_sees_numpy_on_the_record_path():
    source = (
        "import numpy as np\n"
        "def pure(x): return sorted(x)\n"
        "def mixed(x):\n    y = list(x)\n    return np.asarray(y)\n"
        "class Held:\n    def sums(self):\n        return np.add.reduce(self.a)\n"
    )
    assert numpy_reads(source, ("pure", "mixed", "Held.sums", "gone")) == {
        "pure": [],
        "mixed": [5],
        "Held.sums": [8],
        "gone": None,
    }


def blind_spans(bindings, resolves) -> list[str]:
    """The span names of a tracer binding table none of whose
    ``(module, attribute)`` bindings ``resolves``."""
    return [
        name
        for name, _, pairs in bindings
        if not any(resolves(module, attr) for module, attr in pairs)
    ]


def _in_package(module: str, attr: str) -> bool:
    try:
        return hasattr(importlib.import_module(f"kostka.{module}"), attr)
    except ModuleNotFoundError:
        return False


# its only binding, ``cone.dominated_partitions``, names a function the
# package no longer has
BLIND_SPANS_ALLOWED = {"partitions.dominated_partitions"}


def test_every_traced_span_keeps_a_binding():
    # the tracer module imports no kostka module until it is installed
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(blind_spans(tracing.BINDINGS, _in_package)) <= BLIND_SPANS_ALLOWED


def test_the_guard_sees_a_blind_span():
    bindings = (
        ("ryser.star_matrix", "call", (("ryser", "star_matrix"), ("kgr", "star_matrix"))),
        ("kgr.gone", "call", (("kgr", "gone"),)),
        ("nowhere.f", "call", (("nowhere", "f"),)),
    )
    assert blind_spans(bindings, _in_package) == ["kgr.gone", "nowhere.f"]


def cap_readers(sources: dict[str, str]) -> dict[str, set[str]]:
    """For each ``config.<NAME>`` that the given modules read, the
    ``module.function`` (or ``module.Class.method``) names of the
    functions that read it; a read outside any function counts for the
    module."""
    readers: dict[str, set[str]] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            name = _named(child)
            if name and name.startswith("config.") and isinstance(child.ctx, ast.Load):
                readers.setdefault(name.partition(".")[2], set()).add(scope)
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return readers


def name_readers(sources: dict[str, str], name: str) -> set[str]:
    """The ``module.function`` (or ``module.Class.method``) names of the
    functions that read ``name``, alone or as an attribute; a read
    outside any function counts for the module, and an import does not
    count."""
    readers: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (
                isinstance(child, ast.Name)
                and child.id == name
                and isinstance(child.ctx, ast.Load)
                or isinstance(child, ast.Attribute)
                and child.attr == name
            ):
                readers.add(scope)
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return readers


# the functions that hand ``partitions._certified`` parts they computed
CERTIFIED_CALLERS = {
    "cone.decompose",
    "cone._minimal_slacks",
    "cone.RaySpec.pair",
    "cone.primitive_point",
    "ryser.split_pair",
    "subsetsum.reduce_to_kostka",
    "subsetsum._proof_halves",
}


def test_only_the_library_s_own_pairs_skip_the_census():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert name_readers(sources, "_certified") == CERTIFIED_CALLERS


def test_the_guard_sees_a_stray_builder_caller():
    sources = {
        "cli": (
            "from .partitions import _certified\n"
            "def parse(text):\n    return _certified(text, text, 1)\n"
            "def fine(text): return KostkaPair(text, text, 1)\n"
        ),
        "cone": (
            "from . import partitions\n"
            "class RaySpec:\n    def pair(self): return partitions._certified((1,), (1,), 1)\n"
            "build = _certified\n"
        ),
    }
    assert name_readers(sources, "_certified") == {"cli.parse", "cone.RaySpec.pair", "cone"}


# the callers of ``subsetsum._proof_halves``, which reports a half equal
# to one of the pairs it is handed without checking it: the public
# proof, which hands it none, and the equivalence check, which hands it
# the halves ``decompose`` has just certified
PROOF_STEP_CALLERS = {
    "subsetsum.proof_decomposition",
    "subsetsum.reduction_equivalence_check",
}


def test_only_the_search_s_halves_reach_the_proof_unchecked():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert name_readers(sources, "_proof_halves") == PROOF_STEP_CALLERS


def test_the_guard_sees_a_stray_proof_step_caller():
    sources = {
        "subsetsum": (
            "def proof_decomposition(inst, subset, whole):\n"
            "    return _proof_halves(inst.sorted_desc(), subset, whole, ())\n"
        ),
        "cli": (
            "from . import subsetsum\n"
            "def subsetsum_cmd(inst, pair):\n"
            "    return subsetsum._proof_halves(inst, (1,), pair, (pair, pair))\n"
        ),
    }
    assert name_readers(sources, "_proof_halves") == {
        "subsetsum.proof_decomposition",
        "cli.subsetsum_cmd",
    }


# the readers of each cap that tests/test_config.py lowers: the guard
# itself, and nothing else
CAP_READERS = {
    "BOX_CAP": {"partitions.kostka_count"},
    "SPLIT_CAP": {"cone._split_cap"},
    "SWEEP_CAP": {"ryser.matrix_reducible"},
    "CELL_CAP": {"ryser._cell_cap"},
    "RANK_CAP": {"cone._minimal_slacks"},
    "RAY_RANK_CAP": {"cone._ray_rank_cap"},
    "STATE_CAP": {"sequences.catalan_reducible"},
    "LR_BOX_CAP": {"lr.lr_coefficient"},
    "FAMILY_CAP": {"lr._family_cap"},
}


def test_each_cap_is_read_only_by_its_guard():
    readers = cap_readers({path.stem: path.read_text() for path in PACKAGE})
    caps = {param.values[0] for param in CASES}
    assert {cap: readers.get(cap, set()) for cap in caps} == CAP_READERS


def test_the_guard_sees_a_second_reader():
    sources = {
        "a": (
            "from . import config\n"
            "LIMIT = config.Z\n"
            "def f(n):\n    if n > config.X: raise ValueError\n"
            "class C:\n    def m(self): return config.Y\n"
        ),
        "b": "def g(n):\n    config.W = 1\n    return n <= config.X and f(n)\n",
    }
    assert cap_readers(sources) == {"Z": {"a"}, "X": {"a.f", "b.g"}, "Y": {"a.C.m"}}


# the classes the package may raise: the CLI maps a KostkaError to exit 2
# or 3, and AssertionError to 3, and click.UsageError is exit 2
RAISABLE = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.KostkaError)
} | {"AssertionError", "click.UsageError"}


def stray_raises(sources: dict[str, str]) -> list[str]:
    """``module:line name`` for each exception class the modules raise
    that is not in ``RAISABLE``: the plain or dotted name after
    ``raise``, called or not, or None for any other expression (a bare
    ``raise`` re-raises and is skipped).  A function that raises one of
    its own parameters raises what its callers pass: the argument at
    that parameter of each call, by position or keyword, counts as
    raised at the call."""
    raised: list[tuple[str, str | None]] = []
    forwarded: dict[str, tuple[int, str]] = {}

    def visit(node: ast.AST, module: str, func: ast.FunctionDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = _named(exc)
                params = [arg.arg for arg in func.args.args] if func else []
                if name in params:
                    forwarded[func.name] = (params.index(name), name)
                else:
                    raised.append((f"{module}:{child.lineno}", name))
            visit(child, module, func)

    trees = {module: ast.parse(source) for module, source in sources.items()}
    for module, tree in trees.items():
        visit(tree, module, None)
    for module, tree in trees.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = (_named(call.func) or "").rpartition(".")[2]
            if callee in forwarded:
                index, param = forwarded[callee]
                args = call.args[index : index + 1]
                args += [kw.value for kw in call.keywords if kw.arg == param]
                raised += ((f"{module}:{call.lineno}", _named(arg)) for arg in args)
    return [f"{where} {name}" for where, name in raised if name not in RAISABLE]


def test_every_raise_is_a_package_error():
    assert stray_raises({path.stem: path.read_text() for path in PACKAGE}) == []


def test_the_guard_sees_a_stray_raise():
    sources = {
        "a": (
            "def f(x, error):\n"
            "    if x: raise error('bad')\n"
            "    raise ValueError\n"
            "def g():\n"
            "    try: f(1, KeyError)\n"
            "    except KeyError: raise\n"
            "    f(0, error=InvalidPair)\n"
            "    raise AssertionError() from None\n"
        ),
        "b": "import a\na.f(2, click.UsageError)\nraise table[0]\nraise NotAWitness\n",
    }
    assert stray_raises(sources) == ["a:3 ValueError", "b:3 None", "a:5 KeyError"]


def exit_sites(source: str) -> list[str]:
    """The top-level function (or ``<module>``) around each call of
    ``sys.exit`` or ``SystemExit`` in the module, in source order."""
    sites: list[str] = []
    for node in ast.parse(source).body:
        scope = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        sites += (
            scope
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and _named(call.func) in ("sys.exit", "SystemExit")
        )
    return sites


def test_the_cli_exits_from_one_place_per_code():
    source = (ROOT / "src" / "kostka" / "cli.py").read_text()
    assert exit_sites(source) == ["_guarded", "_emit", "basis"]


def test_the_guard_sees_a_stray_exit():
    source = (
        "import sys\n"
        "def _emit(holds):\n    if not holds: sys.exit(1)\n"
        "def check(member):\n"
        "    def inner(): raise SystemExit(2)\n"
        "    _emit(member)\n    sys.exit(0 if member else 1)\n"
        "def quiet(): print(0)\n"
        "if __name__ == '__main__':\n    sys.exit(main())\n"
    )
    assert exit_sites(source) == ["_emit", "check", "check", "<module>"]


def formatless_commands(group: click.Group) -> list[str]:
    """The names of the group's commands that take no ``--format``."""
    return [
        name
        for name, command in group.commands.items()
        if not any("--format" in param.opts for param in command.params)
    ]


def test_every_command_takes_a_format():
    assert len(cli.main.commands) == 10
    assert formatless_commands(cli.main) == []


def test_the_guard_sees_a_formatless_command():
    group = click.Group()
    group.command(name="plain")(click.option("--rank")(lambda rank: None))
    group.command(name="styled")(click.option("--format")(lambda format: None))
    assert formatless_commands(group) == ["plain"]
