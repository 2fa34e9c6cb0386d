"""Source hygiene: every name a module imports is used in it, no
function imports again from a module the file imports at the top, every
private top-level name of the package is read somewhere in it, every
public one and every public method somewhere in the package, its demos
or benchmark, not only in its tests, only integrals._walk walks a cycle's
blocks, only the package root reads the clock, and only reporting reads
the environment."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "orbitdepth").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str):
    """(line, name) of each name the module's imports bind that nothing else
    in it reads, as a name, as the root of an attribute or inside a string
    annotation; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names(tree)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["." * node.level + (node.module or "")]


def repeated_imports(source: str):
    """(line, module) of each import inside a function from a module that
    the file already imports at the top level."""
    tree = ast.parse(source)
    top = {m for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for m in _modules(node)}
    return sorted({(node.lineno, m)
                   for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for m in _modules(node) if m in top})


def _defined(node):
    """Names a top-level statement binds: a function, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(node):
    """Names a statement reads, as a name or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unread_private_names(sources: dict):
    """(module, line, name) of each private top-level function, class or
    constant (one leading underscore) of the modules in `sources`, a dict
    of module name -> source, that no statement of any of them reads apart
    from the one that defines it."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [_read(node) for _, node in statements]
    return sorted((module, node.lineno, name)
                  for i, (module, node) in enumerate(statements)
                  for name in _defined(node)
                  if name.startswith("_") and not name.startswith("__")
                  and not any(name in r for k, r in enumerate(reads) if k != i))


def _public_definitions(tree):
    """Each public top-level function or class of a module, and each public
    method of its top-level classes (one without a leading underscore, so
    no dunder either)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_"))


def _reads(node):
    """How often a node reads each name: as a name, as an attribute or as a
    name imported from a module."""
    return Counter([n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
                   + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]
                   + [a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                      for a in n.names])


def unread_public_names(package: dict, readers: dict):
    """(module, line, name) of each public function, class or method
    (`_public_definitions`) of the modules in `package`, a dict of module
    name -> source, that nothing in them or in `readers` (the same kind of
    dict) reads apart from its own definition."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    reads += sum((_reads(ast.parse(source)) for source in readers.values()), Counter())
    return sorted((module, node.lineno, node.name) for module, tree in trees.items()
                  for node in _public_definitions(tree)
                  if reads[node.name] == _reads(node)[node.name])


def _readers(paths):
    return {str(path.relative_to(ROOT)): path.read_text() for path in paths}


def test_every_public_name_of_the_package_is_read():
    readers = _readers(path for folder in ("tests", "demos", "perfbench")
                       for path in sorted((ROOT / folder).rglob("*.py")))
    assert unread_public_names({path.stem: path.read_text() for path in PACKAGE}, readers) == []


def test_no_public_name_of_the_package_is_read_only_by_tests():
    # a name only the tests read belongs in the tests (tests/support.py)
    readers = _readers(sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    assert unread_public_names({path.stem: path.read_text() for path in PACKAGE}, readers) == []


def test_the_scan_finds_a_public_name_nothing_reads():
    package = {"a": ("from b import used\nclass Kept:\n    def method(self):\n"
                     "        return self.method()\n    def read(self):\n        return 1\n"
                     "    def __repr__(self):\n        return ''\n"
                     "def unread(n):\n    return unread(n - 1)\ndef _private():\n    pass\n"),
               "b": "def used():\n    return 1\ndef by_a_test():\n    return 2\n"}
    readers = {"tests/test_a": "import a\nimport b\na.Kept().read(), b.by_a_test()\n"}
    assert unread_public_names(package, readers) == [("a", 3, "method"), ("a", 9, "unread")]


def test_every_private_name_of_the_package_is_read():
    assert unread_private_names({path.stem: path.read_text() for path in PACKAGE}) == []


def test_the_scan_finds_a_private_name_nothing_reads():
    sources = {"a": ("import b\n_USED = 1\n_UNUSED: int = 2\ndef _recursive(n):\n"
                     "    return _recursive(n - 1)\nclass _Kept:\n    pass\n"
                     "def f(k: _Kept):\n    return _USED + b._shared\n"),
               "b": "_shared = 3\n_pair, _other = 1, 2\n__all__ = [_other]\n"}
    assert unread_private_names(sources) == [("a", 3, "_UNUSED"), ("a", 4, "_recursive"),
                                             ("b", 2, "_pair")]


WALK = ("integrals", "_walk")


def calls_past_the_walk(sources: dict):
    """(module, line, name) of each call of `_blocks` or `_settle`, as a
    name or as an attribute, in the modules of `sources` (module name ->
    source) outside the body of integrals._walk: every panel layer walks a
    cycle through that one function."""
    out = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (module, fn.name) == WALK
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("_blocks", "_settle"):
                    out.add((module, node.lineno, name))
    return sorted(out)


def test_only_the_walk_sweeps_blocks():
    assert calls_past_the_walk({path.stem: path.read_text() for path in PACKAGE}) == []


def test_the_scan_finds_a_walk_of_its_own():
    sources = {"integrals": ("def _walk(cycle, sweep):\n    for b in _blocks(cycle):\n"
                             "        _settle(b, sweep(b))\n"
                             "def again(cycle):\n    return _blocks(cycle)\n"),
               "holonomy": ("import integrals\ndef _walk(cycle):\n"
                            "    return [integrals._settle(b) for b in integrals._blocks(cycle)]\n"
                            "def f(cycle):\n    def g():\n        return integrals._walk(cycle)\n"
                            "    return g\n")}
    assert calls_past_the_walk(sources) == [("holonomy", 3, "_blocks"), ("holonomy", 3, "_settle"),
                                            ("integrals", 5, "_blocks")]


def clock_reads(sources: dict):
    """(module, line) of each use of `perf_counter`, as a name, an attribute
    or an imported name, in the modules of `sources` (module name -> source)
    other than the package root, whose Recorder times every record."""
    return sorted({(module, node.lineno) for module, source in sources.items()
                   if module != "__init__"
                   for node in ast.walk(ast.parse(source))
                   if "perf_counter" in (getattr(node, key, None)
                                         for key in ("id", "attr", "name"))})


def test_only_the_recorder_reads_the_clock():
    assert clock_reads({path.stem: path.read_text() for path in PACKAGE}) == []


def test_the_scan_finds_a_clock_of_its_own():
    sources = {"__init__": "import time\ndef lap():\n    return time.perf_counter()\n",
               "reporting": ("import time\nfrom time import perf_counter as now\n"
                             "def f():\n    start = time.perf_counter()\n"
                             "    return now() - start, time.strftime('%Y')\n"),
               "holonomy": "def g(clock=__import__('time').perf_counter):\n    return clock\n"}
    assert clock_reads(sources) == [("holonomy", 1), ("reporting", 2), ("reporting", 4)]


def environment_reads(sources: dict):
    """(module, line) of each use of `environ` or `getenv`, as a name, an
    attribute or an imported name, in the modules of `sources` (module name
    -> source) other than reporting, whose run_suite reads OUTPUT_DIR: the
    command line's flags are the one other way in."""
    return sorted({(module, node.lineno) for module, source in sources.items()
                   if module != "reporting"
                   for node in ast.walk(ast.parse(source))
                   if {"environ", "getenv"} & {getattr(node, key, None)
                                               for key in ("id", "attr", "name")}})


def test_only_reporting_reads_the_environment():
    assert environment_reads({path.stem: path.read_text() for path in PACKAGE}) == []


def test_the_scan_finds_an_environment_read_of_its_own():
    sources = {"reporting": "import os\ndef f():\n    return os.environ.get('OUTPUT_DIR')\n",
               "cli": ("import os\nfrom os import getenv as env, environ\n"
                       "def f():\n    return os.getenv('T0'), env('K'), os.environ['X']\n"),
               "holonomy": "def g(env=__import__('os').environ):\n    return env\n"}
    assert environment_reads(sources) == [("cli", 2), ("cli", 4), ("holonomy", 1)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_imports_from_a_module_imported_at_the_top(path):
    assert repeated_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "from typing import List, Optional\nimport numpy as np\n"
              "def f(x: 'Optional[int]') -> None:\n    return np.pi, 'List'\n")
    assert unused_imports(source) == [(3, "os"), (4, "List")]


def test_the_scan_finds_an_import_repeated_in_a_function():
    source = ("import os\nfrom .curves import Cycle\nimport json\n"
              "def f():\n    from .curves import Arc\n    import os.path\n"
              "    def g():\n        import os\n        import sys\n"
              "    from .words import Gen\n    return json\n")
    assert repeated_imports(source) == [(5, ".curves"), (8, "os")]
