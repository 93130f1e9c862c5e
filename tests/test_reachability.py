"""Every public module-level function and class of mutkit has a caller in
the product: the package itself, the demos or the benchmark harness; every
private one has a caller in its own module; every field of a public
dataclass is read in the product; every optional parameter of a public
function or method is passed by some call in the product; and every
module-level name assigned in the package is read in its own module or
by another product file.

A name counts as used when code outside its own definition refers to it
(a bare name or an attribute); a field counts as read when code outside
its class loads an attribute of that name; a parameter counts as passed
when a call of the function's name (a class's name for ``__init__``)
passes it by keyword, by position, or through ``*`` or ``**``.  A
parameter whose default is callable is a seam for tests to put a stand-in
in, and is exempt.  Imports and the tests do not count, except that a
module-level name counts as read when its own module loads it or another
product file imports it from that module or loads it as
``<module>.<name>``; dunder names are exempt.  No product file imports or
loads a private name of another mutkit module: what modules share is
public.

The test modules are held to one rule of their own: every name a module
under ``tests/`` imports is loaded somewhere in that module.  ``from
__future__`` imports are exempt.

The line-level gate, ``tests/linereach.py``, runs in a child process on a
toy module to show that it stops at a test that switches its tracer off.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mutkit"
PRODUCT = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_"))


def _references(node: ast.AST) -> set[str]:
    """The bare names and attribute names that code in ``node`` refers to."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def unreached(paths, package, private: bool = False) -> list[str]:
    """The public (with ``private``, the private) top-level functions and
    classes of the ``package`` files that no top-level statement of
    ``paths``, other than their own definition, refers to."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    references = {id(node): _references(node) for tree in trees.values() for node in tree.body}
    uses = Counter(name for names in references.values() for name in names)
    return [f"{path.stem}.{node.name}"
            for path in package for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private
            and uses[node.name] == (node.name in references[id(node)])]


def unreached_private(package) -> list[str]:
    """The private top-level functions and classes of the ``package`` files
    that nothing else in their own module refers to."""
    return [name for path in package for name in unreached([path], [path], private=True)]


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated with ``@dataclass`` or ``@dataclass(...)``."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_fields(paths, package) -> list[str]:
    """The fields of the public top-level dataclasses of the ``package``
    files that no top-level statement of ``paths``, other than their own
    class, loads as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    loads = {id(node): {sub.attr for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
             for tree in trees.values() for node in tree.body}
    return [f"{path.stem}.{node.name}.{stmt.target.id}"
            for path in package for node in trees[path].body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and not any(stmt.target.id in names for other, names in loads.items()
                        if other != id(node))]


def _assigned(tree: ast.Module) -> list[str]:
    """The names that the top-level assignments of ``tree`` bind."""
    return [sub.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]


def unread_names(paths, package) -> list[str]:
    """The module-level names assigned in the ``package`` files, dunder
    names apart, that their own module never loads and that no other file
    of ``paths`` imports from that module or loads as ``<module>.<name>``."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    found = []
    for path in package:
        read = {sub.id for sub in ast.walk(trees[path])
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for other, tree in trees.items():
            if other == path:
                continue
            for sub in ast.walk(tree):
                if isinstance(sub, ast.ImportFrom) \
                        and (sub.module or "").rpartition(".")[2] == path.stem:
                    read.update(alias.name for alias in sub.names)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) \
                        and path.stem == (sub.value.id if isinstance(sub.value, ast.Name)
                                          else getattr(sub.value, "attr", None)):
                    read.add(sub.attr)
        found += [f"{path.stem}.{name}" for name in _assigned(trees[path])
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in read]
    return found


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(paths, package) -> list[str]:
    """``<file>: <module>.<name>`` for each private name of a ``package``
    module that another file of ``paths`` imports from that module or
    loads as ``<module>.<name>``."""
    stems = {path.stem for path in package}
    found = []
    for path in paths:
        own = path.stem if path in package else None
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(sub, ast.ImportFrom):
                owner, names = (sub.module or "").rpartition(".")[2], [
                    alias.name for alias in sub.names]
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                owner, names = (sub.value.id if isinstance(sub.value, ast.Name)
                                else getattr(sub.value, "attr", None)), [sub.attr]
            else:
                continue
            if owner in stems and owner != own:
                found += [f"{path.name}: {owner}.{name}" for name in names
                          if _is_private(name)]
    return found


def unloaded_imports(paths) -> list[str]:
    """``<file>: <name>`` for each name that an import in one of ``paths``
    binds and that the same file never loads; ``from __future__`` imports
    and ``*`` imports are exempt."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in sub.names]
            elif isinstance(sub, ast.ImportFrom) and sub.module != "__future__":
                bound = [alias.asname or alias.name for alias in sub.names
                         if alias.name != "*"]
            else:
                continue
            found += [f"{path.name}: {name}" for name in bound if name not in loaded]
    return found


def _functions(module):
    """(label, call name, function, bound) for each function and method of
    ``module``'s public top-level definitions written in its source: the
    public methods, and ``__init__`` under its class's name.  ``bound`` says
    whether a call's first argument goes to the second parameter."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, name, obj, False
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                function = getattr(member, "__func__", member)
                # A dataclass's generated __init__ has no source file.
                if not inspect.isfunction(function) \
                        or function.__code__.co_filename != module.__file__:
                    continue
                yield (name if attr == "__init__" else f"{name}.{attr}",
                       name if attr == "__init__" else attr, function,
                       not isinstance(member, staticmethod))


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``, at argument
    ``position`` when it can be given by position."""
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) for arg in call.args) or len(call.args) > position


def unpassed(paths, modules) -> list[str]:
    """The optional parameters, as ``module.function(name=)``, of the public
    functions and methods of ``modules`` that no call in ``paths`` passes."""
    calls: dict[str, list[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(callee, []).append(node)
    found = []
    for module in modules:
        stem = module.__name__.rpartition(".")[2]
        for label, callee, function, bound in _functions(module):
            parameters = list(inspect.signature(function).parameters.values())[bound:]
            for position, parameter in enumerate(parameters):
                if parameter.default is inspect.Parameter.empty or callable(parameter.default):
                    continue
                by_position = position if parameter.kind in (
                    parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD) else None
                if not any(_passes(call, by_position, parameter.name)
                           for call in calls.get(callee, ())):
                    found.append(f"{stem}.{label}({parameter.name}=)")
    return found


def _import(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_product_files_are_found():
    assert len(PRODUCT) > len(list(PACKAGE.glob("*.py"))) > 10


def test_every_public_definition_is_named_by_the_product():
    assert unreached(PRODUCT, sorted(PACKAGE.glob("*.py"))) == []


def test_every_private_definition_is_named_in_its_module():
    assert unreached_private(sorted(PACKAGE.glob("*.py"))) == []


def test_every_dataclass_field_is_read_by_the_product():
    assert unread_fields(PRODUCT, sorted(PACKAGE.glob("*.py"))) == []


def test_every_optional_parameter_is_passed_by_the_product():
    modules = [importlib.import_module(f"mutkit.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))]
    assert unpassed(PRODUCT, modules) == []


def test_every_module_level_name_is_read_by_the_product():
    assert unread_names(PRODUCT, sorted(PACKAGE.glob("*.py"))) == []


def test_no_product_file_reaches_a_private_name_of_another_module():
    assert foreign_private_names(PRODUCT, sorted(PACKAGE.glob("*.py"))) == []


def test_every_name_a_test_module_imports_is_loaded():
    assert unloaded_imports(sorted((ROOT / "tests").glob("*.py"))) == []


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    return f()\n", ["m.f"]),
    ("def f():\n    pass\n\nx = f\n", []),
    ("import n\nn.f()\n\ndef f():\n    pass\n", []),
    ("from n import f\n\ndef f():\n    pass\n", ["m.f"]),
    ("class C:\n    def f(self):\n        return C\n\ndef _g():\n    pass\n", ["m.C"]),
])
def test_only_a_reference_from_outside_the_definition_counts(tmp_path, source, expected):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert unreached([path], [path]) == expected


@pytest.mark.parametrize("source, expected", [
    ("@dataclass\nclass C:\n    a: int\n    b: int\n\ndef f(c):\n    return c.a\n",
     ["m.C.b"]),
    ("@dataclass(frozen=True)\nclass C:\n    a: int\n\n    def f(self):\n"
     "        return self.a\n", ["m.C.a"]),
    ("@dataclass\nclass C:\n    a: int\n\ndef f(c):\n    c.a = 1\n", ["m.C.a"]),
    ("class C:\n    a: int\n\n@dataclass\nclass _D:\n    b: int\n", []),
])
def test_only_a_read_from_outside_the_class_counts(tmp_path, source, expected):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert unread_fields([path], [path]) == expected


@pytest.mark.parametrize("source, expected", [
    ("def _f():\n    return _f()\n", ["m._f"]),
    ("def _f():\n    pass\n\ndef g():\n    return _f()\n", []),
    ("class _C:\n    pass\n\nx = [_C()]\n", []),
    ("class _C:\n    def f(self):\n        return _C\n\ndef f():\n    pass\n", ["m._C"]),
])
def test_a_private_name_needs_a_reference_from_its_own_module(tmp_path, source,
                                                              expected):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert unreached_private([path]) == expected


def test_a_private_name_used_only_by_another_module_is_unreached(tmp_path):
    helper, caller = tmp_path / "m.py", tmp_path / "n.py"
    helper.write_text("def _f():\n    pass\n", encoding="utf-8")
    caller.write_text("from m import _f\n\n_f()\n", encoding="utf-8")
    assert unreached_private([helper, caller]) == ["m._f"]


@pytest.mark.parametrize("source, expected", [
    ("def f(a, b=1):\n    pass\n\nf(0)\n", ["m.f(b=)"]),
    ("def f(a, b=1):\n    pass\n\nf(0, 2)\n", []),
    ("def f(a, b=1):\n    pass\n\nf(0, b=2)\n", []),
    ("def f(a, *, b=1):\n    pass\n\ndef g():\n    return f(0, 2)\n", ["m.f(b=)"]),
    ("def f(a, b=1):\n    pass\n\nf(*[0, 2])\n", []),
    ("def f(a, b=1):\n    pass\n\nf(**{'a': 0})\n", []),
    ("def f(a, b=print):\n    pass\n\nf(0)\n", []),
    ("def _f(a, b=1):\n    pass\n\n_f(0)\n", []),
    ("class C:\n    def __init__(self, a, b=1):\n        pass\n\n"
     "    def g(self, c=2):\n        pass\n\nC(0, 1).g()\n", ["m.C.g(c=)"]),
    ("class C:\n    def __init__(self, a, b=1):\n        pass\n\nC(0)\n", ["m.C(b=)"]),
    ("class C:\n    @staticmethod\n    def g(a, b=1):\n        pass\n\nC.g(0, 1)\n", []),
    ("from dataclasses import dataclass\n\n@dataclass\nclass C:\n    a: int = 1\n"
     "\nC()\n", []),
])
def test_an_optional_parameter_needs_a_call_that_passes_it(tmp_path, source, expected):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert unpassed([path], [_import(path)]) == expected


@pytest.mark.parametrize("source, other, expected", [
    ("x = 1\n", "", ["m.x"]),
    ("x = 1\ny = x\n", "", ["m.y"]),
    ("def f():\n    return x\n\nx = 1\n", "", []),
    ("x = 1\n\ndef f():\n    x = 2\n", "", ["m.x"]),
    ("x: int = 1\na, (b, c) = 1, (2, 3)\nprint(a, c)\n", "", ["m.x", "m.b"]),
    ("__all__ = []\n", "", []),
    ("x = 1\n", "from m import x\n", []),
    ("x = 1\n", "from pkg.m import x as y\n", []),
    ("x = 1\n", "import m\n\nprint(m.x)\n", []),
    ("x = 1\n", "import pkg.m\n\nprint(pkg.m.x)\n", []),
    ("x = 1\n", "import m\n\nm.x = 2\n", ["m.x"]),
    ("x = 1\n", "x = 2\nprint(x)\n", ["m.x"]),
])
def test_a_module_level_name_needs_a_read_from_its_module_or_by_its_name(
        tmp_path, source, other, expected):
    path, other_path = tmp_path / "m.py", tmp_path / "n.py"
    path.write_text(source, encoding="utf-8")
    other_path.write_text(other, encoding="utf-8")
    assert unread_names([path, other_path], [path]) == expected


@pytest.mark.parametrize("other, expected", [
    ("from m import f\n\nf()\n", []),
    ("from m import _f\n\n_f()\n", ["n.py: m._f"]),
    ("from pkg.m import _f as g\n\ng()\n", ["n.py: m._f"]),
    ("from . import m\n\nm._f()\n", ["n.py: m._f"]),
    ("import pkg.m\n\nprint(pkg.m._x)\n", ["n.py: m._x"]),
    ("import m\n\nprint(m.__name__, m.f)\n", []),
    ("def _f():\n    pass\n\n_f()\n", []),
])
def test_a_private_name_is_reached_only_from_its_own_module(tmp_path, other, expected):
    path, other_path = tmp_path / "m.py", tmp_path / "n.py"
    path.write_text("import m\n\ndef _f():\n    return m._f\n", encoding="utf-8")
    other_path.write_text(other, encoding="utf-8")
    assert foreign_private_names([path, other_path], [path]) == expected


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["m.py: os"]),
    ("import os\n\nprint(os.sep)\n", []),
    ("import os.path\n\nprint(os.path.sep)\n", []),
    ("import numpy as np\n\nimport numpy\n\nprint(np)\n", ["m.py: numpy"]),
    ("from os import path, sep\n\nprint(sep)\n", ["m.py: path"]),
    ("from os import path as p\n\ndef f():\n    return p.sep\n", []),
    ("from os import sep\n\nsep = 1\n", ["m.py: sep"]),
    ("from __future__ import annotations\n", []),
    ("from os import *\n", []),
    ("def f():\n    import json\n    return 1\n", ["m.py: json"]),
])
def test_a_test_module_loads_every_name_it_imports(tmp_path, source, expected):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert unloaded_imports([path]) == expected


def test_linereach_names_the_test_that_switches_its_tracer_off(tmp_path):
    (tmp_path / "test_deep.py").write_text(
        "import pytest\n\n\n"
        "def recurse(depth):\n    return recurse(depth + 1)\n\n\n"
        "def test_exhausts_the_stack():\n"
        "    with pytest.raises(RecursionError):\n        recurse(0)\n\n\n"
        "def test_after():\n    pass\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "linereach.py"), "test_deep.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stdout.endswith(
        "the line tracer was switched off in test_deep.py::test_exhausts_the_stack; "
        "no later line was counted\n")
