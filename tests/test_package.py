"""The package's own source and its tests: no module imports a name it never
uses, no library module holds an `assert` statement, every field of a
library class is read outside it, every private function, method and class
of the library is read in it, and every public one too unless it is an
export or a tracer target, the package namespace exports exactly the
README's list, every function the benchmark's tracer wraps by name exists,
and the library's doctests pass."""

import ast
import doctest
import importlib
import importlib.util
import pathlib
import re
import types

import knotconc

SRC = pathlib.Path(knotconc.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def unused_imports(source):
    """Names that source imports, outside `from __future__`, and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]


def unused_imports_in(directory):
    """{file name: unused_imports} over directory's modules, where any."""
    # __init__.py imports to re-export; the README test pins those names.
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(directory.glob("*.py"))
        if path.name != "__init__.py"
    }
    return {name: hits for name, hits in found.items() if hits}


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports_in(SRC) == {}


def test_no_test_module_imports_a_name_it_never_uses():
    assert unused_imports_in(TESTS) == {}


def assert_lines(source):
    """The line of each assert statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_asserts_are_found():
    assert assert_lines("x = 1\nassert x\nif x:\n    assert x, 'y'\n") == [2, 4]


def test_no_library_module_asserts():
    # `python -O` strips assert statements, so a certified check must raise
    # CertificationFailure, which the CLI maps to exit 4.
    found = {path.name: assert_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def unread_fields(sources):
    """"Class.field" for each public name in a class's __slots__ that no
    attribute read outside that class names, over the modules' sources."""
    trees = [ast.parse(source) for source in sources]
    reads = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for cls in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(cls, ast.ClassDef):
            continue
        inside = set(map(id, ast.walk(cls)))
        outside = {node.attr for node in reads if id(node) not in inside}
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and [
                getattr(target, "id", None) for target in stmt.targets
            ] == ["__slots__"]:
                unread += [
                    "%s.%s" % (cls.name, name)
                    for name in ast.literal_eval(stmt.value)
                    if not name.startswith("_") and name not in outside
                ]
    return sorted(unread)


def test_unread_fields_are_found():
    source = (
        "class A:\n    __slots__ = ('x', 'y', '_z')\n\n"
        "    def f(self):\n        return self.y\n\nA().x\n"
    )
    assert unread_fields([source]) == ["A.y"]


def test_every_record_field_is_read_outside_its_class():
    assert unread_fields(path.read_text() for path in sorted(SRC.glob("*.py"))) == []


def unread_definitions(sources, private=True):
    """The name of each function, method or class, over the modules'
    sources, that no Name or Attribute in them loads: those that start with
    "_" and are no dunder, or with private=False those that do not start
    with "_"."""
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    loads = [node for node in nodes if isinstance(getattr(node, "ctx", None), ast.Load)]
    read = {node.id for node in loads if isinstance(node, ast.Name)}
    read |= {node.attr for node in loads if isinstance(node, ast.Attribute)}
    return sorted(
        node.name
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    )


def test_unread_private_definitions_are_found():
    source = (
        "def _a():\n    return _b()\n\n\n"
        "def _b():\n    return _C()._n()\n\n\n"
        "class _C:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def _m(self):\n        pass\n\n"
        "    def _n(self):\n        self._m = None\n"
    )
    assert unread_definitions([source]) == ["_a", "_m"]


def test_no_private_definition_is_unread():
    # A private helper whose only callers are tests is dead library code:
    # the tests pin it, and nothing the package runs needs it.
    assert unread_definitions(path.read_text() for path in sorted(SRC.glob("*.py"))) == []


def test_unread_public_definitions_are_found():
    source = (
        "def a():\n    return b()\n\n\n"
        "def b():\n    return C().n()\n\n\n"
        "class C:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def m(self):\n        pass\n\n"
        "    def n(self):\n        self.m = None\n\n\n"
        "def _p():\n    pass\n"
    )
    assert unread_definitions([source], private=False) == ["a", "m"]


def test_no_public_definition_is_unread():
    # The public counterpart: a public function, method or class that the
    # package never reads must be an export or a function the benchmark's
    # tracer wraps, else only tests pin it.
    exempt = {name for names in readme_exports().values() for name in names}
    exempt |= {name.split(".")[-1] for _layer, name in tracer_targets()}
    sources = (path.read_text() for path in sorted(SRC.glob("*.py")))
    assert [name for name in unread_definitions(sources, private=False) if name not in exempt] == []


def readme_exports():
    """{module: [names]} from the README's list of package exports."""
    text = README.read_text()
    start = text.index("The package `knotconc` exports")
    block = text[start:].split("\n\n")[1]
    exports = {}
    for item in block.split("\n- "):
        module, names = item.lstrip("- ").split(":", 1)
        exports[module.strip("`")] = re.findall(r"`(\w+)`", names)
    return exports


def test_exports_are_the_readme_list():
    exports = readme_exports()
    public = {
        name
        for name, value in vars(knotconc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for names in exports.values() for name in names}
    for module, names in exports.items():
        owner = getattr(knotconc, module)
        for name in names:
            assert getattr(knotconc, name) is getattr(owner, name), (module, name)


def tracer_targets():
    """perfbench/tracer.py's TARGETS, (layer, name) pairs, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    # perfbench/tracer.py wraps its TARGETS by name, and a renamed or deleted
    # function would fail the benchmark's run, not this suite.
    targets = tracer_targets()
    assert targets
    for layer, name in targets:
        target = importlib.import_module("knotconc." + layer)
        for part in name.split("."):
            target = getattr(target, part, None)
        assert callable(target), (layer, name)


def test_library_doctests_pass():
    # testpaths is tests/, so this is what runs the docstring examples.
    attempted = failed = 0
    for path in sorted(SRC.glob("*.py")):
        name = "knotconc" if path.stem == "__init__" else "knotconc." + path.stem
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        failed += result.failed
    assert failed == 0 and attempted > 0
