"""The package surface holds only what something reads.

Every name a package exports resolves, so a deletion leaves no stale
entry in __all__; every exported name has a reader outside the tests; and
every module under src/ reads each name it imports.
"""

import ast
import glob
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = ["rrbandit", "rrbandit.qsim", "rrbandit.harness"]
MODULES = sorted(
    path for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                               recursive=True)
    if os.path.basename(path) != "__init__.py")

# exported names that nothing outside the tests reads, each with its reason
EXPORT_ALLOW = {
    "zero_state": "the |0...0> reference state of criterion 6 and the "
                  "statevector tests",
}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _loads(tree):
    """Names a tree reads: Name loads and Attribute loads' attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
    return names


def _unread_imports(path):
    """(line, name) of every import binding the module never reads."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    read = _loads(tree) | {node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant)
                           and isinstance(node.value, str)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unread.append((node.lineno, name))
    return unread


def _readers():
    """Every name read outside the tests: loads in src/ modules, loads and
    PATCH_POINTS strings in perfbench/, and the README's Python blocks."""
    names = set()
    for path in MODULES:
        names |= _loads(_parse(path))
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        tree = _parse(path)
        names |= _loads(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "PATCH_POINTS"
                            for t in node.targets)):
                for const in ast.walk(node.value):
                    if (isinstance(const, ast.Constant)
                            and isinstance(const.value, str)):
                        names.update(re.split(r"[.:]", const.value))
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        tree = ast.parse(block)
        names |= _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_has_a_reader_outside_the_tests(package):
    readers = _readers()
    module = importlib.import_module(package)
    assert [name for name in module.__all__
            if name not in readers and name not in EXPORT_ALLOW] == []


def test_the_export_allow_list_holds_only_exported_unread_names():
    exported = set()
    for package in PACKAGES:
        exported.update(importlib.import_module(package).__all__)
    readers = _readers()
    assert [name for name in EXPORT_ALLOW
            if name not in exported or name in readers] == []


@pytest.mark.parametrize("path", MODULES, ids=[
    os.path.relpath(p[:-3], os.path.join(ROOT, "src")).replace(os.sep, ".")
    for p in MODULES])
def test_every_import_is_read(path):
    """A module reads each name it imports, as a name or in a string
    constant (a driver looked up by name), unless its import line says
    `# noqa: F401`. A __future__ import binds no name."""
    assert _unread_imports(path) == []
