"""Guard against library code that nothing in the package uses.

Every function, method and class defined under ``src/jetvar`` (dunders
aside) must be used by the package's own code: its name must occur as a
``Name`` or as the attribute of an ``Attribute`` node in the parsed
source. A name that occurs only in a docstring or a comment does not count.
Code that only tests reach belongs in ``tests/``.

Every module-level import of a module other than a package ``__init__``
must be used in that module, as a ``Name`` (which is also the root of any
``Attribute`` chain); ``from __future__ import annotations`` is exempt.

Coefficient arithmetic stays in the kernel: no module but ``_poly.py``
names ``rat``, ``rat_add`` or ``rat_mul``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetvar"

# Reached only from perfbench/spans.py and perfbench/oracles.py; they go
# when the benchmark reads a trace recorder instead (ROADMAP item 2).
PERFBENCH_ONLY = {"poly_diff", "Expr.iterated_total_derivative"}

# Hooks that are called by name from code no parse of src/ sees: argparse
# calls ``error`` on its parser, and the evaluator's generated code calls
# ``_m.<name>_arg`` on the float and grid namespaces.
CALLED_BY_NAME = {"_Parser.error",
                  "FloatOps.recip_arg", "FloatOps.ln_arg", "FloatOps.sqrt_arg",
                  "_GridOps.recip_arg", "_GridOps.ln_arg", "_GridOps.sqrt_arg"}


def _definitions(tree, prefix=""):
    """``(qualified name, node)`` of every def and class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def unused_definitions(sources: dict) -> tuple[list, set]:
    """Definitions whose name no ``Name`` or ``Attribute`` node uses, as
    ``path:line qualified.name``, and the qualified names of all definitions.

    ``sources`` maps a path to its source text."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused, defined = [], set()
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            defined.add(qualname)
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in used:
                continue
            unused.append(f"{path}:{node.lineno} {qualname}")
    return unused, defined


def test_every_definition_is_used_in_src():
    sources = {str(f.relative_to(SRC)): f.read_text() for f in sorted(SRC.rglob("*.py"))}
    unused, defined = unused_definitions(sources)
    allowed = PERFBENCH_ONLY | CALLED_BY_NAME
    flagged = [u for u in unused if u.split(" ")[1] not in allowed]
    assert not flagged, "defined but not used in src/: " + ", ".join(flagged)
    assert allowed <= defined, "stale allowlist: " + ", ".join(sorted(allowed - defined))


def test_scan_ignores_names_in_docstrings_and_comments():
    source = ('class Table:\n'
              '    """Use part() to take one part."""\n'
              '    def part(self):  # part of the table\n'
              '        return "part"\n'
              '    def used(self):\n'
              '        return 1\n'
              'def caller(t):\n'
              '    return t.used()\n'
              'caller(Table())\n')
    unused, defined = unused_definitions({"m.py": source})
    assert unused == ["m.py:3 Table.part"]
    assert defined == {"Table", "Table.part", "Table.used", "caller"}


def unused_imports(sources: dict) -> list:
    """Module-level imports that no ``Name`` node of their module uses, as
    ``path:line name``; package ``__init__`` modules re-export and are skipped.

    ``sources`` maps a path to its source text."""
    unused = []
    for path, text in sources.items():
        if pathlib.PurePath(path).name == "__init__.py":
            continue
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path}:{node.lineno} {name}")
    return unused


def test_every_import_is_used_in_src():
    sources = {str(f.relative_to(SRC)): f.read_text() for f in sorted(SRC.rglob("*.py"))}
    unused = unused_imports(sources)
    assert not unused, "imported but not used: " + ", ".join(unused)


def test_import_scan_flags_unused_module_level_imports():
    source = ('from __future__ import annotations\n'
              'import json\n'
              'import os.path\n'
              'from . import forms as F\n'
              'from .symcore import base, jet\n'
              'def f():\n'
              '    import math\n'
              '    """json is named here only."""\n'
              '    return os.path.join(F.name, jet(1))\n')
    assert unused_imports({"m.py": source, "pkg/__init__.py": "import json\n"}) == [
        "m.py:2 json", "m.py:5 base"]


COEFFICIENT_ARITHMETIC = {"rat", "rat_add", "rat_mul"}


def coefficient_arithmetic(sources: dict) -> list:
    """Names of the kernel's coefficient arithmetic outside ``_poly.py``, as
    ``path:line name``: a ``Name``, an ``Attribute`` or a name imported from
    a module.

    ``sources`` maps a path to its source text."""
    found = []
    for path, text in sources.items():
        if pathlib.PurePath(path).name == "_poly.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path}:{node.lineno} {n}" for n in names if n in COEFFICIENT_ARITHMETIC]
    return found


def test_coefficient_arithmetic_stays_in_the_kernel():
    sources = {str(f.relative_to(SRC)): f.read_text() for f in sorted(SRC.rglob("*.py"))}
    found = coefficient_arithmetic(sources)
    assert not found, "coefficient arithmetic outside _poly.py: " + ", ".join(found)


def test_coefficient_scan_flags_names_attributes_and_imports():
    source = ('from ._poly import poly_add_into, rat_add as add\n'
              'from . import _poly as K\n'
              'def f(a, b):\n'
              '    """rat_mul is named here only."""\n'
              '    return K.rat_mul(a, b), poly_add_into({}, a)\n')
    assert coefficient_arithmetic({"m.py": source, "_poly.py": "def rat(n, d):\n    pass\n"}) == [
        "m.py:1 rat_add", "m.py:5 rat_mul"]
