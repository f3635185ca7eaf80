"""Guard against library code that nothing in the package uses.

Every function, method and class defined under ``src/jetvar`` (dunders
aside) must have its name occur, as a whole word, at least twice in the
package source: once where it is defined and once where it is used. Code
that only tests reach belongs in ``tests/``.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetvar"

# Reached only from perfbench/spans.py and perfbench/oracles.py; they go
# when the benchmark reads a trace recorder instead (ROADMAP item 2).
PERFBENCH_ONLY = {"poly_diff", "poly_sub", "iterated_total_derivative"}


def test_every_definition_is_used_in_src():
    files = sorted(SRC.rglob("*.py"))
    sources = [f.read_text() for f in files]
    text = "\n".join(sources)
    defined = set()
    unused = []
    for path, source in zip(files, sources):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            defined.add(name)
            if (name.startswith("__") and name.endswith("__")) or name in PERFBENCH_ONLY:
                continue
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2:
                unused.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert not unused, "defined but not used in src/: " + ", ".join(unused)
    assert PERFBENCH_ONLY <= defined, "stale allowlist: " + ", ".join(
        sorted(PERFBENCH_ONLY - defined))
