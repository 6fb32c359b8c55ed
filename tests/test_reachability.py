"""Every public definition in `src/qstkit` has a reader.

An AST scan of the package: each public module-level function and class,
and each public method of such a class, must be named somewhere in
`src/qstkit` outside its own definition, or in `perfbench/`.  A name is
matched by identifier only (a load, an attribute, an import alias or a
`__all__` string), so two definitions that share a name reach each other;
the gate is for definitions nothing reads at all.  Tests do not count:
a definition only tests reach is a test helper and belongs in `tests/`.
There is no allowlist: a definition that checks a claim of the paper
becomes a report row, anything else leaves `src`.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qstkit"
READERS = (SRC, ROOT / "perfbench")


def _names(tree) -> Counter:
    """Every identifier `tree` reads, imports or exports by string."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def _definitions(tree, module):
    """(qualified name, bare name, node) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def unread_definitions() -> list:
    trees = {path: ast.parse(path.read_text()) for base in READERS
             for path in sorted(base.glob("*.py"))}
    names = Counter()
    for tree in trees.values():
        names += _names(tree)
    unread = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for qual, name, node in _definitions(tree, path.stem):
            # a definition's own body (a recursive call, say) does not read it
            if names[name] - _names(node)[name] <= 0:
                unread.append(qual)
    return unread


def test_every_public_definition_has_a_reader():
    unread = unread_definitions()
    assert not unread, f"public definitions that src and perfbench never name: {unread}"
