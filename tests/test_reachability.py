"""Every public definition in `src/qstkit` has a reader, and every defaulted
parameter of one has a caller that sets it.

An AST scan of the package: each public module-level function and class,
and each public method of such a class, must be named somewhere in
`src/qstkit` outside its own definition, or in `perfbench/`.  A function
or class is matched by identifier only (a load, an attribute, an import
alias or a `__all__` string), so two definitions that share a name reach
each other; the gate is for definitions nothing reads at all.  A method
or property is read only through an attribute access `.name` or a string
outside its class, so a local variable of the same name does not hide it.
Tests do not count: a definition only tests reach is a test helper and
belongs in `tests/`.
There is no allowlist: a definition that checks a claim of the paper
becomes a report row, anything else leaves `src`.

The same holds for parameters: a numerical setting with one value in use
is a constant, not a parameter.  Each defaulted parameter of a public
function or method must be set, by keyword or by position, by some call
in `src/qstkit` or `perfbench/` outside the function's own body; calls
are matched by the callee's bare name, and one that unpacks `*` or `**`
sets every parameter.  A public class's `__init__` is scanned too: a
call sets its parameters when it names the class, or when it is a
`super().__init__` call in a subclass.  `EXEMPT_PARAMETERS` names the few
that stay anyway, each with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qstkit"
READERS = (SRC, ROOT / "perfbench")


def _names(tree, attributes_only=False) -> Counter:
    """Every identifier `tree` reads, imports or exports by string; with
    `attributes_only`, only those read as an attribute or named by a string."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias) and not attributes_only:
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def _definitions(tree, module):
    """(qualified name, bare name, node, scope) of each public function, class and
    method; the scope is the class of a method, and None otherwise."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item, node


def _trees() -> dict:
    """The parsed modules of src/qstkit and perfbench/, by path."""
    return {path: ast.parse(path.read_text()) for base in READERS
            for path in sorted(base.glob("*.py"))}


def unread_definitions() -> list:
    trees = _trees()
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        names += _names(tree)
        attributes += _names(tree, attributes_only=True)
    unread = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for qual, name, node, scope in _definitions(tree, path.stem):
            # a definition's own body (a recursive call, say) does not read it,
            # nor does a method's own class
            if scope is None:
                read = names[name] - _names(node)[name]
            else:
                read = attributes[name] - _names(scope, attributes_only=True)[name]
            if read <= 0:
                unread.append(qual)
    return unread


def test_every_public_definition_has_a_reader():
    unread = unread_definitions()
    assert not unread, f"public definitions that src and perfbench never name: {unread}"


def test_a_local_name_does_not_read_a_method(monkeypatch):
    source = ("class A:\n    def labels(self):\n        return self.labels\n\n"
              "def _f():\n    labels = 2\n    return A, labels{}\n")
    for read, unread in (("", ["fake.A.labels"]), (" + A().labels", [])):
        tree = ast.parse(source.format(read))
        monkeypatch.setattr(f"{__name__}._trees", lambda: {SRC / "fake.py": tree})
        assert unread_definitions() == unread, read


# ---------------------------------------------------------------------------
# parameters: a defaulted parameter that no call sets is a constant

# (module.function, parameter) -> why a defaulted parameter that src and
# perfbench never pass stays a parameter.  The table may shrink, never grow.
EXEMPT_PARAMETERS = {
    ("momentum.bch_compose", "order"):
        "the tests' BCH reference sets it at orders 3 to 12; reference code stays",
}
MAX_EXEMPT_PARAMETERS = 1


def _defaulted(node, method: bool):
    """(name, position or None) of each defaulted parameter of a function node.

    The position counts the arguments a call writes, so a method's `self`
    (or a classmethod's `cls`) is left out; a keyword-only parameter has none.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(trees) -> dict:
    """Every call in `trees` by the bare name of its callee."""
    out = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            out.setdefault(name, []).append(node)
    return out


def _super_inits(trees) -> dict:
    """Every `super().__init__` call by the bare names of its class's bases."""
    out = {}
    for cls in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        bases = [b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases
                 if isinstance(b, (ast.Name, ast.Attribute))]
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "__init__" and isinstance(node.func.value, ast.Call) \
                    and isinstance(node.func.value.func, ast.Name) \
                    and node.func.value.func.id == "super":
                for base in bases:
                    out.setdefault(base, []).append(node)
    return out


def _functions(tree, module):
    """(qualified name, names its callers call it by, node) of each public function,
    public method and public class's `__init__`."""
    for qual, name, node, _ in _definitions(tree, module):
        if isinstance(node, ast.FunctionDef):
            yield qual, name, node
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                yield f"{qual}.__init__", name, item


def _passes(call, name: str, position) -> bool:
    """Whether `call` sets the parameter: by keyword, by position, or by * or ** unpacking."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def defaulted_parameters() -> list:
    """((module.function, parameter), passed) for each defaulted parameter of a public
    function, method or constructor of `src/qstkit`: passed when a call in
    `src/qstkit` or `perfbench/` outside the function's own body sets it."""
    trees = _trees()
    calls = _calls(trees.values())
    supers = _super_inits(trees.values())
    out = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for qual, name, node in _functions(tree, path.stem):
            own = {id(c) for c in ast.walk(node) if isinstance(c, ast.Call)}
            method = qual.count(".") == 2
            callers = calls.get(name, []) + (supers.get(name, []) if node.name == "__init__" else [])
            for param, position in _defaulted(node, method):
                passed = any(_passes(c, param, position) for c in callers if id(c) not in own)
                out.append(((qual, param), passed))
    return out


def test_every_defaulted_parameter_is_passed():
    unpassed = {key for key, passed in defaulted_parameters() if not passed}
    knobs = sorted(unpassed - set(EXEMPT_PARAMETERS))
    assert not knobs, f"defaulted parameters that src and perfbench never pass: {knobs}"
    stale = sorted(set(EXEMPT_PARAMETERS) - unpassed)
    assert not stale, f"exempt parameters that a call now passes (drop them): {stale}"
    assert len(EXEMPT_PARAMETERS) <= MAX_EXEMPT_PARAMETERS


def test_constructor_parameters_are_scanned():
    scanned = dict(defaulted_parameters())
    assert scanned[("hopf_algebra.Element.__init__", "words")] is True
    # Sparse is built only through its subclasses' super().__init__
    assert scanned[("polyfield.Sparse.__init__", "terms")] is True
