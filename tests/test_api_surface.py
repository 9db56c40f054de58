"""API-surface guard: every function, class and method defined in
``src/promptpress`` is used by name somewhere else in ``src/``.

A name only tests reach is an API the program does not need; it should
be deleted or, if it is a reference other code is compared against,
listed in ``ALLOWED`` with the reason. Re-exports in ``__init__.py`` do
not count as uses, and references inside a definition's own body (its
recursion, or a method calling a same-named builtin) do not either. A
method counts as used only through an attribute (``x.name``) or a
``getattr``/``hasattr`` key, so a local variable of the same name does
not hide it.
"""

import ast
from collections import Counter
from pathlib import Path

import promptpress

SRC = Path(promptpress.__file__).parent

ALLOWED = {
    # The unpacked, per-step clipped surrogate: the reference the packed
    # objective (trainer.ppo_objective_and_grads) is checked against.
    "ppo_objective",
}


def _references(node: ast.AST) -> tuple[Counter, Counter]:
    """Counts of the bare names and of the attribute names (with
    getattr/hasattr string keys) referenced under ``node``."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Name):
            names[cur.id] += 1
        elif isinstance(cur, ast.Attribute):
            attributes[cur.attr] += 1
        elif (
            isinstance(cur, ast.Call)
            and isinstance(cur.func, ast.Name)
            and cur.func.id in ("getattr", "hasattr")
            and len(cur.args) >= 2
            and isinstance(cur.args[1], ast.Constant)
        ):
            attributes[cur.args[1].value] += 1
    return names, attributes


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.AST) -> list[ast.AST]:
    return [n for n in ast.walk(tree) if isinstance(n, _FUNCS + (ast.ClassDef,))]


def _methods(tree: ast.AST) -> set[int]:
    """Ids of the functions defined directly in a class body."""
    return {
        id(m)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for m in cls.body
        if isinstance(m, _FUNCS)
    }


def unused_definitions() -> list[str]:
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    names: Counter = Counter()
    attributes: Counter = Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names += n
        attributes += a
    unused = []
    for module, tree in trees.items():
        methods = _methods(tree)
        for definition in _definitions(tree):
            name = definition.name
            if name == "main" or (name.startswith("__") and name.endswith("__")):
                continue
            own_names, own_attributes = _references(definition)
            uses = attributes[name] - own_attributes[name]
            if id(definition) not in methods:
                uses += names[name] - own_names[name]
            if uses == 0 and name not in ALLOWED:
                unused.append(f"{module}:{definition.lineno}:{name}")
    return unused


def test_every_definition_is_used_in_src():
    unused = unused_definitions()
    assert not unused, "defined in src/ but used only outside it: " + ", ".join(unused)


def test_allow_list_names_live_definitions():
    defined = {
        d.name
        for path in SRC.glob("*.py")
        for d in _definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert ALLOWED <= defined
