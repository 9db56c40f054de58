"""API-surface guard: every function, class and method defined in
``src/promptpress`` is used by name somewhere else in ``src/``, every
dataclass field is read somewhere in ``src/``, and every name a module
imports is used in that module.

A name only tests reach is an API the program does not need; it should
be deleted or, if it is a reference other code is compared against,
listed in ``ALLOWED`` with the reason. Re-exports in ``__init__.py`` do
not count as uses, and references inside a definition's own body (its
recursion, or a method calling a same-named builtin) do not either. A
method counts as used only through an attribute (``x.name``) or a
``getattr``/``hasattr`` key, so a local variable of the same name does
not hide it. A field counts as read only through an attribute load
(``x.name``, not ``x.name = ...``) or a ``getattr``/``hasattr`` key, so
building a dataclass by keyword does not count as reading its fields.
"""

import ast
from collections import Counter
from pathlib import Path

import promptpress

SRC = Path(promptpress.__file__).parent

# Names exempt from the check, each with its reason. Empty: references
# that tests compare the program against live under ``tests/``.
ALLOWED: set[str] = set()


def _references(node: ast.AST, loads_only: bool = False) -> tuple[Counter, Counter]:
    """Counts of the bare names and of the attribute names (with
    getattr/hasattr string keys) referenced under ``node``; with
    ``loads_only``, attributes that are assigned or deleted are left out."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Name):
            names[cur.id] += 1
        elif isinstance(cur, ast.Attribute):
            if not loads_only or isinstance(cur.ctx, ast.Load):
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


def _trees() -> dict[str, ast.AST]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def unread_fields() -> list[str]:
    """Dataclass fields no code in ``src/`` reads."""
    trees = _trees()
    reads: Counter = Counter()
    for tree in trees.values():
        reads += _references(tree, loads_only=True)[1]
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if reads[stmt.target.id] == 0:
                        unread.append(f"{module}:{stmt.lineno}:{cls.name}.{stmt.target.id}")
    return unread


def unused_definitions() -> list[str]:
    trees = _trees()
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


def test_every_dataclass_field_is_read_in_src():
    unread = unread_fields()
    assert not unread, "dataclass fields no code in src/ reads: " + ", ".join(unread)


def test_allow_list_names_live_definitions():
    defined = {
        d.name
        for path in SRC.glob("*.py")
        for d in _definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert ALLOWED <= defined


def modules_naming(name: str) -> list[str]:
    """Modules of ``src/`` that reference ``name``: as a bare name, an
    attribute, or an imported name."""
    found = []
    for module, tree in _trees().items():
        names, attributes = _references(tree)
        imported = any(
            alias.name == name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
        if names[name] or attributes[name] or imported:
            found.append(module)
    return found


def test_only_text_tokenizes():
    # The CLI turns each prompt into ids once (text.tokenize_corpus) and
    # every layer below it takes those sequences, so none tokenizes again.
    assert modules_naming("tokenize") == ["text.py"]


def unused_imports() -> list[str]:
    """Names a module of ``src/`` imports but never references."""
    unused = []
    for module, tree in _trees().items():
        referenced = _references(tree)[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a.asname or a.name) for a in node.names]
            else:
                continue
            unused += [f"{module}:{node.lineno}:{name}"
                       for name in bound if not referenced[name]]
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "imported in src/ but never used: " + ", ".join(unused)
