"""API-surface guard: every function, class and method defined in
``src/promptpress`` is used by name somewhere else in ``src/``, every
dataclass field is read somewhere in ``src/``, every parameter default is
overridden by some call in ``src/`` and, where ``src/`` calls its
function, taken by some call there too, every name a module imports is
used in that module, ``__init__.py`` imports nothing from its own
package, and every name imported from a ``promptpress`` module, in
``src/``, ``tests/`` and ``tools/``, comes from the module that defines
it.

A name only tests reach is an API the program does not need; it should
be deleted or, if it is a reference other code is compared against,
listed in ``ALLOWED`` with the reason. The package re-exports nothing:
callers import each name from the module that defines it, so no facade
can make a name look used. References inside a definition's own body
(its recursion, or a method calling a same-named builtin) do not count
as uses. A method counts as used only through an attribute (``x.name``)
or a ``getattr``/``hasattr`` key, so a local variable of the same name
does not hide it. A field counts as read only through an attribute load
(``x.name``, not ``x.name = ...``) or a ``getattr``/``hasattr`` key, so
building a dataclass by keyword does not count as reading its fields.
"""

import ast
from collections import Counter
from pathlib import Path

import promptpress

SRC = Path(promptpress.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

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


def test_package_init_imports_no_submodule():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("promptpress")))
        or (isinstance(node, ast.Import)
            and any(a.name.startswith("promptpress") for a in node.names))
    ]
    assert not imports, "__init__.py imports from its package: " + "; ".join(imports)


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


# Parameters whose default no call in ``src/`` overrides, each with its
# reason.
UNSET_DEFAULTS_ALLOWED: dict[str, str] = {
    "main(argv)": "the console entry point reads sys.argv; tests pass argv",
    "hpc_train(state)": "resuming from a stage boundary, a library property that "
                        "tests and tools/replay_equivalence.py's resume case drive",
}


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in ``src/``, by the name it calls: ``f(...)`` and
    ``x.f(...)`` are both calls of ``f``."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` gives ``param``: by keyword, at its ``position``
    (None for a keyword-only parameter), or through ``*``/``**``."""
    keywords = [k.arg for k in call.keywords]
    if param in keywords or None in keywords:
        return True
    if position is None:
        return False
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return starred or len(call.args) > position


def _defaulted_params():
    """(name, param, position) for each parameter with a default defined
    in ``src/``: a class's ``__init__`` is named by the class, a method's
    ``self`` is not counted among the positions, and a keyword-only
    parameter has position None."""
    for tree in _trees().values():
        owners = {id(m): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for m in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, _FUNCS):
                continue
            cls = owners.get(id(fn))
            name = cls.name if cls and fn.name == "__init__" else fn.name
            static = any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if cls and not static:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):]
            for param in defaulted:
                yield name, param, positional.index(param)
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d:
                    yield name, a.arg, None


def unset_defaults() -> list[str]:
    """``function(param)`` for each parameter with a default that no call
    in ``src/`` passes."""
    calls = _calls_by_name()
    return [f"{name}({param})" for name, param, position in _defaulted_params()
            if not any(_passes(c, param, position) for c in calls.get(name, []))]


def defaults_only_tests_use() -> list[str]:
    """``function(param)`` for each parameter with a default that every
    call in ``src/`` passes, so that only callers outside it get the
    default. Calls are matched by name alone, so an unrelated call of the
    same name that leaves the parameter out hides one."""
    calls = _calls_by_name()
    return [f"{name}({param})" for name, param, position in _defaulted_params()
            if calls.get(name)
            and all(_passes(c, param, position) for c in calls[name])]


def test_every_parameter_default_is_overridden_in_src():
    unset = [u for u in unset_defaults() if u not in UNSET_DEFAULTS_ALLOWED]
    assert not unset, (
        "parameters whose default no call in src/ overrides (make them "
        "constants): " + ", ".join(unset))
    assert set(UNSET_DEFAULTS_ALLOWED) <= set(unset_defaults())


# Parameters whose default only callers outside ``src/`` get, each with
# its reason.
TEST_ONLY_DEFAULTS_ALLOWED: dict[str, str] = {
    "hpc_train(progress)": "tests train silently; the CLI reports each epoch",
    "load_checkpoint(actor_only)": (
        "resuming and tools/replay_equivalence.py load the full train state"),
}


def test_no_parameter_default_serves_only_tests():
    flagged = [d for d in defaults_only_tests_use() if d not in TEST_ONLY_DEFAULTS_ALLOWED]
    assert not flagged, (
        "parameters every call in src/ passes, so only tests use the default "
        "(make them required): " + ", ".join(flagged))
    assert set(TEST_ONLY_DEFAULTS_ALLOWED) <= set(defaults_only_tests_use())


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines: its top-level functions, classes and
    assignment targets."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, _FUNCS + (ast.ClassDef,)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _imports_from(tree: ast.AST):
    """Every ``from ... import`` under ``tree``, also in string constants
    that parse as code (the snippets a tool runs in a subprocess)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node
        elif isinstance(node, ast.Constant) and "import" in str(node.value):
            try:
                snippet = ast.parse(node.value)
            except SyntaxError:
                continue
            # Numbered as lines of the file the string sits in.
            yield from _imports_from(ast.increment_lineno(snippet, node.lineno - 1))


def imports_not_from_their_definer() -> list[str]:
    """``file:line: module.name`` for each name imported from a
    ``promptpress`` module that does not define it. From the package
    itself, a name is a submodule or defined in ``__init__.py``."""
    defined = {path.stem: _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
               for path in SRC.glob("*.py")}
    defined["__init__"] |= set(defined)
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    found = []
    for path in sorted(files):
        for node in _imports_from(ast.parse(path.read_text(encoding="utf-8"))):
            if node.level == 1 and path.parent == SRC:
                module = node.module or "__init__"
            elif node.level == 0 and (node.module or "").split(".")[0] == "promptpress":
                module = node.module.partition(".")[2] or "__init__"
            else:
                continue
            where = f"{path.parent.name}/{path.name}:{node.lineno}"
            found += [f"{where}: {module}.{alias.name}" for alias in node.names
                      if alias.name not in defined.get(module, ())]
    return found


def test_every_import_comes_from_the_defining_module():
    found = imports_not_from_their_definer()
    assert not found, "imported from a module that does not define it: " + ", ".join(found)
