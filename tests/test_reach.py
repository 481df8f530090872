"""Every function and class in `src/poplat` is reached by the program.

A definition counts as reached when its name is loaded somewhere in
`src/poplat` or `perfbench/` outside its own body.  Module-level functions
and classes are checked, and the methods of those classes other than
dunders.  A function or class is loaded by a Load-context `Name`, an
`Attribute` or an import alias; a method only by an `Attribute` (`.name`),
since no bare name can call it, and not by one on a `str` or `bytes`
literal (`", ".join`), which names a method of that type.  Names are matched without their module or
class, so a same-named load elsewhere also counts: the test catches a
definition whose name nothing in the program loads, not every unreached
one.  Code that only the tests call belongs in `tests/`.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def definitions(tree):
    """(qualified name, node) of each module-level function and class, and of
    each non-dunder method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def record_loads(tree, loads):
    """Add each load in `tree` to `loads`, keyed by ("name" | "attribute",
    loaded name), as the tuple of function and class nodes enclosing it.
    A bare name or import alias is a "name" load, `.name` an "attribute",
    unless it is read off a `str` or `bytes` literal."""
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing += (node,)
        key = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = "name", node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and not (isinstance(node.value, ast.Constant)
                       and isinstance(node.value.value, (str, bytes)))):
            key = "attribute", node.attr
        elif isinstance(node, ast.alias):
            key = "name", node.name.rsplit(".", 1)[-1]
        if key:
            loads.setdefault(key, []).append(enclosing)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))


def is_loaded(name, node, loads):
    """Is the definition `name` (qualified, as from `definitions`) loaded
    outside its own `node`?  A method counts only as an attribute."""
    short = name.rsplit(".", 1)[-1]
    keys = [("attribute", short)] + ([("name", short)] if "." not in name else [])
    return any(node not in enclosing for key in keys for enclosing in loads.get(key, ()))


def unreached(root):
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in ("src/poplat", "perfbench")
        for path in sorted((root / directory).glob("*.py"))
    }
    loads = {}
    for tree in trees.values():
        record_loads(tree, loads)
    package = root / "src" / "poplat"
    return [
        f"{path.stem}.{name}"
        for path, tree in trees.items() if path.parent == package
        for name, node in definitions(tree) if not is_loaded(name, node, loads)
    ]


def test_every_definition_in_src_is_reached_by_the_program():
    assert unreached(ROOT) == []


def unused_imports(root):
    """`module.name` for each name a `src/poplat` module imports and loads
    nowhere in that module as a bare name; `__future__` imports and the
    names `__init__` re-exports through `__all__` are excepted."""
    unused = []
    for path in sorted((root / "src" / "poplat").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and "__all__" in [
                    target.id for target in node.targets if isinstance(target, ast.Name)]:
                loaded |= set(ast.literal_eval(node.value))
        unused += [
            f"{path.stem}.{bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for bound in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if bound not in loaded
        ]
    return unused


def test_every_import_in_src_is_used_where_it_is_imported():
    assert unused_imports(ROOT) == []


def test_a_method_of_a_string_literal_loads_no_definition():
    loads = {}
    record_loads(ast.parse('", ".join(parts)\nb"".join(parts)\nsep.join(parts)'), loads)
    assert len(loads[("attribute", "join")]) == 1
