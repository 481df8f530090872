"""Every function and class in `src/poplat` is reached by the program.

A definition counts as reached when its name is loaded somewhere in
`src/poplat` or `perfbench/` outside its own body.  Module-level functions
and classes are checked, and the methods of those classes other than
dunders.  A function or class is loaded by a Load-context `Name`, an
`Attribute` or an import alias; a method only by an `Attribute` (`.name`),
since no bare name can call it.  Names are matched without their module or
class, so a same-named load elsewhere also counts: the test catches a
definition whose name nothing in the program loads, not every unreached
one.  Code that only the tests call belongs in `tests/`.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions kept without a caller in the program, each with its reason; an
# entry that gains a caller must leave the list.
ALLOWED = {
    "lattice.FiniteLattice.leq": "the kernel's order query, held to the reference oracle",
    "lattice.FiniteLattice.meet": "dual of `join`, held to the reference oracle",
}


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
    A bare name or import alias is a "name" load, `.name` an "attribute"."""
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing += (node,)
        key = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = "name", node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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
    assert sorted(unreached(ROOT)) == sorted(ALLOWED)
