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
    "lattice.FiniteLattice.lower_covers": "dual of `upper_covers`, held to the reference oracle",
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


def loaded_names(tree, skip):
    """(bare names and import aliases, attribute names) loaded in `tree`,
    not counting the subtree `skip`."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def is_loaded(name, tree, skip):
    """Is the definition `name` (qualified, as from `definitions`) loaded in
    `tree` outside `skip`?  A method counts only as an attribute."""
    names, attributes = loaded_names(tree, skip)
    short = name.rsplit(".", 1)[-1]
    return short in attributes or ("." not in name and short in names)


def unreached(root):
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in ("src/poplat", "perfbench")
        for path in sorted((root / directory).glob("*.py"))
    }
    package = root / "src" / "poplat"
    out = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, node in definitions(tree):
            if not any(is_loaded(name, other, node) for other in trees.values()):
                out.append(f"{path.stem}.{name}")
    return out


def test_every_definition_in_src_is_reached_by_the_program():
    assert sorted(unreached(ROOT)) == sorted(ALLOWED)
