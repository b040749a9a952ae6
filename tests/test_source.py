"""What a deletion leaves behind in `src/lnnrl`, found with `ast` alone: a
top-level import that its module never reads, and a private module-level
name that nothing in the package references."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lnnrl"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree):
    """The name each top-level import binds, `from __future__` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def private_definitions(tree):
    """The `_name`s (dunders aside) a module binds at its top level by
    `def`, `class` or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def loaded(tree):
    """The names `tree` reads as bare names, and the strings in its `__all__`."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def referenced(tree):
    """The names `tree` reads: bare, as attributes (`module._name`) or
    through a `from` import."""
    names = loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    tree = parse(path)
    unused = sorted(set(imported_names(tree)) - loaded(tree))
    assert not unused, f"{path.name} imports {unused} and never reads them"


def test_every_private_module_level_name_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    anywhere = set().union(*map(referenced, trees.values()))
    unreferenced = sorted(f"{name}:{defined}" for name, tree in trees.items()
                          for defined in private_definitions(tree) if defined not in anywhere)
    assert not unreferenced, f"private names nothing in src/lnnrl references: {unreferenced}"
