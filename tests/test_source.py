"""What a deletion leaves behind in `src/lnnrl`, found with `ast` alone: a
top-level import that its module never reads, a private module-level name
that nothing in the package references, and a function, class or method that
only the tests reach."""

import ast
import re
from collections import Counter
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


BENCH = PACKAGE.parent.parent / "bench"


def definitions(tree):
    """`(name, node)` of each top-level `def` and `class`, and of each method
    of a top-level class (`Class.method`), dunders aside."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def reads(node):
    """How often each name is read under `node`: bare, as an attribute or
    through a `from` import."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            counts.update(alias.name for alias in child.names)
    return counts


def bench_names():
    """Every identifier `bench/*.py` names: in its code, and inside its
    strings (the tracer binds its hooks by `"module", "Class.method"`)."""
    names = set()
    for path in BENCH.glob("*.py"):
        tree = parse(path)
        names.update(reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_definition_is_reached_by_the_package_the_bench_or_all():
    """A function, class or method that nothing in `src/lnnrl` reads outside
    its own body, that `bench/*.py` does not name and that `lnnrl.__all__`
    does not list serves only the tests: delete it, or move it into them."""
    trees = {path.name: parse(path) for path in MODULES}
    package = sum(map(reads, trees.values()), Counter())
    exported = loaded(trees["__init__.py"])
    bench = bench_names()
    unreached = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            called = name.rpartition(".")[2]    # a method is read as `x.method`
            if (name not in exported and called not in bench
                    and package[called] <= reads(node)[called]):
                unreached.append(f"{module}:{name}")
    assert not unreached, f"definitions only the tests reach: {unreached}"
