"""No module code that only tests reach: every top-level function and class of
the package, and every method but the dunder ones, is referenced somewhere in
the package outside its own definition.  Code that only the tests need lives
in tests/ (see oracles.py).  No module reads the environment: argv and the
files it names are the only inputs.  And the package imports numpy, the
standard library and itself, nothing else."""

import ast
import sys
from pathlib import Path

import csisense

SRC = Path(csisense.__file__).parent


def definitions(tree: ast.Module):
    """The top-level function and class nodes of a module, and their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def references(tree: ast.Module):
    """(name, line) of every name read, attribute taken and name imported in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_definition_is_reached_from_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {}      # name -> [(module, line)]
    for module, tree in trees.items():
        for name, line in references(tree):
            refs.setdefault(name, []).append((module, line))
    unreached = [f"{module}:{node.lineno} {node.name}"
                 for module, tree in trees.items() for node in definitions(tree)
                 if all(where == module and node.lineno <= line <= node.end_lineno
                        for where, line in refs.get(node.name, []))]
    assert not unreached, f"referenced only by their own definitions: {unreached}"


def test_no_module_reads_the_environment():
    reads = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for name, line in references(ast.parse(path.read_text()))
             if name in ("environ", "environb", "getenv", "getenvb")]
    assert not reads, f"environment reads: {reads}"


def imports(tree: ast.Module):
    """(module, line) of every absolute import in a module; relative ones are the package's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, node.lineno


def test_imports_are_numpy_and_the_standard_library():
    allowed = sys.stdlib_module_names | {"numpy", SRC.name}
    foreign = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
               for name, line in imports(ast.parse(path.read_text()))
               if name.split(".")[0] not in allowed]
    assert not foreign, f"imports of neither numpy nor the standard library: {foreign}"
