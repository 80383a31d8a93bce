"""The public surface of src/ stays what the program uses.

A public module-level function of an ntforge module, or a public method of
one of its classes, must be referenced somewhere besides its own definition,
the package __init__ and the tests: by another function, method or table of
src/, the CLI, the scripts or the benchmark.  A method counts as referenced
when its name is, on any object.  What only tests call belongs next to them,
as the oracles in tests/ are.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ntforge"


def _referenced(node):
    """The identifiers a syntax tree refers to, with their counts: names,
    attributes and imported names."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
    return out


def _unused(definitions):
    """'module:line label' of each public definition of an ntforge module
    whose name is referenced nowhere in src/ (but __init__), the scripts or
    the benchmark outside the definition itself; definitions(tree) yields
    the (FunctionDef, label) pairs of a module to check."""
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    users = [ast.parse(p.read_text()) for d in ("perfbench", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    everywhere = sum(map(_referenced, [*modules.values(), *users]), collections.Counter())
    return [f"{path.name}:{f.lineno} {label}" for path, tree in modules.items() for f, label in definitions(tree)
            if not f.name.startswith("_") and everywhere[f.name] == _referenced(f)[f.name]]


def test_every_public_function_has_a_user_outside_the_tests():
    unused = _unused(lambda tree: ((f, f.name) for f in tree.body if isinstance(f, ast.FunctionDef)))
    assert not unused, "public functions used only by tests: " + ", ".join(unused)


def test_every_public_method_has_a_user_outside_the_tests():
    unused = _unused(lambda tree: ((f, f"{c.name}.{f.name}") for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                                   for f in c.body if isinstance(f, ast.FunctionDef)))
    assert not unused, "public methods used only by tests: " + ", ".join(unused)
