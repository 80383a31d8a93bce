"""The public surface of src/ stays what the program uses.

A public module-level function of an ntforge module must be referenced
somewhere besides its own definition, the package __init__ and the tests:
by another function or table of src/, the CLI, the scripts or the benchmark.
What only tests call belongs next to them, as the oracles in tests/ are.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ntforge"


def _referenced(node):
    """The identifiers a syntax tree refers to: names, attributes and
    imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def test_every_public_function_has_a_user_outside_the_tests():
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    users = [ast.parse(p.read_text()) for d in ("perfbench", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    outside = set().union(*map(_referenced, users))
    unused = []
    for path, tree in modules.items():
        for f in tree.body:
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("_"):
                continue
            here = set().union(*(_referenced(n) for n in tree.body if n is not f))
            others = set().union(*(_referenced(t) for p, t in modules.items() if p != path))
            if f.name not in here | others | outside:
                unused.append(f"{path.name}:{f.lineno} {f.name}")
    assert not unused, "public functions used only by tests: " + ", ".join(unused)
