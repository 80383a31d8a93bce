"""The public surface of src/ stays what the program uses.

A public module-level function of an ntforge module, or a public method of
one of its classes, must be referenced somewhere besides its own definition,
the package __init__ and the tests: by another function, method or table of
src/, the CLI, the scripts or the benchmark.  A method counts as referenced
when its name is, on any object.  What only tests call belongs next to them,
as the oracles in tests/ are.

Options follow the same rule: every parameter with a default on a public
function, a public method or a public class's constructor must be passed,
by keyword or by position, by some call in src/, the scripts or the
benchmark.  An option only tests set has one value in use, and becomes a
named constant.  Calls are matched by the called name, with `import ... as`
resolved: a class name stands for its constructor, super().__init__ inside
a subclass for its base's, and a call with *args or **kwargs passes every
parameter.

Backends follow one contract: a subclass of precategory._BackendBase, in
src/ or in the tests, may override of the base's names only the hooks in
BACKEND_HOOKS.  Arrow sums, products, adjoints and ampliations are built
from those block hooks once, in the base and in Arrow.

The first two guards match names, not objects, so they have blind spots.  They
cannot attribute an operator (`a - b` calls __sub__ by no name), and a
method name defined on several classes counts as used, or as passing a
parameter, when a call reaches any of them.

The benchmark imports ntforge by name: every module and name perfbench/
imports from ntforge must exist, so a rename that breaks the benchmark fails
here, read from perfbench's syntax trees without importing it.
"""

import ast
import collections
import functools
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ntforge"


@functools.cache
def _scan():
    """(the syntax trees of the ntforge modules but __init__ by path, those of
    the scripts and the benchmark): one parse for every guard."""
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    users = [ast.parse(p.read_text()) for d in ("perfbench", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    return modules, users


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
    modules, users = _scan()
    everywhere = collections.Counter()
    for tree in [*modules.values(), *users]:
        everywhere.update(_referenced(tree))
    return [f"{path.name}:{f.lineno} {label}" for path, tree in modules.items() for f, label in definitions(tree)
            if not f.name.startswith("_") and everywhere[f.name] == _referenced(f)[f.name]]


def _methods(tree):
    """(class, FunctionDef) of every method of every class of a module."""
    return [(c, f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, ast.FunctionDef)]


def test_every_public_function_has_a_user_outside_the_tests():
    unused = _unused(lambda tree: ((f, f.name) for f in tree.body if isinstance(f, ast.FunctionDef)))
    assert not unused, "public functions used only by tests: " + ", ".join(unused)


def test_every_public_method_has_a_user_outside_the_tests():
    unused = _unused(lambda tree: ((f, f"{c.name}.{f.name}") for c, f in _methods(tree)))
    assert not unused, "public methods used only by tests: " + ", ".join(unused)


def _calls():
    """Called name -> [the most positional arguments of a call, the keywords
    any call passes], over src/, the scripts and the benchmark."""
    out = collections.defaultdict(lambda: [0, set()])
    modules, users = _scan()
    for tree in [*modules.values(), *users]:
        alias = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                 for a in n.names if a.asname}
        base = {}  # id of a node inside a subclass -> the name of its first base
        for c in ast.walk(tree):
            if isinstance(c, ast.ClassDef) and c.bases and isinstance(c.bases[0], ast.Name):
                base.update((id(n), c.bases[0].id) for n in ast.walk(c))
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            if isinstance(f, ast.Name):
                name = f.id
            elif (isinstance(f, ast.Attribute) and f.attr == "__init__" and isinstance(f.value, ast.Call)
                  and getattr(f.value.func, "id", None) == "super"):
                name = base.get(id(n))
            elif isinstance(f, ast.Attribute):
                name = f.attr
            else:
                continue
            entry = out[alias.get(name, name)]
            spread = any(isinstance(a, ast.Starred) for a in n.args) or any(k.arg is None for k in n.keywords)
            entry[0] = max(entry[0], float("inf") if spread else len(n.args))
            entry[1].update(k.arg for k in n.keywords)
    return out


def _options(tree):
    """(FunctionDef, called name, label, positional parameters as a call
    passes them) of each public function, public method and public class
    constructor of a module."""
    out = [(f, f.name, f.name, [a.arg for a in f.args.posonlyargs + f.args.args])
           for f in tree.body if isinstance(f, ast.FunctionDef)]
    for c, f in _methods(tree):
        static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        positional = [a.arg for a in f.args.posonlyargs + f.args.args][0 if static else 1:]
        if f.name == "__init__":
            out.append((f, c.name, c.name, positional))
        else:
            out.append((f, f.name, f"{c.name}.{f.name}", positional))
    return [o for o in out if not o[1].startswith("_")]


def test_every_option_is_set_outside_the_tests():
    modules, _ = _scan()
    calls = _calls()
    unset = []
    for path, tree in modules.items():
        for f, called, label, positional in _options(tree):
            args = f.args
            every = [a.arg for a in args.posonlyargs + args.args]
            defaulted = every[len(every) - len(args.defaults):] + [
                k.arg for k, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            most, keywords = calls.get(called, (0, set()))
            unset += [f"{path.name}:{f.lineno} {label}({p})" for p in defaulted
                      if p not in keywords and not (p in positional and positional.index(p) < most)]
    assert not unset, "options no caller outside the tests sets: " + ", ".join(unset)


#: What a backend may define of the names _BackendBase defines: shapes, the
#: block hooks (which take blocks with leading stack axes), the keys the Fock
#: assembly caches on, and the basis and random-draw constructors
BACKEND_HOOKS = {"shape", "_tensor_blocks", "_compose_blocks", "_compose_class", "_adjoint_blocks",
                 "_ampliation_class", "_rtensor_coo", "basis_stack", "random_arrow", "space_dim"}


def test_backends_override_only_the_contract_hooks():
    trees = [ast.parse(p.read_text()) for d in (PACKAGE, ROOT / "tests") for p in sorted(d.glob("*.py"))]
    classes = {c.name: c for tree in trees for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
    base = classes["_BackendBase"]
    inherited = {f.name for f in base.body if isinstance(f, ast.FunctionDef)} | {
        t.id for a in base.body if isinstance(a, ast.Assign) for t in a.targets if isinstance(t, ast.Name)}
    assert BACKEND_HOOKS <= inherited
    backends = {"_BackendBase"}
    while new := {n for n, c in classes.items() if n not in backends
                  and any(getattr(b, "id", None) in backends for b in c.bases)}:
        backends |= new
    assert {"ColoredProductSystem", "ZeroTensorBackend", "CrossedProductBackend", "BundleBackend",
            "TwistedN", "_SwapN2"} <= backends
    stray = [f"{name}.{f.name}" for name in sorted(backends - {"_BackendBase"}) for f in classes[name].body
             if isinstance(f, ast.FunctionDef) and f.name in inherited - BACKEND_HOOKS]
    assert not stray, "backend overrides outside the contract hooks: " + ", ".join(stray)


def _resolves(module, name=None):
    """module imports and, if a name is given, has it or a submodule by it."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(mod, name) or _resolves(f"{module}.{name}")


def test_every_ntforge_name_the_benchmark_imports_resolves():
    imports, missing = 0, []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == "ntforge":
                pairs = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names if alias.name.partition(".")[0] == "ntforge"]
            else:
                continue
            imports += len(pairs)
            missing += [f"{path.name}:{node.lineno} {m}{'' if n is None else ' ' + n}"
                        for m, n in pairs if not _resolves(m, n)]
    assert imports, "perfbench/ imports nothing from ntforge"
    assert not missing, "benchmark imports that no longer resolve: " + ", ".join(missing)
