"""Every function, class and method defined in src/sfp has a caller in src/sfp,
every name a module of src/sfp imports is used in that module, and every
exception class defined in src/sfp is caught by name in src/sfp.

Code that only tests call is dead weight unless it is kept on purpose as
an oracle, so a name defined in the package must be referenced (as a bare
name or an attribute) somewhere in the package itself.  An import counts
as used when the module refers to its name anywhere, annotations
included, or lists it in `__all__`.
"""

import ast
import builtins
from pathlib import Path

import sfp

# Names kept although nothing in src/sfp refers to them.
ALLOWED = {
    "error",  # argparse.ArgumentParser hook, called by argparse itself
    # Test oracles for the blocked kernels, also read by perfbench.
    "uniform_for_edge",
    "weight_for_vertex",
    "experiment_uniforms",
}

# Exception classes kept although nothing in src/sfp catches them by name.
UNCAUGHT = {
    # Carries the .line_number by which load_realization raises the first
    # fault in file order.
    "ParseError",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(Path(sfp.__file__).parent.glob("*.py"))}


def test_every_src_definition_has_a_src_caller():
    trees = _trees()
    defined, referenced = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    assert defined - dunders - referenced - ALLOWED == set()
    # An entry that is gone, or has gained a caller, leaves the list.
    assert ALLOWED <= defined - referenced


def test_every_src_import_is_used():
    unused = []
    for name, tree in _trees().items():
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items() if bound not in used]
    assert unused == []


def _named(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_exception_class_is_caught_by_name():
    # An exception class earns its place only where the package tells it
    # apart from the rest; ParameterError is caught where the CLI maps it
    # to exit 1.  Anything else raises a builtin type.
    bases, caught = {}, set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_named(b) for b in node.bases}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_named(t) for t in types)
    builtin = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    family = set(builtin)
    while grown := {name for name, names in bases.items() if names & family} - family:
        family |= grown
    uncaught = sorted(family - builtin - caught - UNCAUGHT)
    assert uncaught == [], f"not caught by name in src/sfp: {uncaught}"
    # An entry that is gone, or has gained a handler, leaves the list.
    assert UNCAUGHT <= family - builtin - caught
