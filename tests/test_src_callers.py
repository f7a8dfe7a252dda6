"""Every function, class and method defined in src/sfp has a caller in src/sfp,
every name a module of src/sfp imports is used in that module, and every
subclass of ParameterError is caught by name in src/sfp.

Code that only tests call is dead weight unless it is kept on purpose as
an oracle, so a name defined in the package must be referenced (as a bare
name or an attribute) somewhere in the package itself.  An import counts
as used when the module refers to its name anywhere, annotations
included, or lists it in `__all__`.
"""

import ast
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


def test_every_parameter_error_subclass_is_caught_by_name():
    # ParameterError is the one type the CLI maps to exit 1, so a subclass
    # earns its place only where the package tells it apart from the rest.
    bases, caught = {}, set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_named(b) for b in node.bases}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_named(t) for t in types)
    family = {"ParameterError"}
    while grown := {name for name, names in bases.items() if names & family} - family:
        family |= grown
    assert sorted(family - {"ParameterError"} - caught) == []
