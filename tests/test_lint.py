"""Lint checks that need no tool beyond the standard library."""

import ast
import glob
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _unused_top_level_imports(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_top_level_import_is_used():
    paths = [
        path
        for pattern in ("src/lca/*.py", "tests/*.py")
        for path in sorted(glob.glob(os.path.join(ROOT, pattern)))
    ]
    assert os.path.join(ROOT, "src", "lca", "cli.py") in paths and os.path.abspath(__file__) in paths
    unused = {os.path.relpath(path, ROOT): _unused_top_level_imports(path) for path in paths}
    assert {path: names for path, names in unused.items() if names} == {}


def test_no_lca_module_imports_dataclasses():
    """Records are NamedTuples or small tuple classes: no decorator generates code at import."""
    importers = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "lca", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                importers.append(os.path.relpath(path, ROOT))
    assert importers == []


def _traced_boundaries() -> dict:
    """``BOUNDARIES`` of the benchmark's tracer (``perfbench/tracer.py``): module ->
    attribute names.  The file is parsed, not imported, so ``perfbench/`` stays untouched."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (boundaries,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]
    ]
    return boundaries


def test_every_traced_boundary_resolves():
    """Each function the benchmark's tracer wraps exists in lca."""
    boundaries = _traced_boundaries()
    missing = []
    for modname, attrs in boundaries.items():
        for attr in attrs:
            target = importlib.import_module(f"lca.{modname}")
            for part in attr.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"lca.{modname}.{attr}")
    assert boundaries and missing == []


_NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _unreferenced_definitions() -> list:
    """``module.qualname`` of each function, class and method of ``src/lca``, dunders
    aside, whose name no code in ``src/lca`` mentions outside the definition itself.
    A method is mentioned only by an attribute access (``x.name``): a local variable
    or function of the same name does not reach it."""
    definitions, references = [], {}  # references: name -> (scope, is attribute) per mention

    def visit(node, module, scope):  # scope: the enclosing definitions, outermost first
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, scope + (child,)))
                visit(child, module, scope + (child,))
                continue
            field = _NAME_FIELD.get(type(child))
            if field:
                mention = (scope, isinstance(child, ast.Attribute))
                references.setdefault(getattr(child, field), []).append(mention)
            visit(child, module, scope)

    def used(scope) -> bool:
        method = len(scope) > 1 and isinstance(scope[-2], ast.ClassDef)
        return any(
            scope[-1] not in mention and (attribute or not method)
            for mention, attribute in references.get(scope[-1].name, ())
        )

    for path in sorted(glob.glob(os.path.join(ROOT, "src", "lca", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), os.path.basename(path)[:-3], ())
    return [
        ".".join([module, *(d.name for d in scope)])
        for module, scope in definitions
        if not (scope[-1].name.startswith("__") and scope[-1].name.endswith("__")) and not used(scope)
    ]


def test_no_lca_definition_is_only_called_from_outside_lca():
    """A function, class or method that only tests call is dead code.  The traced
    boundaries are exempt: the benchmark's tracer wraps them from outside."""
    exempt = {f"{module}.{attr}" for module, attrs in _traced_boundaries().items() for attr in attrs}
    assert [name for name in _unreferenced_definitions() if name not in exempt] == []
