"""Lint checks that need no tool beyond the standard library."""

import ast
import glob
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
