"""Every top-level import of a package module is read somewhere in it."""

import ast
import pathlib

import pytest

import rbgroups

MODULES = sorted(pathlib.Path(rbgroups.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys\nfrom a import b as c, d\nsys.exit(d)\n") \
        == ["c", "os"]


# the package __init__ imports in order to re-export
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
