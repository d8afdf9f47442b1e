"""Every top-level import of a package module is read somewhere in it,
and no function imports again from a module its file imports at top
level."""

import ast
import pathlib

import pytest

import rbgroups

MODULES = sorted(pathlib.Path(rbgroups.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: every Python file that may call into the package
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


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


def _sources(node):
    """The modules an import statement reads from, as (level, name)."""
    if isinstance(node, ast.Import):
        return {(0, a.name) for a in node.names}
    if node.module is None:         # from . import x
        return {(node.level, a.name) for a in node.names}
    return {(node.level, node.module)}


def repeated_imports(source):
    """Names of the functions that import from a module the file
    already imports at top level."""
    tree = ast.parse(source)
    top = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            top |= _sources(node)
    return sorted({fn.name for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and _sources(node) & top})


def test_repeated_imports_are_found():
    source = ("import math\nfrom .a import b\nfrom . import c\n\n"
              "def f():\n    import math\n\n"
              "def g():\n    from .a import d\n\n"
              "def h():\n    from . import c as e\n\n"
              "def k():\n    from .b import x\n    from . import y\n    import os\n")
    assert repeated_imports(source) == ["f", "g", "h"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_repeats_a_top_level_import(path):
    assert repeated_imports(path.read_text()) == []


def private_definitions(tree):
    """(name, node) for every module-level function, class or constant
    whose name starts with exactly one underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(name, node) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def unread_private_names(sources):
    """Private module-level names (see ``private_definitions``) that no
    source reads outside the name's own definition, as a name or as an
    attribute."""
    trees = [ast.parse(src) for src in sources]
    defs = [(name, node) for tree in trees for name, node in private_definitions(tree)]
    unread = []
    for name, own in defs:
        inside = {id(n) for n in ast.walk(own)}
        read = any((isinstance(n, ast.Name) and n.id == name
                    and isinstance(n.ctx, ast.Load))
                   or (isinstance(n, ast.Attribute) and n.attr == name)
                   for tree in trees for n in ast.walk(tree) if id(n) not in inside)
        if not read:
            unread.append(name)
    return sorted(unread)


def test_unread_private_names_are_found():
    sources = ["_A = 1\n_B = 2\n\ndef _f():\n    return _f()\n\n"
               "class _C:\n    pass\n\ndef g():\n    return _A\n",
               "import m\n\ndef h():\n    return m._B\n"]
    assert unread_private_names(sources) == ["_C", "_f"]


def test_every_private_name_is_read():
    sources = [p.read_text() for p in MODULES]
    assert sum(len(private_definitions(ast.parse(s))) for s in sources) > 0
    assert unread_private_names(sources) == []


def unread_methods(package_sources, other_sources):
    """'Class.method' for every method (dunders aside) defined in a class
    of ``package_sources`` whose name no source, package or other, reads
    as an attribute outside the method's own definition."""
    package = [ast.parse(src) for src in package_sources]
    trees = package + [ast.parse(src) for src in other_sources]
    unread = []
    for cls in (n for tree in package for n in ast.walk(tree)
                if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(fn)}
            if not any(isinstance(n, ast.Attribute) and n.attr == fn.name
                       and id(n) not in inside
                       for tree in trees for n in ast.walk(tree)):
                unread.append(f"{cls.name}.{fn.name}")
    return sorted(unread)


def test_unread_methods_are_found():
    package = ["class A:\n    def __init__(self):\n        self.f()\n\n"
               "    def f(self):\n        return 1\n\n"
               "    def g(self):\n        return self.g()\n\n"
               "    def h(self):\n        return 2\n"]
    assert unread_methods(package, ["def t(a):\n    return a.h()\n"]) == ["A.g"]


def test_every_method_is_read():
    own = {p.resolve() for p in MODULES}
    others = [p.read_text() for p in READERS if p not in own]
    assert unread_methods([p.read_text() for p in MODULES], others) == []
