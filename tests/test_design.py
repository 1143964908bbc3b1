"""Design guards on the package source.

Every dataclass field in src/ is read somewhere: a field that no code reads
as an attribute, in the package, its tests, its scripts or its benchmark, is
public surface that neither production code nor an independent oracle uses.
The scan is by name: a field counts as read if `.name` is loaded anywhere in
those trees.

Every scipy import in src/ sits in a function body, so a CLI run loads
scipy only on the paths that call it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
READERS = ("src", "tests", "scripts", "perfbench")


def _trees(top):
    for path in sorted((ROOT / top).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) \
        else getattr(decorator, "id", None)
    return name == "dataclass"


def dataclass_fields():
    """(file, class, field) of every annotated field of a src/ dataclass."""
    fields = []
    for path, tree in _trees("src"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) \
                    or not any(map(_is_dataclass, cls.decorator_list)):
                continue
            fields += [(path.relative_to(ROOT).as_posix(), cls.name,
                        stmt.target.id) for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)]
    return fields


def attribute_reads():
    """Every attribute name loaded anywhere in the reader trees."""
    return {node.attr for top in READERS for _, tree in _trees(top)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    fields = dataclass_fields()
    assert len(fields) > 50  # the scan sees the package's dataclasses
    read = attribute_reads()
    unread = [f"{path}: {cls}.{name}" for path, cls, name in fields
              if name not in read]
    assert unread == []


def test_scipy_is_imported_inside_functions():
    lazy, eager = [], []
    for path, tree in _trees("src"):
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                where = f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
                (lazy if id(node) in in_functions else eager).append(where)
    assert len(lazy) >= 2  # the scan sees heff._propagate and verify
    assert eager == []
