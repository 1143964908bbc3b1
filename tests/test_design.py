"""Design guard: every dataclass field in src/ is read somewhere.

A field that no code reads as an attribute, in the package, its tests, its
scripts or its benchmark, is public surface that neither production code
nor an independent oracle uses.  The scan is by name: a field counts as read
if `.name` is loaded anywhere in those trees.
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
