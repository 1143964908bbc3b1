"""Design guards on the package source.

Every dataclass field in src/ is read somewhere: a field that no code reads
as an attribute, in the package, its tests, its scripts or its benchmark, is
public surface that neither production code nor an independent oracle uses.
The scan is by name: a field counts as read if `.name` is loaded anywhere in
those trees, but outside src/ not as `self.name`, which reads an attribute of
the test or benchmark class itself.

Every public module-level function and class in src/ is referenced in src/
outside its own definition, so no public surface serves only tests, scripts
or the benchmark.  The named exceptions are oracles and checkers that only
those call.

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
    """Every attribute name loaded anywhere in the reader trees, except
    reads of `self.<name>` outside src/: those are the reader's own
    attributes, never a field of the package's dataclasses."""
    return {node.attr for top in READERS for _, tree in _trees(top)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (top == "src" or not (isinstance(node.value, ast.Name)
                                      and node.value.id == "self"))}


def test_every_dataclass_field_is_read():
    fields = dataclass_fields()
    assert len(fields) > 50  # the scan sees the package's dataclasses
    read = attribute_reads()
    unread = [f"{path}: {cls}.{name}" for path, cls, name in fields
              if name not in read]
    assert unread == []


# public names that only the tests or the benchmark call: the scalar Green
# wrapper and the manifest checker, the Fano weak-coupling forms that no
# task reaches yet, and the one-metal rate spectrum and the radiated
# spectrum, which the tasks reach through the forms that share their work
# (coupling._rate_spectra for both metals, heff._emission_spectra with the
# polarization spectrum)
UNREFERENCED_PUBLIC = {"green_rr_scattered", "validate_manifest",
                       "with_fano_split", "fano_adiabatic",
                       "rate_spectrum_lsp", "radiated_spectrum"}


def test_every_public_definition_is_referenced_in_src():
    public, loads = {}, []
    for path, tree in _trees("src"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                public[node.name] = path.relative_to(ROOT).as_posix()
        own = {id(inner): node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               for inner in ast.walk(node)}
        loads += [(own.get(id(node)), node.id if isinstance(node, ast.Name)
                   else node.attr) for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)]
    assert len(public) > 100  # the scan sees the package's public names
    referenced = {name for owner, name in loads
                  if owner is None or owner.name != name}
    unreferenced = [f"{path}: {name}" for name, path in public.items()
                    if name not in referenced | UNREFERENCED_PUBLIC]
    assert unreferenced == []
    # an exception that gains a caller in src/ leaves the list
    assert UNREFERENCED_PUBLIC <= public.keys() - referenced


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
