"""Every name a module of the package imports is used in that module, and
every private module-level name is read in the module that defines it."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "betaspec"

# (module, name) imported only so that bench/spans.py can wrap the module
# attribute; ROADMAP item 6 removes them
UNUSED_BY_DESIGN = {("charpoly", "decimal_str"), ("spectra", "charpoly_closed_form")}


def _modules() -> list:
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    return modules


def _read(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}


def _unused_imports(path: Path) -> set:
    """The names ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    return imported - _read(tree)


def _unread_private_names(source: str) -> set:
    """The names starting with ``_`` (dunders aside) that ``source`` defines
    at module level, by def, class or assignment, and never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    return private - _read(tree)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {(p.stem, name) for p in _modules() for name in _unused_imports(p)}
    assert unused == UNUSED_BY_DESIGN


def test_no_module_defines_a_private_name_it_does_not_read():
    unread = {(p.stem, name) for p in _modules()
              for name in _unread_private_names(p.read_text())}
    assert unread == set()


def test_an_unread_private_helper_is_caught():
    source = "_LIMIT = 3\n\ndef _helper():\n    return _LIMIT\n\ndef public():\n    pass\n"
    assert _unread_private_names(source) == {"_helper"}
