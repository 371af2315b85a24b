"""Every name a module of the package imports is used in that module."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "betaspec"

# (module, name) imported only so that bench/spans.py can wrap the module
# attribute; ROADMAP item 6 removes them
UNUSED_BY_DESIGN = {("charpoly", "decimal_str"), ("spectra", "charpoly_closed_form")}


def _unused_imports(path: Path) -> set:
    """The names ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {(p.stem, name) for p in modules for name in _unused_imports(p)}
    assert unused == UNUSED_BY_DESIGN
